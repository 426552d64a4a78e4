"""Curve shortening flow in the unit disc with mixed boundary conditions.

Construct exact circular-arc barriers and hairclip timeslices, evolve
convex arcs by curve shortening flow with a pinned left endpoint and a
right endpoint sliding orthogonally on the unit circle, and post-process
the trajectories (asymptotic rates, blow-up extraction, soliton
comparison).
"""

__version__ = "0.1.0"

from .geometry import (
    Curve,
    CurveDiagnostics,
    CurvatureProfile,
    curvature_profile,
    curvature_profiles,
    curve_diagnostics,
    enclosed_area,
)
from .barriers import (
    ArcBarrier,
    ArcKind,
    ProblemConfig,
    dn_arc,
    nn_arc,
    theta_minus,
    theta_plus,
    verify_barrier_inequality,
)
from .hairclip import (
    Eigenvalue,
    HairclipSlice,
    initial_curve,
    lambda0,
    pairing_function_g,
    slice_height,
    solve_orthogonal_pair,
)
from .flow import (
    FlowOutcome,
    FlowRunConfig,
    FlowState,
    Trajectory,
    minimizing_arc,
    run,
    speed_bound_check,
    theta_bar_ode_check,
    unstable_arc,
)
from .analysis import (
    AsymptoticFit,
    BlowupSequence,
    GrimReaperReport,
    area_balance,
    compare_grim_reaper,
    extract_blowup,
    fit_asymptotics,
)
