"""Front-tracking curve shortening flow in the unit disc.

Each interior node moves by its discrete curvature vector; the left
endpoint is re-pinned to o = (-d, 0) after every step and the right
endpoint is placed by the discrete Neumann constraint {on the unit circle}
and {last segment radial}, whose one-dimensional root has the closed form
phi = atan2(y, x) of the penultimate node.  Nodes are redistributed to
uniform arclength after every step, which supplies the tangential degree
of freedom and keeps the explicit scheme stable at dt <= dt_safety * h^2.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .barriers import ProblemConfig, characteristic_rhs, theta_minus, theta_plus
from .errors import (
    ComparisonViolation,
    DomainError,
    InsufficientWindow,
    InvalidCurve,
    ParameterError,
    StepRejected,
)
from .geometry import (
    Curve,
    CurveDiagnostics,
    _area,
    _as_complex,
    _has_proper_intersection,
    _resample_nodes,
    _turns_by_pi,
    curvature_profile,
    curve_diagnostics,
    curve_from_csv,
    curve_to_csv,
)

def tol_inv(kappa_max: float) -> float:
    """Scale-aware tolerance for sign-invariant checks; discretization
    error grows with curvature near extinction."""
    return 1e-3 * (1.0 + kappa_max)


#: per-step tolerance of the discrete Neumann constraint (radians)
TOL_BC = 1e-8

#: containment slack during stepping; looser than EPS_GEOM so transient
#: O(h^2) overshoots next to the boundary node do not reject valid steps
STEP_CONTAIN_TOL = 1e-7

#: invariant checks apply only after this many steps
TRANSIENT_STEPS = 10

MAX_DT_RETRIES = 20


@dataclass(frozen=True)
class FlowState:
    curve: Curve
    time: float
    diagnostics: CurveDiagnostics
    step: int = 0
    area_shed: float = 0.0  # cumulative area removed by resampling


@dataclass(frozen=True)
class FlowOutcome:
    # converged_to_minimizer | extinct | max_time | max_steps | invariant_violation
    kind: str
    time: float | None = None
    detail: str = ""


@dataclass
class FlowRunConfig:
    d: float
    initial: Curve
    n: int = 128
    dt_safety: float = 0.25
    t_end: float | None = None
    stop: str = "auto"  # auto | converged | extinct | max_time
    converged_eps: float = 1e-3
    extinct_eps_len: float = 1e-2
    extinct_kappa: float = 1e3
    record_every: int = 100
    max_steps: int = 50_000_000

    def __post_init__(self):
        if not (0.0 < self.dt_safety <= 0.5):
            raise DomainError(f"dt_safety must lie in (0, 0.5], got {self.dt_safety}")
        if self.n < 8:
            raise DomainError(f"need n >= 8, got {self.n}")
        if self.converged_eps <= 0.0 or self.extinct_eps_len <= 0.0:
            raise DomainError("stop tolerances must be positive")
        if self.record_every < 1:
            raise DomainError("record_every must be >= 1")
        if self.stop not in ("auto", "converged", "extinct", "max_time"):
            raise DomainError(f"unknown stop rule {self.stop!r}")
        if self.stop == "max_time" and self.t_end is None:
            raise DomainError("stop='max_time' requires t_end")


@dataclass
class Trajectory:
    d: float
    n: int
    states: list[FlowState]
    events: list[tuple[float, str]]
    outcome: FlowOutcome
    rho: float | None = None
    lambda_ref: float | None = None
    record_every: int = 1
    dt_safety: float = 0.25

    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    def table(self) -> dict[str, np.ndarray]:
        cols = {k: [] for k in ("t", "theta_min", "theta_max", "kappa_max",
                                "area", "height_max", "length", "step",
                                "area_shed")}
        for s in self.states:
            cols["t"].append(s.time)
            cols["step"].append(s.step)
            cols["area_shed"].append(s.area_shed)
            for k, v in zip(("theta_min", "theta_max", "kappa_max", "area",
                             "height_max", "length"), s.diagnostics.as_row()):
                cols[k].append(v)
        return {k: np.array(v) for k, v in cols.items()}


def unstable_arc(d: float, n: int) -> Curve:
    """The long critical arc from o to (1, 0): a stationary state."""
    x = np.linspace(-d, 1.0, n + 1)
    return Curve(nodes=np.column_stack([x, np.zeros(n + 1)]),
                 dirichlet_point=np.array([-d, 0.0]))


def minimizing_arc(d: float, n: int) -> Curve:
    """The short critical arc from o to (-1, 0); requires d < 1."""
    if d >= 1.0:
        raise DomainError("minimizing arc degenerates for d = 1")
    x = np.linspace(-d, -1.0, n + 1)
    return Curve(nodes=np.column_stack([x, np.zeros(n + 1)]),
                 dirichlet_point=np.array([-d, 0.0]))


def _poly_area(nodes: np.ndarray) -> float:
    return _area(_as_complex(nodes))


def _project_end(z: np.ndarray) -> None:
    # exact root of the discrete Neumann constraint: last segment radial
    p = z[-2]
    phi = math.atan2(p.imag, p.real)
    z[-1] = complex(math.cos(phi), math.sin(phi))


#: read-only node indices 0..n as floats, per n: the uniform-arclength
#: targets are ``indices * (length / n)``, bit-identical to
#: ``np.linspace(0, length, n + 1)`` on every interior node
_NODE_INDICES: dict[int, np.ndarray] = {}


def _advance(nodes: np.ndarray, d: float, dt: float,
             n: int) -> tuple[np.ndarray, float]:
    """One explicit step; returns the new nodes and the area shed by the
    resampling pass (corner cutting of the linear interpolant), which the
    area-balance diagnostics add back.

    The composition is curvature_vectors, re-pinning o and projecting the
    right end, _resample_nodes, projecting again; it runs on the complex
    view of the nodes to keep the number of numpy calls per step small.
    """
    z = _as_complex(nodes)
    e = z[1:] - z[:-1]
    seg = np.abs(e)
    c = z[2:] - z[:-2]
    lc = np.abs(c)
    denom = seg[:-1] * seg[1:]
    denom *= lc
    denom *= lc
    cross = (e[:-1].conj() * e[1:]).imag
    if denom.min() > 0.0:
        half_scale = cross / denom
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            half_scale = np.where(denom > 0.0, cross / denom, 0.0)
    # dt * kappa N at interior nodes: the chord c scaled by
    # 2 cross / denom and turned by +90 degrees (the factor 2 is exact)
    c *= half_scale
    c *= complex(0.0, 2.0 * dt)
    u = np.empty_like(z)
    np.add(z[1:-1], c, out=u[1:-1])
    u[0] = -d
    _project_end(u)
    area_pre = _area(u)

    s = np.empty(u.shape[0])
    s[0] = 0.0
    np.add.accumulate(np.abs(u[1:] - u[:-1]), out=s[1:])
    idx = _NODE_INDICES.get(n)
    if idx is None:
        idx = np.arange(n + 1, dtype=np.float64)
        idx.flags.writeable = False
        _NODE_INDICES[n] = idx
    w = np.interp(idx * (s[-1] / n), s, u)
    w[0] = u[0]
    # resampling moved the penultimate node; re-solve the Neumann
    # constraint so the committed state satisfies it exactly
    _project_end(w)
    return w.view(np.float64).reshape(n + 1, 2), area_pre - _area(w)


def _step_valid(nodes: np.ndarray) -> str | None:
    """Reason the nodes are not an admissible state, or None."""
    z = _as_complex(nodes)
    e = z[1:] - z[:-1]
    if not (np.abs(e).min() > 1e-15):
        return "coincident or non-finite nodes"
    if float(z.imag.min()) < -1e-9:
        return "node below the x-axis"
    r_max = float(np.abs(z).max())
    if r_max * r_max > 1.0 + 2.0 * STEP_CONTAIN_TOL:
        return "node outside the unit disc"
    # a tangent angle range below pi makes the polyline a graph over some
    # direction, hence embedded; only a wider range needs the O(N^2) test
    if _turns_by_pi(e) and _has_proper_intersection(nodes):
        return "self-intersection"
    return None


def _length(nodes: np.ndarray) -> float:
    z = _as_complex(nodes)
    return float(np.abs(z[1:] - z[:-1]).sum())


def _advance_checked(nodes: np.ndarray, d: float, dt: float,
                     n: int) -> tuple[np.ndarray, str | None, float]:
    """One candidate step plus validity check; returns
    (nodes, reason, area shed by resampling)."""
    out, shed = _advance(nodes, d, dt, n)
    return out, _step_valid(out), shed


def _make_state(nodes: np.ndarray, d: float, time: float, step_i: int,
                area_shed: float = 0.0) -> FlowState:
    curve = Curve(nodes=nodes.copy(), dirichlet_point=np.array([-d, 0.0]))
    return FlowState(curve=curve, time=time,
                     diagnostics=curve_diagnostics(curve, d), step=step_i,
                     area_shed=area_shed)


def prepare_initial(cfg: FlowRunConfig) -> np.ndarray:
    """Resample the initial curve to the node budget and enforce the
    boundary constraints exactly."""
    nodes = _resample_nodes(cfg.initial.nodes, cfg.n)
    if np.hypot(*(nodes[0] - np.array([-cfg.d, 0.0]))) > 1e-6:
        raise InvalidCurve("initial curve does not start at the Dirichlet point")
    r_end = float(np.hypot(*nodes[-1]))
    if abs(r_end - 1.0) > 1e-6:
        raise InvalidCurve("initial right endpoint not on the unit circle")
    nodes[0] = (-cfg.d, 0.0)
    nodes[-1] = nodes[-1] / r_end
    reason = _step_valid(nodes)
    if reason:
        raise InvalidCurve(f"invalid initial curve: {reason}")
    return nodes


def step(state: FlowState, dt: float, d: float | None = None) -> FlowState:
    """One explicit step; raises StepRejected if the update is invalid.

    dt should respect the parabolic bound dt <= dt_safety * h_min^2.
    """
    if d is None:
        d = -float(state.curve.dirichlet_point[0])
    n = state.curve.n_segments
    candidate, reason, shed = _advance_checked(state.curve.nodes, d, dt, n)
    if reason:
        raise StepRejected(f"step of dt={dt:.3e} rejected: {reason}")
    return _make_state(candidate, d, state.time + dt, state.step + 1,
                       area_shed=state.area_shed + shed)


def run(cfg: FlowRunConfig,
        callback: Callable[[FlowState], None] | None = None) -> Trajectory:
    """Iterate the flow with adaptive dt until a stop rule fires.

    Records one state every `record_every` steps (plus the final state),
    halves dt up to 20 times on rejected steps, and reports the outcome:
    convergence to the minimizing arc (d < 1), extinction at o (d = 1),
    the time horizon, the step budget, or an invariant violation.
    """
    d = cfg.d
    nodes = prepare_initial(cfg)
    t = 0.0
    step_i = 0
    states: list[FlowState] = [_make_state(nodes, d, t, step_i)]
    events: list[tuple[float, str]] = []
    shed_accum = 0.0
    last_theta_max = states[0].diagnostics.theta_max
    last_record_t = 0.0
    outcome: FlowOutcome | None = None

    check_converged = cfg.stop in ("auto", "converged") and d < 1.0
    check_extinct = cfg.stop in ("auto", "extinct")

    while outcome is None:
        if cfg.t_end is not None and t >= cfg.t_end:
            outcome = FlowOutcome(kind="max_time", time=t)
            break
        if step_i >= cfg.max_steps:
            outcome = FlowOutcome(kind="max_steps", time=t)
            break

        length = _length(nodes)
        dt = cfg.dt_safety * (length / cfg.n) ** 2
        committed = False
        for _ in range(MAX_DT_RETRIES + 1):
            candidate, reason, shed = _advance_checked(nodes, d, dt, cfg.n)
            if reason is None:
                committed = True
                break
            events.append((t, f"step_rejected: {reason}"))
            dt *= 0.5
        if not committed:
            outcome = FlowOutcome(kind="invariant_violation", time=t,
                                  detail=f"step rejected {MAX_DT_RETRIES + 1} times")
            break
        nodes = candidate
        t += dt
        step_i += 1
        shed_accum += shed

        if step_i % cfg.record_every != 0:
            continue

        state = _make_state(nodes, d, t, step_i, area_shed=shed_accum)
        states.append(state)
        if callback is not None:
            callback(state)
        diag = state.diagnostics

        if last_theta_max < 0.5 * math.pi <= diag.theta_max:
            frac = (0.5 * math.pi - last_theta_max) / (diag.theta_max - last_theta_max)
            t_cross = last_record_t + frac * (t - last_record_t)
            events.append((t_cross, "theta_bar_half_pi"))
        last_theta_max = diag.theta_max
        last_record_t = t

        if check_extinct and diag.length < cfg.extinct_eps_len \
                and diag.kappa_max > cfg.extinct_kappa:
            omega = t + 0.5 * diag.length / diag.kappa_max
            events.append((t, "extinct"))
            outcome = FlowOutcome(kind="extinct", time=omega)
            break
        if check_converged and diag.height_max < 3.0 * cfg.converged_eps \
                and diag.kappa_max < cfg.converged_eps:
            if hausdorff_to_minimizing_arc(nodes, d) < cfg.converged_eps:
                events.append((t, "converged"))
                outcome = FlowOutcome(kind="converged_to_minimizer", time=t)
                break

    if states[-1].step != step_i:
        states.append(_make_state(nodes, d, t, step_i, area_shed=shed_accum))
    if outcome.kind == "max_time":
        events.append((t, "max_time"))
    return Trajectory(d=d, n=cfg.n, states=states, events=events, outcome=outcome,
                      record_every=cfg.record_every, dt_safety=cfg.dt_safety)


def hausdorff_to_minimizing_arc(nodes: np.ndarray, d: float,
                                samples: int = 512) -> float:
    """Symmetric Hausdorff distance between the polyline and the segment
    from (-1, 0) to (-d, 0)."""
    x, y = nodes[:, 0], nodes[:, 1]
    xc = np.clip(x, -1.0, -d)
    d1 = float(np.hypot(x - xc, y).max())

    qx = np.linspace(-1.0, -d, samples)
    p = nodes[:-1]
    v = np.diff(nodes, axis=0)
    vv = (v ** 2).sum(axis=1)
    dx = qx[:, None] - p[None, :, 0]
    dy = -p[None, :, 1]
    tt = np.clip((dx * v[None, :, 0] + dy * v[None, :, 1]) / vv[None, :], 0.0, 1.0)
    dist2 = (dx - tt * v[None, :, 0]) ** 2 + (dy - tt * v[None, :, 1]) ** 2
    d2 = float(np.sqrt(dist2.min(axis=1)).max())
    return max(d1, d2)


# ---------------------------------------------------------------------------
# comparison-principle checks


@dataclass(frozen=True)
class OdeCheckReport:
    skipped: bool
    t_star: float | None
    min_growth_margin: float
    max_barrier_excess: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.skipped or (self.min_growth_margin >= -self.tol
                                and self.max_barrier_excess <= self.tol)


def half_pi_crossing(traj: Trajectory) -> float | None:
    """Interpolated time at which theta_bar first crosses pi/2."""
    tab = traj.table()
    th, ts = tab["theta_max"], tab["t"]
    above = np.nonzero(th >= 0.5 * math.pi)[0]
    if above.size == 0 or above[0] == 0:
        return None if above.size == 0 else float(ts[above[0]])
    i = above[0]
    frac = (0.5 * math.pi - th[i - 1]) / (th[i] - th[i - 1])
    return float(ts[i - 1] + frac * (ts[i] - ts[i - 1]))


def theta_bar_ode_check(traj: Trajectory, tol_ode: float = 5e-3,
                        raise_on_fail: bool = True) -> OdeCheckReport:
    """Check the two comparison facts for theta_bar along a trajectory:

    (i) the discrete growth rate dominates the characteristic law,
        d(theta_bar)/dt >= sin(theta_bar)/(a + cos(theta_bar)) - tol, and
    (ii) after shifting time so theta_bar = pi/2 at t = 0, theta_bar stays
        below the subsolution angle theta_minus up to tol for t <= 0.

    Flat trajectories (stationary arcs) are vacuous and reported as skipped.
    """
    cfg = ProblemConfig(traj.d)
    tab = traj.table()
    keep = tab["step"] >= TRANSIENT_STEPS
    ts, th = tab["t"][keep], tab["theta_max"][keep]
    if ts.size < 3 or float(np.max(np.abs(th))) < 1e-8:
        return OdeCheckReport(skipped=True, t_star=None, min_growth_margin=0.0,
                              max_barrier_excess=0.0, tol=tol_ode)

    dth = (th[2:] - th[:-2]) / (ts[2:] - ts[:-2])
    rhs = characteristic_rhs(cfg, th[1:-1])
    min_growth = float((dth - rhs).min())

    t_star = half_pi_crossing(traj)
    max_excess = -math.inf
    if t_star is not None:
        tau = ts - t_star
        mask = tau <= 0.0
        if np.any(mask):
            excess = th[mask] - theta_minus(cfg, tau[mask])
            max_excess = float(excess.max())
    if max_excess == -math.inf:
        max_excess = 0.0

    report = OdeCheckReport(skipped=False, t_star=t_star,
                            min_growth_margin=min_growth,
                            max_barrier_excess=max_excess, tol=tol_ode)
    if raise_on_fail and not report.passed:
        raise ComparisonViolation(
            f"theta_bar comparison failed: growth margin {min_growth:.3e}, "
            f"barrier excess {max_excess:.3e}",
            margin=min(min_growth, -max_excess))
    return report


@dataclass(frozen=True)
class SpeedBoundReport:
    min_margin: float
    kappa_over_y: list[tuple[float, float]]
    tol: float

    @property
    def passed(self) -> bool:
        return self.min_margin >= -self.tol


def speed_bound_check(traj: Trajectory, lambda_ref: float, tol: float = 1e-3,
                      cos_floor: float = 0.1,
                      raise_on_fail: bool = True) -> SpeedBoundReport:
    """Check the sharp speed lower bound kappa/cos(theta) >=
    lam * tan(lam * y) wherever cos(theta) > cos_floor, and report
    max kappa/y per recorded state (its excess over the squared eigenvalue
    should shrink toward early times)."""
    min_margin = math.inf
    ratios: list[tuple[float, float]] = []
    for s in traj.states:
        if s.step < TRANSIENT_STEPS and s.step != 0:
            continue
        prof = curvature_profile(s.curve)
        y = s.curve.nodes[:, 1]
        cos_t = np.cos(prof.theta)
        mask = cos_t > cos_floor
        if np.any(mask):
            margin = prof.kappa[mask] / cos_t[mask] \
                - lambda_ref * np.tan(lambda_ref * y[mask])
            min_margin = min(min_margin, float(margin.min()))
        ymask = y > 1e-9
        if np.any(ymask):
            ratios.append((s.time, float((prof.kappa[ymask] / y[ymask]).max())))
    report = SpeedBoundReport(min_margin=min_margin, kappa_over_y=ratios, tol=tol)
    if raise_on_fail and not report.passed:
        raise ComparisonViolation(
            f"speed lower bound violated: margin {min_margin:.3e}",
            margin=min_margin)
    return report


@dataclass(frozen=True)
class MaxPrincipleReport:
    """Worst normalized margins of the pointwise maximum-principle
    invariants over the recorded states (>= 0 means the invariant holds
    within its scale-aware tolerance)."""

    kappa_margin: float
    kappa_s_margin: float
    curvature_bound_margin: float
    gradient_bound_margin: float

    @property
    def passed(self) -> bool:
        return min(self.kappa_margin, self.kappa_s_margin,
                   self.curvature_bound_margin, self.gradient_bound_margin) >= 0.0


def gradient_lower_bound(cfg: ProblemConfig, theta_bar):
    """Lower bound for theta_min: arccot((1 + a cos)/(b sin)) of theta_bar,
    zero when d = 1."""
    th = np.asarray(theta_bar, dtype=float)
    if cfg.b == 0.0:
        return np.zeros_like(th)
    st = np.sin(th)
    out = np.where(st > 0.0,
                   0.5 * math.pi - np.arctan((1.0 + cfg.a * np.cos(th))
                                             / (cfg.b * np.where(st > 0.0, st, 1.0))),
                   0.0)
    return out


def maximum_principle_check(traj: Trajectory) -> MaxPrincipleReport:
    """Evaluate min kappa, min kappa_s, the curvature lower bound, and the
    gradient lower bound on every post-transient recorded state."""
    cfg = ProblemConfig(traj.d)
    k_m = ks_m = cb_m = gb_m = math.inf
    for s in traj.states:
        if s.step < TRANSIENT_STEPS:
            continue
        prof = curvature_profile(s.curve)
        kmax = float(prof.kappa.max())
        tol = tol_inv(kmax)
        k_m = min(k_m, float(prof.kappa.min()) + tol)
        ks = np.diff(prof.kappa) / np.diff(prof.s)
        ks_m = min(ks_m, float(ks.min()) + tol)
        th_bar = s.diagnostics.theta_max
        th_min = s.diagnostics.theta_min
        cb_m = min(cb_m, kmax - float(characteristic_rhs(cfg, th_bar)) + tol)
        gb_m = min(gb_m, th_min - float(gradient_lower_bound(cfg, th_bar)) + tol)
    if k_m == math.inf:
        raise InsufficientWindow("no post-transient states recorded")
    return MaxPrincipleReport(kappa_margin=k_m, kappa_s_margin=ks_m,
                              curvature_bound_margin=cb_m,
                              gradient_bound_margin=gb_m)


def nn_avoidance_check(traj: Trajectory, rho: float, tol: float = 1e-6) -> float:
    """Minimum signed distance of the recorded curves to the translated
    supersolution arcs that start just above the initial slice.

    The family angle is aligned so theta_plus matches
    sin(theta_rho) = 2 sin(rho)/(1 + sin^2(rho)) at the run start; the
    curves must stay below (outside) the arcs while the family exists.
    """
    sin_rho = math.sin(rho)
    sin_theta_rho = 2.0 * sin_rho / (1.0 + sin_rho ** 2)
    tau0 = 0.5 * math.log(sin_theta_rho)
    t0 = traj.states[0].time
    min_margin = math.inf
    for s in traj.states:
        tau = tau0 + (s.time - t0)
        if tau >= 0.0:
            break
        theta = float(theta_plus(tau))
        eta = 1.0 / math.sin(theta)
        r = 1.0 / math.tan(theta)
        x, y = s.curve.nodes[:, 0], s.curve.nodes[:, 1]
        dist = np.hypot(x, y - eta) - r
        min_margin = min(min_margin, float(dist.min()))
    if min_margin < -tol:
        raise ComparisonViolation(
            f"curve crossed the supersolution arc by {min_margin:.3e}",
            margin=min_margin)
    return min_margin


# ---------------------------------------------------------------------------
# trajectory export

DIAG_HEADER = "t,theta_min,theta_max,kappa_max,area,height_max,length"


def write_trajectory(traj: Trajectory, outdir: str | Path) -> Path:
    """Write one CSV per recorded state, a diagnostics CSV, and a manifest
    JSON; file contents are deterministic."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    state_files = []
    for i, s in enumerate(traj.states):
        name = f"state_{i:06d}.csv"
        (outdir / name).write_text(curve_to_csv(s.curve))
        state_files.append(name)
    lines = [DIAG_HEADER]
    for s in traj.states:
        row = [s.time] + s.diagnostics.as_row()
        lines.append(",".join(f"{v:.17g}" for v in row))
    (outdir / "diagnostics.csv").write_text("\n".join(lines) + "\n")
    manifest = {
        "d": traj.d,
        "n": traj.n,
        "rho": traj.rho,
        "lambda_ref": traj.lambda_ref,
        "record_every": traj.record_every,
        "dt_safety": traj.dt_safety,
        "times": [s.time for s in traj.states],
        "steps": [s.step for s in traj.states],
        "area_shed": [s.area_shed for s in traj.states],
        "diagnostics": [s.diagnostics.as_row() for s in traj.states],
        "events": [[t, name] for t, name in traj.events],
        "outcome": {"kind": traj.outcome.kind, "time": traj.outcome.time,
                    "detail": traj.outcome.detail},
        "state_files": state_files,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return outdir


#: manifest keys load_trajectory requires; rho and lambda_ref may be null
_MANIFEST_KEYS = ("d", "n", "rho", "lambda_ref", "record_every", "dt_safety",
                 "times", "steps", "area_shed", "diagnostics", "events",
                 "outcome", "state_files")
#: manifest lists with one entry per recorded state, in FlowState order
_PER_STATE_KEYS = ("state_files", "times", "steps", "diagnostics", "area_shed")


def _require(obj: dict, keys, where) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ParameterError(f"{where} lacks {', '.join(missing)}")


def load_trajectory(outdir: str | Path) -> Trajectory:
    """Read a directory written by write_trajectory.

    Raises ParameterError naming an unreadable file, a missing manifest
    key, or per-state lists whose lengths differ; nothing is defaulted.
    """
    outdir = Path(outdir)
    path = outdir / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    _require(manifest, _MANIFEST_KEYS, path)
    _require(manifest["outcome"], ("kind", "time", "detail"), f"{path} outcome")
    lengths = {k: len(manifest[k]) for k in _PER_STATE_KEYS}
    if len(set(lengths.values())) != 1:
        raise ParameterError(f"{path}: per-state lists differ in length {lengths}")
    d = float(manifest["d"])
    states = []
    for name, t, step_i, row, shed in zip(*(manifest[k] for k in _PER_STATE_KEYS)):
        state_path = outdir / name
        try:
            curve = curve_from_csv(state_path.read_text(), d)
        except (OSError, ValueError) as exc:
            raise ParameterError(f"cannot read {state_path}: {exc}") from exc
        states.append(FlowState(curve=curve, time=float(t),
                                diagnostics=CurveDiagnostics(*row), step=int(step_i),
                                area_shed=float(shed)))
    outcome = manifest["outcome"]
    return Trajectory(d=d, n=int(manifest["n"]), states=states,
                      events=[(float(t), str(name)) for t, name in manifest["events"]],
                      outcome=FlowOutcome(kind=outcome["kind"], time=outcome["time"],
                                          detail=outcome["detail"]),
                      rho=manifest["rho"], lambda_ref=manifest["lambda_ref"],
                      record_every=int(manifest["record_every"]),
                      dt_safety=float(manifest["dt_safety"]))
