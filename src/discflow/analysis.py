"""Post-processing of flow trajectories.

Three questions are answered here: at what exponential rate does the height
profile emerge from the flat arc backward in time (and does its shape match
the sinh eigenfunction); how does the d = 1 flow blow up (type-II rescaling
about the max-curvature point); and does the final rescaled shape match the
translating soliton y = -log cos x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientWindow, NotExtinct
from .flow import TRANSIENT_STEPS, Trajectory, _profile_chunks
from .geometry import Curve, _quadratic_extrapolate, curvature_profile

#: a state belongs to the early-time fit window while theta_bar stays below
#: this angle (graph-representable over the x-axis with small gradient)
EARLY_THETA = 0.2

MIN_WINDOW_STATES = 10

#: fewest members of a blow-up sequence: the least count extract_blowup
#: takes, and the fewest doubling states it returns
MIN_BLOWUP_COUNT = 3


@dataclass(frozen=True)
class AsymptoticFit:
    """Fitted height amplitude and decay rate against the sinh profile."""

    A: float
    rate: float
    profile_error: float
    window: tuple[float, float]
    n_states: int


@dataclass(frozen=True)
class BlowupSequence:
    """Dyadic curvature ladder near extinction: times, scales, basepoints,
    and the rescaled curves (unit max curvature by construction)."""

    times: list[float]
    scales: list[float]
    basepoints: list[np.ndarray]
    rescaled_curves: list[np.ndarray]
    omega: float

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class GrimReaperReport:
    sup_deviation: float
    window_halfwidth: float
    type2_indicator: list[float]  # (omega - t) lam^2 per member: grows if type II
    deviations: list[float]
    tip_identity_error: float


def _window_states(traj: Trajectory):
    states = []
    for s in traj.states:
        if s.diagnostics.theta_max >= EARLY_THETA:
            break
        if s.step != 0 and s.step < TRANSIENT_STEPS:
            continue
        states.append(s)
    return states


def fit_asymptotics(traj: Trajectory, lambda0: float) -> AsymptoticFit:
    """Fit the early-time height evolution.

    rate is the least-squares slope of log(max height) over the window of
    recorded states with theta_bar < 0.2; A and profile_error come from
    projecting e^{-lambda0^2 t} y(x, t) onto sinh(lambda0 (x + traj.d)) in
    L^2 over the common x-range of the window states.  A window state of
    height <= 0 (a flat run has no log height) raises InsufficientWindow.
    """
    states = _window_states(traj)
    if len(states) < MIN_WINDOW_STATES:
        raise InsufficientWindow(
            f"only {len(states)} states with theta_bar < {EARLY_THETA}")
    ts = np.array([s.time for s in states])
    ybar = np.array([s.diagnostics.height_max for s in states])
    if not np.all(ybar > 0.0):
        raise InsufficientWindow("a window state has height <= 0: no rate to fit")
    rate = float(np.polyfit(ts, np.log(ybar), 1)[0])

    # least squares over all window states, each integrated on its own
    # nodes (restricted to the common x-range), so data that is exactly
    # proportional to the basis recovers its amplitude exactly
    x_hi = min(float(s.curve.nodes[-1, 0]) for s in states)
    num = den = 0.0
    pieces = []
    for s in states:
        nodes = s.curve.nodes
        if np.any(np.diff(nodes[:, 0]) <= 0.0):
            raise InsufficientWindow("window state is not a graph over x")
        sel = nodes[:, 0] <= x_hi
        x = nodes[sel, 0]
        yh = nodes[sel, 1] * math.exp(-lambda0 ** 2 * s.time)
        w = np.empty_like(x)
        w[1:-1] = 0.5 * (x[2:] - x[:-2])
        w[0] = 0.5 * (x[1] - x[0])
        w[-1] = 0.5 * (x[-1] - x[-2])
        basis = np.sinh(lambda0 * (x + traj.d))
        num += float(np.sum(w * yh * basis))
        den += float(np.sum(w * basis * basis))
        pieces.append((w, yh, basis))
    amp = num / den
    resid2 = sum(float(np.sum(w * (yh - amp * b) ** 2)) for w, yh, b in pieces)
    norm2 = amp ** 2 * den
    profile_error = math.sqrt(resid2 / norm2) if norm2 > 0.0 else math.inf

    return AsymptoticFit(A=amp, rate=rate, profile_error=profile_error,
                         window=(float(ts[0]), float(ts[-1])), n_states=len(states))


def extract_blowup(traj: Trajectory, count: int = 8) -> BlowupSequence:
    """Dyadic blow-up sequence from an extinct trajectory.

    Walking backward from the final recorded state, selects states whose
    max curvature successively halves, then rescales each selected curve by
    its max curvature about the max-curvature node.
    """
    if traj.outcome.kind != "extinct":
        raise NotExtinct(f"trajectory outcome is {traj.outcome.kind}")
    if count < MIN_BLOWUP_COUNT:
        raise DomainError(f"need count >= {MIN_BLOWUP_COUNT}")
    omega = float(traj.outcome.time)

    picked = []
    next_kappa = math.inf
    for s in reversed(traj.states):
        k = s.diagnostics.kappa_max
        if k <= 0.0:
            break
        if k <= next_kappa:
            picked.append(s)
            next_kappa = k / 2.0
    picked.reverse()
    if len(picked) > count:
        picked = picked[-count:]
    if len(picked) < MIN_BLOWUP_COUNT:
        raise InsufficientWindow(
            f"only {len(picked)} doubling states before extinction")

    times, scales, basepoints, curves = [], [], [], []
    for s in picked:
        prof = curvature_profile(s.curve)
        i_max = int(np.argmax(prof.kappa))
        lam = float(prof.kappa[i_max])
        p = s.curve.nodes[i_max].copy()
        times.append(s.time)
        scales.append(lam)
        basepoints.append(p)
        curves.append(lam * (s.curve.nodes - p))
    return BlowupSequence(times=times, scales=scales, basepoints=basepoints,
                          rescaled_curves=curves, omega=omega)


def _circumcenter(a, b, c):
    det = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if det == 0.0:
        return None
    a2, b2, c2 = a @ a, b @ b, c @ c
    ux = (a2 * (b[1] - c[1]) + b2 * (c[1] - a[1]) + c2 * (a[1] - b[1])) / det
    uy = (a2 * (c[0] - b[0]) + b2 * (a[0] - c[0]) + c2 * (b[0] - a[0])) / det
    return np.array([ux, uy])


def _tip_frame(nodes: np.ndarray) -> np.ndarray:
    """Translate/rotate/reflect rescaled nodes so the curvature-maximum tip
    sits at the origin with curvature vector +y and the curve extends
    toward +x.

    The tip (often the sliding boundary node itself) is located to
    sub-node accuracy: a parabola through the curvature profile around the
    maximum gives the vertex arclength, and the circumcircle of the nearest
    node triple supplies the interpolated tip point and its inward normal.
    """
    prof = curvature_profile(Curve(nodes=nodes))
    kap = np.abs(prof.kappa)
    j = int(np.argmax(kap))
    j = min(max(j, 1), nodes.shape[0] - 2)
    tri = nodes[j - 1:j + 2]
    s_loc = prof.s[j - 1:j + 2] - prof.s[j]
    k_loc = kap[j - 1:j + 2]
    denom = (k_loc[0] * (s_loc[1] - s_loc[2]) + k_loc[1] * (s_loc[2] - s_loc[0])
             + k_loc[2] * (s_loc[0] - s_loc[1]))
    if denom != 0.0:
        s_star = ((k_loc[0] * (s_loc[1] ** 2 - s_loc[2] ** 2)
                   + k_loc[1] * (s_loc[2] ** 2 - s_loc[0] ** 2)
                   + k_loc[2] * (s_loc[0] ** 2 - s_loc[1] ** 2)) / (2.0 * denom))
        s_star = min(max(s_star, s_loc[0]), s_loc[2])
    else:
        s_star = 0.0
    tip = _quadratic_extrapolate(s_loc, tri, s_star)
    center = _circumcenter(tri[0], tri[1], tri[2])
    if center is None:
        # a collinear triple: the chord normal, turned +90 degrees
        chord = tri[2] - tri[0]
        nu = np.array([-chord[1], chord[0]]) / np.hypot(*chord)
    else:
        nu = (center - tip) / np.hypot(*(center - tip))
    rot = math.pi / 2.0 - math.atan2(nu[1], nu[0])
    c, s = math.cos(rot), math.sin(rot)
    out = (nodes - tip) @ np.array([[c, -s], [s, c]]).T
    if np.sum(out[:, 0] > 0.0) < np.sum(out[:, 0] < 0.0):
        out = out * np.array([-1.0, 1.0])
    return out


def grim_reaper_height(x):
    """Canonical unit-speed soliton graph y = -log cos x."""
    return -np.log(np.cos(np.asarray(x, dtype=float)))


def _tip_window(frame: np.ndarray, halfwidth: float) -> tuple[int, int]:
    """Maximal contiguous node range around the tip with |x| <= halfwidth.

    The rescaled far tail can re-enter the window at large height; only the
    tip's own branch is comparable to the soliton graph.
    """
    i0 = int(np.argmin(np.hypot(frame[:, 0], frame[:, 1])))
    lo = i0
    while lo > 0 and abs(frame[lo - 1, 0]) <= halfwidth:
        lo -= 1
    hi = i0
    while hi < frame.shape[0] - 1 and abs(frame[hi + 1, 0]) <= halfwidth:
        hi += 1
    return lo, hi


def compare_grim_reaper(seq: BlowupSequence,
                        window_halfwidth: float = 1.0) -> GrimReaperReport:
    """Tip-align each rescaled curve with y = -log cos x and report the sup
    deviation over |x| <= window_halfwidth (restricted to the covered
    range), plus the soliton identity kappa/cos(theta) = 1 near the tip of
    the last member."""
    if len(seq) == 0:
        raise InsufficientWindow("blow-up sequence is empty")
    if not (0.0 < window_halfwidth < 0.5 * math.pi):
        raise DomainError("window_halfwidth must lie in (0, pi/2)")

    deviations = []
    last_frame = None
    for nodes in seq.rescaled_curves:
        frame = _tip_frame(nodes)
        last_frame = frame
        lo, hi = _tip_window(frame, window_halfwidth)
        pts = frame[lo:hi + 1]
        if pts.shape[0] < 2:
            deviations.append(math.inf)
            continue
        deviations.append(float(np.abs(pts[:, 1]
                                       - grim_reaper_height(pts[:, 0])).max()))

    # soliton identity kappa = cos(theta) on the inner half of the window
    # of the last member, with magnitudes so the orientation drops out
    prof = curvature_profile(Curve(nodes=last_frame))
    cos_t = np.abs(np.cos(prof.theta))
    lo, hi = _tip_window(last_frame, 0.5 * window_halfwidth)
    near = np.zeros(last_frame.shape[0], dtype=bool)
    near[lo:hi + 1] = True
    near &= cos_t > 0.2
    if np.any(near):
        tip_err = float(np.abs(np.abs(prof.kappa[near]) / cos_t[near] - 1.0).max())
    else:
        tip_err = math.inf
    return GrimReaperReport(sup_deviation=deviations[-1],
                            window_halfwidth=window_halfwidth,
                            type2_indicator=[(seq.omega - t) * lam ** 2
                                             for t, lam in zip(seq.times, seq.scales)],
                            deviations=deviations,
                            tip_identity_error=tip_err)


@dataclass(frozen=True)
class AreaBalanceReport:
    max_discrepancy: float


def area_balance(traj: Trajectory) -> AreaBalanceReport:
    """Compare the central-difference rate of enclosed-area change with
    -(theta_bar - theta_min) at interior recorded times.

    Two measurement choices make the discrete identity second order: the
    flow-induced area change adds back the area shed by per-step
    resampling (a representation artifact tracked by the stepper), and the
    turning spread is taken from the polyline's own tangent profile, whose
    endpoint chord bias is exactly the wedge geometry the discrete area
    sees.
    """
    tab = traj.table()
    ts = tab["t"]
    if ts.size < 3:
        raise InsufficientWindow("need at least 3 recorded states")
    spread = np.concatenate([prof.theta.max(axis=1) - prof.theta.min(axis=1)
                             for _, _, prof in _profile_chunks(traj.states)])
    flow_area = tab["area"] + tab["area_shed"]
    dadt = (flow_area[2:] - flow_area[:-2]) / (ts[2:] - ts[:-2])
    return AreaBalanceReport(max_discrepancy=float(np.abs(dadt + spread[1:-1]).max()))
