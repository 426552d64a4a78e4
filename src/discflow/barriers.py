"""Exact circular-arc barrier families and their evolution laws.

Two one-parameter families of circular arcs in the unit disc:

* Dirichlet-Neumann arcs through the pinned point o = (-d, 0), meeting the
  unit circle orthogonally at (cos(theta), sin(theta)); driven by the
  characteristic angle law d(theta)/dt = sin(theta)/(a + cos(theta)) they
  form a subsolution family for curve shortening flow.
* Neumann-Neumann arcs symmetric about the y-axis, meeting the circle
  orthogonally at (+-cos(theta), sin(theta)); with theta(t) = arcsin(e^{2t})
  they form a supersolution family.

Both facts are verified numerically by `verify_barrier_inequality`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .hairclip import bisect

#: slack tolerance for analytically exact inequalities (round-off only)
SLACK_TOL = -1e-10

#: arc points at which each barrier slice is checked
SAMPLES = 256


@dataclass(frozen=True)
class ProblemConfig:
    """Dirichlet offset d in (0, 1], with 1/d finite, and its derived
    coefficients a = (1/d + d)/2, b = (1/d - d)/2; a^2 - b^2 = 1 holds
    exactly."""

    d: float

    def __post_init__(self):
        if not (0.0 < self.d <= 1.0):
            raise DomainError(f"d must lie in (0, 1], got {self.d}")
        # Python float division: inf, with no numpy overflow warning
        if not math.isfinite(1.0 / float(self.d)):
            raise DomainError(f"d = {self.d} is too small: 1/d overflows")

    @property
    def a(self) -> float:
        return 0.5 * (1.0 / self.d + self.d)

    @property
    def b(self) -> float:
        return 0.5 * (1.0 / self.d - self.d)

    @property
    def omega(self) -> float:
        """Maximal time of the subsolution family: log 2 for d = 1, else inf."""
        return math.log(2.0) if self.b == 0.0 else math.inf


class ArcKind(str, Enum):  # a str, so json writes a report's kind as "dn" or "nn"
    DIRICHLET_NEUMANN = "dn"
    NEUMANN_NEUMANN = "nn"


@dataclass(frozen=True)
class ArcBarrier:
    kind: ArcKind
    theta: float
    center: np.ndarray
    radius: float
    sweep: float  # the angle the arc subtends at its center

    def points(self, samples: int) -> np.ndarray:
        """Arc nodes sampled uniformly in the arc's own angle parameter,
        endpoints included."""
        if self.kind is ArcKind.NEUMANN_NEUMANN:
            cx, cy = self.center
            psi = np.linspace(-self.theta, self.theta, samples)
            # lower arc of the circle: (r sin(psi), eta - r cos(psi))
            return np.column_stack([self.radius * np.sin(psi),
                                    cy - self.radius * np.cos(psi)])
        # DN: from o to the circle endpoint P = e^{i theta}, turning back
        # from P by u in [0, sweep]: z = P + (P - c)(e^{-iu} - 1) with
        # (P - c)/r = -iP, and e^{-iu} - 1 = -2i sin(u/2) e^{-iu/2}, so
        # z = P (1 - 2r sin(u/2) e^{-iu/2}); nothing cancels for large r
        end = complex(math.cos(self.theta), math.sin(self.theta))
        half = np.linspace(0.5 * self.sweep, 0.0, samples)
        z = end * (1.0 - 2.0 * self.radius * np.sin(half) * np.exp(-1j * half))
        return np.column_stack([z.real, z.imag])


def dn_arc(cfg: ProblemConfig, theta: float) -> ArcBarrier:
    """Dirichlet-Neumann arc through o meeting the circle orthogonally at
    P = (cos(theta), sin(theta)); radius (a + cos(theta))/sin(theta).  The
    chord |P - o| is 2r sin(sweep/2) and |1 + d e^{i theta}|, so the sweep
    is 2 arg(1 + d e^{i theta}), which no large radius makes inexact."""
    if not (0.0 < theta < math.pi):
        raise DomainError(f"theta must lie in (0, pi), got {theta}")
    st, ct = math.sin(theta), math.cos(theta)
    r = (cfg.a + ct) / st
    if not math.isfinite(r):
        raise DomainError(f"DN arc radius at d = {cfg.d} is not finite")
    center = np.array([ct - r * st, st + r * ct])
    sweep = 2.0 * math.atan2(cfg.d * st, 1.0 + cfg.d * ct)
    return ArcBarrier(kind=ArcKind.DIRICHLET_NEUMANN, theta=theta,
                      center=center, radius=r, sweep=sweep)


def nn_arc(theta: float) -> ArcBarrier:
    """Neumann-Neumann arc: center (0, csc(theta)), radius cot(theta)."""
    if not (0.0 < theta < 0.5 * math.pi):
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")
    return ArcBarrier(kind=ArcKind.NEUMANN_NEUMANN, theta=theta,
                      center=np.array([0.0, 1.0 / math.sin(theta)]),
                      radius=1.0 / math.tan(theta), sweep=2.0 * theta)


def theta_plus(t):
    """Supersolution angle law theta(t) = arcsin(e^{2t}), t <= 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr > 0.0):
        raise DomainError("theta_plus requires t <= 0")
    out = np.arcsin(np.exp(2.0 * t_arr))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _log_profile(theta, a):
    # log of 2 sin^{1+a}(theta/2) cos^{1-a}(theta/2), monotone in theta
    half = 0.5 * theta
    return (math.log(2.0) + (1.0 + a) * np.log(np.sin(half))
            + (1.0 - a) * np.log(np.cos(half)))


def theta_minus(cfg: ProblemConfig, t):
    """Invert e^t = 2 sin^{1+a}(theta/2) cos^{1-a}(theta/2) on (0, pi).

    Bisection in log space to |dtheta| well below 1e-12; theta(0) = pi/2.
    For d = 1 the time domain is t < log 2, otherwise all of R (supported
    down to t around -70 by the fixed bracket floor).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr >= cfg.omega):
        raise DomainError(f"theta_minus requires t < {cfg.omega}")
    # not (profile > t), so that a NaN t moves lo up
    out = bisect(lambda mid: ~(_log_profile(mid, cfg.a) > t_arr),
                 np.full(t_arr.shape, 1e-15), np.full(t_arr.shape, math.pi - 1e-15))
    return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out


def characteristic_rhs(cfg: ProblemConfig, theta):
    """Right-hand side of the characteristic angle law."""
    return np.sin(theta) / (cfg.a + np.cos(theta))


def characteristic_time(cfg: ProblemConfig, theta: float) -> float:
    """Time at which the subsolution angle reaches theta (inverse of
    theta_minus): t = log(2 sin^{1+a}(theta/2) cos^{1-a}(theta/2))."""
    if not (0.0 < theta < math.pi):
        raise DomainError(f"theta must lie in (0, pi), got {theta}")
    return float(_log_profile(theta, cfg.a))


def integrate_characteristic_ode(cfg: ProblemConfig, t_min: float, t_max: float,
                                 step: float = 1e-3):
    """RK4 integration of the characteristic angle law from theta(0) = pi/2.

    Returns (t_grid, theta_grid) covering [t_min, t_max] with 0 in range.
    Exists only as a cross-check of the closed-form inversion.
    """
    if t_min > 0.0 or t_max < 0.0:
        raise DomainError("integration range must contain t = 0")
    if t_max >= cfg.omega:
        raise DomainError("t_max beyond the family's maximal time")

    a, sin, cos = cfg.a, math.sin, math.cos

    def march(t_stop, h):
        ts = [0.0]
        ys = [0.5 * math.pi]
        t_cur, y = 0.0, 0.5 * math.pi
        n = int(round(abs(t_stop) / abs(h)))
        for _ in range(n):
            k1 = sin(y) / (a + cos(y))
            k2 = sin(u := y + 0.5 * h * k1) / (a + cos(u))
            k3 = sin(u := y + 0.5 * h * k2) / (a + cos(u))
            k4 = sin(u := y + h * k3) / (a + cos(u))
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_cur += h
            ts.append(t_cur)
            ys.append(y)
        return ts, ys

    ts_b, ys_b = march(t_min, -step) if t_min < 0.0 else ([0.0], [0.5 * math.pi])
    ts_f, ys_f = march(t_max, step) if t_max > 0.0 else ([0.0], [0.5 * math.pi])
    t_grid = np.array(ts_b[::-1] + ts_f[1:])
    theta_grid = np.array(ys_b[::-1] + ys_f[1:])
    return t_grid, theta_grid


def time_window(cfg: ProblemConfig, kind: ArcKind) -> np.ndarray:
    """20 slice times in [-8, 3], cut where the arc radius diverges and
    the slack is pure round-off: NN theta_plus >= 1e-3 and t <= -0.05,
    DN theta_minus <= pi - 1e-3 and t <= omega - 0.05."""
    if kind is ArcKind.NEUMANN_NEUMANN:
        return np.linspace(0.5 * math.log(math.sin(1e-3)), -0.05, 20)
    t_hi = min(cfg.omega - 0.05, 3.0, characteristic_time(cfg, math.pi - 1e-3))
    return np.linspace(-8.0, t_hi, 20)


@dataclass(frozen=True)
class BarrierReport:
    kind: ArcKind
    d: float
    t: float
    min_slack: float
    argmin_point: tuple[float, float]


def dn_slack(cfg: ProblemConfig, theta: float, y) -> np.ndarray:
    """Subsolution slack kappa - normal speed = (sin(theta) - y)/(a + cos(theta))
    at height y on the DN arc."""
    return (math.sin(theta) - np.asarray(y)) / (cfg.a + math.cos(theta))


def nn_slack(theta: float, y) -> np.ndarray:
    """Supersolution slack (speed toward the center) - kappa at height y on
    the NN arc, with the angle law theta(t) = arcsin(e^{2t})."""
    eta = 1.0 / math.sin(theta)
    r = 1.0 / math.tan(theta)
    eta_th = -eta * r  # d(csc)/d(theta) = -csc*cot
    r_th = -eta * eta  # d(cot)/d(theta) = -csc^2
    theta_t = 2.0 * math.tan(theta)
    u = (np.asarray(y) - eta) / r
    speed_to_center = -(u * eta_th + r_th) * theta_t
    return speed_to_center - 1.0 / r


def family_angles(cfg: ProblemConfig, kind: ArcKind, ts):
    """Angles of the family's slices at times ts: theta_minus for DN,
    theta_plus for NN."""
    if kind is ArcKind.DIRICHLET_NEUMANN:
        return theta_minus(cfg, ts)
    return theta_plus(ts)


def verify_barrier_inequality(cfg: ProblemConfig, kind: ArcKind, t: float) -> BarrierReport:
    """Check the sub/supersolution inequality on one timeslice.

    For the DN family with theta = theta_minus(t), normal speed
    (y/sin(theta)) * theta'(t) must not exceed kappa = 1/r; for the NN
    family with theta = theta_plus(t) the speed toward the center must be
    at least kappa.  The report's min_slack holds the verdict; the caller
    compares it with its tolerance (SLACK_TOL for round-off alone).
    """
    if kind is ArcKind.NEUMANN_NEUMANN and t >= 0.0:
        raise DomainError("NN family requires t < 0")
    return slice_report(cfg, kind, t, float(family_angles(cfg, kind, t)))


def slice_report(cfg: ProblemConfig, kind: ArcKind, t: float, theta: float) -> BarrierReport:
    """verify_barrier_inequality on the slice at time t whose angle theta
    the caller has taken from the family's angle law."""
    if kind is ArcKind.DIRICHLET_NEUMANN:
        pts = dn_arc(cfg, theta).points(SAMPLES)
        slack = dn_slack(cfg, theta, pts[:, 1])
    else:
        pts = nn_arc(theta).points(SAMPLES)
        slack = nn_slack(theta, pts[:, 1])
    i_min = int(np.argmin(slack))
    return BarrierReport(kind=kind, d=cfg.d, t=t,
                         min_slack=float(slack[i_min]),
                         argmin_point=(float(pts[i_min, 0]), float(pts[i_min, 1])))


def window_reports(cfg: ProblemConfig, kind: ArcKind) -> list[BarrierReport]:
    """slice_report on each slice of time_window, with every angle from
    one family_angles call."""
    ts = time_window(cfg, kind)
    return [slice_report(cfg, kind, t, theta)
            for t, theta in zip(ts.tolist(), family_angles(cfg, kind, ts).tolist())]
