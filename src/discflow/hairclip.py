"""Scaled hairclip timeslices and the orthogonal-intersection pairing.

A timeslice of the parabolically rescaled hairclip solution is the graph

    sin(lam * y) = e^{lam^2 t} * sinh(lam * (x + d)),   y in [0, pi/(2 lam)],

which passes through the pinned point o = (-d, 0).  For each boundary angle
theta in (0, pi/2) there is a unique pair (lam, t) whose slice meets the
unit circle orthogonally at (cos(theta), sin(theta)); the root of the
pairing function g selects lam.  The limit angle theta -> 0 produces the
eigenvalue lam0 solving tanh(lam0 (1 + d)) = lam0, which governs the
backward-in-time height asymptotics of the flow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidCurve
from .geometry import Curve, _resample_nodes, curvature_profile

_BISECT_ITERS = 80


@dataclass(frozen=True)
class HairclipSlice:
    """One timeslice of the rescaled hairclip: scale lam > 0, time t,
    Dirichlet offset d."""

    lam: float
    t: float
    d: float

    def __post_init__(self):
        if self.lam <= 0.0:
            raise DomainError(f"lam must be positive, got {self.lam}")

    @property
    def growth(self) -> float:
        return math.exp(self.lam ** 2 * self.t)


@dataclass(frozen=True)
class Eigenvalue:
    """Positive root of tanh(lam0 (1 + d)) = lam0, lam0 in (0, 1)."""

    lambda0: float
    d: float

    @property
    def residual(self) -> float:
        return math.tanh(self.lambda0 * (1.0 + self.d)) - self.lambda0


def slice_height(s: HairclipSlice, x):
    """Height of the slice above abscissa x.

    Raises DomainError when the slice has no graph point above x, i.e. the
    arcsine argument exceeds one.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < -s.d):
        raise DomainError("x must satisfy x >= -d")
    arg = s.growth * np.sinh(s.lam * (x_arr + s.d))
    if np.any(arg > 1.0 + 1e-12):
        raise DomainError("slice has no graph point above x (arcsin argument > 1)")
    out = np.arcsin(np.minimum(arg, 1.0)) / s.lam
    return float(out) if np.asarray(x).ndim == 0 else out


def slice_slope(s: HairclipSlice, x):
    """dy/dx along the slice, from the implicit equation."""
    y = slice_height(s, x)
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return s.growth * np.cosh(s.lam * (x_arr + s.d)) / np.cos(s.lam * np.asarray(y))


def pairing_function_g(lam, theta: float, d: float):
    """g(lam, theta) = tanh(lam (cos(theta)+d)) cot(lam sin(theta)) tan(theta) - 1.

    Strictly decreasing in lam on (0, pi/(2 sin(theta))), from d*sec(theta)
    down to -1; its root selects the orthogonal slice scale.
    """
    if not (0.0 < theta < 0.5 * math.pi):
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")
    lam_arr = np.asarray(lam, dtype=float)
    st, ct = math.sin(theta), math.cos(theta)
    if np.any(lam_arr <= 0.0) or np.any(lam_arr >= 0.5 * math.pi / st):
        raise DomainError("lam must lie in (0, pi/(2 sin(theta)))")
    out = np.tanh(lam_arr * (ct + d)) / np.tan(lam_arr * st) * math.tan(theta) - 1.0
    return float(out) if np.asarray(lam).ndim == 0 else out


def solve_orthogonal_pair(theta: float, d: float) -> tuple[float, float]:
    """Unique (lam, t) whose slice meets the circle orthogonally at
    (cos(theta), sin(theta)).

    lam is the bisection root of g to 1e-12; t then places the endpoint on
    the slice exactly.  Construction guarantees are re-checked: the
    endpoint lies on the slice to 1e-10 and the slice tangent there is
    radial to 1e-8 radians.
    """
    if not (0.0 < theta < 0.5 * math.pi):
        raise DomainError(f"theta must lie in (0, pi/2), got {theta}")
    st, ct = math.sin(theta), math.cos(theta)
    hi = 0.5 * math.pi / st
    lo_v, hi_v = 1e-12 * hi, hi * (1.0 - 1e-14)
    lo = lo_v
    hi_b = hi_v
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi_b)
        if pairing_function_g(mid, theta, d) > 0.0:
            lo = mid
        else:
            hi_b = mid
    lam = 0.5 * (lo + hi_b)
    t = math.log(math.sin(lam * st) / math.sinh(lam * (ct + d))) / lam ** 2

    s = HairclipSlice(lam=lam, t=t, d=d)
    on_slice = abs(math.sin(lam * st) - s.growth * math.sinh(lam * (ct + d)))
    if on_slice > 1e-10:
        raise ArithmeticError(f"endpoint off the slice by {on_slice:.3e}")
    slope = slice_slope(s, ct)
    tangent = math.atan2(float(slope), 1.0)
    residual = abs(tangent - theta)
    if residual > 1e-8:
        raise ArithmeticError(f"slice tangent not radial: {residual:.3e} rad")
    return lam, t


def lambda0(d: float) -> Eigenvalue:
    """Positive root of tanh(lam (1 + d)) = lam by bisection on (1e-6, 1)."""
    if not (0.0 < d <= 1.0):
        raise DomainError(f"d must lie in (0, 1], got {d}")
    lo, hi = 1e-6, 1.0 - 1e-15

    def h(lam):
        return math.tanh(lam * (1.0 + d)) - lam

    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    eig = Eigenvalue(lambda0=root, d=d)
    if abs(eig.residual) > 1e-12:
        raise ArithmeticError(f"eigenvalue residual {eig.residual:.3e}")
    return eig


def slice_between(s: HairclipSlice, x_hi: float, n_dense: int = 2048) -> np.ndarray:
    """Dense polyline of the slice from o to abscissa x_hi, graded toward
    the steep right end."""
    u = np.sin(np.linspace(0.0, 0.5 * math.pi, n_dense))
    xs = -s.d + (x_hi + s.d) * u
    ys = slice_height(s, xs)
    ys = np.asarray(ys)
    ys[0] = 0.0
    return np.column_stack([xs, ys])


def initial_curve(rho: float, d: float, n: int) -> Curve:
    """Arclength-uniform sampling of the orthogonal slice for boundary
    angle rho: the canonical convex initial datum for the flow.

    The output is checked to be convex with curvature vanishing at o and
    nondecreasing along arclength.
    """
    if not (0.0 < rho < 0.5 * math.pi):
        raise DomainError(f"rho must lie in (0, pi/2), got {rho}")
    if n < 8:
        raise DomainError(f"need n >= 8, got {n}")
    lam, t = solve_orthogonal_pair(rho, d)
    s = HairclipSlice(lam=lam, t=t, d=d)
    dense = slice_between(s, math.cos(rho), n_dense=max(16 * n, 1024))
    nodes = _resample_nodes(dense, n)
    # the resampled nodes sit on chords of the dense polyline; lift them
    # back onto the exact slice so discrete invariants refine at O(1/n^2)
    nodes[1:-1, 1] = slice_height(s, nodes[1:-1, 0])
    nodes[0] = (-d, 0.0)
    end = np.array([math.cos(rho), math.sin(rho)])
    nodes[-1] = end / np.hypot(*end)
    curve = Curve(nodes=nodes, dirichlet_point=np.array([-d, 0.0]))

    prof = curvature_profile(curve)
    kmax = float(prof.kappa.max())
    tol = max(1e-9, 20.0 * (1.0 + kmax) / n ** 2)
    if float(prof.kappa.min()) < -tol:
        raise InvalidCurve(f"sampled slice not convex: min kappa {prof.kappa.min():.3e}")
    if abs(float(prof.kappa[0])) > tol:
        raise InvalidCurve(f"curvature at o is {prof.kappa[0]:.3e}, expected 0")
    if float(np.diff(prof.kappa).min()) < -tol:
        raise InvalidCurve("curvature not monotone along arclength")
    return curve
