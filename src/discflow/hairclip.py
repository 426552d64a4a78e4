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

from .errors import DomainError, InvalidCurve, ResidualError
from .geometry import MIN_SEGMENTS, Curve, _py, _resample_nodes, curvature_profile

#: radians by which a paired slice's tangent may miss the radial direction
TANGENT_TOL = 1e-8


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
    out = _g(lam_arr, st, ct + d, math.tan(theta))
    return float(out) if np.asarray(lam).ndim == 0 else out


def _g(lam, st, ct_d, tan_theta):
    # the pairing function at sin(theta) = st, cos(theta) + d = ct_d
    return np.tanh(lam * ct_d) / np.tan(lam * st) * tan_theta - 1.0


def bisect(root_above, lo, hi):
    """Elementwise bisection on the brackets [lo, hi] (arrays of one
    shape): 80 halvings, each moving lo up to the midpoint where the mask
    root_above(mid) is true and hi down to it elsewhere."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = root_above(mid)
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def solve_orthogonal_pair(theta: float, d: float) -> tuple[float, float]:
    """Unique (lam, t) whose slice meets the circle orthogonally at
    (cos(theta), sin(theta)).

    lam is the bisection root of g to 1e-12; t then places the endpoint on
    the slice exactly.  Construction guarantees are re-checked: the
    endpoint lies on the slice to 1e-10 and the slice tangent there is
    radial to TANGENT_TOL radians.  An angle so small that the root lies
    below the bracket (sin(theta) around 2e-12 or less) is a DomainError.
    """
    return solve_orthogonal_pairs([theta], [d])[0]


def solve_orthogonal_pairs(thetas, ds) -> list[tuple[float, float]]:
    """solve_orthogonal_pair for each lane of the equal-length sequences
    thetas and ds, in one bisection; every lane is re-checked."""
    for theta in thetas:
        if not (0.0 < theta < 0.5 * math.pi):
            raise DomainError(f"theta must lie in (0, pi/2), got {theta}")
    st, ct, tan_th = (_py(f, thetas) for f in (math.sin, math.cos, math.tan))
    ct_d = ct + np.asarray(ds, dtype=float)
    hi = 0.5 * math.pi / st
    lo = 1e-12 * hi
    # g decreases in lam, so the root lies in the bracket iff g(lo) > 0
    below = ~(_g(lo, st, ct_d, tan_th) > 0.0)
    if below.any():
        raise DomainError(f"theta = {thetas[int(np.argmax(below))]!r} is too small: "
                          "its pairing root lies below the bisection bracket")
    lams = bisect(lambda lam: _g(lam, st, ct_d, tan_th) > 0.0, lo, hi * (1.0 - 1e-14))
    return [_checked_pair(lam, theta, d) for lam, theta, d in zip(lams.tolist(), thetas, ds)]


def _checked_pair(lam: float, theta: float, d: float) -> tuple[float, float]:
    st, ct = math.sin(theta), math.cos(theta)
    t = math.log(math.sin(lam * st) / math.sinh(lam * (ct + d))) / lam ** 2

    s = HairclipSlice(lam=lam, t=t, d=d)
    on_slice = abs(math.sin(lam * st) - s.growth * math.sinh(lam * (ct + d)))
    if on_slice > 1e-10:
        raise ResidualError(f"endpoint off the slice by {on_slice:.3e}")
    residual = tangent_residual(s, theta)
    if residual > TANGENT_TOL:
        raise ResidualError(f"slice tangent not radial: {residual:.3e} rad")
    return lam, t


def tangent_residual(s: HairclipSlice, theta: float) -> float:
    """|atan(slope) - theta| of the slice at abscissa cos(theta): zero when
    its tangent there is radial."""
    return abs(math.atan(float(slice_slope(s, math.cos(theta)))) - theta)


def lambda0(d: float) -> Eigenvalue:
    """Positive root of tanh(lam (1 + d)) = lam by bisection on (1e-6, 1);
    the root, about sqrt(3 d), is below it for d under about 3.3e-13: a
    DomainError.  The residual, O(lam d), does not see the root's relative
    error, about eps / (2 d) from rounding 1 + d (3e-7 at d = 1e-10)."""
    if not (0.0 < d <= 1.0):
        raise DomainError(f"d must lie in (0, 1], got {d}")
    eig = Eigenvalue(lambda0=float(lambda0_roots(np.array([d]))[0]), d=d)
    if abs(eig.residual) > 1e-12:
        raise ResidualError(f"eigenvalue residual {eig.residual:.3e}")
    return eig


def lambda0_roots(ds: np.ndarray) -> np.ndarray:
    """lam0 for each offset in ds, in one bisection on (1e-6, 1), with
    unchecked residuals; a root below the bracket is a DomainError."""
    def root_above(lam):  # tanh(lam (1 + d)) - lam decreases through the root
        return _py(math.tanh, lam * (1.0 + ds)) - lam > 0.0

    lo = np.full(ds.shape, 1e-6)
    below = ~root_above(lo)
    if below.any():
        raise DomainError(f"d = {float(ds[np.argmax(below)])!r} is too small: the root of "
                          "tanh(lam (1 + d)) = lam lies below the bisection bracket")
    return bisect(root_above, lo, np.full(ds.shape, 1.0 - 1e-15))


def slice_between(s: HairclipSlice, x_hi: float, n_dense: int = 2048) -> np.ndarray:
    """Dense polyline of the slice from o to abscissa x_hi, graded toward
    the steep right end."""
    u = np.sin(np.linspace(0.0, 0.5 * math.pi, n_dense))
    xs = -s.d + (x_hi + s.d) * u
    ys = np.asarray(slice_height(s, xs))
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
    if n < MIN_SEGMENTS:
        raise DomainError(f"need n >= {MIN_SEGMENTS}, got {n}")
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
    curve = Curve(nodes=nodes)

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
