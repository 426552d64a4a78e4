"""Discrete planar curves in the closed unit disc.

A curve is a polyline with a pinned left endpoint (the Dirichlet point) and
a right endpoint on the unit circle.  This module provides the discrete
differential invariants used everywhere else (curvature, turning angle,
arclength), the enclosed-area functional, arclength resampling, and CSV
serialization.

All functions are pure; curves are treated as immutable after construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCurve

# On-circle / on-point tolerance: well above double-precision noise, far
# below discretization error.
EPS_GEOM = 1e-9

MIN_SEGMENTS = 8  # a curve has at least MIN_SEGMENTS + 1 nodes

#: containment slack of the admissibility rule (_reason); looser than
#: EPS_GEOM so transient O(h^2) overshoots next to the boundary node do not
#: reject valid steps
STEP_CONTAIN_TOL = 1e-7

#: _reason's first refusal, the one curvature_profile(s) also make
_COINCIDENT = "coincident or non-finite nodes"


@dataclass(frozen=True)
class Curve:
    """Polyline curve: a validated (M, 2) float node array, M >= 9.

    nodes[0] is the Dirichlet point o = (-d, 0), nodes[-1] lies on the unit
    circle for valid disc curves; d belongs to the problem, not the curve.
    The node array is never mutated after construction.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise InvalidCurve(f"nodes must be (M,2), got {nodes.shape}")
        if nodes.shape[0] < MIN_SEGMENTS + 1:
            raise InvalidCurve(f"need at least {MIN_SEGMENTS + 1} nodes, got {nodes.shape[0]}")
        object.__setattr__(self, "nodes", nodes)


@dataclass(frozen=True)
class CurveDiagnostics:
    """Scalar diagnostics of a curve state."""

    theta_min: float
    theta_max: float
    kappa_max: float
    area: float
    height_max: float
    length: float

    def as_row(self) -> list[float]:
        return [self.theta_min, self.theta_max, self.kappa_max,
                self.area, self.height_max, self.length]


@dataclass(frozen=True)
class CurvatureProfile:
    """Per-node arclength, signed curvature, and unwrapped turning angle:
    (M,) arrays for one curve, (K, M) for a stack of K curves."""

    s: np.ndarray
    kappa: np.ndarray
    theta: np.ndarray


def segment_lengths(nodes: np.ndarray) -> np.ndarray:
    d = np.diff(nodes, axis=0)
    return np.hypot(d[:, 0], d[:, 1])


def _py(f, *xs) -> np.ndarray:
    """math's f on each element of the arrays xs (broadcast together), as
    a float array: numpy's own ufuncs (arctan2, tanh, ...) can differ from
    math's in the last bit, and this way a value computed for many curves
    or lanes at once keeps the bits it has for one."""
    return np.asarray(np.frompyfunc(f, len(xs), 1)(*xs), dtype=float)


def _by_real(c, w):
    # Python's c / w for complex c and float w: each part of c, plus the
    # other part times the signed zero 0 / w, divided by w (numpy's complex
    # division multiplies by a reciprocal)
    rat, out = 0.0 / w, np.empty(np.shape(c), dtype=np.complex128)
    out.real = (c.real + c.imag * rat) / w
    out.imag = (c.imag - c.real * rat) / w
    return out


def _quadratic_derivative_at(sq, zq):
    # derivative at s0 of the Lagrange quadratic through three (s, z), on
    # z - z0 (absolute coordinates would cost eps / h on a short curve), in
    # Python's complex arithmetic, where z0 - z0 is the float 0.0
    (s0, s1, s2), (z0, z1, z2) = sq, zq
    d01, d02, d12 = s0 - s1, s0 - s2, s1 - s2
    return (0.0 * (d01 + d02) / (d01 * d02)
            - _by_real((z1 - z0) * d02, d01 * d12)
            + _by_real((z2 - z0) * d01, d02 * d12))


def _quadratic_extrapolate(sq, vq, s_eval):
    # value of the Lagrange quadratic through three (s, v) pairs at s_eval
    (sa, sb, sc), (va, vb, vc) = sq, vq
    la = (s_eval - sb) * (s_eval - sc) / ((sa - sb) * (sa - sc))
    lb = (s_eval - sa) * (s_eval - sc) / ((sb - sa) * (sb - sc))
    lc = (s_eval - sa) * (s_eval - sb) / ((sc - sa) * (sc - sb))
    return va * la + vb * lb + vc * lc


def curvature_vectors(nodes: np.ndarray) -> np.ndarray:
    """Curvature vector (kappa times unit normal toward the circumcenter)
    at interior nodes; orientation independent."""
    a = nodes[1:-1] - nodes[:-2]
    b = nodes[2:] - nodes[1:-1]
    c = nodes[2:] - nodes[:-2]
    la = np.hypot(a[:, 0], a[:, 1])
    lb = np.hypot(b[:, 0], b[:, 1])
    lc = np.hypot(c[:, 0], c[:, 1])
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    denom = la * lb * lc * lc
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(denom > 0.0, 2.0 * cross / denom, 0.0)
    out = np.empty_like(c)
    out[:, 0] = -c[:, 1] * scale
    out[:, 1] = c[:, 0] * scale
    return out


def curvature_profile(c: Curve) -> CurvatureProfile:
    """Arclength, signed curvature, and unwrapped turning angle per node:
    one row of curvature_profiles."""
    return _profile(_as_complex(c.nodes))


def curvature_profiles(nodes: np.ndarray) -> CurvatureProfile:
    """Arclength, signed curvature, and unwrapped turning angle per node of
    each curve in a (K, M, 2) stack, as (K, M) arrays.

    Tangents are the central chord P[i+1]-P[i-1] at interior nodes and the
    derivative of the one-sided quadratic through the nearest three nodes
    at the endpoints.  The curvature is the circumscribed-circle (Menger)
    curvature at interior nodes, its sign normalized by each curve's
    overall handedness, so consistently turning (convex) curves report
    kappa >= 0 regardless of traversal direction, while local concavities
    come out negative.  Collinear triples give 0; coincident or
    non-finite nodes raise InvalidCurve.  Endpoint curvatures are
    one-sided quadratic extrapolations.
    """
    return _profile(_as_complex(nodes))


def _profile(z: np.ndarray) -> CurvatureProfile:
    """The profile of the complex nodes z, (M,) or (K, M), which must pass
    the first test of _reason: blow-up members leave the half disc."""
    frame = _frame(z)
    if not _distinct(frame[1], np.maximum.reduce(np.abs(z), axis=-1)).all():
        raise InvalidCurve(_COINCIDENT)
    return CurvatureProfile(*_profile_arrays(frame))


def _profile_arrays(frame: Frame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """s, kappa and theta of the frame of one curve (M,) or a stack (K, M)
    with finite, distinct consecutive nodes (its callers refuse the others),
    as array passes over all curves at once; the first angle is _py's."""
    z, seg, joint = frame
    s = np.empty(z.shape)
    s[..., 0] = 0.0
    np.add.accumulate(seg, axis=-1, out=s[..., 1:])
    t = np.empty(z.shape, dtype=np.complex128)
    np.subtract(z[..., 2:], z[..., :-2], out=t[..., 1:-1])
    # the endpoint tangents of all curves at once (.T puts nodes first)
    t[..., 0] = _quadratic_derivative_at(s.T[:3], z.T[:3])
    t[..., -1] = _quadratic_derivative_at(s.T[:-4:-1], z.T[:-4:-1])
    ang = np.empty(z.shape)
    ang[..., 0] = _py(math.atan2, t[..., 0].imag, t[..., 0].real)
    # unwrapped angle: atan2 of t_0 plus the partial sums of the joint
    # angles arg(conj(t_i) t_{i+1}) in (-pi, pi], as in _turns_by_pi
    turn = t[..., :-1].conj()
    turn *= t[..., 1:]
    np.arctan2(turn.imag, turn.real, out=ang[..., 1:])
    theta = np.add.accumulate(ang, axis=-1)
    # Menger curvature 2 cross / (|a| |b| |a + b|) on the segments a, b,
    # its sign set by each curve's handedness (a - b < 0 iff a < b)
    cross = joint.imag * np.where(theta[..., -1:] < theta[..., :1], -2.0, 2.0)
    denom = seg[..., :-1] * seg[..., 1:]
    denom *= np.abs(t[..., 1:-1])
    kappa = np.empty(z.shape)
    if denom.min(initial=math.inf) > 0.0:  # an empty stack has no minimum
        np.divide(cross, denom, out=kappa[..., 1:-1])
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            kappa[..., 1:-1] = np.where(denom > 0.0, cross / denom, 0.0)
    kappa[..., 0] = _quadratic_extrapolate(s.T[1:4], kappa.T[1:4], s[..., 0])
    kappa[..., -1] = _quadratic_extrapolate(s.T[-4:-1], kappa.T[-4:-1], s[..., -1])
    return s, kappa, theta


def enclosed_area(c: Curve) -> float:
    """Area of the region above the curve inside the disc.

    The region is bounded by the curve, the unit-circle arc running
    counterclockwise from the curve's right endpoint to (-1, 0), and the
    segment from (-1, 0) back to the Dirichlet point.  The polyline part is
    a shoelace sum; the circle arc contributes its exact sector integral,
    and the return segment along y = 0 contributes nothing.  A curve that
    _reason refuses raises InvalidCurve with its reason.
    """
    frame = _frame(_as_complex(c.nodes)[None])
    why = _reason(frame)[1]
    if why is not None:
        raise InvalidCurve(why)
    return _areas(frame[0])[0]


def _resample_nodes(nodes: np.ndarray, n: int) -> np.ndarray:
    """n + 1 nodes at equal arclength along the linear interpolant of
    nodes; the endpoints are kept exactly."""
    s = np.zeros(nodes.shape[0])
    np.cumsum(segment_lengths(nodes), out=s[1:])
    target = np.linspace(0.0, s[-1], n + 1)
    out = np.empty((n + 1, 2))
    out[:, 0] = np.interp(target, s, nodes[:, 0])
    out[:, 1] = np.interp(target, s, nodes[:, 1])
    out[0] = nodes[0]
    out[-1] = nodes[-1]
    return out


def _as_complex(nodes: np.ndarray) -> np.ndarray:
    """Zero-copy view x + iy of an (M, 2) node array as M complex128
    values (of a (K, M, 2) stack as (K, M)), so one numpy call handles
    both coordinates."""
    return np.ascontiguousarray(nodes, dtype=np.float64).view(np.complex128)[..., 0]


def _as_nodes(z: np.ndarray) -> np.ndarray:
    """The (M, 2) float view of M complex nodes."""
    return z.view(np.float64).reshape(-1, 2)


#: a polyline as the explicit step sees it: (z, seg, joint), where z holds
#: the complex nodes, seg = |e| and joint = conj(e[:-1]) * e[1:] for the
#: segment vectors e = z[1:] - z[:-1]
Frame = tuple[np.ndarray, np.ndarray, np.ndarray]


def _frame(z: np.ndarray) -> Frame:
    """The frame of the complex nodes z (kept as its first entry), (M,) or
    (K, M).  Non-finite nodes give non-finite entries, without a warning:
    _reason refuses them."""
    e = z[..., 1:] - z[..., :-1]
    with np.errstate(invalid="ignore", over="ignore"):
        return z, np.abs(e), e[..., :-1].conj() * e[..., 1:]


def _areas(zs: np.ndarray) -> list[float]:
    """The area of enclosed_area for each row of a (K, M) stack of complex
    nodes: the shoelace Im(sum conj(z_i) z_{i+1}) plus the exact
    circle-sector closure.  np.vecdot gives np.vdot's bits on each row;
    the sector angle is math.atan2's (np.arctan2 can differ from it in
    the last bit) of |y|, so an end node a hair below the axis at (-1, 0)
    closes by the short arc, not the whole circle; the rest is float
    arithmetic, per row."""
    end = zs[:, -1]
    dots = np.vecdot(zs[:, :-1], zs[:, 1:]).imag.tolist()
    return [0.5 * dot + 0.5 * (math.pi - math.atan2(abs(y), x))
            for dot, y, x in zip(dots, end.imag.tolist(), end.real.tolist())]


def _area(z: np.ndarray) -> float:
    """_areas of the one row z."""
    return _areas(z[None])[0]


#: rows of a stack whose absolute joint angles sum to this or more get
#: _reason's exact is_embedded: its own turning gate pi - 1e-9, less 1e-12
#: for the rounding of a sum taken over a stack of rows
_TURN_FILTER = math.pi - 1e-9 - 1e-12


def _turns_by_pi(joint: np.ndarray) -> bool:
    """True iff the unwrapped tangent angle of a polyline ranges over at
    least pi - 1e-9, given its joint products conj(e_i) e_{i+1} of the
    complex segment vectors e_i (x + iy).

    The unwrapped angle is the partial sums of the joint angles
    arg(conj(e_i) e_{i+1}) in (-pi, pi]; their absolute sum bounds its
    range, which settles the common convex case in two numpy calls.
    """
    ang = np.arctan2(joint.imag, joint.real)
    gate = math.pi - 1e-9
    if np.add.reduce(np.abs(ang)) < gate:
        return False
    turn = np.add.accumulate(ang)
    return max(float(turn.max()), 0.0) - min(float(turn.min()), 0.0) >= gate


def is_embedded(frame: Frame) -> bool:
    """True iff the open polyline of the frame has no self-intersection.

    Fast path: if all segment directions fit in an open half-plane (the
    tangent angle ranges over less than pi) the polyline is a graph over
    some line, hence simple.  Otherwise run the full vectorized
    segment-pair test.
    """
    z, _, joint = frame
    return not (_turns_by_pi(joint) and _has_proper_intersection(_as_nodes(z)))


def _has_proper_intersection(nodes: np.ndarray) -> bool:
    p = nodes[:-1]
    q = nodes[1:]
    m = p.shape[0]
    if m < 3:
        return False
    i_idx, j_idx = np.triu_indices(m, k=2)
    a, b = p[i_idx], q[i_idx]
    cc, dd = p[j_idx], q[j_idx]

    def orient(u, v, w):
        return ((v[:, 0] - u[:, 0]) * (w[:, 1] - u[:, 1])
                - (v[:, 1] - u[:, 1]) * (w[:, 0] - u[:, 0]))

    o1 = orient(a, b, cc)
    o2 = orient(a, b, dd)
    o3 = orient(cc, dd, a)
    o4 = orient(cc, dd, b)
    crossing = (o1 * o2 < 0.0) & (o3 * o4 < 0.0)
    if bool(crossing.any()):
        return True
    # collinear overlap: zero orientations with overlapping bounding boxes
    col = (o1 == 0.0) & (o2 == 0.0) & (o3 == 0.0) & (o4 == 0.0)
    if bool(col.any()):
        lo1 = np.minimum(a[col], b[col])
        hi1 = np.maximum(a[col], b[col])
        lo2 = np.minimum(cc[col], dd[col])
        hi2 = np.maximum(cc[col], dd[col])
        overlap = np.all((lo1 <= hi2) & (lo2 <= hi1), axis=1)
        if bool(overlap.any()):
            return True
    return False


def _distinct(seg: np.ndarray, r_max: np.ndarray) -> np.ndarray:
    """Per row of segment lengths seg, (M - 1,) or (K, M - 1), and of the
    largest node radius r_max: whether the nodes are finite and no two
    consecutive ones coincide, that is, whether every segment is finite and
    longer than 1e-15 (a NaN fails both comparisons).  r_max is the
    reduction the disc test takes anyway, so finiteness costs no second
    pass over the segments."""
    return (np.minimum.reduce(seg, axis=-1) > 1e-15) & (r_max < math.inf)


def _reason(frame: Frame) -> tuple[int, str | None]:
    """(i, reason) for the first row of the stacked frame (z, seg, joint),
    (K, M), that is not an admissible state, or (K, None): the one rule
    by which a polyline is a state.

    A row is refused for coincident or non-finite nodes, a node below the
    x-axis, a node outside the unit disc or a self-intersection, tested in
    that order.  The first three are axis reductions over the stack; a row
    before the first that fails them goes to the exact is_embedded only if
    its tangent may turn by pi (_TURN_FILTER).
    """
    z, seg, joint = frame
    r_max = np.maximum.reduce(np.abs(z), axis=-1)
    fails = ((_COINCIDENT, ~_distinct(seg, r_max)),
             ("node below the x-axis", np.minimum.reduce(z.imag, axis=-1) < -EPS_GEOM),
             ("node outside the unit disc", np.square(r_max) > 1.0 + 2.0 * STEP_CONTAIN_TOL))
    bad = fails[0][1] | fails[1][1] | fails[2][1]
    first = int(bad.argmax()) if bad.any() else len(bad)
    admitted = joint[:first]
    turns = np.add.reduce(np.abs(np.arctan2(admitted.imag, admitted.real)), axis=-1)
    for i in np.flatnonzero(~(turns < _TURN_FILTER)):
        if not is_embedded((z[i], seg[i], joint[i])):
            return int(i), "self-intersection"
    if first == len(bad):
        return first, None
    return first, next(why for why, fail in fails if fail[first])


def _diagnostics(frame: Frame, areas: list[float] | None = None
                 ) -> tuple[list[CurveDiagnostics], InvalidCurve | None]:
    """curve_diagnostics of the rows of a stacked frame (z, seg, joint)
    before the first one it refuses, given their _areas or not, and the
    InvalidCurve of that row or None.  A row is refused by _reason, or
    after it for an area outside [0, pi/2]; only the rows _reason admits
    get an area.  Lengths and end radii take libm's hypot (np.hypot, abs
    of a complex), not np.abs of a complex array."""
    z, seg, joint = frame
    first, why = _reason(frame)
    areas = _areas(z[:first]) if areas is None else areas[:first]
    for i, area in enumerate(areas):
        if area < -1e-6 or area > 0.5 * math.pi + 1e-6:
            first, why = i, f"enclosed area {area:.6f} outside [0, pi/2]"
            break
    z, seg, joint = z[:first], seg[:first], joint[:first]
    _, kappa, theta = _profile_arrays((z, seg, joint))
    # an end on the circle takes its polar angle (the Neumann tangent is
    # radial; no O(h) chord bias) on the unwrap branch nearest the profile,
    # a -0.0 branch as 0.0, as Python's round gives the int 0
    end, last = z[:, -1], theta[:, -1]
    phi = _py(math.atan2, end.imag, end.real)
    branch = np.round((last - phi) / (2.0 * math.pi)) + 0.0
    on_circle = abs(np.hypot(end.real, end.imag) - 1.0) <= 10.0 * EPS_GEOM
    theta[:, -1] = np.where(on_circle, phi + 2.0 * math.pi * branch, last)
    e = z[:, 1:] - z[:, :-1]
    rows = zip(theta.min(axis=-1).tolist(), theta.max(axis=-1).tolist(),
               kappa.max(axis=-1).tolist(), areas, z.imag.max(axis=-1).tolist(),
               np.hypot(e.real, e.imag).sum(axis=-1).tolist())
    return [CurveDiagnostics(*row) for row in rows], why and InvalidCurve(why)


def curve_diagnostics(c: Curve, d: float) -> CurveDiagnostics:
    """_diagnostics of the one curve c, raising its refusal; d is unused."""
    diags, refused = _diagnostics(_frame(_as_complex(c.nodes)[None]))
    if refused is not None:
        raise refused
    return diags[0]


# ---------------------------------------------------------------------------
# serialization

def curve_to_csv(c: Curve) -> str:
    # one %-format over all values; "%.17g" prints each double exactly as
    # f"{v:.17g}" does, and 17 significant digits round-trip
    return "x,y\n" + "%.17g,%.17g\n" * c.nodes.shape[0] % tuple(c.nodes.ravel().tolist())

