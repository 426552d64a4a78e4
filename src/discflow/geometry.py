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


def _quadratic_derivative_at(s0, s1, s2, v0, v1, v2):
    # derivative of the Lagrange quadratic through (s_i, v_i) at s0
    d01, d02, d12 = s0 - s1, s0 - s2, s1 - s2
    return (v0 * (d01 + d02) / (d01 * d02)
            - v1 * d02 / (d01 * d12)
            + v2 * d01 / (d02 * d12))


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
    come out negative.  Collinear triples give 0; coincident nodes raise
    InvalidCurve.  Endpoint curvatures are one-sided quadratic
    extrapolations.
    """
    return _profile(_as_complex(nodes))


def _profile(z: np.ndarray) -> CurvatureProfile:
    """The profile of the complex nodes z, (M,) or (K, M), which must have
    distinct consecutive nodes."""
    frame = _frame(z)
    if not frame[1].all():
        raise InvalidCurve("coincident consecutive nodes")
    return CurvatureProfile(*_profile_arrays(frame))


#: the node indices whose arclengths, positions and interior curvatures
#: _profile_arrays reads for the endpoint tangents and curvatures
_S_ENDS = np.array([0, 1, 2, 3, -4, -3, -2, -1])
_Z_ENDS = np.array([0, 1, 2, -1, -2, -3])
_K_ENDS = np.array([1, 2, 3, -4, -3, -2])


def _profile_arrays(frame: Frame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """s, kappa and theta of the frame of one curve (M,) or a stack (K, M)
    with distinct consecutive nodes (its callers refuse the others).
    The interior runs as array passes over all curves at once.  The
    endpoint tangents, the first angle and the endpoint extrapolations
    run on Python scalars (numpy's complex / real and arctan2 can differ
    from Python's in the last bit), so a curve gets the same bits alone or
    in any stack: the values they read are taken from the whole stack at
    once (np.take, then tolist), and each result goes back as one column."""
    z, seg, joint = frame
    m = z.shape[-1]
    s = np.empty(z.shape)
    s[..., 0] = 0.0
    np.add.accumulate(seg, axis=-1, out=s[..., 1:])
    t = np.empty(z.shape, dtype=np.complex128)
    np.subtract(z[..., 2:], z[..., :-2], out=t[..., 1:-1])
    # per curve: the first and the last four arclengths and the first and
    # the last three nodes (z_1 the last); the results go to (K, M) views
    s_ends = s.take(_S_ENDS, axis=-1).reshape(-1, 8).tolist()
    z_ends = z.take(_Z_ENDS, axis=-1).reshape(-1, 6).tolist()
    heads, tails = [], []
    for (s0, s1, s2, _, _, s5, s6, s7), (z0, z1, z2, z_1, z_2, z_3) in zip(s_ends, z_ends):
        # node differences from the endpoint (the weights sum to zero):
        # absolute coordinates would cost eps / h of round-off on a short curve
        heads.append(_quadratic_derivative_at(s0, s1, s2, 0.0, z1 - z0, z2 - z0))
        tails.append(_quadratic_derivative_at(s7, s6, s5, 0.0, z_2 - z_1, z_3 - z_1))
    t_rows = t.reshape(-1, m)
    t_rows[:, 0] = heads
    t_rows[:, -1] = tails
    ang = np.empty(z.shape)
    ang.reshape(-1, m)[:, 0] = [math.atan2(t0.imag, t0.real) for t0 in heads]
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
    k_rows = kappa.reshape(-1, m)
    heads, tails = [], []
    for (s0, s1, s2, s3, s4, s5, s6, s7), (k1, k2, k3, k4, k5, k6) in zip(
            s_ends, k_rows.take(_K_ENDS, axis=-1).tolist()):
        heads.append(_quadratic_extrapolate((s1, s2, s3), (k1, k2, k3), s0))
        tails.append(_quadratic_extrapolate((s4, s5, s6), (k4, k5, k6), s7))
    k_rows[:, 0] = heads
    k_rows[:, -1] = tails
    return s, kappa, theta


def enclosed_area(c: Curve) -> float:
    """Area of the region above the curve inside the disc.

    The region is bounded by the curve, the unit-circle arc running
    counterclockwise from the curve's right endpoint to (-1, 0), and the
    segment from (-1, 0) back to the Dirichlet point.  The polyline part is
    a shoelace sum; the circle arc contributes its exact sector integral,
    and the return segment along y = 0 contributes nothing.
    """
    if float(c.nodes[:, 1].min()) < -EPS_GEOM:
        raise InvalidCurve("curve must lie in the closed upper half disc")
    frame = _frame(_as_complex(c.nodes))
    if not is_embedded(frame):
        raise InvalidCurve("self-intersecting polyline")
    return _area(frame[0])


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
    """The frame of the complex nodes z (kept as its first entry), (M,) or (K, M)."""
    e = z[..., 1:] - z[..., :-1]
    return z, np.abs(e), e[..., :-1].conj() * e[..., 1:]


def _areas(zs: np.ndarray) -> list[float]:
    """The area of enclosed_area for each row of a (K, M) stack of complex
    nodes: the shoelace Im(sum conj(z_i) z_{i+1}) plus the exact
    circle-sector closure.  np.vecdot gives np.vdot's bits on each row;
    the sector angle is math.atan2's (np.arctan2 can differ from it in
    the last bit), and the rest is float arithmetic, per row."""
    end = zs[:, -1]
    dots = np.vecdot(zs[:, :-1], zs[:, 1:]).imag.tolist()
    return [0.5 * dot + 0.5 * (math.pi - math.atan2(y, x))
            for dot, y, x in zip(dots, end.imag.tolist(), end.real.tolist())]


def _area(z: np.ndarray) -> float:
    """_areas of the one row z."""
    return _areas(z[None])[0]


#: rows of a stack whose absolute joint angles sum to this or more get the
#: exact is_embedded: its own turning gate pi - 1e-9, less 1e-12 for the
#: rounding of a sum taken over a stack of rows
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


def _diagnostics(frame: Frame, areas: list[float] | None = None
                 ) -> tuple[list[CurveDiagnostics], InvalidCurve | None]:
    """curve_diagnostics of the rows of a stacked frame (z, seg, joint)
    before the first one it refuses, given their _areas or not, and the
    InvalidCurve of that row or None.  Rows are refused for coincident
    nodes, a node below the x-axis, a self-intersection or an area outside
    [0, pi/2], tested in that order on axis reductions over the stack read
    as Python values; only a row whose tangent may turn by pi
    (_TURN_FILTER) goes to the exact is_embedded.  Lengths and end radii
    take libm's hypot (np.hypot, abs of a complex), not np.abs of a
    complex array."""
    z, seg, joint = frame
    areas = _areas(z) if areas is None else areas
    turns = np.add.reduce(np.abs(np.arctan2(joint.imag, joint.real)), axis=-1)
    tests = zip(seg.all(axis=-1).tolist(), z.imag.min(axis=-1).tolist(), turns.tolist(), areas)
    first, why = len(z), None
    for i, (distinct, y_min, turn, area) in enumerate(tests):
        if not distinct:
            why = "coincident consecutive nodes"
        elif y_min < -EPS_GEOM:
            why = "curve must lie in the closed upper half disc"
        elif not (turn < _TURN_FILTER or is_embedded((z[i], seg[i], joint[i]))):
            why = "self-intersecting polyline"
        elif area < -1e-6 or area > 0.5 * math.pi + 1e-6:
            why = f"enclosed area {area:.6f} outside [0, pi/2]"
        if why is not None:
            first = i
            break
    z, seg, joint = z[:first], seg[:first], joint[:first]
    _, kappa, theta = _profile_arrays((z, seg, joint))
    ends = []
    for end, last in zip(z[:, -1].tolist(), theta[:, -1].tolist()):
        if abs(abs(end) - 1.0) <= 10.0 * EPS_GEOM:
            # the endpoint tangent is radial under the Neumann condition, so
            # the polar angle measures it without the O(h) chord bias of the
            # one-sided difference; pick the unwrap branch nearest the profile
            phi = math.atan2(end.imag, end.real)
            last = phi + 2.0 * math.pi * round((last - phi) / (2.0 * math.pi))
        ends.append(last)
    theta[:, -1] = ends
    e = z[:, 1:] - z[:, :-1]
    rows = zip(theta.min(axis=-1).tolist(), theta.max(axis=-1).tolist(),
               kappa.max(axis=-1).tolist(), areas[:first], z.imag.max(axis=-1).tolist(),
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

