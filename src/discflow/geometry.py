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

MIN_NODES = 9  # N >= 8 segments


@dataclass(frozen=True)
class Curve:
    """Polyline curve with N+1 nodes, N >= 8.

    nodes[0] is the Dirichlet point, nodes[-1] lies on the unit circle for
    valid disc curves.  The node array is never mutated after construction.
    """

    nodes: np.ndarray
    dirichlet_point: np.ndarray

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=float))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise InvalidCurve(f"nodes must be (M,2), got {nodes.shape}")
        if nodes.shape[0] < MIN_NODES:
            raise InvalidCurve(f"need at least {MIN_NODES} nodes, got {nodes.shape[0]}")
        o = np.asarray(self.dirichlet_point, dtype=float).reshape(2)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "dirichlet_point", o)

    @property
    def n_segments(self) -> int:
        return self.nodes.shape[0] - 1

    def length(self) -> float:
        return float(segment_lengths(self.nodes).sum())


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
    """Per-node arclength, signed curvature, and unwrapped turning angle."""

    s: np.ndarray
    kappa: np.ndarray
    theta: np.ndarray

    def __iter__(self):
        return iter(zip(self.s, self.kappa, self.theta))


def segment_lengths(nodes: np.ndarray) -> np.ndarray:
    d = np.diff(nodes, axis=0)
    return np.hypot(d[:, 0], d[:, 1])


def cumulative_arclength(nodes: np.ndarray) -> np.ndarray:
    s = np.empty(nodes.shape[0])
    s[0] = 0.0
    np.cumsum(segment_lengths(nodes), out=s[1:])
    return s


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


def tangent_angles(nodes: np.ndarray) -> np.ndarray:
    """Unwrapped tangent angle per node.

    Interior nodes use the central chord P[i+1]-P[i-1]; endpoints use the
    derivative of the one-sided quadratic through the nearest three nodes.
    """
    s = cumulative_arclength(nodes)
    c = nodes[2:] - nodes[:-2]
    tx = np.empty(nodes.shape[0])
    ty = np.empty(nodes.shape[0])
    tx[1:-1], ty[1:-1] = c[:, 0], c[:, 1]
    tx[0] = _quadratic_derivative_at(s[0], s[1], s[2], nodes[0, 0], nodes[1, 0], nodes[2, 0])
    ty[0] = _quadratic_derivative_at(s[0], s[1], s[2], nodes[0, 1], nodes[1, 1], nodes[2, 1])
    tx[-1] = _quadratic_derivative_at(s[-1], s[-2], s[-3], nodes[-1, 0], nodes[-2, 0], nodes[-3, 0])
    ty[-1] = _quadratic_derivative_at(s[-1], s[-2], s[-3], nodes[-1, 1], nodes[-2, 1], nodes[-3, 1])
    return np.unwrap(np.arctan2(ty, tx))


def menger_curvature(nodes: np.ndarray) -> np.ndarray:
    """Signed circumscribed-circle curvature at interior nodes.

    Positive for left turns in traversal order.  Collinear triples give 0;
    coincident nodes raise InvalidCurve.
    """
    a = nodes[1:-1] - nodes[:-2]
    b = nodes[2:] - nodes[1:-1]
    c = nodes[2:] - nodes[:-2]
    la = np.hypot(a[:, 0], a[:, 1])
    lb = np.hypot(b[:, 0], b[:, 1])
    lc = np.hypot(c[:, 0], c[:, 1])
    if np.any(la == 0.0) or np.any(lb == 0.0):
        raise InvalidCurve("coincident consecutive nodes")
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    denom = la * lb * lc
    with np.errstate(invalid="ignore", divide="ignore"):
        kappa = np.where(denom > 0.0, 2.0 * cross / denom, 0.0)
    return kappa


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
    """Arclength, signed curvature, and unwrapped turning angle per node.

    The curvature sign is normalized by the curve's overall handedness, so
    consistently turning (convex) curves report kappa >= 0 regardless of
    traversal direction, while local concavities come out negative.
    Endpoint curvatures are one-sided quadratic extrapolations.
    """
    nodes = c.nodes
    s = cumulative_arclength(nodes)
    theta = tangent_angles(nodes)
    kappa_int = menger_curvature(nodes)
    total_turn = theta[-1] - theta[0]
    if total_turn < 0.0:
        kappa_int = -kappa_int
    kappa = np.empty(nodes.shape[0])
    kappa[1:-1] = kappa_int
    kappa[0] = _quadratic_extrapolate(s[1:4], kappa_int[:3], s[0])
    kappa[-1] = _quadratic_extrapolate(s[-4:-1], kappa_int[-3:], s[-1])
    return CurvatureProfile(s=s, kappa=kappa, theta=theta)


def enclosed_area(c: Curve, d: float) -> float:
    """Area of the region above the curve inside the disc.

    The region is bounded by the curve, the unit-circle arc running
    counterclockwise from the curve's right endpoint to (-1, 0), and the
    segment from (-1, 0) back to the Dirichlet point.  The polyline part is
    a shoelace sum; the circle arc contributes its exact sector integral,
    and the return segment along y = 0 contributes nothing.
    """
    nodes = c.nodes
    if float(nodes[:, 1].min()) < -EPS_GEOM:
        raise InvalidCurve("curve must lie in the closed upper half disc")
    if not is_embedded(nodes):
        raise InvalidCurve("self-intersecting polyline")
    return _area(_as_complex(nodes))


def resample_arclength(c: Curve, n: int) -> Curve:
    """Resample to n+1 nodes at equal arclength along the linear interpolant.

    Endpoints are preserved exactly.
    The placement is iterated to its fixed point so the output nodes are
    equally spaced in their own chord metric, which makes the operation
    idempotent to round-off.
    """
    if n < 8:
        raise InvalidCurve(f"need n >= 8, got {n}")
    if not is_embedded(c.nodes):
        raise InvalidCurve("self-intersecting polyline")
    nodes = _resample_nodes(c.nodes, n)
    for _ in range(8):
        seg = segment_lengths(nodes)
        if float(np.abs(seg - seg.mean()).max()) <= 1e-14 * max(seg.sum(), 1e-30):
            break
        nodes = _resample_nodes(nodes, n)
    return Curve(nodes=nodes, dirichlet_point=c.dirichlet_point)


def _resample_nodes(nodes: np.ndarray, n: int) -> np.ndarray:
    s = cumulative_arclength(nodes)
    target = np.linspace(0.0, s[-1], n + 1)
    out = np.empty((n + 1, 2))
    out[:, 0] = np.interp(target, s, nodes[:, 0])
    out[:, 1] = np.interp(target, s, nodes[:, 1])
    out[0] = nodes[0]
    out[-1] = nodes[-1]
    return out


def _as_complex(nodes: np.ndarray) -> np.ndarray:
    """Zero-copy view x + iy of an (M, 2) node array as M complex128
    values, so one numpy call handles both coordinates."""
    return np.ascontiguousarray(nodes, dtype=np.float64).view(np.complex128)[:, 0]


def _area(z: np.ndarray) -> float:
    # shoelace (Im of sum conj(z_i) z_{i+1}) over the complex nodes plus
    # the exact circle-sector closure of enclosed_area
    end = z[-1]
    return 0.5 * np.vdot(z[:-1], z[1:]).imag \
        + 0.5 * (math.pi - math.atan2(end.imag, end.real))


def _turns_by_pi(e: np.ndarray) -> bool:
    """True iff the unwrapped tangent angle of the segment vectors `e`
    (complex, x + iy) ranges over at least pi - 1e-9.

    The unwrapped angle is the partial sums of the joint angles
    arg(conj(e_i) e_{i+1}) in (-pi, pi]; their absolute sum bounds its
    range, which settles the common convex case in two numpy calls.
    """
    joint = e[:-1].conj() * e[1:]
    ang = np.arctan2(joint.imag, joint.real)
    gate = math.pi - 1e-9
    if np.abs(ang).sum() < gate:
        return False
    turn = np.add.accumulate(ang)
    return max(float(turn.max()), 0.0) - min(float(turn.min()), 0.0) >= gate


def is_embedded(nodes: np.ndarray) -> bool:
    """True iff the open polyline has no self-intersection.

    Fast path: if all segment directions fit in an open half-plane (the
    tangent angle ranges over less than pi) the polyline is a graph over
    some line, hence simple.  Otherwise run the full vectorized
    segment-pair test.
    """
    z = _as_complex(nodes)
    if not _turns_by_pi(z[1:] - z[:-1]):
        return True
    return not _has_proper_intersection(nodes)


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


def curve_diagnostics(c: Curve, d: float) -> CurveDiagnostics:
    prof = curvature_profile(c)
    area = enclosed_area(c, d)
    if area < -1e-6 or area > 0.5 * math.pi + 1e-6:
        raise InvalidCurve(f"enclosed area {area:.6f} outside [0, pi/2]")
    theta = prof.theta
    r_end = float(np.hypot(*c.nodes[-1]))
    if abs(r_end - 1.0) <= 10.0 * EPS_GEOM:
        # the endpoint tangent is radial under the Neumann condition, so
        # the polar angle measures it without the O(h) chord bias of the
        # one-sided difference; pick the unwrap branch nearest the profile
        phi = math.atan2(c.nodes[-1, 1], c.nodes[-1, 0])
        phi += 2.0 * math.pi * round((theta[-1] - phi) / (2.0 * math.pi))
        theta = theta.copy()
        theta[-1] = phi
    return CurveDiagnostics(
        theta_min=float(theta.min()),
        theta_max=float(theta.max()),
        kappa_max=float(prof.kappa.max()),
        area=area,
        height_max=float(c.nodes[:, 1].max()),
        length=float(segment_lengths(c.nodes).sum()),
    )


def sample_circle_arc(center, radius: float, psi0: float, psi1: float, n: int) -> np.ndarray:
    """Nodes of a circular arc sampled uniformly in its own angle."""
    psi = np.linspace(psi0, psi1, n + 1)
    cx, cy = float(center[0]), float(center[1])
    return np.column_stack([cx + radius * np.cos(psi), cy + radius * np.sin(psi)])


# ---------------------------------------------------------------------------
# serialization

def curve_to_csv(c: Curve) -> str:
    lines = ["x,y"]
    for px, py in c.nodes:
        lines.append(f"{px:.17g},{py:.17g}")
    return "\n".join(lines) + "\n"


def curve_from_csv(text: str, d: float) -> Curve:
    rows = [ln for ln in text.strip().splitlines()[1:] if ln]
    nodes = np.array([[float(v) for v in ln.split(",")] for ln in rows])
    return Curve(nodes=nodes, dirichlet_point=np.array([-d, 0.0]))
