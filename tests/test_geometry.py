"""Geometry oracles: exact circles, analytic areas, resampling, embedding."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discflow.errors import InvalidCurve
from discflow.flow import minimizing_arc, unstable_arc
from discflow.geometry import (
    EPS_GEOM,
    Curve,
    curvature_profile,
    curvature_profiles,
    curve_diagnostics,
    _area,
    _areas,
    _as_complex,
    _diagnostics,
    _frame,
    _profile_arrays,
    _reason,
    _resample_nodes,
    curve_to_csv,
    enclosed_area,
    is_embedded,
    segment_lengths,
)


def parse_csv(text):
    """The nodes of a curve_to_csv text: the x,y header, then one x,y line
    per node."""
    header, *lines = text.splitlines()
    assert header == "x,y"
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def sample_circle_arc(center, radius, psi0, psi1, n):
    """Nodes of a circular arc sampled uniformly in its own angle."""
    psi = np.linspace(psi0, psi1, n + 1)
    cx, cy = float(center[0]), float(center[1])
    return np.column_stack([cx + radius * np.cos(psi), cy + radius * np.sin(psi)])


def upper_semicircle(n):
    t = np.linspace(math.pi, 0.0, n + 1)
    return Curve(np.column_stack([np.cos(t), np.sin(t)]))


def dn_arc_nodes(d, theta, n):
    # circle through o = (-d, 0), orthogonal to the unit circle at
    # (cos(theta), sin(theta)); radius (a + cos)/sin, center on x = -a
    a = 0.5 * (1.0 / d + d)
    r = (a + math.cos(theta)) / math.sin(theta)
    center = np.array([math.cos(theta) - r * math.sin(theta),
                       math.sin(theta) + r * math.cos(theta)])
    psi0 = math.atan2(0.0 - center[1], -d - center[0])
    psi1 = math.atan2(math.sin(theta) - center[1], math.cos(theta) - center[0])
    dpsi = (psi1 - psi0 + math.pi) % (2.0 * math.pi) - math.pi
    return sample_circle_arc(center, r, psi0, psi0 + dpsi, n), center, r


class TestCurvatureProfile:
    def test_flat_segment(self):
        x = np.linspace(-0.5, 1.0, 33)
        c = Curve(np.column_stack([x, np.zeros_like(x)]))
        prof = curvature_profile(c)
        assert np.all(prof.kappa == 0.0)
        assert np.allclose(prof.theta, 0.0, atol=1e-15)

    def test_semicircle_curvature(self):
        prof = curvature_profile(upper_semicircle(64))
        assert np.all(np.abs(prof.kappa[1:-1] - 1.0) < 1e-3)

    def test_dn_arc_curvature(self):
        nodes, _, r = dn_arc_nodes(0.5, math.pi / 2, 64)
        assert abs(r - 1.25) < 1e-15
        prof = curvature_profile(Curve(nodes))
        assert np.all(np.abs(prof.kappa[1:-1] - 0.8) < 1e-3)

    def test_circle_nodes_are_exact(self):
        # cocircular triples give the circumscribed curvature exactly
        for n in (32, 64, 128):
            prof = curvature_profile(upper_semicircle(n))
            assert np.abs(prof.kappa - 1.0).max() < 1e-10

    def test_collinear_triple_gives_zero(self):
        nodes = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        nodes[4, 1] = 0.0  # exactly collinear interior
        prof = curvature_profile(Curve(nodes))
        assert prof.kappa[4] == 0.0

    def test_coincident_nodes_raise(self):
        nodes = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        nodes[4] = nodes[3]
        with pytest.raises(InvalidCurve):
            curvature_profile(Curve(nodes))

    def test_theta_unwrapped_monotone_on_convex(self):
        nodes, _, _ = dn_arc_nodes(0.7, 2.0, 100)
        prof = curvature_profile(Curve(nodes))
        assert np.all(np.diff(prof.theta) >= -1e-8 * 100)

    def test_richardson_order_two_on_ellipse(self):
        # Menger curvature truncates at O(h^2) on non-circular analytic arcs
        aa, bb = 1.0, 0.6

        def kappa_exact(t):
            return aa * bb / (aa ** 2 * np.sin(t) ** 2 + bb ** 2 * np.cos(t) ** 2) ** 1.5

        errs = []
        for n in (64, 128, 256):
            t = np.linspace(0.2, math.pi - 0.2, n + 1)
            nodes = np.column_stack([aa * np.cos(t), bb * np.sin(t)])
            prof = curvature_profile(Curve(nodes))
            errs.append(np.abs(prof.kappa[1:-1] - kappa_exact(t[1:-1])).max())
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5


class TestEnclosedArea:
    def test_unstable_arc_gives_half_disc(self):
        x = np.linspace(-0.5, 1.0, 65)
        c = Curve(np.column_stack([x, np.zeros_like(x)]))
        assert abs(enclosed_area(c) - math.pi / 2) < 1e-3

    def test_semicircle_gives_zero(self):
        assert abs(enclosed_area(upper_semicircle(128))) < 1e-3

    def test_dn_arc_against_closed_form(self):
        d, theta, n = 0.5, math.pi / 2, 128
        nodes, center, r = dn_arc_nodes(d, theta, n)
        c = Curve(nodes)
        # closed form: exact line integral (1/2) (x dy - y dx) along the
        # circular arc plus the unit-circle sector term
        psi0 = math.atan2(nodes[0, 1] - center[1], nodes[0, 0] - center[0])
        psi1 = math.atan2(nodes[-1, 1] - center[1], nodes[-1, 0] - center[0])
        dpsi = (psi1 - psi0 + math.pi) % (2.0 * math.pi) - math.pi
        e0 = np.array([math.cos(psi0), math.sin(psi0)])
        e1 = np.array([math.cos(psi0 + dpsi), math.sin(psi0 + dpsi)])
        arc_part = 0.5 * r * r * dpsi + 0.5 * r * (center[0] * (e1[1] - e0[1])
                                                   - center[1] * (e1[0] - e0[0]))
        exact = arc_part + 0.5 * (math.pi - theta)
        assert abs(enclosed_area(c) - exact) < 1e-4

    def test_order_two_on_analytic_shapes(self):
        d, theta = 0.5, math.pi / 2
        vals = []
        for n in (64, 128, 256, 512):
            nodes, _, _ = dn_arc_nodes(d, theta, n)
            vals.append(enclosed_area(Curve(nodes)))
        errs = [abs(v - vals[-1]) for v in vals[:-1]]
        # against the finest level the coarse errors must drop ~4x
        assert errs[0] / errs[1] >= 3.5

    def test_rejects_lower_half_plane(self):
        x = np.linspace(-0.5, 1.0, 17)
        nodes = np.column_stack([x, -0.1 * np.ones_like(x)])
        with pytest.raises(InvalidCurve):
            enclosed_area(Curve(nodes))

    def test_end_a_hair_below_the_axis_closes_by_the_short_arc(self):
        # the minimizing arc ends at (-1, 0); with its heights written as
        # -0.0, or its end 1e-12 below the axis, the region above it is
        # still empty, not the whole disc
        nodes = minimizing_arc(0.5, 64).nodes.copy()
        nodes[:, 1] = -0.0
        assert enclosed_area(Curve(nodes)) == 0.0
        nodes = minimizing_arc(0.5, 64).nodes.copy()
        nodes[-1, 1] = -1e-12
        assert abs(enclosed_area(Curve(nodes))) < 1e-12

    def test_stacked_areas_have_the_one_row_bits(self):
        # each row of a stack, or of a view of rows of it, gets the bits of
        # the formula written out on that row alone: np.vdot and math.atan2
        # (np.arctan2 differs from math.atan2 in the last bit on ~1% of
        # these end nodes, and about half of those reach the area)
        def area(z):
            end = z[-1]
            return 0.5 * np.vdot(z[:-1], z[1:]).imag \
                + 0.5 * (math.pi - math.atan2(abs(end.imag), end.real))

        rng = np.random.default_rng(0)
        zs = rng.standard_normal((1000, 65)) + 1j * rng.standard_normal((1000, 65))
        want = [area(z) for z in zs]
        assert _areas(zs) == want
        assert _areas(zs[7:40]) == want[7:40]
        assert [_area(z) for z in zs[:50]] == want[:50]


class TestResample:
    def test_straight_segment(self):
        x = np.linspace(-0.5, 1.0, 41)
        r = _resample_nodes(np.column_stack([x, np.zeros_like(x)]), 16)
        assert r.shape == (17, 2)
        assert np.allclose(np.diff(r[:, 0]), 1.5 / 16, atol=1e-14)
        assert np.all(r[:, 1] == 0.0)

    def test_nodes_stay_near_circle(self):
        r = _resample_nodes(upper_semicircle(64).nodes, 64)
        radii = np.hypot(r[:, 0], r[:, 1])
        h = math.pi / 64
        assert np.abs(radii - 1.0).max() < h ** 2

    def test_preserves_endpoints_exactly(self):
        nodes, _, _ = dn_arc_nodes(0.7, 2.2, 77)
        r = _resample_nodes(nodes, 32)
        assert np.all(r[0] == nodes[0])
        assert np.all(r[-1] == nodes[-1])


def resample_deficit_bound(lengths, turn, n):
    """Upper bound on the length _resample_nodes(., n) takes off a
    convex polyline with segment lengths `lengths` and len(lengths) - 1
    equal corners of total turning `turn` < pi: the corner cutting of the
    pass plus the O(h^2) bound 2 (turn + 1) h^2 (h = L / n) this test
    asserted alone before.

    Corner cutting: a sample interval of length h whose corners turn by Phi_i
    in all has a chord of at least h cos(Phi_i / 2) (project on its middle
    direction), so it loses at most h Phi_i^2 / 8.  An interval holds at
    most k corners of alpha = turn / (len - 1), k the most corners in any
    arclength window of length h, so Phi_i <= Phi = min(k alpha, turn),
    and sum Phi_i <= turn gives D_0 <= h Phi turn / 8.  For coarse
    polylines this is O(h sum alpha^2), not O(h^2); for fine ones
    k alpha ~ h turn / L and it is O(h^2) too.
    """
    lengths = np.asarray(lengths)
    total = float(lengths.sum())
    h = total / n
    corners = np.cumsum(lengths)[:-1]
    k = (np.searchsorted(corners, corners + h, side="right") - np.arange(corners.size)).max()
    phi = min(k * turn / (len(lengths) - 1), turn)
    return h * phi * turn / 8.0 + 2.0 * (turn + 1.0) * h * h


@settings(max_examples=40, deadline=None)
@given(st.integers(9, 30).flatmap(
           lambda n: st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)),
       st.floats(0.1, 2.6))
# nine segments turning by 2: a deficit of 3.845e-4, above the O(h^2)
# value 2 (turn + 1) h^2 = 3.549e-4, so the bound needs the corner term
@example([0.0625, 0.0625, 0.0546875, 0.0546875, 0.0546875,
          0.05078125, 0.05078125, 0.05078125, 0.05078125], 2.0)
def test_resample_length_property(lengths, turn):
    # random convex polyline with bounded total turning stays embedded and
    # loses length under resampling only by cutting its corners
    angles = np.linspace(-0.5 * turn, 0.5 * turn, len(lengths))
    steps = np.column_stack([np.cos(angles), np.sin(angles)]) * np.array(lengths)[:, None]
    nodes = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
    total = segment_lengths(nodes).sum()
    r = _resample_nodes(nodes, 64)
    assert np.all(r[0] == nodes[0]) and np.all(r[-1] == nodes[-1])
    deficit = total - segment_lengths(r).sum()
    assert -1e-12 <= deficit <= resample_deficit_bound(lengths, turn, 64) + 1e-12


class TestEmbedding:
    def test_graph_like_fast_path(self):
        nodes, _, _ = dn_arc_nodes(0.5, 1.0, 40)
        assert is_embedded(_frame(_as_complex(nodes)))

    def test_detects_crossing(self):
        nodes = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                          [1.0, -1.0], [0.9, -1.0], [0.9, 1.1], [0.5, 1.1],
                          [0.5, 1.2], [0.4, 1.2]])
        assert not is_embedded(_frame(_as_complex(nodes)))


class TestDiagnostics:
    def test_semicircle_values(self):
        diag = curve_diagnostics(upper_semicircle(128), 1.0)
        assert abs(diag.kappa_max - 1.0) < 1e-6
        assert abs(diag.height_max - 1.0) < 1e-12
        assert abs(diag.length - math.pi) < 1e-3
        assert abs(diag.area) < 1e-3
        assert diag.theta_min <= diag.theta_max

    def test_serialization_roundtrip_csv(self):
        nodes, _, _ = dn_arc_nodes(0.5, 1.3, 24)
        c = Curve(nodes)
        back = parse_csv(curve_to_csv(c))
        assert np.abs(back - c.nodes).max() < 1e-15


class TestNonFiniteNodes:
    """A NaN or infinite node is refused as such by every function that
    reads a curve, as the stepper refuses it, and without a warning."""

    #: each function on the bad curve; curvature_profiles on a stack of
    #: the good one, the bad one and the good one
    CALLS = {"curve_diagnostics": lambda good, bad: curve_diagnostics(Curve(bad), 0.5),
             "enclosed_area": lambda good, bad: enclosed_area(Curve(bad)),
             "curvature_profile": lambda good, bad: curvature_profile(Curve(bad)),
             "curvature_profiles":
                 lambda good, bad: curvature_profiles(np.stack([good, bad, good]))}

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("i, coord", [(0, 0), (7, 0), (7, 1), (-1, 1)])
    def test_refused_without_a_warning(self, call, value, i, coord):
        good, _, _ = dn_arc_nodes(0.5, 1.3, 24)
        bad = good.copy()
        bad[i, coord] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidCurve, match="^coincident or non-finite nodes$"):
                self.CALLS[call](good, bad)


class TestCsv:
    VALUES = [-0.0, 5e-324, 1e-300, 1e300, 0.1, 0.0, 1.0, -3.0, 12345678.0,
              2.0 ** 53, -1.0 / 3.0, math.pi, 0.5, -0.25, 7.0, 1e-7, -2.5e-16, 2.0]

    @staticmethod
    def per_line_csv(c):
        lines = ["x,y"]
        for px, py in c.nodes:
            lines.append(f"{px:.17g},{py:.17g}")
        return "\n".join(lines) + "\n"

    def test_bytes_match_per_value_format(self):
        c = Curve(np.array(self.VALUES).reshape(-1, 2))
        text = curve_to_csv(c)
        assert text == self.per_line_csv(c)
        assert text.splitlines()[1] == "-0,4.9406564584124654e-324"

    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(7)
        for nodes in (np.array(self.VALUES).reshape(-1, 2),
                      dn_arc_nodes(0.5, 1.3, 24)[0],
                      rng.standard_normal((65, 2)) * 10.0 ** rng.integers(-300, 300, (65, 2))):
            c = Curve(nodes)
            back = parse_csv(curve_to_csv(c))
            assert np.array_equal(back, c.nodes)
            assert np.array_equal(np.signbit(back), np.signbit(c.nodes))


def reference_profile(nodes):
    """The profile as the separate tangent-angle (np.unwrap) and Menger
    curvature routines composed it before they were folded together."""
    seg = np.hypot(*np.diff(nodes, axis=0).T)
    s = np.concatenate([[0.0], np.cumsum(seg)])

    def deriv(s0, s1, s2, v0, v1, v2):
        d01, d02, d12 = s0 - s1, s0 - s2, s1 - s2
        return (v0 * (d01 + d02) / (d01 * d02) - v1 * d02 / (d01 * d12)
                + v2 * d01 / (d02 * d12))

    def extrapolate(sq, vq, x):
        (sa, sb, sc), (va, vb, vc) = sq, vq
        return (va * (x - sb) * (x - sc) / ((sa - sb) * (sa - sc))
                + vb * (x - sa) * (x - sc) / ((sb - sa) * (sb - sc))
                + vc * (x - sa) * (x - sb) / ((sc - sa) * (sc - sb)))

    t = np.empty_like(nodes)
    t[1:-1] = nodes[2:] - nodes[:-2]
    t[0] = deriv(s[0], s[1], s[2], nodes[0], nodes[1], nodes[2])
    t[-1] = deriv(s[-1], s[-2], s[-3], nodes[-1], nodes[-2], nodes[-3])
    theta = np.unwrap(np.arctan2(t[:, 1], t[:, 0]))
    a, b = nodes[1:-1] - nodes[:-2], nodes[2:] - nodes[1:-1]
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    kappa_int = 2.0 * cross / (seg[:-1] * seg[1:] * np.hypot(*t[1:-1].T))
    if theta[-1] - theta[0] < 0.0:
        kappa_int = -kappa_int
    kappa = np.concatenate([[extrapolate(s[1:4], kappa_int[:3], s[0])], kappa_int,
                            [extrapolate(s[-4:-1], kappa_int[-3:], s[-1])]])
    return s, kappa, theta


class TestProfileMatchesReference:
    def assert_agrees(self, nodes, theta_tol=1e-12):
        prof = curvature_profile(Curve(nodes))
        s, kappa, theta = reference_profile(nodes)
        assert np.abs(prof.s - s).max() <= 1e-14 * s[-1]
        assert np.abs(prof.kappa - kappa).max() <= 1e-12 * np.abs(kappa).max()
        assert np.abs(prof.theta - theta).max() <= theta_tol
        return prof

    def test_dn_arc(self):
        nodes, _, _ = dn_arc_nodes(0.5, 1.3, 96)
        self.assert_agrees(nodes)

    def test_near_extinction_state(self, extinct_run):
        final = extinct_run.states[-1]
        assert final.diagnostics.length < 1e-2 and final.diagnostics.kappa_max > 1e3
        # the reference's endpoint quadratic derivative divides O(1)
        # coordinates by O(length / n) spacings, so near extinction its
        # angle carries ~eps * n / length of round-off (up to 2.6e-12 along
        # the N = 96 blow-up run)
        self.assert_agrees(final.curve.nodes, theta_tol=1e-10)

    def test_hook_turning_past_pi(self):
        # an elliptic hook turning by 3 pi / 2, traversed clockwise: kappa
        # is reported positive and theta decreases through -pi
        psi = np.linspace(0.0, -1.5 * math.pi, 81)
        nodes = np.column_stack([np.cos(psi), 0.4 * np.sin(psi)])
        prof = self.assert_agrees(nodes)
        assert prof.kappa.min() > 0.0
        assert prof.theta[0] - prof.theta[-1] == pytest.approx(1.5 * math.pi, abs=1e-2)


def exact_end_angle(s, nodes):
    """atan2 of the derivative at s[0] of the Lagrange quadratic through the
    first three (s, node) pairs, in exact rational arithmetic on the same
    float values; rounded once at the end."""
    s0, s1, s2 = (Fraction(v) for v in s[:3])
    d01, d02, d12 = s0 - s1, s0 - s2, s1 - s2
    w = ((d01 + d02) / (d01 * d02), -d02 / (d01 * d12), d01 / (d02 * d12))
    tx, ty = (sum(wi * Fraction(v) for wi, v in zip(w, col))
              for col in np.asarray(nodes[:3]).T.tolist())
    return math.atan2(float(ty), float(tx))


class TestEndpointTangent:
    @pytest.mark.parametrize("k", range(8))
    def test_short_curve_matches_exact_derivative(self, k):
        # a circular arc of length 1e-4 near (-0.7, 0.4): on absolute
        # coordinates the endpoint derivative loses ~eps * n / length
        # (5e-11 here); on differences from the endpoint it keeps ~eps
        r = 1e-4 / (1.0 + 0.25 * k)
        phi = np.linspace(0.3 + 0.05 * k, 0.3 + 0.05 * k + 1e-4 / r, 17)
        nodes = np.column_stack([-0.7 + r * np.cos(phi), 0.4 + r * np.sin(phi)])
        prof = curvature_profile(Curve(nodes))
        s = prof.s.tolist()
        assert abs(prof.theta[0] - exact_end_angle(s, nodes)) < 1e-13
        # the right end: the same derivative on the reversed lists
        back = exact_end_angle(s[::-1], nodes[::-1])
        gap = (prof.theta[-1] - back + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(gap) < 1e-13


def single_curve_profile(nodes):
    """(s, kappa, theta) of one curve as the single-curve profile computed
    them before the batched form: the same formulas on one (M,) complex
    array, with the endpoint tangents, the first angle and the endpoint
    extrapolations on Python scalars."""

    def deriv(s0, s1, s2, v0, v1, v2):
        d01, d02, d12 = s0 - s1, s0 - s2, s1 - s2
        return (v0 * (d01 + d02) / (d01 * d02) - v1 * d02 / (d01 * d12)
                + v2 * d01 / (d02 * d12))

    def extrapolate(sq, vq, x):
        (sa, sb, sc), (va, vb, vc) = sq, vq
        la = (x - sb) * (x - sc) / ((sa - sb) * (sa - sc))
        lb = (x - sa) * (x - sc) / ((sb - sa) * (sb - sc))
        lc = (x - sa) * (x - sb) / ((sc - sa) * (sc - sb))
        return va * la + vb * lb + vc * lc

    z = np.ascontiguousarray(nodes, dtype=np.float64).view(np.complex128)[:, 0]
    e = z[1:] - z[:-1]
    seg = np.abs(e)
    if not (seg.min() > 1e-15 and seg.max() < math.inf):
        raise InvalidCurve("coincident or non-finite nodes")
    s = np.empty(z.shape[0])
    s[0] = 0.0
    np.add.accumulate(seg, out=s[1:])
    t = np.empty_like(z)
    np.subtract(z[2:], z[:-2], out=t[1:-1])
    s_head, s_tail = s[:4].tolist(), s[-4:].tolist()
    za, zb, zc = z[:3].tolist()
    t0 = deriv(*s_head[:3], 0.0, zb - za, zc - za)
    t[0] = t0
    za, zb, zc = z[:-4:-1].tolist()
    t[-1] = deriv(*s_tail[:0:-1], 0.0, zb - za, zc - za)
    joint = t[:-1].conj() * t[1:]
    ang = np.empty(z.shape[0])
    ang[0] = math.atan2(t0.imag, t0.real)
    np.arctan2(joint.imag, joint.real, out=ang[1:])
    theta = np.add.accumulate(ang)
    sign = -2.0 if theta[-1] - theta[0] < 0.0 else 2.0
    cross = (e[:-1].conj() * e[1:]).imag
    cross *= sign
    denom = seg[:-1] * seg[1:]
    denom *= np.abs(t[1:-1])
    kappa = np.empty(z.shape[0])
    with np.errstate(invalid="ignore", divide="ignore"):
        kappa[1:-1] = np.where(denom > 0.0, cross / denom, 0.0)
    k_head, k_tail = kappa[1:4].tolist(), kappa[-4:-1].tolist()
    kappa[0] = extrapolate(s_head[1:], k_head, s_head[0])
    kappa[-1] = extrapolate(s_tail[:-1], k_tail, s_tail[-1])
    return s, kappa, theta


def polyline(lengths, angles, start=(0.0, 0.0)):
    steps = np.column_stack([np.cos(angles), np.sin(angles)]) * np.asarray(lengths)[:, None]
    return np.vstack([start, start + np.cumsum(steps, axis=0)])


class TestBatchedProfiles:
    """Each row of curvature_profiles has the bits of the single-curve
    profile, alone (curvature_profile) and in any stack."""

    @staticmethod
    def assert_rows_exact(stack):
        # equal values with equal signs: a -0.0 where the reference has +0.0 fails
        prof = curvature_profiles(stack)
        assert prof.s.shape == prof.kappa.shape == prof.theta.shape == stack.shape[:2]
        for k, nodes in enumerate(stack):
            one = curvature_profile(Curve(nodes))
            for got, ref in zip((prof.s[k], prof.kappa[k], prof.theta[k]),
                                single_curve_profile(nodes)):
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))
            for got, ref in zip((one.s, one.kappa, one.theta), single_curve_profile(nodes)):
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))

    @staticmethod
    def flat_arcs(n):
        """The two stationary arcs of d = 0.5 and their mirror images in the
        x-axis: each node and endpoint tangent has a zero imaginary part,
        +0.0 or -0.0."""
        arcs = [unstable_arc(0.5, n).nodes, minimizing_arc(0.5, n).nodes]
        return arcs + [nodes * [1.0, -1.0] for nodes in arcs]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(9, 40).flatmap(lambda n: st.tuples(
        st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))))
    def test_random_polylines_both_orientations(self, case):
        # a polyline, its reverse and its mirror image: the handedness
        # that normalizes the sign of kappa differs from row to row
        lengths, angles = case
        nodes = polyline(lengths, angles, start=(-0.3, 0.1))
        self.assert_rows_exact(np.stack([nodes, nodes[::-1], nodes * [1.0, -1.0]]))

    def test_collinear_triples(self):
        line = np.column_stack([np.linspace(-0.5, 1.0, 17), np.zeros(17)])
        kinked = polyline([0.1] * 16, [0.0] * 5 + [0.4] * 6 + [0.4, 0.2, 0.0, 0.0, 0.0])
        self.assert_rows_exact(np.stack([line, kinked, line[::-1]]))
        prof = curvature_profiles(np.stack([line, kinked]))
        assert np.all(prof.kappa[0] == 0.0)
        assert np.all(prof.kappa[1, 2:5] == 0.0)

    def test_curve_of_length_one_micron(self):
        # the endpoint-precision case: a short arc far from the origin
        r = 1e-6 / 1.2
        phi = np.linspace(0.4, 0.4 + 1.2, 17)
        nodes = np.column_stack([-0.7 + r * np.cos(phi), 0.4 + r * np.sin(phi)])
        assert segment_lengths(nodes).sum() == pytest.approx(1e-6, rel=1e-3)
        self.assert_rows_exact(np.stack([nodes, nodes[::-1]]))

    def test_every_state_of_an_extinct_run(self, extinct_run):
        self.assert_rows_exact(np.stack([s.curve.nodes for s in extinct_run.states]))

    def test_flat_arcs_and_their_mirror_images(self):
        arcs = self.flat_arcs(64)
        assert all(np.signbit(nodes[:, 1]).all() for nodes in arcs[2:])
        self.assert_rows_exact(np.stack(arcs + [nodes[::-1] for nodes in arcs]))

    @pytest.mark.parametrize("k", [1, 2, 64, 65])
    def test_stacks_of_any_size(self, extinct_run, k):
        # the unstable arc and its mirror image, then states of a run, each
        # followed by its mirror image, so that the handedness that sets
        # the sign of kappa alternates from row to row
        pool = self.flat_arcs(64)[::2]
        for s in extinct_run.states[:32]:
            pool += [s.curve.nodes, s.curve.nodes * [1.0, -1.0]]
        assert len(pool) >= 65 and pool[-1].shape == pool[0].shape
        self.assert_rows_exact(np.stack(pool[:k]))

    def test_coincident_nodes_in_one_row_raise(self):
        good, _, _ = dn_arc_nodes(0.5, 1.3, 24)
        bad = good.copy()
        bad[7] = bad[6]
        with pytest.raises(InvalidCurve, match="^coincident or non-finite nodes$"):
            curvature_profiles(np.stack([good, bad, good]))


def loop_derivative_at(s0, s1, s2, v0, v1, v2):
    d01, d02, d12 = s0 - s1, s0 - s2, s1 - s2
    return (v0 * (d01 + d02) / (d01 * d02)
            - v1 * d02 / (d01 * d12)
            + v2 * d01 / (d02 * d12))


def loop_extrapolate(sq, vq, s_eval):
    (sa, sb, sc), (va, vb, vc) = sq, vq
    la = (s_eval - sb) * (s_eval - sc) / ((sa - sb) * (sa - sc))
    lb = (s_eval - sa) * (s_eval - sc) / ((sb - sa) * (sb - sc))
    lc = (s_eval - sa) * (s_eval - sb) / ((sc - sa) * (sc - sb))
    return va * la + vb * lb + vc * lc


def loop_profile_arrays(frame):
    """_profile_arrays as it was with per-curve Python loops at the ends:
    the endpoint tangents (complex / float), the first angle (math.atan2)
    and the endpoint extrapolations on Python scalars, read from the stack
    with take and tolist, and written back as one column each."""
    z, seg, joint = frame
    m = z.shape[-1]
    s = np.empty(z.shape)
    s[..., 0] = 0.0
    np.add.accumulate(seg, axis=-1, out=s[..., 1:])
    t = np.empty(z.shape, dtype=np.complex128)
    np.subtract(z[..., 2:], z[..., :-2], out=t[..., 1:-1])
    s_ends = s.take([0, 1, 2, 3, -4, -3, -2, -1], axis=-1).reshape(-1, 8).tolist()
    z_ends = z.take([0, 1, 2, -1, -2, -3], axis=-1).reshape(-1, 6).tolist()
    heads, tails = [], []
    for (s0, s1, s2, _, _, s5, s6, s7), (z0, z1, z2, z_1, z_2, z_3) in zip(s_ends, z_ends):
        heads.append(loop_derivative_at(s0, s1, s2, 0.0, z1 - z0, z2 - z0))
        tails.append(loop_derivative_at(s7, s6, s5, 0.0, z_2 - z_1, z_3 - z_1))
    t_rows = t.reshape(-1, m)
    t_rows[:, 0] = heads
    t_rows[:, -1] = tails
    ang = np.empty(z.shape)
    ang.reshape(-1, m)[:, 0] = [math.atan2(t0.imag, t0.real) for t0 in heads]
    turn = t[..., :-1].conj()
    turn *= t[..., 1:]
    np.arctan2(turn.imag, turn.real, out=ang[..., 1:])
    theta = np.add.accumulate(ang, axis=-1)
    cross = joint.imag * np.where(theta[..., -1:] < theta[..., :1], -2.0, 2.0)
    denom = seg[..., :-1] * seg[..., 1:]
    denom *= np.abs(t[..., 1:-1])
    kappa = np.empty(z.shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        kappa[..., 1:-1] = np.where(denom > 0.0, cross / denom, 0.0)
    k_rows = kappa.reshape(-1, m)
    heads, tails = [], []
    for (s0, s1, s2, s3, s4, s5, s6, s7), (k1, k2, k3, k4, k5, k6) in zip(
            s_ends, k_rows.take([1, 2, 3, -4, -3, -2], axis=-1).tolist()):
        heads.append(loop_extrapolate((s1, s2, s3), (k1, k2, k3), s0))
        tails.append(loop_extrapolate((s4, s5, s6), (k4, k5, k6), s7))
    k_rows[:, 0] = heads
    k_rows[:, -1] = tails
    return s, kappa, theta


def loop_diagnostics(frame, areas):
    """The diagnostics rows of admitted curves as _diagnostics computed
    them with a per-curve loop for the end angle of an end on the circle."""
    z = frame[0]
    _, kappa, theta = loop_profile_arrays(frame)
    ends = []
    for end, last in zip(z[:, -1].tolist(), theta[:, -1].tolist()):
        if abs(abs(end) - 1.0) <= 10.0 * EPS_GEOM:
            phi = math.atan2(end.imag, end.real)
            last = phi + 2.0 * math.pi * round((last - phi) / (2.0 * math.pi))
        ends.append(last)
    theta[:, -1] = ends
    e = z[:, 1:] - z[:, :-1]
    return np.column_stack([theta.min(axis=-1), theta.max(axis=-1), kappa.max(axis=-1), areas,
                            z.imag.max(axis=-1), np.hypot(e.real, e.imag).sum(axis=-1)])


def grid_walks(seed, count, steps):
    """count polylines of 9 to 20 nodes from (-0.5, 0), each step one of
    `steps` in units of 1/16, so that many segments, end chords included,
    are horizontal or vertical; each zero coordinate is +0.0 or -0.0 at
    random."""
    rng = np.random.default_rng(seed)
    walks = []
    for m in rng.integers(9, 21, count).tolist():
        moves = np.array(steps)[rng.integers(0, len(steps), m - 1)] / 16.0
        nodes = np.cumsum(np.vstack([[-0.5, 0.0], moves]), axis=0)
        zero = nodes == 0.0
        nodes[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        walks.append(nodes)
    return walks


def states_on_the_circle(seed, count):
    """The grid walks, folded into the upper half plane and with the last
    node pushed radially onto the unit circle, that _diagnostics admits."""
    walks = []
    for nodes in grid_walks(seed, count, [[1, 0], [0, 1], [0, -1], [1, 1], [1, -1]]):
        nodes[:, 1] = np.where(nodes[:, 1] == 0.0, nodes[:, 1], np.abs(nodes[:, 1]))
        if nodes[-1].any():
            nodes[-1] /= np.hypot(*nodes[-1])
        if nodes[-1].any() and _diagnostics(_frame(_as_complex(nodes)[None]))[1] is None:
            walks.append(nodes)
    return walks


class TestArrayEnds:
    """The array code at the curve ends has the bits, signed zeros
    included, of the per-curve Python loops it replaced."""

    @staticmethod
    def assert_bits(got, ref):
        for a, b in zip(got, ref, strict=True):
            np.testing.assert_array_equal(np.asarray(a).view(np.int64),
                                          np.asarray(b).view(np.int64))

    @staticmethod
    def stacks(curves):
        # the curves grouped by node count, as stackable groups
        by_m = {}
        for nodes in curves:
            by_m.setdefault(nodes.shape[0], []).append(nodes)
        return by_m.values()

    @classmethod
    def assert_profiles_match(cls, curves):
        for group in cls.stacks(curves):
            frame = _frame(_as_complex(np.stack(group)))
            cls.assert_bits(_profile_arrays(frame), loop_profile_arrays(frame))
            for k in range(len(group)):
                one = tuple(x[k:k + 1] for x in frame)
                cls.assert_bits(_profile_arrays(one), loop_profile_arrays(one))
                cls.assert_bits(_profile_arrays(tuple(x[k] for x in frame)),
                                (x[0] for x in loop_profile_arrays(one)))

    @classmethod
    def assert_diagnostics_match(cls, curves):
        for group in cls.stacks(curves):
            frame = _frame(_as_complex(np.stack(group)))
            areas = _areas(frame[0])
            diags, refused = _diagnostics(frame, areas)
            assert refused is None
            want = loop_diagnostics(frame, areas)
            cls.assert_bits([np.array([d.as_row() for d in diags])], [want])
            for k in range(len(group)):
                one = tuple(x[k:k + 1] for x in frame)
                diags, _ = _diagnostics(one, areas[k:k + 1])
                cls.assert_bits([np.array(diags[0].as_row())], [want[k]])

    def test_profiles_of_grid_walks(self):
        walks = grid_walks(11, 120, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 2]])
        self.assert_profiles_match([w for nodes in walks for w in
                                    (nodes, nodes[::-1], nodes * [1.0, -1.0], nodes * [-1.0, 1.0])])

    def test_profiles_of_flat_arcs_and_run_states(self, extinct_run):
        arcs = TestBatchedProfiles.flat_arcs(48)
        states = [s.curve.nodes for s in extinct_run.states]
        self.assert_profiles_match(arcs + [a[::-1] for a in arcs] + states
                                   + [s[::-1] for s in states])

    def test_diagnostics_of_states_ending_on_the_circle(self, extinct_run):
        walks = states_on_the_circle(5, 400)
        assert len(walks) > 100
        arcs = TestBatchedProfiles.flat_arcs(48)
        states = [s.curve.nodes for s in extinct_run.states]
        self.assert_diagnostics_match(walks + arcs + states)
