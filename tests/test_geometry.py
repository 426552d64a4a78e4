"""Geometry oracles: exact circles, analytic areas, resampling, embedding."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discflow.errors import InvalidCurve
from discflow.geometry import (
    Curve,
    curvature_profile,
    curve_diagnostics,
    curve_from_csv,
    curve_to_csv,
    enclosed_area,
    is_embedded,
    resample_arclength,
    sample_circle_arc,
)


def make_curve(nodes, d=None):
    nodes = np.asarray(nodes, dtype=float)
    o = nodes[0] if d is None else np.array([-d, 0.0])
    return Curve(nodes=nodes, dirichlet_point=o)


def upper_semicircle(n):
    t = np.linspace(math.pi, 0.0, n + 1)
    return make_curve(np.column_stack([np.cos(t), np.sin(t)]))


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
        c = make_curve(np.column_stack([x, np.zeros_like(x)]))
        prof = curvature_profile(c)
        assert np.all(prof.kappa == 0.0)
        assert np.allclose(prof.theta, 0.0, atol=1e-15)

    def test_semicircle_curvature(self):
        prof = curvature_profile(upper_semicircle(64))
        assert np.all(np.abs(prof.kappa[1:-1] - 1.0) < 1e-3)

    def test_dn_arc_curvature(self):
        nodes, _, r = dn_arc_nodes(0.5, math.pi / 2, 64)
        assert abs(r - 1.25) < 1e-15
        prof = curvature_profile(make_curve(nodes, d=0.5))
        assert np.all(np.abs(prof.kappa[1:-1] - 0.8) < 1e-3)

    def test_circle_nodes_are_exact(self):
        # cocircular triples give the circumscribed curvature exactly
        for n in (32, 64, 128):
            prof = curvature_profile(upper_semicircle(n))
            assert np.abs(prof.kappa - 1.0).max() < 1e-10

    def test_collinear_triple_gives_zero(self):
        nodes = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        nodes[4, 1] = 0.0  # exactly collinear interior
        prof = curvature_profile(make_curve(nodes))
        assert prof.kappa[4] == 0.0

    def test_coincident_nodes_raise(self):
        nodes = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
        nodes[4] = nodes[3]
        with pytest.raises(InvalidCurve):
            curvature_profile(make_curve(nodes))

    def test_theta_unwrapped_monotone_on_convex(self):
        nodes, _, _ = dn_arc_nodes(0.7, 2.0, 100)
        prof = curvature_profile(make_curve(nodes, d=0.7))
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
            prof = curvature_profile(make_curve(nodes))
            errs.append(np.abs(prof.kappa[1:-1] - kappa_exact(t[1:-1])).max())
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5


class TestEnclosedArea:
    def test_unstable_arc_gives_half_disc(self):
        x = np.linspace(-0.5, 1.0, 65)
        c = make_curve(np.column_stack([x, np.zeros_like(x)]), d=0.5)
        assert abs(enclosed_area(c, 0.5) - math.pi / 2) < 1e-3

    def test_semicircle_gives_zero(self):
        assert abs(enclosed_area(upper_semicircle(128), 1.0)) < 1e-3

    def test_dn_arc_against_closed_form(self):
        d, theta, n = 0.5, math.pi / 2, 128
        nodes, center, r = dn_arc_nodes(d, theta, n)
        c = make_curve(nodes, d=d)
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
        assert abs(enclosed_area(c, d) - exact) < 1e-4

    def test_order_two_on_analytic_shapes(self):
        d, theta = 0.5, math.pi / 2
        vals = []
        for n in (64, 128, 256, 512):
            nodes, _, _ = dn_arc_nodes(d, theta, n)
            vals.append(enclosed_area(make_curve(nodes, d=d), d))
        errs = [abs(v - vals[-1]) for v in vals[:-1]]
        # against the finest level the coarse errors must drop ~4x
        assert errs[0] / errs[1] >= 3.5

    def test_rejects_lower_half_plane(self):
        x = np.linspace(-0.5, 1.0, 17)
        nodes = np.column_stack([x, -0.1 * np.ones_like(x)])
        with pytest.raises(InvalidCurve):
            enclosed_area(make_curve(nodes), 0.5)


class TestResample:
    def test_straight_segment(self):
        x = np.linspace(-0.5, 1.0, 41)
        c = make_curve(np.column_stack([x, np.zeros_like(x)]))
        r = resample_arclength(c, 16)
        assert r.nodes.shape == (17, 2)
        assert np.allclose(np.diff(r.nodes[:, 0]), 1.5 / 16, atol=1e-14)
        assert np.all(r.nodes[:, 1] == 0.0)

    def test_nodes_stay_near_circle(self):
        c = upper_semicircle(64)
        r = resample_arclength(c, 64)
        radii = np.hypot(r.nodes[:, 0], r.nodes[:, 1])
        h = math.pi / 64
        assert np.abs(radii - 1.0).max() < h ** 2

    def test_idempotent(self):
        nodes, _, _ = dn_arc_nodes(0.5, 1.2, 100)
        c1 = resample_arclength(make_curve(nodes, d=0.5), 48)
        c2 = resample_arclength(c1, 48)
        assert np.abs(c1.nodes - c2.nodes).max() < 1e-12

    def test_preserves_endpoints_exactly(self):
        nodes, _, _ = dn_arc_nodes(0.7, 2.2, 77)
        c = make_curve(nodes, d=0.7)
        r = resample_arclength(c, 32)
        assert np.all(r.nodes[0] == c.nodes[0])
        assert np.all(r.nodes[-1] == c.nodes[-1])

    def test_rejects_self_intersection(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0],
                          [0.5, -0.5], [0.2, -0.5], [0.2, 0.5], [0.1, 0.5],
                          [0.1, 0.2], [0.0, 0.2]])
        with pytest.raises(InvalidCurve):
            resample_arclength(make_curve(nodes), 16)


@settings(max_examples=40, deadline=None)
@given(st.integers(9, 30), st.floats(0.1, 2.6), st.data())
def test_resample_length_property(n_base, turn, data):
    # random convex polyline with bounded total turning stays embedded and
    # loses at most O(1/N^2) of its length under resampling
    angles = np.linspace(-0.5 * turn, 0.5 * turn, n_base)
    lengths = np.array(data.draw(
        st.lists(st.floats(0.05, 1.0), min_size=n_base, max_size=n_base)))
    steps = np.column_stack([np.cos(angles), np.sin(angles)]) * lengths[:, None]
    nodes = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
    c = make_curve(nodes)
    total = c.length()
    r = resample_arclength(c, 64)
    assert np.all(r.nodes[0] == nodes[0]) and np.all(r.nodes[-1] == nodes[-1])
    deficit = total - r.length()
    assert -1e-12 <= deficit <= 2.0 * total * (turn + 1.0) * (total / 64) ** 2 / total + 1e-12


class TestEmbedding:
    def test_graph_like_fast_path(self):
        nodes, _, _ = dn_arc_nodes(0.5, 1.0, 40)
        assert is_embedded(nodes)

    def test_detects_crossing(self):
        nodes = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                          [1.0, -1.0], [0.9, -1.0], [0.9, 1.1], [0.5, 1.1],
                          [0.5, 1.2], [0.4, 1.2]])
        assert not is_embedded(nodes)


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
        c = make_curve(nodes, d=0.5)
        back = curve_from_csv(curve_to_csv(c), 0.5)
        assert np.abs(back.nodes - c.nodes).max() < 1e-15
