"""Hairclip slices, the (lam, t) pairing, and the eigenvalue."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import discflow.hairclip as hc
from discflow.errors import DomainError
from discflow.geometry import curvature_profile
from discflow.hairclip import (
    Eigenvalue,
    HairclipSlice,
    initial_curve,
    lambda0,
    pairing_function_g,
    slice_height,
    slice_slope,
    solve_orthogonal_pair,
    solve_orthogonal_pairs,
)

#: the 10 x 10 (theta, d) grid of checks.pairing_residuals, then edge lanes
GRID_THETAS = (np.tile(np.linspace(0.1, 0.5 * math.pi - 0.05, 10), 10).tolist()
               + [1e-6, 1e-6, 1.5707, 1.5707])
GRID_DS = np.repeat(np.linspace(0.1, 1.0, 10), 10).tolist() + [1e-9, 1.0, 1e-9, 1.0]


def _scalar_bisect_root(f, lo, hi):
    # reference: a scalar bisection, one lane at a time
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scalar_pair(theta, d):
    st, ct = math.sin(theta), math.cos(theta)
    hi = 0.5 * math.pi / st
    lam = _scalar_bisect_root(
        lambda x: np.tanh(np.asarray(x) * (ct + d)) / np.tan(np.asarray(x) * st)
        * math.tan(theta) - 1.0, 1e-12 * hi, hi * (1.0 - 1e-14))
    return lam, math.log(math.sin(lam * st) / math.sinh(lam * (ct + d))) / lam ** 2


class TestSliceHeight:
    def test_passes_through_origin_point(self):
        for lam, t, d in [(1.0, 0.0, 1.0), (0.7, -2.0, 0.5), (1.3, -5.0, 0.3)]:
            s = HairclipSlice(lam=lam, t=t, d=d)
            assert slice_height(s, -d) == 0.0

    def test_domain_error_above_reach(self):
        s = HairclipSlice(lam=1.0, t=0.0, d=1.0)
        # sinh(1) > 1, no graph point above x = 0
        with pytest.raises(DomainError):
            slice_height(s, 0.0)

    def test_reference_value(self):
        s = HairclipSlice(lam=1.0, t=-1.0, d=1.0)
        want = math.asin(math.exp(-1.0) * math.sinh(1.0))
        got = slice_height(s, 0.0)
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.447078, abs=1e-6)

    def test_x_below_origin_rejected(self):
        s = HairclipSlice(lam=1.0, t=-1.0, d=0.5)
        with pytest.raises(DomainError):
            slice_height(s, -0.6)


class TestPairingFunction:
    def test_small_lambda_limit_matches_sec(self):
        # lim_{lam -> 0} g = d * sec(theta)
        g = pairing_function_g(1e-8, math.pi / 3, 0.5)
        assert g == pytest.approx(0.5 * 2.0, abs=1e-7)
        assert g == pytest.approx(1.0, abs=1e-7)

    def test_upper_limit_is_minus_one(self):
        theta = 0.9
        lam_hi = 0.5 * math.pi / math.sin(theta)
        g = pairing_function_g(lam_hi * (1.0 - 1e-12), theta, 0.5)
        assert g == pytest.approx(-1.0, abs=1e-6)

    def test_strictly_decreasing_samples(self):
        g1 = pairing_function_g(0.5, math.pi / 4, 0.5)
        g2 = pairing_function_g(1.0, math.pi / 4, 0.5)
        g3 = pairing_function_g(1.5, math.pi / 4, 0.5)
        assert g1 > g2 > g3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pairing_function_g(0.5, 0.5 * math.pi, 0.5)
        with pytest.raises(DomainError):
            pairing_function_g(0.5 * math.pi / math.sin(0.8), 0.8, 0.5)
        with pytest.raises(DomainError):
            pairing_function_g(-0.1, 0.8, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 1.45), st.floats(0.05, 1.0))
    def test_monotone_decreasing_property(self, theta, d):
        lam_hi = 0.5 * math.pi / math.sin(theta)
        lams = np.linspace(1e-4, lam_hi * (1.0 - 1e-9), 500)
        g = pairing_function_g(lams, theta, d)
        assert np.all(np.diff(g) < 0.0)


class TestOrthogonalPair:
    @pytest.mark.parametrize("theta,d", [(math.pi / 4, 0.5), (math.pi / 3, 1.0),
                                         (0.3, 0.7), (1.3, 0.2)])
    def test_root_and_bracket(self, theta, d):
        lam, t = solve_orthogonal_pair(theta, d)
        assert abs(pairing_function_g(lam, theta, d)) < 1e-10
        assert pairing_function_g(lam - 1e-6, theta, d) > 0.0
        assert pairing_function_g(lam + 1e-6, theta, d) < 0.0
        # endpoint sits on the slice
        s = HairclipSlice(lam=lam, t=t, d=d)
        lhs = math.sin(lam * math.sin(theta))
        rhs = s.growth * math.sinh(lam * (math.cos(theta) + d))
        assert abs(lhs - rhs) < 1e-12
        # tangent at the endpoint is radial
        slope = float(slice_slope(s, math.cos(theta)))
        assert abs(math.atan(slope) - theta) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_orthogonal_pair(0.5 * math.pi, 0.5)
        with pytest.raises(DomainError):
            solve_orthogonal_pair(0.0, 0.5)

    def test_angle_below_the_bracket_raises(self):
        # at theta = 1e-11 the root is lam0 to 3e-14; at 1e-12 it lies below
        # the bisection bracket, whose lower end (1.5708) would come back
        lam, _ = solve_orthogonal_pair(1e-11, 0.5)
        assert lam == pytest.approx(lambda0(0.5).lambda0, abs=1e-12)
        with pytest.raises(DomainError, match="theta = 1e-12 is too small"):
            solve_orthogonal_pair(1e-12, 0.5)
        with pytest.raises(DomainError, match="theta = 3e-12 is too small"):
            solve_orthogonal_pair(3e-12, 0.1)


class TestBatchedPairs:
    def test_lanes_equal_scalar_bisection(self):
        want = [_scalar_pair(theta, d) for theta, d in zip(GRID_THETAS, GRID_DS)]
        assert solve_orthogonal_pairs(GRID_THETAS, GRID_DS) == want
        assert [solve_orthogonal_pair(theta, d)
                for theta, d in zip(GRID_THETAS, GRID_DS)] == want

    @pytest.mark.parametrize("bad", [0.0, 0.5 * math.pi, -0.2, math.nan, 1e-13])
    def test_any_lane_out_of_domain_raises(self, bad):
        with pytest.raises(DomainError):
            solve_orthogonal_pairs([0.3, bad, 0.9], [0.5, 0.5, 0.5])

    # three lanes; the tests below spoil one re-check on the middle lane only
    LANES = ([0.3, 0.7, 1.1], [0.5, 0.5, 0.5])
    GOOD_LANES = ([0.3, 1.1], [0.5, 0.5])

    def test_one_lane_off_slice_raises(self, monkeypatch):
        bad_lam = solve_orthogonal_pairs(*self.LANES)[1][0]
        growth = HairclipSlice.growth.fget
        monkeypatch.setattr(HairclipSlice, "growth", property(
            lambda s: growth(s) * (1.0 + 1e-6) if s.lam == bad_lam else growth(s)))
        solve_orthogonal_pairs(*self.GOOD_LANES)
        with pytest.raises(ArithmeticError, match="off the slice"):
            solve_orthogonal_pairs(*self.LANES)

    def test_one_lane_tangent_not_radial_raises(self, monkeypatch):
        bad_lam = solve_orthogonal_pairs(*self.LANES)[1][0]
        monkeypatch.setattr(hc, "slice_slope", lambda s, x: slice_slope(s, x)
                            * (1.0 + 1e-6 if s.lam == bad_lam else 1.0))
        solve_orthogonal_pairs(*self.GOOD_LANES)
        with pytest.raises(ArithmeticError, match="not radial"):
            solve_orthogonal_pairs(*self.LANES)


class TestEigenvalue:
    def test_reference_values_against_brentq(self):
        # independent root finder on the same transcendental equation
        for d, want, places in [(1.0, 0.9575, 4), (0.5, 0.858, 3)]:
            eig = lambda0(d)
            oracle = brentq(lambda x: math.tanh(x * (1.0 + d)) - x, 1e-6, 1.0 - 1e-12,
                            xtol=1e-14)
            assert abs(eig.lambda0 - oracle) < 1e-10
            assert abs(eig.lambda0 - want) < 10.0 ** (-places)

    @pytest.mark.parametrize("d", np.linspace(0.05, 1.0, 20).tolist())
    def test_residual_and_range(self, d):
        eig = lambda0(d)
        assert 0.0 < eig.lambda0 < 1.0
        assert abs(eig.residual) < 1e-12

    def test_equals_scalar_bisection(self):
        ds = np.linspace(0.05, 1.0, 50).tolist() + [0.1 * k for k in range(1, 11)]
        for d in ds:
            want = _scalar_bisect_root(lambda lam: math.tanh(lam * (1.0 + d)) - lam,
                                       1e-6, 1.0 - 1e-15)
            assert lambda0(d).lambda0 == want
        assert hc.lambda0_roots(np.array(ds)).tolist() == [lambda0(d).lambda0 for d in ds]

    @pytest.mark.parametrize("d", [1e-15, 3e-13])
    def test_root_below_the_bracket_is_refused(self, d):
        # the root, about sqrt(3 d), lies below the bisection's 1e-6; the
        # residual tanh(lam (1 + d)) - lam = O(lam d) would not show the error
        with pytest.raises(DomainError, match=f"d = {d!r} is too small"):
            lambda0(d)
        with pytest.raises(DomainError, match="below the bisection bracket"):
            hc.lambda0_roots(np.array([0.5, d]))

    @pytest.mark.parametrize("d", [0.1, 0.4, 0.8, 1.0])
    def test_bracket_signs(self, d):
        h = lambda lam: math.tanh(lam * (1.0 + d)) - lam
        assert h(1e-3) > 0.0
        assert h(0.999999) < 0.0

    @pytest.mark.parametrize("d", [0.5, 1.0])
    def test_pairing_scale_approaches_eigenvalue(self, d):
        lam_rho, _ = solve_orthogonal_pair(1e-3, d)
        assert abs(lam_rho - lambda0(d).lambda0) < 1e-2


class TestInitialCurve:
    def test_convexity_and_flat_origin(self):
        c = initial_curve(0.3, 0.5, 128)
        prof = curvature_profile(c)
        tol = 20.0 * (1.0 + prof.kappa.max()) / 128 ** 2
        assert prof.kappa.min() > -tol
        assert np.all(np.diff(prof.kappa) > -tol)
        assert abs(prof.kappa[0]) < 1e-3

    def test_small_rho_small_height(self):
        c = initial_curve(1e-2, 0.5, 64)
        assert c.nodes[:, 1].max() < 2e-2

    def test_right_endpoint_orthogonality_refines(self):
        errs = []
        for n in (64, 128, 256):
            c = initial_curve(0.3, 0.5, n)
            prof = curvature_profile(c)
            endpoint_angle = math.atan2(c.nodes[-1, 1], c.nodes[-1, 0])
            errs.append(abs(prof.theta[-1] - endpoint_angle))
        assert errs[1] < 1e-3
        assert errs[0] / errs[2] > 8.0  # two doublings: O(1/N^2)

    def test_speed_identities_refine(self):
        lam, t = solve_orthogonal_pair(0.4, 0.5)
        s = HairclipSlice(lam=lam, t=t, d=0.5)
        errs_cos = []
        errs_sin = []
        for n in (64, 128, 256):
            c = initial_curve(0.4, 0.5, n)
            prof = curvature_profile(c)
            y = c.nodes[:, 1]
            x = c.nodes[:, 0]
            inner = slice(2, -2)
            e1 = np.abs(prof.kappa[inner] / np.cos(prof.theta[inner])
                        - lam * np.tan(lam * y[inner])).max()
            e2 = np.abs(prof.kappa[inner] / np.sin(prof.theta[inner])
                        - lam * np.tanh(lam * (x[inner] + 0.5))).max()
            errs_cos.append(e1)
            errs_sin.append(e2)
        assert errs_cos[0] / errs_cos[2] > 8.0
        assert errs_sin[0] / errs_sin[2] > 8.0

    def test_curvature_bound_on_initial_slice(self):
        for d in (0.5, 1.0):
            lam, t = solve_orthogonal_pair(0.3, d)
            c = initial_curve(0.3, d, 128)
            prof = curvature_profile(c)
            ratio = prof.kappa[1:-1] / np.sin(prof.theta[1:-1])
            bound = lam * math.tanh(lam * (1.0 + d))
            assert ratio.max() <= bound * (1.0 + 1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            initial_curve(0.0, 0.5, 64)
        with pytest.raises(DomainError):
            initial_curve(0.3, 0.5, 4)


def test_eigenvalue_dataclass_fields():
    eig = Eigenvalue(lambda0=0.5, d=0.5)
    assert eig.residual != 0.0
