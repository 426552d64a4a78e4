"""Barrier families: exact identities, angle laws, inequality slack."""
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from discflow.barriers import (
    ArcKind,
    ProblemConfig,
    dn_arc,
    dn_slack,
    integrate_characteristic_ode,
    nn_arc,
    nn_slack,
    theta_minus,
    theta_plus,
    time_window,
    verify_barrier_inequality,
    window_reports,
)
from discflow.checks import D_GRID
from discflow.errors import DomainError


def _loop_theta_minus(cfg, t_arr):
    # reference: theta_minus as its own np.where bisection loop
    lo = np.full(t_arr.shape, 1e-15)
    hi = np.full(t_arr.shape, math.pi - 1e-15)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        too_big = (math.log(2.0) + (1.0 + cfg.a) * np.log(np.sin(0.5 * mid))
                   + (1.0 - cfg.a) * np.log(np.cos(0.5 * mid))) > t_arr
        hi = np.where(too_big, mid, hi)
        lo = np.where(too_big, lo, mid)
    return 0.5 * (lo + hi)


def _closure_rk4(cfg, t_min, t_max, step=1e-3):
    # reference: the RK4 march with its right-hand side as a closure
    def rhs(th):
        return math.sin(th) / (cfg.a + math.cos(th))

    def march(t_stop, h):
        ts, ys = [0.0], [0.5 * math.pi]
        t_cur, y = 0.0, 0.5 * math.pi
        for _ in range(int(round(abs(t_stop) / abs(h)))):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_cur += h
            ts.append(t_cur)
            ys.append(y)
        return ts, ys

    ts_b, ys_b = march(t_min, -step)
    ts_f, ys_f = march(t_max, step)
    return np.array(ts_b[::-1] + ts_f[1:]), np.array(ys_b[::-1] + ys_f[1:])


class TestProblemConfig:
    @pytest.mark.parametrize("d", np.linspace(0.1, 1.0, 50).tolist())
    def test_hyperbolic_identity(self, d):
        # below d ~ 0.1 the difference of squares loses digits to
        # cancellation (a ~ 1/(2d)), so the 1e-14 claim is tested there
        cfg = ProblemConfig(d)
        assert cfg.a >= 1.0
        assert abs(cfg.a ** 2 - cfg.b ** 2 - 1.0) < 1e-14

    def test_d_one_means_b_zero(self):
        assert ProblemConfig(1.0).b == 0.0

    @pytest.mark.parametrize("d", [0.0, -0.3, 1.2])
    def test_domain(self, d):
        with pytest.raises(DomainError):
            ProblemConfig(d)


class TestArcs:
    def test_dn_reference_values(self):
        arc = dn_arc(ProblemConfig(0.5), math.pi / 2)
        assert abs(arc.radius - 1.25) < 1e-15
        assert np.allclose(arc.center, [-1.25, 1.0], atol=1e-15)
        # passes through o: (-0.5 + 1.25)^2 + 1 = 1.25^2
        assert abs((-0.5 - arc.center[0]) ** 2 + arc.center[1] ** 2
                   - arc.radius ** 2) < 1e-14

    def test_dn_d_one(self):
        arc = dn_arc(ProblemConfig(1.0), math.pi / 2)
        assert abs(arc.radius - 1.0) < 1e-15
        assert np.allclose(arc.center, [-1.0, 1.0], atol=1e-15)

    def test_dn_radius_limit_d_one(self):
        cfg = ProblemConfig(1.0)
        radii = [dn_arc(cfg, math.pi - eps).radius for eps in (1e-2, 1e-4, 1e-6)]
        assert radii[0] > radii[1] > radii[2] > 0.0
        assert radii[2] < 1e-5
        with pytest.raises(DomainError):
            dn_arc(cfg, math.pi)

    def test_dn_radius_must_be_finite(self):
        # radius about 1/(2d): 5e159 is a float; at d = 1e-320 1/d is not
        assert dn_arc(ProblemConfig(1e-160), math.pi / 2).radius == pytest.approx(5e159)
        with pytest.raises(DomainError, match="radius at d = 1e-320 is not finite"):
            dn_arc(ProblemConfig(1e-320), math.pi / 2)

    @pytest.mark.parametrize("d", [1.0, 0.999, 1e-12, 1e-160])
    def test_dn_points_start_at_o_and_end_on_the_circle(self, d):
        # the circle is nearly tangent to y = 0 at o as d -> 1, and its
        # radius is about 1/(2d): neither may cost the sampled ends digits
        cfg = ProblemConfig(d)
        for theta in np.linspace(0.05, math.pi - 0.05, 25).tolist():
            pts = dn_arc(cfg, theta).points(256)
            assert np.hypot(pts[0, 0] + d, pts[0, 1]) < 1e-14
            assert pts[-1].tolist() == [math.cos(theta), math.sin(theta)]

    @pytest.mark.parametrize("d", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("theta", np.linspace(0.05, math.pi - 0.05, 9).tolist())
    def test_dn_invariants(self, d, theta):
        cfg = ProblemConfig(d)
        arc = dn_arc(cfg, theta)
        # orthogonality: |center|^2 = 1 + r^2
        assert abs(arc.center @ arc.center - 1.0 - arc.radius ** 2) < 1e-12
        # passes through o
        o = np.array([-d, 0.0])
        assert abs(np.hypot(*(o - arc.center)) - arc.radius) < 1e-12

    def test_nn_reference_values(self):
        arc = nn_arc(math.pi / 4)
        assert np.allclose(arc.center, [0.0, math.sqrt(2.0)], atol=1e-15)
        assert abs(arc.radius - 1.0) < 1e-15
        arc = nn_arc(math.pi / 3)
        assert abs(arc.center[1] - 2.0 / math.sqrt(3.0)) < 1e-15
        assert abs(arc.radius - 1.0 / math.sqrt(3.0)) < 1e-15
        assert abs(arc.center @ arc.center - 1.0 - arc.radius ** 2) < 1e-12

    def test_nn_shrinks_to_top(self):
        assert nn_arc(0.5 * math.pi - 1e-6).radius < 2e-6
        with pytest.raises(DomainError):
            nn_arc(0.5 * math.pi)


class TestAngleLaws:
    def test_theta_plus_values(self):
        assert theta_plus(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert theta_plus(-1.0) == pytest.approx(math.asin(math.exp(-2.0)), abs=1e-15)
        assert theta_plus(-1.0) == pytest.approx(0.135752, abs=1e-6)
        # arcsin(x) ~ x for small argument
        assert theta_plus(-20.0) == pytest.approx(math.exp(-40.0), rel=1e-12)
        with pytest.raises(DomainError):
            theta_plus(0.1)

    @pytest.mark.parametrize("d", [0.3, 0.7, 1.0])
    def test_theta_minus_at_zero(self, d):
        assert theta_minus(ProblemConfig(d), 0.0) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_theta_minus_d_one_closed_form(self):
        cfg = ProblemConfig(1.0)
        ts = np.linspace(-10.0, math.log(2.0) - 0.01, 200)
        got = theta_minus(cfg, ts)
        want = np.arccos(1.0 - np.exp(ts))
        assert np.abs(got - want).max() < 1e-12
        assert theta_minus(cfg, -1.0) == pytest.approx(0.886509, abs=1e-6)

    def test_theta_minus_d_one_endpoint(self):
        cfg = ProblemConfig(1.0)
        assert theta_minus(cfg, math.log(2.0) - 1e-9) > math.pi - 1e-4
        with pytest.raises(DomainError):
            theta_minus(cfg, math.log(2.0))

    @pytest.mark.parametrize("d", [0.3, 0.7, 1.0])
    def test_rk4_agreement(self, d):
        cfg = ProblemConfig(d)
        t_hi = min(cfg.omega - 0.01, 5.0)
        t_grid, th_grid = integrate_characteristic_ode(cfg, -10.0, t_hi)
        sub = slice(0, None, 25)
        inv = theta_minus(cfg, t_grid[sub])
        assert np.abs(inv - th_grid[sub]).max() < 1e-8

    @pytest.mark.parametrize("d", D_GRID)
    def test_theta_minus_window_equals_per_t_calls(self, d):
        cfg = ProblemConfig(d)
        ts = np.linspace(-70.0, min(cfg.omega - 1e-3, 5.0), 301)
        window = theta_minus(cfg, ts)
        assert window.tolist() == [theta_minus(cfg, t) for t in ts.tolist()]
        # the same comparisons as the loop it replaced, a NaN time included
        with_nan = np.append(ts, math.nan)
        assert np.array_equal(theta_minus(cfg, with_nan), _loop_theta_minus(cfg, with_nan),
                              equal_nan=True)

    @pytest.mark.parametrize("d", D_GRID)
    def test_rk4_equals_closure_march(self, d):
        cfg = ProblemConfig(d)
        t_hi = min(cfg.omega - 0.01, 5.0)
        got = integrate_characteristic_ode(cfg, -10.0, t_hi)
        want = _closure_rk4(cfg, -10.0, t_hi)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("d", [0.3, 0.7, 1.0])
    def test_asymptotic_exponent(self, d):
        cfg = ProblemConfig(d)
        ts = np.linspace(-20.0, -10.0, 60)
        th = theta_minus(cfg, ts)
        slope = np.polyfit(ts, np.log(th), 1)[0]
        expected = 1.0 / (cfg.a + 1.0)
        assert abs(slope - expected) / expected < 0.01
        # report-only prefactor: theta ~ C e^{t/(a+1)}
        prefactor = math.exp(np.polyfit(ts, np.log(th), 1)[1])
        assert prefactor > 0.0


class TestBarrierInequality:
    def test_dn_family_slack(self):
        cfg = ProblemConfig(0.7)
        rep = verify_barrier_inequality(cfg, ArcKind.DIRICHLET_NEUMANN, -2.0)
        assert rep.min_slack >= -1e-10
        # equality only where y = sin(theta): the right endpoint
        theta = theta_minus(cfg, -2.0)
        assert rep.min_slack < 1e-6
        assert rep.argmin_point[1] == pytest.approx(math.sin(theta), abs=1e-9)

    def test_dn_slack_at_origin_equals_curvature(self):
        for d in (0.3, 0.7, 1.0):
            cfg = ProblemConfig(d)
            theta = theta_minus(cfg, -1.5)
            arc = dn_arc(cfg, theta)
            slack_o = float(dn_slack(cfg, theta, 0.0))
            assert slack_o == pytest.approx(1.0 / arc.radius, rel=1e-12)

    def test_nn_family_slack(self):
        rep = verify_barrier_inequality(ProblemConfig(0.5), ArcKind.NEUMANN_NEUMANN, -1.0)
        assert rep.min_slack >= -1e-10

    def test_nn_speed_against_finite_difference(self):
        # independent oracle: normal speed of the level-set family
        # F(x, y, t) = x^2 + (y - csc)^2 - cot^2 is -F_t/|grad F|
        t = -0.7
        theta = float(theta_plus(t))
        arc = nn_arc(theta)
        pts = arc.points(64)
        delta = 1e-6

        def field(tt, x, y):
            th = float(theta_plus(tt))
            eta, r = 1.0 / math.sin(th), 1.0 / math.tan(th)
            return x * x + (y - eta) ** 2 - r * r

        for x, y in pts[::7]:
            ft = (field(t + delta, x, y) - field(t - delta, x, y)) / (2.0 * delta)
            eta = arc.center[1]
            grad = 2.0 * math.hypot(x, y - eta)
            speed_towards_center = ft / grad
            expected = nn_slack(theta, y) + 1.0 / arc.radius
            assert speed_towards_center == pytest.approx(expected, rel=1e-5, abs=1e-7)

    def test_sampling_includes_endpoints(self):
        cfg = ProblemConfig(0.5)
        theta = theta_minus(cfg, -1.0)
        arc = dn_arc(cfg, theta)
        pts = arc.points(33)
        assert np.allclose(pts[0], [-0.5, 0.0], atol=1e-12)
        assert np.allclose(pts[-1], [math.cos(theta), math.sin(theta)], atol=1e-12)
        assert np.abs(np.hypot(pts[:, 0] - arc.center[0],
                               pts[:, 1] - arc.center[1]) - arc.radius).max() < 1e-12

    def test_violation_is_reported(self, monkeypatch):
        # strict positivity at a genuine arc point
        arc = nn_arc(0.4)
        assert float(nn_slack(0.4, float(arc.center[1] - arc.radius))) > 0.0
        # a forced negative slack comes back in the report, not as an error
        import discflow.barriers as mod
        monkeypatch.setattr(mod, "dn_slack", lambda cfg, theta, y: np.asarray(y) * 0.0 - 1.0)
        rep = verify_barrier_inequality(ProblemConfig(0.5), ArcKind.DIRICHLET_NEUMANN, -1.0)
        assert rep.min_slack == pytest.approx(-1.0)
        # argmin of a constant slack is the first arc point, o itself
        assert rep.argmin_point == pytest.approx((-0.5, 0.0), abs=1e-12)

    @pytest.mark.parametrize("d, kind", [
        (0.3, ArcKind.DIRICHLET_NEUMANN),
        (1.0, ArcKind.DIRICHLET_NEUMANN),
        (0.5, ArcKind.NEUMANN_NEUMANN),
    ], ids=lambda v: f"ArcKind.{v.name}" if isinstance(v, ArcKind) else None)
    def test_window_reports_equal_per_slice_calls(self, d, kind):
        cfg = ProblemConfig(d)
        want = [verify_barrier_inequality(cfg, kind, t)
                for t in time_window(cfg, kind).tolist()]
        assert window_reports(cfg, kind) == want

    def test_report_serializes(self):
        rep = verify_barrier_inequality(ProblemConfig(0.5), ArcKind.DIRICHLET_NEUMANN, -1.0)
        row = json.loads(json.dumps(asdict(rep)))
        assert row["kind"] == "dn"
        assert sorted(row) == ["argmin_point", "d", "kind", "min_slack", "t"]
        assert row["argmin_point"] == list(rep.argmin_point)
        assert row["min_slack"] == rep.min_slack

    def test_time_domain_checks(self):
        cfg = ProblemConfig(1.0)
        with pytest.raises(DomainError):
            verify_barrier_inequality(cfg, ArcKind.NEUMANN_NEUMANN, 0.0)
        with pytest.raises(DomainError):
            verify_barrier_inequality(cfg, ArcKind.DIRICHLET_NEUMANN, 1.0)
