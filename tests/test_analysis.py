"""Post-processing: asymptotic fits, blow-up extraction, soliton comparison."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from discflow.analysis import (
    BlowupSequence,
    _tip_frame,
    area_balance,
    compare_grim_reaper,
    extract_blowup,
    fit_asymptotics,
    grim_reaper_height,
)
from discflow.barriers import nn_arc, nn_slack, theta_plus
from discflow.errors import InsufficientWindow, NotExtinct
from discflow.flow import FlowOutcome, FlowRunConfig, FlowState, Trajectory, run, unstable_arc
from discflow.geometry import Curve, curvature_profile, curve_diagnostics
from discflow.hairclip import lambda0


def graph_state(xs, ys, t, step, d):
    nodes = np.column_stack([xs, ys])
    curve = Curve(nodes=nodes)
    return FlowState(curve=curve, time=t,
                     diagnostics=curve_diagnostics(curve, d), step=step)


def synthetic_trajectory(states, d, n, outcome_kind="max_time", omega=None):
    return Trajectory(d=d, n=n, states=states, events=[],
                      outcome=FlowOutcome(kind=outcome_kind, time=omega))


class TestFitAsymptotics:
    def test_recovers_own_model(self):
        d = 0.5
        lam = lambda0(d).lambda0
        xs = np.linspace(-d, 0.98, 200)
        states = [graph_state(xs, 0.7 * math.exp(lam ** 2 * t) * np.sinh(lam * (xs + d)),
                              t, 100 + i, d)
                  for i, t in enumerate(np.linspace(-14.0, -10.0, 15))]
        fit = fit_asymptotics(synthetic_trajectory(states, d, 199), lam)
        assert fit.A == pytest.approx(0.7, abs=1e-6)
        assert fit.rate == pytest.approx(lam ** 2, abs=1e-6)
        assert fit.profile_error < 1e-6

    def test_exact_hairclip_slices_give_eigen_rate(self):
        # sampled timeslices of the scale-lam0 hairclip are an exact flow,
        # so the fitted rate must be the squared eigenvalue
        d = 0.5
        lam = lambda0(d).lambda0
        states = []
        for i, t in enumerate(np.linspace(-12.0, -8.0, 20)):
            growth = math.exp(lam ** 2 * t)

            def height(x):
                return np.arcsin(growth * np.sinh(lam * (x + d))) / lam

            # right endpoint: intersection with the unit circle
            lo, hi = 0.5, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if mid ** 2 + height(mid) ** 2 < 1.0:
                    lo = mid
                else:
                    hi = mid
            xs = np.linspace(-d, lo, 400)
            states.append(graph_state(xs, height(xs), t, 100 + i, d))
        fit = fit_asymptotics(synthetic_trajectory(states, d, 399), lam)
        assert fit.rate == pytest.approx(lam ** 2, abs=1e-4)
        assert fit.profile_error < 1e-3

    def test_rate_bracket_tightens_backward(self):
        # the fitted rate stays within 0.05 of the squared eigenvalue and
        # the gap shrinks as the window moves backward in time
        d = 0.5
        lam = lambda0(d).lambda0
        xs = np.linspace(-d, 0.97, 300)

        def window_states(t_lo, t_hi):
            states = []
            for i, t in enumerate(np.linspace(t_lo, t_hi, 12)):
                growth = math.exp(lam ** 2 * t)
                ys = np.arcsin(growth * np.sinh(lam * (xs + d))) / lam
                states.append(graph_state(xs, ys, t, 100 + i, d))
            return states

        gaps = []
        for t_lo, t_hi in ((-8.0, -6.0), (-11.0, -9.0), (-14.0, -12.0)):
            fit = fit_asymptotics(
                synthetic_trajectory(window_states(t_lo, t_hi), d, 299), lam)
            gaps.append(abs(fit.rate - lam ** 2))
        assert all(g < 0.05 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_insufficient_window(self):
        d = 0.5
        lam = lambda0(d).lambda0
        xs = np.linspace(-d, 0.9, 50)
        states = [graph_state(xs, 1e-3 * np.sinh(lam * (xs + d)), t, 100 + i, d)
                  for i, t in enumerate(np.linspace(-3.0, -2.0, 4))]
        with pytest.raises(InsufficientWindow):
            fit_asymptotics(synthetic_trajectory(states, d, 49), lam)

    def test_flat_window_has_no_rate(self):
        # states of height 0 (the stationary long arc) have no log height
        d = 0.5
        xs = np.linspace(-d, 1.0, 50)
        states = [graph_state(xs, np.zeros_like(xs), t, 100 + i, d)
                  for i, t in enumerate(np.linspace(0.0, 1.0, 12))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientWindow, match="height <= 0"):
                fit_asymptotics(synthetic_trajectory(states, d, 49), lambda0(d).lambda0)


class TestExtractBlowup:
    def test_requires_extinction(self, converged_run):
        with pytest.raises(NotExtinct):
            extract_blowup(converged_run)

    def test_too_few_doubling_states(self, extinct_run):
        # the last two states: the earlier one has more than half the
        # last one's curvature, so only the last is picked
        cut = dataclasses.replace(extinct_run, states=extinct_run.states[-2:])
        with pytest.raises(InsufficientWindow,
                           match="only 1 doubling states before extinction"):
            extract_blowup(cut)

    def test_ladder_structure(self, extinct_run):
        seq = extract_blowup(extinct_run, count=8)
        assert len(seq) >= 3
        scales = np.array(seq.scales)
        assert np.all(np.diff(scales) > 0.0)
        assert np.all(scales[1:] / scales[:-1] >= 2.0 - 1e-9)
        assert np.all(np.diff(seq.times) > 0.0)

    def test_rescaled_curves_normalized(self, extinct_run):
        seq = extract_blowup(extinct_run, count=6)
        for nodes in seq.rescaled_curves:
            curve = Curve(nodes=nodes)
            prof = curvature_profile(curve)
            assert prof.kappa.max() == pytest.approx(1.0, abs=1e-6)

    def test_type_two_indicator_increases(self, extinct_run):
        ind = compare_grim_reaper(extract_blowup(extinct_run, count=8)).type2_indicator
        assert all(b > a for a, b in zip(ind, ind[1:]))


class TestGrimReaper:
    @staticmethod
    def exact_reaper_sequence(n=256, halfwidth=1.2):
        xs = np.linspace(-halfwidth, halfwidth, n + 1)
        nodes = np.column_stack([xs, grim_reaper_height(xs)])
        return BlowupSequence(times=[-1.0], scales=[1.0],
                              basepoints=[np.zeros(2)],
                              rescaled_curves=[nodes], omega=0.0)

    def test_self_comparison(self):
        rep = compare_grim_reaper(self.exact_reaper_sequence(), window_halfwidth=1.0)
        assert rep.sup_deviation < 1e-4
        assert rep.tip_identity_error < 1e-3

    def test_soliton_identity_from_graph(self):
        # kappa = cos(x) and cos(theta) = cos(x) on y = -log cos x
        xs = np.linspace(-1.0, 1.0, 257)
        nodes = np.column_stack([xs, grim_reaper_height(xs)])
        curve = Curve(nodes=nodes)
        prof = curvature_profile(curve)
        inner = slice(1, -1)
        assert np.abs(prof.kappa[inner] - np.cos(xs[inner])).max() < 1e-4
        assert np.abs(np.cos(prof.theta[inner]) - np.cos(xs[inner])).max() < 1e-4

    def test_flow_blowup_matches_reaper(self, extinct_run):
        seq = extract_blowup(extinct_run, count=8)
        rep = compare_grim_reaper(seq, window_halfwidth=1.0)
        assert rep.sup_deviation < 0.05
        assert rep.tip_identity_error < 0.05
        assert rep.type2_indicator == [(seq.omega - t) * lam ** 2
                                       for t, lam in zip(seq.times, seq.scales)]

    def test_deviations_shrink_along_sequence(self, extinct_run):
        seq = extract_blowup(extinct_run, count=8)
        rep = compare_grim_reaper(seq, window_halfwidth=0.5)
        half = len(rep.deviations) // 2
        assert max(rep.deviations[half:]) <= max(rep.deviations[:half])

    def test_straight_member_has_a_finite_frame(self):
        # a collinear tip triple has no circumcircle: the chord normal
        # orients the frame, which then lays the member along the x-axis
        xs = np.linspace(0.0, 2.0, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frame = _tip_frame(np.column_stack([xs, 0.5 * xs]))
        assert np.all(np.isfinite(frame))
        assert np.abs(frame[:, 1]).max() < 1e-12
        assert np.hypot(*frame[1]) < 1e-12

    def test_empty_sequence(self):
        empty = BlowupSequence(times=[], scales=[], basepoints=[],
                               rescaled_curves=[], omega=0.0)
        with pytest.raises(InsufficientWindow):
            compare_grim_reaper(empty)


class TestAreaBalance:
    def test_stationary_arc_balances_to_zero(self):
        c = unstable_arc(0.5, 64)
        cfg = FlowRunConfig(d=0.5, initial=c, n=64, t_end=0.01, record_every=10)
        rep = area_balance(run(cfg))
        assert rep.max_discrepancy < 1e-10

    def test_flow_balance_small(self, short_run):
        rep = area_balance(short_run)
        assert rep.max_discrepancy < 1e-2

    def test_first_variation_on_shrinking_arc_family(self):
        # independent check of the first-variation machinery on the exactly
        # known supersolution family: the area above the arc changes at the
        # rate given by the family's true normal speed (not by -(spread))
        t0, delta, samples = -0.9, 1e-5, 4096

        def region_area(t):
            theta = float(theta_plus(t))
            arc = nn_arc(theta)
            pts = arc.points(samples)
            x, y = pts[:, 0], pts[:, 1]
            shoelace = 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
            return shoelace + 0.5 * (math.pi - 2.0 * theta)

        dadt = (region_area(t0 + delta) - region_area(t0 - delta)) / (2.0 * delta)
        theta = float(theta_plus(t0))
        arc = nn_arc(theta)
        pts = arc.points(samples)
        speed_away = -(nn_slack(theta, pts[:, 1]) + 1.0 / arc.radius)
        seg = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        flux = float(np.sum(0.5 * (speed_away[1:] + speed_away[:-1]) * seg))
        assert abs(dadt - flux) < 1e-6
