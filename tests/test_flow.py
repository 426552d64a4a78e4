"""Flow stepper: stationary states, invariants, comparisons, export."""
import json
import math

import numpy as np
import pytest

import discflow.flow as flow
from discflow.barriers import ProblemConfig, theta_minus
from discflow.errors import InvalidCurve, ParameterError, StepRejected
from discflow.flow import (
    FlowRunConfig,
    FlowState,
    hausdorff_to_minimizing_arc,
    half_pi_crossing,
    load_trajectory,
    maximum_principle_check,
    minimizing_arc,
    nn_avoidance_check,
    run,
    speed_bound_check,
    step,
    theta_bar_ode_check,
    unstable_arc,
    write_trajectory,
)
from discflow.geometry import (
    Curve,
    _resample_nodes,
    curvature_profile,
    curvature_vectors,
    curve_diagnostics,
    enclosed_area,
    segment_lengths,
)
from discflow.hairclip import initial_curve, solve_orthogonal_pair


def make_state(curve, d):
    return FlowState(curve=curve, time=0.0,
                     diagnostics=curve_diagnostics(curve, d), step=0)


class TestStationaryStates:
    def test_unstable_arc_fixed(self):
        c = unstable_arc(0.5, 64)
        st1 = step(make_state(c, 0.5), 1e-5, d=0.5)
        assert np.abs(st1.curve.nodes - c.nodes).max() < 1e-14

    def test_minimizing_arc_fixed(self):
        c = minimizing_arc(0.5, 64)
        st1 = step(make_state(c, 0.5), 1e-5, d=0.5)
        assert np.abs(st1.curve.nodes - c.nodes).max() < 1e-14

    def test_stationary_run_reaches_max_time(self):
        c = unstable_arc(0.5, 64)
        cfg = FlowRunConfig(d=0.5, initial=c, n=64, t_end=0.01, record_every=10)
        traj = run(cfg)
        assert traj.outcome.kind == "max_time"
        assert np.abs(traj.states[-1].curve.nodes - c.nodes).max() < 1e-12


class TestSingleStep:
    @pytest.mark.parametrize("n,halve", [(128, 1.0), (256, 0.5)])
    def test_height_grows_and_convexity_survives(self, n, halve):
        # forward in time the curve lifts off the flat arc, so the max
        # height (attained at the sliding endpoint) strictly increases
        c = initial_curve(0.3, 0.5, n)
        st0 = make_state(c, 0.5)
        dt = 0.25 * (c.length() / n) ** 2 * halve
        st1 = step(st0, dt, d=0.5)
        assert st1.diagnostics.height_max > st0.diagnostics.height_max
        prof = curvature_profile(st1.curve)
        tol = flow.tol_inv(st1.diagnostics.kappa_max)
        assert prof.kappa.min() > -tol
        assert (np.diff(prof.kappa) / np.diff(prof.s)).min() > -tol

    def test_boundary_conditions_exact(self):
        c = initial_curve(0.4, 0.7, 64)
        st1 = step(make_state(c, 0.7), 1e-6, d=0.7)
        assert st1.curve.nodes[0, 0] == -0.7
        assert st1.curve.nodes[0, 1] == 0.0
        assert abs(np.hypot(*st1.curve.nodes[-1]) - 1.0) < 1e-15
        seg = st1.curve.nodes[-1] - st1.curve.nodes[-2]
        cross = st1.curve.nodes[-1, 0] * seg[1] - st1.curve.nodes[-1, 1] * seg[0]
        assert abs(cross) / np.hypot(*seg) < flow.TOL_BC

    def test_unstable_dt_rejected(self):
        c = initial_curve(0.3, 0.5, 64)
        with pytest.raises(StepRejected):
            step(make_state(c, 0.5), 10.0, d=0.5)


def reference_advance(nodes, d, dt, n):
    """The explicit step spelled out as a composition of the geometry
    routines: curvature_vectors, re-pin o and project the right end
    radially, _resample_nodes, project again.  Returns (nodes, shed)."""
    def project_end(p):
        phi = math.atan2(p[-2, 1], p[-2, 0])
        p[-1] = (math.cos(phi), math.sin(phi))

    def area(p):
        return enclosed_area(Curve(nodes=p, dirichlet_point=np.array([-d, 0.0])), d)

    out = nodes.copy()
    out[1:-1] += dt * curvature_vectors(nodes)
    out[0] = (-d, 0.0)
    project_end(out)
    area_pre = area(out)
    out = _resample_nodes(out, n)
    project_end(out)
    return out, area_pre - area(out)


class TestFusedStep:
    """The complex-view step against the composition it replaces, and the
    shared validity predicate on constructed curves."""

    @pytest.mark.parametrize("d", [0.5, 1.0])
    def test_matches_reference_composition(self, d):
        n = 64
        ref = fast = initial_curve(0.3, d, n).nodes
        for k in range(1, 2001):
            dt = 0.25 * (float(segment_lengths(ref).sum()) / n) ** 2
            ref, shed_ref = reference_advance(ref, d, dt, n)
            fast, shed_fast = flow._advance(fast, d, dt, n)
            if k in (1, 2000):
                assert fast.shape == (n + 1, 2)
                assert np.abs(fast - ref).max() < 1e-12
                assert abs(shed_fast - shed_ref) < 1e-15
        assert flow._step_valid(fast) is None

    def test_resamples_to_requested_node_count(self):
        nodes = initial_curve(0.3, 0.5, 64).nodes
        out, shed = flow._advance(nodes, 0.5, 1e-5, 40)
        ref, shed_ref = reference_advance(nodes, 0.5, 1e-5, 40)
        assert out.shape == (41, 2)
        assert np.abs(out - ref).max() < 1e-12
        assert abs(shed - shed_ref) < 1e-15

    def test_checked_step_is_advance_plus_predicate(self):
        nodes = initial_curve(0.3, 0.5, 64).nodes
        out, reason, shed = flow._advance_checked(nodes, 0.5, 1e-5, 64)
        out_ref, shed_ref = flow._advance(nodes, 0.5, 1e-5, 64)
        assert reason is None
        assert np.abs(out - out_ref).max() < 1e-13
        assert abs(shed - shed_ref) < 1e-15

    def test_coincident_nodes(self):
        nodes = initial_curve(0.3, 0.5, 64).nodes.copy()
        nodes[10] = nodes[11]
        assert flow._step_valid(nodes) == "coincident or non-finite nodes"
        nodes = initial_curve(0.3, 0.5, 64).nodes.copy()
        nodes[10, 1] = np.nan
        assert flow._step_valid(nodes) == "coincident or non-finite nodes"

    def test_node_below_axis(self):
        nodes = initial_curve(0.3, 0.5, 64).nodes.copy()
        nodes[1, 1] = -1e-6
        assert flow._step_valid(nodes) == "node below the x-axis"

    def test_node_outside_disc(self):
        nodes = initial_curve(0.3, 0.5, 64).nodes.copy()
        nodes[-2] *= 1.0 / np.hypot(*nodes[-2]) + 1e-3
        assert flow._step_valid(nodes) == "node outside the unit disc"

    # a loop in the upper half disc: right, up, left, then down across
    # the first segment, and on to the unit circle
    LOOP = np.array([[-0.5, 0.0], [-0.1, 0.05], [0.3, 0.1], [0.3, 0.3],
                     [0.3, 0.5], [0.15, 0.5], [0.0, 0.5], [0.0, 0.25],
                     [0.0, 0.02], [0.4, 0.02],
                     [math.cos(0.3), math.sin(0.3)]])
    # the same turns stopped short of the crossing: a hook that turns by
    # 3 pi / 2 and stays embedded
    HOOK = LOOP[:8]

    @staticmethod
    def turning_range(nodes):
        dseg = np.diff(nodes, axis=0)
        ang = np.unwrap(np.arctan2(dseg[:, 1], dseg[:, 0]))
        return float(ang.max() - ang.min())

    def test_self_intersection_past_the_gate(self, monkeypatch):
        assert self.turning_range(self.LOOP) > math.pi
        calls = []
        real = flow._has_proper_intersection
        monkeypatch.setattr(flow, "_has_proper_intersection",
                            lambda p: calls.append(len(p)) or real(p))
        assert flow._step_valid(self.LOOP) == "self-intersection"
        assert calls == [len(self.LOOP)]

    def test_gate_passes_embedded_hook_and_convex_curves(self, monkeypatch):
        assert self.turning_range(self.HOOK) > math.pi
        calls = []
        real = flow._has_proper_intersection
        monkeypatch.setattr(flow, "_has_proper_intersection",
                            lambda p: calls.append(len(p)) or real(p))
        assert flow._step_valid(self.HOOK) is None
        assert calls == [len(self.HOOK)]
        convex = initial_curve(0.3, 0.5, 64).nodes
        assert self.turning_range(convex) < math.pi - 1e-9
        assert flow._step_valid(convex) is None
        assert calls == [len(self.HOOK)]  # the gate did not trip


class TestRunOutcomes:
    def test_converges_to_minimizer(self, converged_run):
        traj = converged_run
        assert traj.outcome.kind == "converged_to_minimizer"
        final = traj.states[-1]
        assert hausdorff_to_minimizing_arc(final.curve.nodes, 0.5) < 1e-3
        assert final.diagnostics.kappa_max < 1e-3

    def test_extinct_for_boundary_point(self, extinct_run):
        traj = extinct_run
        assert traj.outcome.kind == "extinct"
        assert 0.0 < traj.outcome.time < 10.0
        assert traj.states[-1].diagnostics.length < 1e-2

    def test_records_are_time_ordered(self, converged_run):
        ts = converged_run.times()
        assert np.all(np.diff(ts) > 0.0)

    def test_progress_callback(self):
        seen = []
        c = initial_curve(0.3, 0.5, 64)
        cfg = FlowRunConfig(d=0.5, initial=c, n=64, t_end=0.05, record_every=20)
        run(cfg, callback=seen.append)
        assert len(seen) >= 2
        assert all(s.curve.nodes.shape == (65, 2) for s in seen)

    def test_max_steps_outcome(self):
        c = initial_curve(0.3, 0.5, 64)
        traj = run(FlowRunConfig(d=0.5, initial=c, n=64, t_end=1.0, max_steps=5))
        assert traj.outcome.kind == "max_steps"
        assert traj.states[-1].step == 5

    def test_invariant_violation_after_retries(self, monkeypatch):
        c = initial_curve(0.3, 0.5, 64)
        cfg = FlowRunConfig(d=0.5, initial=c, n=64, t_end=1.0)
        monkeypatch.setattr(flow, "_advance_checked",
                            lambda nodes, d, dt, n: (nodes, "synthetic failure", 0.0))
        traj = run(cfg)
        assert traj.outcome.kind == "invariant_violation"
        assert any("step_rejected" in name for _, name in traj.events)

    def test_bad_initial_curve_rejected(self):
        c = unstable_arc(0.5, 64)
        shifted = c.nodes.copy()
        shifted[:, 0] += 0.3  # endpoint leaves the circle, o mismatched
        bad = type(c)(nodes=shifted, dirichlet_point=c.dirichlet_point)
        with pytest.raises(InvalidCurve):
            run(FlowRunConfig(d=0.5, initial=bad, n=64, t_end=0.1))


class TestMonotoneQuantities:
    def test_theta_bar_nondecreasing(self, converged_run):
        th = converged_run.table()["theta_max"]
        assert np.all(np.diff(th) > -1e-6)

    def test_height_equals_endpoint_height(self, short_run):
        # while the turning angle stays in (0, pi) the highest point is the
        # sliding endpoint, so max height = sin(theta_bar) up to the O(h)
        # bias of the chord-radial boundary discretization
        for s in short_run.states:
            assert s.diagnostics.height_max == pytest.approx(
                math.sin(s.diagnostics.theta_max), abs=1e-2)

    def test_height_decreases_after_half_pi(self, converged_run):
        tab = converged_run.table()
        late = tab["theta_max"] > math.pi / 2 + 0.05
        h = tab["height_max"][late]
        assert np.all(np.diff(h) < 1e-9)


class TestComparisons:
    def test_ode_check_on_flow(self, short_run):
        rep = theta_bar_ode_check(short_run, tol_ode=5e-3)
        assert not rep.skipped
        assert rep.min_growth_margin >= -5e-3

    def test_ode_check_full_run_with_alignment(self, converged_run):
        rep = theta_bar_ode_check(converged_run, tol_ode=5e-3)
        assert rep.t_star is not None
        assert rep.max_barrier_excess <= 5e-3

    def test_ode_check_vacuous_on_stationary(self):
        c = unstable_arc(0.5, 64)
        cfg = FlowRunConfig(d=0.5, initial=c, n=64, t_end=0.005, record_every=5)
        rep = theta_bar_ode_check(run(cfg))
        assert rep.skipped

    def test_ode_margin_improves_with_resolution(self):
        worst = []
        for n in (64, 128, 256):
            c = initial_curve(0.3, 0.5, n)
            cfg = FlowRunConfig(d=0.5, initial=c, n=n, t_end=0.4, record_every=50)
            rep = theta_bar_ode_check(run(cfg), raise_on_fail=False)
            worst.append(abs(min(rep.min_growth_margin, 0.0)))
        assert worst[0] >= worst[1] >= worst[2]

    def test_speed_bound_along_run(self, short_run):
        lam, _ = solve_orthogonal_pair(0.3, 0.5)
        rep = speed_bound_check(short_run, lam, tol=1e-3)
        assert rep.min_margin >= -1e-3
        assert all(np.isfinite(v) for _, v in rep.kappa_over_y)

    def test_speed_equality_on_initial_slice(self):
        lam, _ = solve_orthogonal_pair(0.3, 0.5)
        c = initial_curve(0.3, 0.5, 128)
        prof = curvature_profile(c)
        y = c.nodes[:, 1]
        sel = np.cos(prof.theta) > 0.1
        gap = np.abs(prof.kappa[sel] / np.cos(prof.theta[sel])
                     - lam * np.tan(lam * y[sel]))
        assert gap.max() < 50.0 / 128 ** 2

    def test_maximum_principle_margins(self, short_run):
        rep = maximum_principle_check(short_run)
        assert rep.passed

    def test_gradient_bound_tracks_theta(self, converged_run):
        rep = maximum_principle_check(converged_run)
        assert rep.gradient_bound_margin >= 0.0

    def test_avoidance_of_translated_upper_barrier(self, short_run):
        margin = nn_avoidance_check(short_run, rho=0.3)
        assert margin >= -1e-6

    def test_half_pi_crossing_detected(self, converged_run):
        t_star = half_pi_crossing(converged_run)
        assert t_star is not None
        tab = converged_run.table()
        i = np.searchsorted(tab["t"], t_star)
        assert tab["theta_max"][max(i - 1, 0)] <= math.pi / 2 + 1e-6
        # the flow lies above the subsolution family after alignment, so it
        # cannot die before the family does (d = 1 case tested elsewhere)

    def test_theta_bar_between_barriers(self, converged_run):
        cfg = ProblemConfig(0.5)
        t_star = half_pi_crossing(converged_run)
        tab = converged_run.table()
        tau = tab["t"] - t_star
        sel = tau <= 0.0
        excess = tab["theta_max"][sel] - theta_minus(cfg, tau[sel])
        assert excess.max() <= 5e-3


class TestAreaIdentity:
    def test_discrepancy_shrinks_with_resolution(self):
        from discflow.analysis import area_balance

        worst = []
        for n in (48, 96):
            c = initial_curve(0.3, 0.5, n)
            cfg = FlowRunConfig(d=0.5, initial=c, n=n, t_end=0.3, record_every=25)
            rep = area_balance(run(cfg))
            worst.append(rep.max_discrepancy)
        assert worst[0] < 2e-2
        assert worst[1] < worst[0]


class TestExport:
    def test_roundtrip(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        loaded = load_trajectory(out)
        assert loaded.outcome.kind == short_run.outcome.kind
        assert len(loaded.states) == len(short_run.states)
        assert np.abs(loaded.states[-1].curve.nodes
                      - short_run.states[-1].curve.nodes).max() < 1e-15
        assert loaded.states[3].diagnostics.area == pytest.approx(
            short_run.states[3].diagnostics.area, abs=1e-16)

    def test_deterministic_bytes(self, short_run, tmp_path):
        a = write_trajectory(short_run, tmp_path / "a")
        b = write_trajectory(short_run, tmp_path / "b")
        for name in ("manifest.json", "diagnostics.csv", "state_000000.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_diagnostics_header(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        first = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert first == "t,theta_min,theta_max,kappa_max,area,height_max,length"


def edit_manifest(outdir, change):
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


class TestStrictLoad:
    @pytest.mark.parametrize("key", ["area_shed", "record_every", "dt_safety", "rho"])
    def test_missing_key(self, short_run, tmp_path, key):
        out = write_trajectory(short_run, tmp_path / "run")
        edit_manifest(out, lambda m: m.pop(key))
        with pytest.raises(ParameterError, match=rf"lacks {key}$"):
            load_trajectory(out)

    def test_missing_outcome_detail(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        edit_manifest(out, lambda m: m["outcome"].pop("detail"))
        with pytest.raises(ParameterError, match="outcome lacks detail$"):
            load_trajectory(out)

    def test_null_rho_and_lambda_ref_load(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        edit_manifest(out, lambda m: m.update(rho=None, lambda_ref=None))
        loaded = load_trajectory(out)
        assert loaded.rho is None and loaded.lambda_ref is None

    def test_length_mismatch(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        edit_manifest(out, lambda m: m["times"].pop())
        with pytest.raises(ParameterError, match="differ in length"):
            load_trajectory(out)

    def test_removed_state_file(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        (out / "state_000002.csv").unlink()
        with pytest.raises(ParameterError, match=r"cannot read .*state_000002\.csv"):
            load_trajectory(out)
