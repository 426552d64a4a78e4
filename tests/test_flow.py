"""Flow stepper: stationary states, invariants, comparisons, export."""
import dataclasses
import gc
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discflow.flow as flow
import discflow.geometry as geometry
from discflow.barriers import ProblemConfig, characteristic_rhs, theta_minus
from discflow.errors import (
    ComparisonViolation,
    DomainError,
    InsufficientWindow,
    InvalidCurve,
    ParameterError,
)
from discflow.flow import (
    TRANSIENT_STEPS,
    FlowRunConfig,
    gradient_lower_bound,
    hausdorff_to_minimizing_arc,
    half_pi_crossing,
    load_trajectory,
    maximum_principle_check,
    minimizing_arc,
    nn_avoidance_check,
    run,
    speed_bound_check,
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


class TestStationaryStates:
    def test_unstable_arc_fixed(self):
        c = unstable_arc(0.5, 64)
        nodes, _ = flow._advance(c.nodes, 0.5, 1e-5, 64)
        assert np.abs(nodes - c.nodes).max() < 1e-14

    def test_minimizing_arc_fixed(self):
        c = minimizing_arc(0.5, 64)
        nodes, _ = flow._advance(c.nodes, 0.5, 1e-5, 64)
        assert np.abs(nodes - c.nodes).max() < 1e-14

    def test_stationary_run_reaches_max_time(self):
        c = unstable_arc(0.5, 64)
        cfg = FlowRunConfig(d=0.5, initial=c, n=64, t_end=0.01, record_every=10)
        traj = run(cfg)
        assert traj.outcome.kind == "max_time"
        assert np.abs(traj.states[-1].curve.nodes - c.nodes).max() < 1e-12

    @pytest.mark.parametrize("where", ["heights -0.0", "penultimate below"])
    def test_minimizing_arc_ending_on_the_axis_from_below(self, where):
        # the minimizing arc with its heights written as -0.0, or with its
        # penultimate node 1e-12 below the axis, which the rule admits: the
        # end at (-1, 0) then sits a hair below the axis, and the area's
        # circle closure must take the short arc, not the whole circle
        nodes = minimizing_arc(0.5, 64).nodes.copy()
        if where == "heights -0.0":
            nodes[:, 1] = -0.0
        else:
            nodes[-2, 1] = -1e-12
        assert flow._step_valid(nodes) is None
        traj = run(FlowRunConfig(d=0.5, initial=Curve(nodes=nodes), n=64,
                                 record_every=10, max_steps=100))
        assert traj.outcome.kind == "converged_to_minimizer"
        assert [s.step for s in traj.states] == [0, 10]
        assert all(abs(s.diagnostics.area) < 1e-12 for s in traj.states)


class TestSingleStep:
    @pytest.mark.parametrize("n,halve", [(128, 1.0), (256, 0.5)])
    def test_height_grows_and_convexity_survives(self, n, halve):
        # forward in time the curve lifts off the flat arc, so the max
        # height (attained at the sliding endpoint) strictly increases
        c = initial_curve(0.3, 0.5, n)
        st0 = flow._make_state(c.nodes, 0.5, 0.0, 0)
        dt = 0.25 * (segment_lengths(c.nodes).sum() / n) ** 2 * halve
        nodes, _ = flow._advance(c.nodes, 0.5, dt, n)
        assert flow._step_valid(nodes) is None
        st1 = flow._make_state(nodes, 0.5, dt, 1)
        assert st1.diagnostics.height_max > st0.diagnostics.height_max
        prof = curvature_profile(st1.curve)
        tol = flow.tol_inv(st1.diagnostics.kappa_max)
        assert prof.kappa.min() > -tol
        assert (np.diff(prof.kappa) / np.diff(prof.s)).min() > -tol

    def test_boundary_conditions_exact(self):
        c = initial_curve(0.4, 0.7, 64)
        nodes, _ = flow._advance(c.nodes, 0.7, 1e-6, 64)
        assert flow._step_valid(nodes) is None
        assert nodes[0, 0] == -0.7
        assert nodes[0, 1] == 0.0
        assert abs(np.hypot(*nodes[-1]) - 1.0) < 1e-15
        seg = nodes[-1] - nodes[-2]
        cross = nodes[-1, 0] * seg[1] - nodes[-1, 1] * seg[0]
        assert abs(cross) / np.hypot(*seg) < 1e-8

    def test_unstable_dt_rejected(self):
        c = initial_curve(0.3, 0.5, 64)
        nodes, _ = flow._advance(c.nodes, 0.5, 10.0, 64)
        assert flow._step_valid(nodes) is not None


def reference_advance(nodes, d, dt, n):
    """The explicit step spelled out as a composition of the geometry
    routines: curvature_vectors, re-pin o and project the right end
    radially, _resample_nodes, project again.  Returns (nodes, shed)."""
    def project_end(p):
        phi = math.atan2(p[-2, 1], p[-2, 0])
        p[-1] = (math.cos(phi), math.sin(phi))

    def area(p):
        return enclosed_area(Curve(nodes=p))

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

    def test_other_node_count_raises(self):
        # a step keeps the node count: every row of a run has n + 1 nodes
        nodes = initial_curve(0.3, 0.5, 64).nodes
        with pytest.raises(ValueError, match="could not broadcast"):
            flow._advance(nodes, 0.5, 1e-5, 40)

    def test_checked_step_is_advance_plus_predicate(self):
        nodes = initial_curve(0.3, 0.5, 64).nodes
        frame = flow._run_buffers(nodes, 64)[0]
        kept = [a.copy() for a in frame.frame]
        candidate = flow._advance_checked(frame, 0.5, 1e-5, 64)
        z, seg, joint = candidate.frame
        out_ref, shed_ref = flow._advance(nodes, 0.5, 1e-5, 64)
        out = flow._as_nodes(z)
        assert np.abs(out - out_ref).max() < 1e-13
        us, zs = candidate.sheds
        assert abs(flow._sheds(us, flow._areas(zs))[0] - shed_ref) < 1e-15
        # the candidate's frame is the one built from its nodes, and the
        # input frame is left as it was
        for got, want in zip((z, seg, joint), flow._frame(flow._as_complex(out.copy()))):
            assert np.array_equal(got, want)
        assert all(np.array_equal(a, b) for a, b in zip(frame.frame, kept))
        # the candidate is the next row of the chain, the last one
        assert candidate is frame.other and candidate.other is None

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
        real = geometry._has_proper_intersection
        monkeypatch.setattr(geometry, "_has_proper_intersection",
                            lambda p: calls.append(len(p)) or real(p))
        assert flow._step_valid(self.LOOP) == "self-intersection"
        assert calls == [len(self.LOOP)]

    def test_gate_passes_embedded_hook_and_convex_curves(self, monkeypatch):
        assert self.turning_range(self.HOOK) > math.pi
        calls = []
        real = geometry._has_proper_intersection
        monkeypatch.setattr(geometry, "_has_proper_intersection",
                            lambda p: calls.append(len(p)) or real(p))
        assert flow._step_valid(self.HOOK) is None
        assert calls == [len(self.HOOK)]
        convex = initial_curve(0.3, 0.5, 64).nodes
        assert self.turning_range(convex) < math.pi - 1e-9
        assert flow._step_valid(convex) is None
        assert calls == [len(self.HOOK)]  # the gate did not trip


def single_row_reason(nodes):
    """The validity predicate on one polyline, as it was before run()
    checked blocks of steps: the four conditions in order, the first one
    that every segment is finite and longer than 1e-15."""
    z, seg, joint = flow._frame(flow._as_complex(nodes.copy()))
    if not (np.minimum.reduce(seg) > 1e-15 and np.maximum.reduce(seg) < math.inf):
        return "coincident or non-finite nodes"
    if float(np.minimum.reduce(z.imag)) < -geometry.EPS_GEOM:
        return "node below the x-axis"
    r_max = float(np.maximum.reduce(np.abs(z)))
    if r_max * r_max > 1.0 + 2.0 * geometry.STEP_CONTAIN_TOL:
        return "node outside the unit disc"
    if not geometry.is_embedded((z, seg, joint)):
        return "self-intersection"
    return None


def block_reason(rows):
    """flow._reason on the (M, 2) rows, loaded into rows 1.. of a chain."""
    chain = flow._run_buffers(np.zeros_like(rows[0]), len(rows[0]) - 1, len(rows) + 1)
    for buf, nodes in zip(chain[1:], rows):
        buf.nodes[...] = nodes
        _, buf.seg[...], buf.joint[...] = flow._frame(buf.z)
    return flow._reason(buf.block)


#: TestFusedStep.HOOK with the midpoints of its first three segments
#: added: the same embedded polyline on as many nodes as LOOP
HOOK_11 = np.insert(TestFusedStep.HOOK, [1, 2, 3],
                    0.5 * (TestFusedStep.HOOK[:3] + TestFusedStep.HOOK[1:4]), axis=0)


#: a fold just past the turning gate: right along y = 0.2, sharply back
#: and down across that segment; its joint angles sum to about pi + 0.2
FOLD = np.array([[-0.5, 0.2], [-0.25, 0.2], [0.0, 0.2], [0.6, 0.2], [0.3, 0.21],
                 [0.2, 0.19], [0.1, 0.17], [0.0, 0.15], [-0.1, 0.13], [-0.2, 0.11],
                 [-0.3, 0.09]])


@pytest.fixture(scope="module")
def small_rows():
    """Rows of 11 nodes: recorded states of an n = 10 run, LOOP, HOOK_11
    and FOLD."""
    traj = run(FlowRunConfig(d=0.5, initial=initial_curve(0.3, 0.5, 10), n=10,
                             record_every=5, max_steps=100))
    return [s.curve.nodes for s in traj.states] + [TestFusedStep.LOOP, HOOK_11, FOLD]


class TestBlockPredicate:
    """_reason on a stack of rows gives the first row the single-row
    predicate rejects, and its reason."""

    def test_turning_rows_get_the_exact_embedding_test(self, small_rows):
        assert single_row_reason(HOOK_11) is None
        assert TestFusedStep.turning_range(HOOK_11) > math.pi
        flat = small_rows[0]
        assert block_reason([flat, HOOK_11, flat]) == (3, None)
        assert block_reason([flat, HOOK_11, TestFusedStep.LOOP, flat]) == \
            (2, "self-intersection")
        assert single_row_reason(FOLD) == "self-intersection"
        assert TestFusedStep.turning_range(FOLD) < math.pi + 0.2
        assert block_reason([flat, FOLD]) == (1, "self-intersection")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_a_loop_over_rows(self, short_run, small_rows, data):
        pool = data.draw(st.sampled_from(
            [[s.curve.nodes for s in short_run.states], small_rows]))
        rows = [data.draw(st.sampled_from(pool)).copy()
                for _ in range(data.draw(st.integers(1, 6)))]
        for nodes in rows:
            i = data.draw(st.integers(1, len(nodes) - 2))
            kind = data.draw(st.sampled_from(
                ["none", "none", "nan", "inf", "below", "outside", "coincident"]))
            if kind in ("nan", "inf"):
                nodes[i, data.draw(st.integers(0, 1))] = \
                    np.nan if kind == "nan" else data.draw(st.sampled_from([np.inf, -np.inf]))
            elif kind == "below":
                nodes[i, 1] = -1e-8
            elif kind == "outside":
                nodes[i] *= (1.0 + 1e-6) / np.hypot(*nodes[i])
            elif kind == "coincident":
                nodes[i] = nodes[i + 1]
        reasons = [single_row_reason(nodes) for nodes in rows]
        bad = [i for i, why in enumerate(reasons) if why is not None]
        want = (bad[0], reasons[bad[0]]) if bad else (len(rows), None)
        assert block_reason(rows) == want


#: the reason run() gives a candidate whose first segment length a test
#: double set to 0
POISONED = "coincident or non-finite nodes"


def reference_loop(d, n, max_steps, record_every=1, poison_call=None, t_end=None):
    """run() as one step at a time, as it was before frames were carried
    and steps checked in blocks: dt from the complex segment lengths,
    _advance, then _step_valid on the candidate's nodes, and the area shed
    summed step by step.  The poison_call-th candidate (counting from 1)
    is rejected as POISONED.  A rejected step is retried at dt / 2, and
    MAX_DT_RETRIES + 1 rejections of one step end the run as an invariant
    violation.  The run ends at t_end, if given, or max_steps; no stop
    rule fires before.  Returns [(nodes, t, step, area_shed)] for the
    records, the rejection events and the outcome."""
    nodes = flow.prepare_initial(FlowRunConfig(d=d, initial=initial_curve(0.3, d, n), n=n))
    t = shed_sum = 0.0
    step = calls = 0
    states, events = [(nodes, t, step, shed_sum)], []
    outcome = flow.FlowOutcome(kind="max_steps", time=None)
    while step < max_steps and (t_end is None or t < t_end):
        z = flow._as_complex(nodes)
        dt = flow.DT_SAFETY * (float(np.abs(z[1:] - z[:-1]).sum()) / n) ** 2
        for _ in range(flow.MAX_DT_RETRIES + 1):
            candidate, shed = flow._advance(nodes, d, dt, n)
            calls += 1
            reason = POISONED if calls == poison_call else flow._step_valid(candidate)
            if reason is None:
                break
            events.append((t, f"step_rejected: {reason}"))
            dt *= 0.5
        else:
            outcome = flow.FlowOutcome(
                kind="invariant_violation", time=t,
                detail=f"step rejected {flow.MAX_DT_RETRIES + 1} times")
            break
        nodes, t, step, shed_sum = candidate, t + dt, step + 1, shed_sum + shed
        if step % record_every == 0:
            states.append((nodes, t, step, shed_sum))
    if outcome.kind == "max_steps":
        kind = "max_steps" if t_end is None or t < t_end else "max_time"
        outcome = flow.FlowOutcome(kind=kind, time=t)
    if states[-1][2] != step:
        states.append((nodes, t, step, shed_sum))
    return states, events, outcome


def assert_same_states(traj, ref):
    """The recorded states of traj are those of reference_loop, bit for
    bit, with the diagnostics curve_diagnostics gives their nodes."""
    assert len(traj.states) == len(ref)
    for s, (nodes, t, step, shed) in zip(traj.states, ref):
        assert np.array_equal(s.curve.nodes, nodes)
        assert (s.time, s.step, s.area_shed) == (t, step, shed)
        assert s.diagnostics == curve_diagnostics(Curve(nodes=nodes), traj.d)


def poison_steps(monkeypatch, poisoned):
    """Make run() step with the real _advance_checked, zero the first
    segment length of the candidates of the calls `poisoned` takes
    (counting from 1), so that run()'s check rejects them as POISONED, and
    record the (frame, dt) of every call in the returned list."""
    real, calls = flow._advance_checked, []

    def step(frame, d, dt, n):
        out = real(frame, d, dt, n)
        calls.append((frame, dt))
        if poisoned(len(calls)):
            out.seg[0] = 0.0
        return out

    monkeypatch.setattr(flow, "_advance_checked", step)
    return calls


class TestCarriedFrame:
    """run() carries each candidate's frame into the next step; it must
    step exactly as the loop that recomputed everything from the nodes."""

    @staticmethod
    def run_steps(d, steps, n=64):
        return run(FlowRunConfig(d=d, initial=initial_curve(0.3, d, n), n=n,
                                 record_every=1, max_steps=steps))

    @pytest.mark.parametrize("d", [0.5, 1.0])
    def test_run_matches_reference_loop(self, d):
        ref, events, _ = reference_loop(d, 64, 2000)
        traj = self.run_steps(d, 2000)
        assert traj.events == events == []
        assert_same_states(traj, ref)

    def test_run_matches_reference_loop_at_blowup_settings(self):
        # the blowup benchmark's d and node count
        ref, events, _ = reference_loop(1.0, 96, 2000)
        traj = self.run_steps(1.0, 2000, n=96)
        assert traj.events == events == []
        assert_same_states(traj, ref)

    @pytest.mark.parametrize("record_every", [1, 1000])
    @pytest.mark.parametrize("reject_call", [1, 5, 40])
    def test_rejected_candidate_retries_from_unchanged_frame(self, monkeypatch,
                                                             reject_call, record_every):
        # the reject_call-th candidate is computed in full and then
        # rejected with the rest of its block; the retry at dt / 2 starts
        # from the same frame, in row 0.  Blocks run through record steps,
        # so call 40 comes after a full block of CHECK_BLOCK steps at
        # either record_every.  reference_loop steps with _advance, so it
        # runs before the monkeypatch
        ref, events, _ = reference_loop(0.5, 64, 2000, record_every, poison_call=reject_call)
        calls = poison_steps(monkeypatch, lambda call: call == reject_call)
        traj = run(FlowRunConfig(d=0.5, initial=initial_curve(0.3, 0.5, 64), n=64,
                                 record_every=record_every, max_steps=2000))
        # the block's candidates past the poisoned one are discarded
        block = flow.CHECK_BLOCK
        retry = -(-reject_call // block) * block
        (head, _), (retry_frame, retry_dt) = calls[0], calls[retry]
        assert len(calls) == 2001 + retry - reject_call
        assert retry_frame is head and retry_dt == 0.5 * calls[reject_call - 1][1]
        assert traj.events == events
        assert [name for _, name in events] == [f"step_rejected: {POISONED}"]
        assert_same_states(traj, ref)


    def test_blocks_grow_back_after_a_rejection(self, monkeypatch):
        # call 5 is rejected in the first block of CHECK_BLOCK candidates,
        # call 42 as the third of the block of 8 that follows the retry and
        # the blocks of 2 and 4; after each rejection the blocks grow again
        # 1, 2, 4, ... up to CHECK_BLOCK, and the last is cut at max_steps
        calls = poison_steps(monkeypatch, lambda call: call in (5, 42))
        traj = run(FlowRunConfig(d=0.5, initial=initial_curve(0.3, 0.5, 64), n=64,
                                 record_every=1000, max_steps=200))
        head = calls[0][0]
        starts = [i for i, (frame, _) in enumerate(calls) if frame is head]
        assert [b - a for a, b in zip(starts, starts[1:] + [len(calls)])] == \
            [32, 1, 2, 4, 8, 1, 2, 4, 8, 16, 32, 32, 32, 32, 28]
        # 200 steps, 2 rejections and the 27 + 5 candidates past them
        assert len(calls) == 200 + 2 + 27 + 5
        assert traj.states[-1].step == 200
        assert traj.events == [(traj.events[0][0], f"step_rejected: {POISONED}"),
                               (traj.events[1][0], f"step_rejected: {POISONED}")]


class TestRealRejections:
    """Steps the validity predicate itself rejects: a DT_SAFETY above the
    stable bound makes the explicit step overshoot, and run() must halve
    dt, retry and give up exactly as the one-step-at-a-time loop does."""

    #: (rejection events, outcome, last step) of each run, as the
    #: one-step-at-a-time loop gives them, and run()'s step calls: the
    #: steps, the rejections and the candidates computed past a rejection
    #: in its block
    SEEN = {(0.5, 0.55): (31, "max_steps", 2000, 2610),
            (0.5, 0.7): (341, "max_steps", 2000, 2922),
            (0.5, 1.0): (1499, "max_steps", 2000, 4524),
            (0.5, 2.0): (3820, "max_steps", 2000, 7397),
            (1.0, 0.55): (68, "max_steps", 2000, 2667),
            (1.0, 0.7): (512, "max_steps", 2000, 3666),
            (1.0, 1.0): (74, "invariant_violation", 79, 205),
            (1.0, 2.0): (3867, "invariant_violation", 1972, 7376)}

    @pytest.mark.parametrize("safety", [0.55, 0.7, 1.0, 2.0])
    @pytest.mark.parametrize("d, n", [(0.5, 64), (1.0, 96)])
    def test_run_matches_reference_loop(self, monkeypatch, safety, d, n):
        monkeypatch.setattr(flow, "DT_SAFETY", safety)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # reference_loop steps with _advance, so it runs unpatched
            with monkeypatch.context() as m:
                calls = poison_steps(m, lambda call: False)
                traj = run(FlowRunConfig(d=d, initial=initial_curve(0.3, d, n), n=n,
                                         record_every=7, max_steps=2000))
            ref, events, outcome = reference_loop(d, n, 2000, 7)
        assert traj.outcome == outcome
        assert traj.events == events
        assert (len(events), outcome.kind, ref[-1][2], len(calls)) == self.SEEN[d, safety]
        assert_same_states(traj, ref)


class TestRunBuffers:
    """run() steps on buffers of its own: no recorded state, callback
    argument or other run shares their memory."""

    @pytest.mark.parametrize("record_every, max_steps", [(5, 200), (1000, 100)])
    def test_no_state_shares_a_ring_row(self, monkeypatch, record_every, max_steps):
        # record_every 1000: blocks of CHECK_BLOCK steps, the last one cut
        # by max_steps
        real = flow._run_buffers
        chains = []
        monkeypatch.setattr(flow, "_run_buffers",
                            lambda *args: chains.append(real(*args)) or chains[-1])
        seen = []
        traj = run(FlowRunConfig(d=0.5, initial=initial_curve(0.3, 0.5, 64), n=64,
                                 record_every=record_every, max_steps=max_steps),
                   callback=seen.append)
        rows = chains[-1]
        assert len(rows) == flow.CHECK_BLOCK + 1 and rows[-1].other is None
        assert all(row.other is nxt for row, nxt in zip(rows, rows[1:]))
        assert seen == traj.states[1:]
        for s in traj.states:
            assert not any(np.shares_memory(s.curve.nodes, row.z) for row in rows)
        ref, events, outcome = reference_loop(0.5, 64, max_steps, record_every)
        assert traj.outcome == outcome and traj.events == events == []
        assert_same_states(traj, ref)

    def test_a_run_leaves_no_cyclic_garbage(self):
        # no reference cycle outlives a step or a run: each is freed when
        # its last reference goes, not at the next full garbage collection
        nodes = initial_curve(0.3, 0.5, 64).nodes
        gc.collect()
        gc.disable()
        try:
            run(FlowRunConfig(d=0.5, initial=initial_curve(0.3, 0.5, 64), n=64,
                              record_every=5, max_steps=100))
            flow._step_valid(flow._advance(nodes, 0.5, 1e-5, 64)[0])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_buffers_are_per_run_and_never_leak(self):
        c = initial_curve(0.3, 0.5, 64)
        cfg = FlowRunConfig(d=0.5, initial=c, n=64, record_every=5, max_steps=200)
        seen, snapshots, inner = [], [], []

        def callback(state):
            seen.append(state)
            snapshots.append(state.curve.nodes.copy())
            if len(seen) == 10:  # a second run, on another n, partway through
                inner.append(run(FlowRunConfig(d=0.7, initial=initial_curve(0.4, 0.7, 40),
                                               n=40, record_every=3, max_steps=30)))

        traj = run(cfg, callback=callback)
        assert len(inner) == 1 and inner[0].outcome.kind == "max_steps"
        assert seen == traj.states[1:]
        for state, nodes in zip(seen, snapshots):
            assert np.array_equal(state.curve.nodes, nodes)
        arrays = [s.curve.nodes for s in traj.states + inner[0].states]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        plain = run(cfg)
        assert plain.outcome == traj.outcome and plain.events == traj.events
        assert len(plain.states) == len(traj.states)
        for a, b in zip(plain.states, traj.states):
            assert np.array_equal(a.curve.nodes, b.curve.nodes)
            assert (a.time, a.step, a.area_shed, a.diagnostics) == \
                (b.time, b.step, b.area_shed, b.diagnostics)


class TestBlockShed:
    """run() adds up the area its accepted steps shed by resampling in one
    batched pass per block; the sum must be the one of the per-step
    formula, bit for bit, however a block ends."""

    @staticmethod
    def area(z):
        # enclosed_area's formula on one row of complex nodes, written out
        end = z[-1]
        return 0.5 * np.vdot(z[:-1], z[1:]).imag \
            + 0.5 * (math.pi - math.atan2(abs(end.imag), end.real))

    @pytest.mark.parametrize("d, n", [(0.5, 64), (1.0, 96)])
    @pytest.mark.parametrize("k", [1, 10, 32])
    def test_batched_shed_is_the_per_step_formula(self, monkeypatch, d, n, k):
        # rows 1..k of a real run's chain hold its last full block
        real = flow._run_buffers
        chains = []
        monkeypatch.setattr(flow, "_run_buffers",
                            lambda *args: chains.append(real(*args)) or chains[-1])
        run(FlowRunConfig(d=d, initial=initial_curve(0.3, d, n), n=n,
                          record_every=1000, max_steps=3 * flow.CHECK_BLOCK))
        us, zs = chains[-1][k].sheds
        assert us.shape == zs.shape == (k, n + 1)
        sheds = flow._sheds(us, flow._areas(zs))
        assert sheds == [self.area(u) - self.area(z) for u, z in zip(us, zs)]
        assert all(shed != 0.0 for shed in sheds)

    @pytest.mark.parametrize("record_every, max_steps, t_end_step, poison_call", [
        pytest.param(10, 100, None, None, id="record_step"),
        pytest.param(1000, 2000, 42, None, id="t_end_mid_block"),
        pytest.param(1000, 45, None, None, id="max_steps_mid_block"),
        pytest.param(1000, 100, None, 5, id="rejection_mid_block")])
    def test_recorded_shed_matches_reference_loop(self, monkeypatch, record_every,
                                                   max_steps, t_end_step, poison_call):
        # the last block ends at a record step, on a t_end break or at
        # max_steps CHECK_BLOCK + 13, or the first one is rejected at its
        # fifth candidate; reference_loop steps with _advance, so it runs
        # before the monkeypatch
        t_end = None
        if t_end_step is not None:
            times = [t for _, t, _, _ in reference_loop(0.5, 64, t_end_step)[0]]
            t_end = 0.5 * (times[-2] + times[-1])
        ref, events, outcome = reference_loop(0.5, 64, max_steps, record_every,
                                              poison_call, t_end)
        poison_steps(monkeypatch, lambda call: call == poison_call)
        traj = run(FlowRunConfig(d=0.5, initial=initial_curve(0.3, 0.5, 64), n=64,
                                 t_end=t_end, record_every=record_every,
                                 max_steps=max_steps))
        last = traj.states[-1].step
        assert last == (t_end_step or max_steps)
        assert traj.outcome == outcome and traj.events == events
        assert len(events) == (poison_call is not None)
        assert_same_states(traj, ref)


def chain_of_run(monkeypatch, d, n, **kw):
    """The chain of rows of a run at d on n segments from initial_curve,
    as the run left it."""
    real = flow._run_buffers
    chains = []
    with monkeypatch.context() as m:
        m.setattr(flow, "_run_buffers", lambda *args: chains.append(real(*args)) or chains[-1])
        run(FlowRunConfig(d=d, initial=initial_curve(0.3, d, n), n=n, **kw))
    return chains[-1]


def bulged_arc(n):
    """n + 1 nodes from (-1, 0) to (1, 0) bulging out of the unit disc:
    embedded and above the x-axis, with an enclosed area below 0, refused
    as outside the disc."""
    phi = np.linspace(math.pi, 0.0, n + 1)
    z = (1.0 + 0.01 * np.sin(phi)) * np.exp(1j * phi)
    return np.column_stack([z.real, z.imag])


def reference_diagnostics(nodes):
    """curve_diagnostics spelled out as a composition of the geometry
    routines, one curve at a time: curvature_profile, enclosed_area,
    segment_lengths, and the polar angle of an end node on the circle."""
    c = Curve(nodes=nodes)
    prof, end = curvature_profile(c), nodes[-1]
    theta = prof.theta.copy()
    if abs(float(np.hypot(*end)) - 1.0) <= 10.0 * geometry.EPS_GEOM:
        phi = math.atan2(end[1], end[0])
        theta[-1] = phi + 2.0 * math.pi * round((theta[-1] - phi) / (2.0 * math.pi))
    return geometry.CurveDiagnostics(
        float(theta.min()), float(theta.max()), float(prof.kappa.max()), enclosed_area(c),
        float(nodes[:, 1].max()), float(segment_lengths(nodes).sum()))


class TestBlockRecords:
    """run() decides the records of a block with one batched diagnostics
    call, then its stop rules record by record; the diagnostics, states
    and outcome must be those of deciding each record as it is reached."""

    @staticmethod
    def one_by_one(z, d):
        return [curve_diagnostics(Curve(nodes=flow._as_nodes(row).copy()), d) for row in z]

    @pytest.mark.parametrize("d, n", [(0.5, 64), (1.0, 96)])
    @pytest.mark.parametrize("k", [1, 3, 32])
    def test_batched_diagnostics_are_curve_diagnostics(self, monkeypatch, d, n, k):
        # rows 1..k of a real run's chain hold its last full block
        chain = chain_of_run(monkeypatch, d, n, record_every=1000,
                             max_steps=3 * flow.CHECK_BLOCK)
        z, seg, joint = chain[k].block
        want = self.one_by_one(z, d)
        assert want == [reference_diagnostics(flow._as_nodes(row).copy()) for row in z]
        assert geometry._diagnostics((z, seg, joint)) == (want, None)
        assert geometry._diagnostics((z, seg, joint), geometry._areas(z)) == (want, None)
        # a row whose end node is off the circle (inside the disc) keeps the
        # profile's end angle
        off = z.copy()
        off[k // 2, -1] *= 1.0 - 1e-7
        assert abs(abs(off[k // 2, -1]) - 1.0) > 10.0 * geometry.EPS_GEOM
        want = self.one_by_one(off, d)
        assert want == [reference_diagnostics(flow._as_nodes(row).copy()) for row in off]
        assert want[k // 2].theta_max != self.one_by_one(z, d)[k // 2].theta_max
        assert geometry._diagnostics(flow._frame(off)) == (want, None)

    @pytest.mark.parametrize("d, n", [(0.5, 64), (1.0, 96)])
    @pytest.mark.parametrize("k, mid", [
        pytest.param(3, 1, id="3"), pytest.param(32, 16, id="32"),
        pytest.param(65, 0, id="65-first"), pytest.param(65, 32, id="65-middle"),
        pytest.param(65, 64, id="65-last")])
    @pytest.mark.parametrize("bad, message", [
        ("coincident", "coincident or non-finite nodes"),
        ("below", "node below the x-axis"),
        ("outside", "node outside the unit disc"),
        ("loop", "self-intersection"),
        ("area", r"enclosed area -0\.\d+ outside \[0, pi/2\]")])
    def test_first_refused_row_ends_the_stack(self, d, n, k, mid, bad, message):
        # row `mid` of a stack of the first k states of a run (the first,
        # a middle or the last row) fails one test of curve_diagnostics, in
        # the order it makes them.  No state in the disc has an area
        # outside [0, pi/2], so that row gets one passed in
        traj = run(FlowRunConfig(d=d, initial=initial_curve(0.3, d, n), n=n,
                                 record_every=1, max_steps=k))
        z = np.stack([flow._as_complex(s.curve.nodes) for s in traj.states[1:]])
        nodes = flow._as_nodes(z[mid]).copy()
        areas = None
        if bad == "coincident":
            nodes[n // 2] = nodes[n // 2 - 1]
        elif bad == "below":
            nodes[n // 2, 1] = -1e-3
        elif bad == "outside":
            nodes = bulged_arc(n)
        elif bad == "loop":
            nodes = _resample_nodes(TestFusedStep.LOOP, n)
        else:
            areas = geometry._areas(z)
            areas[mid] = -0.25
        z[mid] = flow._as_complex(nodes)
        if areas is None:
            with pytest.raises(InvalidCurve, match=message):
                curve_diagnostics(Curve(nodes=nodes), d)
        diags, refused = geometry._diagnostics(flow._frame(z), areas)
        assert diags == self.one_by_one(z[:mid], d)
        assert isinstance(refused, InvalidCurve)
        assert re.fullmatch(message, str(refused))

    @pytest.mark.parametrize("record_every", [1, 7, 31, 32, 33, 1000])
    def test_records_match_reference_loop(self, monkeypatch, record_every):
        # record steps at every position in a block, and none; the 40th
        # candidate is rejected
        ref, events, outcome = reference_loop(1.0, 96, 1010, record_every, poison_call=40)
        calls = poison_steps(monkeypatch, lambda call: call == 40)
        traj = run(FlowRunConfig(d=1.0, initial=initial_curve(0.3, 1.0, 96), n=96,
                                 record_every=record_every, max_steps=1010))
        assert traj.outcome == outcome and traj.events == events
        assert len(calls) == 1010 + 1 + flow.CHECK_BLOCK - 8
        assert_same_states(traj, ref)

    @pytest.mark.parametrize("record_every", [1, 3, 63, 64, 65])
    def test_chunked_records_match_reference_loop(self, record_every):
        # two full chunks of CHUNK_STATES records, then a third with half
        # as many and, but at record_every 1, the final state between two
        # records
        max_steps = (2 * flow.CHUNK_STATES + flow.CHUNK_STATES // 2) * record_every + 1
        ref, events, outcome = reference_loop(0.5, 32, max_steps, record_every)
        seen = []
        traj = run(FlowRunConfig(d=0.5, initial=initial_curve(0.3, 0.5, 32), n=32,
                                 record_every=record_every, max_steps=max_steps),
                   callback=seen.append)
        assert traj.outcome == outcome and traj.events == events == []
        assert len(seen) == len(traj.states) - 1
        assert all(a is b for a, b in zip(seen, traj.states[1:]))
        assert_same_states(traj, ref)

    def test_refused_record_inside_a_multi_block_chunk(self, monkeypatch):
        # record_every 3: the first chunk holds the records at steps 3, 6,
        # ..., 192, taken in six blocks of CHECK_BLOCK steps, and its 40th
        # (step 120) is refused.  The run has stepped to the end of the
        # chunk, but ends at the record before the refused one, and the
        # callback sees no state after it.  reference_loop steps with
        # _advance, so it runs before the monkeypatch
        ref = reference_loop(0.5, 64, 120, 3)[0]
        calls = poison_steps(monkeypatch, lambda call: False)
        real = flow._diagnostics

        def diagnostics(frame, areas):
            diags, refused = real(frame, areas)
            assert refused is None and len(diags) == flow.CHUNK_STATES
            return diags[:39], InvalidCurve("enclosed area 1.6 outside [0, pi/2]")

        monkeypatch.setattr(flow, "_diagnostics", diagnostics)
        seen = []
        traj = run(FlowRunConfig(d=0.5, initial=initial_curve(0.3, 0.5, 64), n=64,
                                 record_every=3, max_steps=1000), callback=seen.append)
        assert len(calls) == 3 * flow.CHUNK_STATES == 6 * flow.CHECK_BLOCK
        assert traj.events == []
        assert [s.step for s in traj.states] == list(range(0, 118, 3))
        assert_same_states(traj, ref[:40])
        assert traj.outcome == flow.FlowOutcome(
            kind="invalid_state", time=ref[40][1], detail="enclosed area 1.6 outside [0, pi/2]")
        assert len(seen) == len(traj.states) - 1
        assert all(a is b for a, b in zip(seen, traj.states[1:]))

    def test_no_diagnostics_call_exceeds_a_chunk(self, monkeypatch):
        # 200 records after the initial state (which _make_state decides
        # alone), the last one at max_steps; deciding them per block took
        # 63 calls of 2 to 4 rows
        real, sizes = flow._diagnostics, []

        def counted(frame, areas):
            sizes.append(len(frame[0]))
            return real(frame, areas)

        monkeypatch.setattr(flow, "_diagnostics", counted)
        traj = run(FlowRunConfig(d=1.0, initial=initial_curve(0.3, 1.0, 96), n=96,
                                 record_every=10, max_steps=2000))
        assert len(traj.states) == 201 and traj.outcome.kind == "max_steps"
        assert sizes == [flow.CHUNK_STATES] * 3 + [8]

    @pytest.mark.parametrize("kind, poison_call, step_calls", [
        ("extinct", 15, 10), ("extinct", 25, 10), ("extinct_unforeseen", 25, flow.CHECK_BLOCK),
        ("invalid_state", 32, flow.CHECK_BLOCK)])
    def test_record_ends_the_run_mid_block(self, monkeypatch, kind, poison_call, step_calls):
        # the stop rules fire at every record: the first block ends at the
        # step-10 record, where they may fire, before the poisoned
        # candidate.  Or, with that cut blinded, the first block runs on to
        # the poisoned candidate and accepts the records at 10 and 20.  Or
        # the diagnostics refuse step 20 of a first block of CHECK_BLOCK
        # candidates that accepts the records at 10, 20 and 30 before the
        # poisoned one.  Each way the run ends at the first such record,
        # and no rejection is logged or retried.
        # reference_loop steps with _advance, so it runs before the
        # monkeypatch
        ref = reference_loop(1.0, 96, 20, 10)[0]
        calls = poison_steps(monkeypatch, lambda call: call == poison_call)
        stacks = []
        if kind.startswith("extinct"):
            monkeypatch.setattr(flow, "EXTINCT_LEN", math.inf)
            monkeypatch.setattr(flow, "EXTINCT_KAPPA", -math.inf)
        if kind == "extinct_unforeseen":
            # the block's length test no longer sees a length below EXTINCT_LEN
            monkeypatch.setattr(flow, "segment_lengths", lambda nodes: np.array([math.inf]))
        elif kind == "invalid_state":
            real = flow._diagnostics

            def diagnostics(frame, areas=None):
                stacks.append(len(frame[0]))
                diags, _ = real(frame, areas)
                return diags[:1], InvalidCurve("self-intersection")

            monkeypatch.setattr(flow, "_diagnostics", diagnostics)
        traj = run(FlowRunConfig(d=1.0, initial=initial_curve(0.3, 1.0, 96), n=96,
                                 record_every=10))
        assert traj.events == []
        assert len(calls) == step_calls
        assert [s.step for s in traj.states] == [0, 10]
        assert_same_states(traj, ref[:2])
        if kind.startswith("extinct"):
            diag = traj.states[-1].diagnostics
            assert traj.outcome == flow.FlowOutcome(
                kind="extinct", time=ref[1][1] + 0.5 * diag.length / diag.kappa_max)
        else:
            assert stacks == [3]
            assert traj.outcome == flow.FlowOutcome(
                kind="invalid_state", time=ref[2][1], detail="self-intersection")


@pytest.mark.parametrize("d, n, record_every, kind", [
    (1.0, 24, 7, "extinct"), (0.5, 16, 5, "converged_to_minimizer")])
def test_a_stop_rule_leaves_no_candidate_past_it(monkeypatch, d, n, record_every, kind):
    # the runs end by a stop rule at a record step inside a block of
    # CHECK_BLOCK steps; the benchmark counts every step call as a step
    # or a rejection
    calls = poison_steps(monkeypatch, lambda call: False)
    traj = run(FlowRunConfig(d=d, initial=initial_curve(0.3, d, n), n=n,
                             record_every=record_every))
    last = traj.states[-1].step
    assert traj.outcome.kind == kind and traj.events == []
    assert last % record_every == 0 and last % flow.CHECK_BLOCK != 0
    assert len(calls) == last


class TestRunConfig:
    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, -math.inf])
    def test_t_end_must_be_positive(self, t_end):
        c = initial_curve(0.3, 0.5, 64)
        with pytest.raises(DomainError, match="t_end must be positive"):
            FlowRunConfig(d=0.5, initial=c, n=64, t_end=t_end)

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_max_steps_must_be_positive(self, max_steps):
        c = initial_curve(0.3, 0.5, 64)
        with pytest.raises(DomainError, match="max_steps must be >= 1"):
            FlowRunConfig(d=0.5, initial=c, n=64, max_steps=max_steps)


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

    @pytest.mark.parametrize("fixture, kind", [("extinct_run", "extinct"),
                                               ("converged_run", "converged_to_minimizer"),
                                               ("short_run", "max_time")])
    def test_events_are_step_rejections_only(self, request, fixture, kind):
        # the outcome alone records how a run ended
        traj = request.getfixturevalue(fixture)
        assert traj.outcome.kind == kind
        assert all(name.startswith("step_rejected") for _, name in traj.events)

    def test_records_are_time_ordered(self, converged_run):
        ts = converged_run.table()["t"]
        assert np.all(np.diff(ts) > 0.0)

    def test_progress_callback(self):
        seen = []
        c = initial_curve(0.3, 0.5, 64)
        cfg = FlowRunConfig(d=0.5, initial=c, n=64, t_end=0.05, record_every=20)
        run(cfg, callback=seen.append)
        assert len(seen) >= 2
        assert all(s.curve.nodes.shape == (65, 2) for s in seen)

    @pytest.mark.parametrize("stop, kind", [({"max_steps": 25}, "max_steps"),
                                            ({"t_end": 0.01}, "max_time")])
    def test_callback_sees_every_record_after_the_initial(self, stop, kind):
        # the final state (step 25, or the first step past t_end) falls
        # between two record_every = 10 records
        seen = []
        c = initial_curve(0.3, 0.5, 64)
        traj = run(FlowRunConfig(d=0.5, initial=c, n=64, record_every=10, **stop),
                   callback=seen.append)
        assert traj.outcome.kind == kind
        assert traj.states[-1].step % 10 != 0
        assert seen == traj.states[1:]

    def test_max_steps_outcome(self):
        c = initial_curve(0.3, 0.5, 64)
        traj = run(FlowRunConfig(d=0.5, initial=c, n=64, t_end=1.0, max_steps=5))
        assert traj.outcome.kind == "max_steps"
        assert traj.states[-1].step == 5

    def test_invariant_violation_after_retries(self, monkeypatch):
        c = initial_curve(0.3, 0.5, 64)
        cfg = FlowRunConfig(d=0.5, initial=c, n=64, t_end=1.0)
        # dt from the complex segment lengths, as reference_loop takes it
        z = flow._as_complex(flow.prepare_initial(cfg))
        dt0 = flow.DT_SAFETY * (float(np.abs(z[1:] - z[:-1]).sum()) / 64) ** 2
        calls = poison_steps(monkeypatch, lambda call: True)
        traj = run(cfg)
        assert traj.outcome == flow.FlowOutcome(
            kind="invariant_violation", time=0.0,
            detail=f"step rejected {flow.MAX_DT_RETRIES + 1} times")
        assert traj.events == [(0.0, f"step_rejected: {POISONED}")] * \
            (flow.MAX_DT_RETRIES + 1)
        assert [s.step for s in traj.states] == [0]
        # a first block of CHECK_BLOCK candidates, then one per retry; each
        # block starts from row 0
        assert len(calls) == flow.CHECK_BLOCK + flow.MAX_DT_RETRIES
        head = calls[0][0]
        assert [dt for frame, dt in calls if frame is head] == \
            [dt0 * 2.0 ** -k for k in range(flow.MAX_DT_RETRIES + 1)]

    @pytest.mark.parametrize("failing_call, last_step", [(3, 10), (4, 20)])
    def test_invalid_state_ends_at_last_good_record(self, monkeypatch, failing_call,
                                                    last_step):
        # records at steps 0, 10 and 20, then the final state at step 25:
        # the initial state is one row, the one block's records and final
        # state a stack of three.  The third row fails at a record, the
        # fourth as the final state, and neither failing state is recorded
        real = geometry._diagnostics
        calls = []

        def diagnostics(frame, areas=None):
            diags, refused = real(frame, areas)
            for i, z in enumerate(frame[0]):
                calls.append(z)
                if len(calls) == failing_call:
                    return diags[:i], InvalidCurve("enclosed area 1.6 outside [0, pi/2]")
            return diags, refused

        monkeypatch.setattr(flow, "_diagnostics", diagnostics)
        monkeypatch.setattr(geometry, "_diagnostics", diagnostics)
        seen = []
        c = initial_curve(0.3, 0.5, 64)
        traj = run(FlowRunConfig(d=0.5, initial=c, n=64, record_every=10, max_steps=25),
                   callback=seen.append)
        assert len(calls) == failing_call
        assert traj.outcome.kind == "invalid_state"
        assert traj.outcome.detail == "enclosed area 1.6 outside [0, pi/2]"
        assert [s.step for s in traj.states] == list(range(0, last_step + 1, 10))
        assert traj.outcome.time > traj.states[-1].time
        assert len(seen) == len(traj.states) - 1
        assert all(a is b for a, b in zip(seen, traj.states[1:]))

    #: each refusal of prepare_initial, by the curve that meets it
    BAD_INITIAL = {"shifted": "does not start at the Dirichlet point",
                   "off_circle": "initial right endpoint not on the unit circle",
                   "below_axis": "invalid initial curve: node below the x-axis"}

    @pytest.mark.parametrize("case", BAD_INITIAL)
    def test_bad_initial_curve_rejected(self, case):
        if case == "off_circle":
            nodes = initial_curve(0.3, 0.5, 64).nodes.copy()
            nodes[-1] *= 1.01
        else:
            nodes = unstable_arc(0.5, 64).nodes.copy()
            if case == "shifted":
                nodes[:, 0] += 0.3  # endpoint leaves the circle, o mismatched
            else:
                nodes[10, 1] = -1e-6
        with pytest.raises(InvalidCurve, match=self.BAD_INITIAL[case]):
            run(FlowRunConfig(d=0.5, initial=Curve(nodes=nodes), n=64, t_end=0.1))


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
        rep = theta_bar_ode_check(short_run)
        assert rep.min_growth_margin != 0.0
        assert rep.min_growth_margin >= -5e-3

    def test_ode_check_full_run_with_alignment(self, converged_run):
        rep = theta_bar_ode_check(converged_run)
        assert half_pi_crossing(converged_run) is not None
        assert rep.max_barrier_excess <= 5e-3

    def test_ode_check_vacuous_on_stationary(self):
        c = unstable_arc(0.5, 64)
        cfg = FlowRunConfig(d=0.5, initial=c, n=64, t_end=0.005, record_every=5)
        rep = theta_bar_ode_check(run(cfg))
        assert rep.min_growth_margin == rep.max_barrier_excess == 0.0
        assert rep.passed

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
        rep = speed_bound_check(short_run, lam)
        assert rep.min_margin >= -1e-3

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
        margin = nn_avoidance_check(short_run)
        assert margin >= -1e-6

    def test_avoidance_reports_a_crossing(self, short_run):
        # arcs aligned to a lower slice (rho = 0.1) start below the
        # rho = 0.3 run: the crossing comes back as a negative margin
        assert nn_avoidance_check(dataclasses.replace(short_run, rho=0.1)) < -0.05

    def test_avoidance_needs_rho(self, short_run):
        with pytest.raises(DomainError, match="initial angle rho"):
            nn_avoidance_check(dataclasses.replace(short_run, rho=None))

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


def reference_max_principle(traj):
    """maximum_principle_check as one profile and one update per state."""
    cfg = ProblemConfig(traj.d)
    k_m = ks_m = cb_m = gb_m = math.inf
    for s in traj.states:
        if s.step < TRANSIENT_STEPS:
            continue
        prof = curvature_profile(s.curve)
        kmax = float(prof.kappa.max())
        tol = flow.tol_inv(kmax)
        k_m = min(k_m, float(prof.kappa.min()) + tol)
        ks = np.diff(prof.kappa) / np.diff(prof.s)
        ks_m = min(ks_m, float(ks.min()) + tol)
        th_bar = s.diagnostics.theta_max
        cb_m = min(cb_m, kmax - float(characteristic_rhs(cfg, th_bar)) + tol)
        gb_m = min(gb_m, s.diagnostics.theta_min
                   - float(gradient_lower_bound(cfg, th_bar)) + tol)
    return k_m, ks_m, cb_m, gb_m


def reference_speed_bound(traj, lam):
    """min_margin of speed_bound_check, state by state."""
    min_margin = math.inf
    for s in traj.states:
        if s.step < TRANSIENT_STEPS and s.step != 0:
            continue
        prof = curvature_profile(s.curve)
        y = s.curve.nodes[:, 1]
        cos_t = np.cos(prof.theta)
        mask = cos_t > 0.1
        if np.any(mask):
            margin = prof.kappa[mask] / cos_t[mask] - lam * np.tan(lam * y[mask])
            min_margin = min(min_margin, float(margin.min()))
    return min_margin


def reference_area_discrepancy(traj):
    """max_discrepancy of area_balance with each state's spread from its
    own profile."""
    tab = traj.table()
    spread = np.array([float(p.theta.max() - p.theta.min())
                       for p in (curvature_profile(s.curve) for s in traj.states)])
    flow_area = tab["area"] + tab["area_shed"]
    ts = tab["t"]
    dadt = (flow_area[2:] - flow_area[:-2]) / (ts[2:] - ts[:-2])
    return float(np.abs(dadt + spread[1:-1]).max())


@pytest.fixture(scope="module")
def run_65_states():
    # 65 records, steps 0..640: the speed bound and the area balance see
    # one full chunk plus one state, the maximum principle (steps >= 10)
    # exactly one full chunk
    c = initial_curve(0.3, 1.0, 64)
    traj = run(FlowRunConfig(d=1.0, initial=c, n=64, record_every=10, max_steps=640))
    assert len(traj.states) == 65 == flow.CHUNK_STATES + 1
    return traj


class TestChunkedChecks:
    """The checks over chunks of stacked states return == the values of a
    per-state loop."""

    @pytest.fixture(params=["converged_run", "extinct_run", "run_65_states", "reloaded"])
    def traj(self, request, tmp_path):
        if request.param == "reloaded":
            src = request.getfixturevalue("extinct_run")
            return load_trajectory(write_trajectory(src, tmp_path / "run"))
        return request.getfixturevalue(request.param)

    def test_maximum_principle(self, traj):
        rep = maximum_principle_check(traj)
        assert (rep.kappa_margin, rep.kappa_s_margin, rep.curvature_bound_margin,
                rep.gradient_bound_margin) == reference_max_principle(traj)

    def test_speed_bound(self, traj):
        lam = solve_orthogonal_pair(0.3, traj.d)[0]
        rep = speed_bound_check(traj, lam, raise_on_fail=False)
        assert rep.min_margin == reference_speed_bound(traj, lam)

    def test_area_balance(self, traj):
        from discflow.analysis import area_balance

        assert area_balance(traj).max_discrepancy == reference_area_discrepancy(traj)

    def test_all_transient_trajectory(self):
        c = initial_curve(0.3, 0.5, 64)
        traj = run(FlowRunConfig(d=0.5, initial=c, n=64, record_every=1,
                                 max_steps=TRANSIENT_STEPS - 1))
        with pytest.raises(InsufficientWindow):
            maximum_principle_check(traj)

    def test_speed_violation_raises_with_margin(self, extinct_run):
        # a reference eigenvalue far above the pairing's breaks the bound
        min_margin = reference_speed_bound(extinct_run, 1.5)
        assert min_margin < -1e-3
        with pytest.raises(ComparisonViolation) as exc:
            speed_bound_check(extinct_run, 1.5)
        assert exc.value.margin == min_margin


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


#: the files of a trajectory directory
FILES = ["diagnostics.csv", "manifest.json", "states.npy"]


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
        for name in ("manifest.json", "diagnostics.csv", "states.npy"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_shorter_rewrite_leaves_three_files(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        shorter = dataclasses.replace(short_run, states=short_run.states[:2])
        assert write_trajectory(shorter, out) == out
        assert sorted(p.name for p in out.iterdir()) == FILES
        assert [p.name for p in tmp_path.iterdir()] == ["run"]
        assert len(load_trajectory(out).states) == 2

    def test_failed_write_keeps_previous_directory(self, short_run, tmp_path,
                                                   monkeypatch):
        out = write_trajectory(short_run, tmp_path / "run")
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def broken_save(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", broken_save)
        shorter = dataclasses.replace(short_run, states=short_run.states[:2])
        with pytest.raises(OSError, match="disk full"):
            write_trajectory(shorter, out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["run"]

    def test_foreign_directory_is_not_replaced(self, short_run, tmp_path):
        out = tmp_path / "mine"
        out.mkdir()
        (out / "notes.txt").write_text("keep")
        with pytest.raises(ParameterError, match="holds no trajectory"):
            write_trajectory(short_run, out)
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mine"]

    def test_diagnostics_rows_match_per_value_format(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        rows = [",".join(f"{v:.17g}" for v in
                         [s.time, *s.diagnostics.as_row(), s.step, s.area_shed])
                for s in short_run.states]
        assert (out / "diagnostics.csv").read_text().splitlines()[1:] == rows

    def test_diagnostics_header(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        first = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert first == ("t,theta_min,theta_max,kappa_max,area,height_max,length,"
                         "step,area_shed")

    def test_manifest_holds_run_metadata_only(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["d", "dt_safety", "events", "format_version",
                                    "lambda_ref", "n", "outcome", "record_every", "rho"]

    @pytest.mark.parametrize("name", ["short_run", "extinct_run"])
    def test_rewrite_of_loaded_run_keeps_bytes(self, name, request, tmp_path):
        first = write_trajectory(request.getfixturevalue(name), tmp_path / "a")
        second = write_trajectory(load_trajectory(first), tmp_path / "b")
        for f in FILES:
            assert (first / f).read_bytes() == (second / f).read_bytes()

    def test_extreme_diagnostic_values_roundtrip(self, short_run, tmp_path):
        extremes = (-0.0, 5e-324, 1e300)
        s = short_run.states[1]
        diag = dataclasses.replace(s.diagnostics, theta_min=extremes[0],
                                   kappa_max=extremes[1], area=extremes[2])
        states = [*short_run.states[:1], dataclasses.replace(s, diagnostics=diag)]
        traj = dataclasses.replace(short_run, states=states)
        back = load_trajectory(write_trajectory(traj, tmp_path / "run")).states[1]
        got = (back.diagnostics.theta_min, back.diagnostics.kappa_max,
               back.diagnostics.area)
        assert got == extremes
        assert math.copysign(1.0, got[0]) == -1.0


class TestReloadedAnalyses:
    """Analyses of a saved run (discflow fit, later studies) see the run
    that was written."""

    @staticmethod
    def reload(traj, tmp_path):
        loaded = load_trajectory(write_trajectory(traj, tmp_path / "run"))
        for s, r in zip(traj.states, loaded.states):
            assert r.curve.nodes.dtype == np.float64
            assert r.curve.nodes.flags.c_contiguous
            assert np.array_equal(r.curve.nodes, s.curve.nodes)
        return loaded

    def test_checks_on_short_run(self, short_run, tmp_path):
        from discflow.analysis import area_balance

        loaded = self.reload(short_run, tmp_path)
        assert maximum_principle_check(loaded) == maximum_principle_check(short_run)
        assert area_balance(loaded) == area_balance(short_run)

    def test_blowup_on_extinct_run(self, extinct_run, tmp_path):
        from discflow.analysis import compare_grim_reaper, extract_blowup

        loaded = self.reload(extinct_run, tmp_path)
        a, b = extract_blowup(extinct_run, count=8), extract_blowup(loaded, count=8)
        assert (a.times, a.scales, a.omega) == (b.times, b.scales, b.omega)
        for x, y in zip(a.basepoints + a.rescaled_curves,
                        b.basepoints + b.rescaled_curves, strict=True):
            assert np.array_equal(x, y)
        assert compare_grim_reaper(a, 1.0) == compare_grim_reaper(b, 1.0)


def edit_manifest(outdir, change):
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


def edit_table(outdir, change):
    path = outdir / "diagnostics.csv"
    path.write_text("\n".join(change(path.read_text().splitlines())) + "\n")


class TestStrictLoad:
    @pytest.mark.parametrize("key", ["events", "record_every", "dt_safety", "rho"])
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

    def test_rejection_events_load(self, short_run, tmp_path):
        events = [(0.25, "step_rejected: node below the x-axis"), (0.5, "step_rejected: x")]
        out = write_trajectory(dataclasses.replace(short_run, events=events), tmp_path / "run")
        assert load_trajectory(out).events == events

    def test_null_rho_and_lambda_ref_load(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        edit_manifest(out, lambda m: m.update(rho=None, lambda_ref=None))
        loaded = load_trajectory(out)
        assert loaded.rho is None and loaded.lambda_ref is None

    def test_length_mismatch(self, short_run, tmp_path):
        # one diagnostics.csv row fewer than states.npy holds states
        out = write_trajectory(short_run, tmp_path / "run")
        edit_table(out, lambda lines: lines[:-1])
        states = len(short_run.states)
        with pytest.raises(ParameterError, match=rf"holds float64 \({states}, 97, 2\), "
                           rf"diagnostics\.csv rows .*\({states - 1}, 97, 2\)"):
            load_trajectory(out)

    @pytest.mark.parametrize("change, message", [
        (lambda m: m.update(events=[[0.1]]), "malformed events"),
        (lambda m: m.update(events=3), "malformed events"),
        (lambda m: m.update(d="abc"), "malformed d"),
        (lambda m: m.update(n="abc"), "malformed n"),
        (lambda m: m.update(dt_safety="abc"), "malformed dt_safety"),
        (lambda m: m.update(outcome=["extinct"]), "outcome lacks kind, time, detail$"),
        (lambda m: m.update(d=True), "malformed d: True is not int or float"),
        (lambda m: m.update(n=32.9), "malformed n: 32.9 is not int"),
        (lambda m: m.update(record_every=10.7), "malformed record_every"),
        (lambda m: m.update(d="0.5"), "malformed d"),
        (lambda m: m.update(n="32"), "malformed n"),
        (lambda m: m.update(rho="x"), "malformed rho"),
        (lambda m: m.update(events=[[0.1, 5]]), "malformed events: 5 is not str"),
        (lambda m: m["outcome"].update(kind=5), "malformed outcome kind: 5 is not str"),
        (lambda m: m["outcome"].update(kind="nonsense"),
         "malformed outcome kind: 'nonsense' is not one of converged_to_minimizer, "),
        (lambda m: m["outcome"].update(time="0.5"), "malformed outcome time: '0.5' is not"),
        (lambda m: m["outcome"].update(time=True), "malformed outcome time: True is not"),
        (lambda m: m["outcome"].update(detail=None),
         "malformed outcome detail: None is not str"),
        # values of the right type that run() cannot write
        (lambda m: m.update(d=5.0), r"malformed d: d must lie in \(0, 1\], got 5.0"),
        (lambda m: m.update(d=-1.0), r"malformed d: d must lie in \(0, 1\], got -1.0"),
        (lambda m: m.update(d=math.nan), "malformed d: nan is not finite"),
        (lambda m: m.update(d=10 ** 400), "malformed d: int too large to convert to float"),
        (lambda m: m.update(record_every=0),
         "malformed record_every: 0 is below the minimum 1"),
        (lambda m: m.update(dt_safety=-1.0), "malformed dt_safety: -1.0 is not positive"),
        (lambda m: m.update(dt_safety=math.nan), "malformed dt_safety: nan is not finite"),
        (lambda m: m.update(rho=math.nan), "malformed rho: nan is not finite"),
        (lambda m: m.update(lambda_ref=math.inf), "malformed lambda_ref: inf is not finite"),
        (lambda m: m.update(events=[[math.nan, "step_rejected: x"]]),
         "malformed events: nan is not finite"),
        (lambda m: m["outcome"].update(time=-math.inf),
         "malformed outcome time: -inf is not finite"),
    ], ids=["short_event", "events_number", "d", "n", "dt_safety", "outcome_list",
            "d_true", "n_fraction", "record_every_fraction", "d_string", "n_string",
            "rho_string", "event_name_number", "outcome_kind_number",
            "outcome_kind_unknown", "outcome_time_string", "outcome_time_true",
            "outcome_detail_null", "d_above_1", "d_negative", "d_nan", "d_huge_int",
            "record_every_0", "dt_safety_negative", "dt_safety_nan", "rho_nan",
            "lambda_ref_inf", "event_time_nan", "outcome_time_inf"])
    def test_malformed_manifest_value(self, short_run, tmp_path, change, message):
        out = write_trajectory(short_run, tmp_path / "run")
        edit_manifest(out, change)
        with pytest.raises(ParameterError, match=message):
            load_trajectory(out)

    @pytest.mark.parametrize("change, message", [
        (lambda lines: [lines[0].replace(",area_shed", "")] + lines[1:], "header is not"),
        (lambda lines: lines[:2] + [lines[2] + ",0"] + lines[3:], "line 3: 10 values, not 9"),
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
         "line 3: 8 values, not 9"),
        (lambda lines: lines[:1] + [lines[1].replace("0,", "abc,", 1)] + lines[2:],
         "line 2: could not convert string to float: 'abc'"),
        (lambda lines: lines[:2] + [lines[2].replace(",50,", ",50.5,")] + lines[3:],
         "line 3: step 50.5 is not an integer"),
        (lambda lines: lines + [lines[-1]], r"diagnostics\.csv rows"),
        (lambda lines: lines[:1] + [lines[1].replace("0,", "nan,", 1)] + lines[2:],
         "line 2: a value is not finite"),
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",inf"] + lines[3:],
         "line 3: a value is not finite"),
    ], ids=["header", "long_row", "short_row", "not_a_number", "fractional_step",
            "extra_row", "nan_cell", "inf_cell"])
    def test_malformed_table(self, short_run, tmp_path, change, message):
        out = write_trajectory(short_run, tmp_path / "run")
        edit_table(out, change)
        with pytest.raises(ParameterError, match=message):
            load_trajectory(out)

    def test_missing_format_version(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        edit_manifest(out, lambda m: m.pop("format_version"))
        with pytest.raises(ParameterError, match="old or unknown trajectory layout"):
            load_trajectory(out)

    def test_unknown_format_version(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        edit_manifest(out, lambda m: m.update(format_version=4))
        with pytest.raises(ParameterError, match="old or unknown trajectory layout"):
            load_trajectory(out)

    def test_format_version_2_is_refused(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        edit_manifest(out, lambda m: m.update(format_version=2))
        with pytest.raises(ParameterError, match="format_version 2, expected 3"):
            load_trajectory(out)

    def test_removed_state_file(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        (out / "states.npy").unlink()
        with pytest.raises(ParameterError, match=r"cannot read .*states\.npy"):
            load_trajectory(out)

    def test_truncated_state_file(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        path = out / "states.npy"
        data = path.read_bytes()
        for cut in (len(data) - 8, 64, 0):  # inside the nodes, the header, empty
            path.write_bytes(data[:cut])
            with pytest.raises(ParameterError, match=r"cannot read .*states\.npy"):
                load_trajectory(out)

    def test_too_few_nodes(self, short_run, tmp_path):
        # a matching (rows, 5, 2) states.npy: n = 4 is below what run() takes
        out = write_trajectory(short_run, tmp_path / "run")
        edit_manifest(out, lambda m: m.update(n=4))
        np.save(out / "states.npy", np.zeros((len(short_run.states), 5, 2)))
        with pytest.raises(ParameterError, match="malformed n: 4 is below the node minimum 8"):
            load_trajectory(out)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_node(self, short_run, tmp_path, value):
        out = write_trajectory(short_run, tmp_path / "run")
        nodes = np.stack([s.curve.nodes for s in short_run.states])
        nodes[1, 40, 1] = value
        np.save(out / "states.npy", nodes)
        with pytest.raises(ParameterError, match=r"states\.npy holds a non-finite node"):
            load_trajectory(out)

    def test_wrongly_shaped_states(self, short_run, tmp_path):
        out = write_trajectory(short_run, tmp_path / "run")
        nodes = np.stack([s.curve.nodes for s in short_run.states])
        states = len(short_run.states)
        for bad in (nodes[:-1], nodes[:, :-1], nodes.astype(np.float32)):
            np.save(out / "states.npy", bad)
            with pytest.raises(ParameterError,
                               match=rf"states\.npy holds .*float64 \({states}, 97, 2\)"):
                load_trajectory(out)
