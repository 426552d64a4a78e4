"""The names the benchmark in bench/ reads from the package, called with
the arguments bench/spans.py and bench/workloads.py pass.

The benchmark looks these names up by attribute: a name that is renamed
or changes its signature leaves a per-layer metric absent or crashes a
benchmark worker, so here it fails a test instead.
"""
import importlib
from pathlib import Path

import numpy as np
import pytest

import discflow.flow as flow
import discflow.geometry as geometry
from discflow.flow import FlowRunConfig, FlowState, Trajectory, run
from discflow.geometry import CurveDiagnostics
from discflow.hairclip import initial_curve

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def blowup_like():
    # the benchmark's blowup settings (d = 1, record_every = 10), cut short
    c = initial_curve(0.3, 1.0, 96)
    return run(FlowRunConfig(d=1.0, initial=c, n=96, record_every=10, max_steps=200))


@pytest.fixture
def bench(monkeypatch):
    """bench/spans.py and bench/workloads.py, imported as the worker does."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_run_config_and_trajectory_fields(blowup_like):
    traj = blowup_like
    assert isinstance(traj, Trajectory)
    assert traj.record_every == 10
    assert traj.dt_safety == flow.DT_SAFETY
    assert traj.outcome.kind == "max_steps"
    assert [s.step for s in traj.states] == list(range(0, 201, 10))
    for t, name in traj.events:
        assert isinstance(t, float) and isinstance(name, str)


def test_isolated_timing_calls(blowup_like):
    # the arguments of spans.isolated_timings, on a recorded state
    traj = blowup_like
    s = traj.states[-1]
    nodes = s.curve.nodes
    n = nodes.shape[0] - 1
    length = float(geometry.segment_lengths(nodes).sum())
    dt = traj.dt_safety * (length / n) ** 2

    out, shed = flow._advance(nodes, traj.d, dt, n)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert out.shape == (n + 1, 2)
    assert isinstance(shed, float)
    assert flow._step_valid(nodes) is None
    assert flow._step_valid(out) is None
    assert geometry.curvature_vectors(nodes).shape == (n - 1, 2)
    assert geometry._resample_nodes(nodes, n).shape == (n + 1, 2)
    assert isinstance(flow._poly_area(nodes), float)
    state = flow._make_state(nodes, traj.d, s.time, s.step, s.area_shed)
    assert isinstance(state, FlowState)
    assert state.step == s.step and state.diagnostics == s.diagnostics
    assert isinstance(geometry.curve_diagnostics(s.curve, traj.d), CurveDiagnostics)


def test_no_metric_is_absent(blowup_like, bench):
    spans, workloads = bench
    timings = spans.isolated_timings([blowup_like], samples=2, reps=1)
    assert set(timings) == {
        "flow.advance_us", "flow.valid_us", "geometry.curvature_vectors_us",
        "geometry.resample_us", "flow.poly_area_us", "flow.record_us",
        "geometry.curve_diagnostics_us"}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.installed == {span for _, _, span in spans.TARGETS}
    finally:
        tracer.restore()
    assert flow.run is run
    assert workloads.same_trajectory(blowup_like, blowup_like)


def test_every_traced_name_resolves(bench):
    # several targets share a span name, so the installed spans alone
    # would not show one missing attribute
    spans, _ = bench
    for mod_name, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"discflow.{mod_name}"), attr))


def test_checks_compute_no_single_curve_profiles(monkeypatch, blowup_like):
    # the per-state checks take their profiles from batched chunks; a
    # per-state curvature_profile loop would show up here (and in the
    # benchmark's geometry.curvature_profile_calls)
    import discflow.analysis as analysis

    calls = []
    for module in (geometry, flow, analysis):
        real = module.curvature_profile
        monkeypatch.setattr(module, "curvature_profile",
                            lambda c, real=real: calls.append(c) or real(c))
    flow.maximum_principle_check(blowup_like)
    flow.speed_bound_check(blowup_like, 0.9, raise_on_fail=False)
    analysis.area_balance(blowup_like)
    assert calls == []


@pytest.mark.parametrize("reject_call, record_every, max_steps", [
    pytest.param(None, 7, 50, id="None"), pytest.param(3, 7, 50, id="3"),
    # blocks that reach flow.CHECK_BLOCK steps
    pytest.param(None, 1000, 100, id="None-block_cap"),
    pytest.param(3, 1000, 100, id="3-block_cap")])
def test_step_calls_are_steps_plus_rejections(monkeypatch, bench, reject_call,
                                              record_every, max_steps):
    # flow.step_calls is the call count of flow._advance_checked, looked
    # up through the module by run(); the benchmark checks it against the
    # steps and rejections it reads from the trajectory
    _, workloads = bench
    real = flow._advance_checked
    calls = []

    def counted(frame, d, dt, n, **kw):
        out, reason, shed = real(frame, d, dt, n, **kw)
        calls.append(dt)
        return (out, "forced rejection", shed) if len(calls) == reject_call \
            else (out, reason, shed)

    monkeypatch.setattr(flow, "_advance_checked", counted)
    c = initial_curve(0.3, 0.5, 64)
    traj = run(FlowRunConfig(d=0.5, initial=c, n=64, record_every=record_every,
                             max_steps=max_steps))
    counts = workloads.trajectory_counts([traj])
    assert counts["flow.steps"] == max_steps
    assert counts["flow.rejected_steps"] == (reject_call is not None)
    assert len(calls) == counts["flow.steps"] + counts["flow.rejected_steps"]


@pytest.mark.parametrize("workload", ["converge", "blowup", "verify"])
def test_setup_returns_initial_data(bench, workload):
    # an exception in set-up or a pass ends a benchmark worker without its
    # JSON result, so the set-up the worker calls is run here at seed 0
    _, workloads = bench
    params = importlib.import_module("params").make_params(workload, 0)
    data = workloads.setup(workload, params)
    if workload == "verify":
        assert len(data) == len(params["d_list"])
        nodes = workloads.VERIFY_NODES
    else:
        data = [data]
        nodes = params["n"]
    for curve, pair, eig in data:
        assert curve.nodes.shape == (nodes + 1, 2)
        assert len(pair) == 2 and all(isinstance(v, float) for v in pair)
        assert 0.0 < eig.lambda0 < 1.0
