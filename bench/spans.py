"""Per-layer tracing from outside the package.

`Tracer` replaces module attributes of discflow with wrappers that record
one span per call: name, parent span, start and end.  Spans stay in memory
until the pass ends.  A span's self time is its duration minus the
durations of its direct children; the pass is single-threaded, so children
never overlap and the self times of a root's spans add up to the root's
duration.

`isolated_timings` times single private hot-path functions on the
workload's own recorded states, after the wrappers are removed.  A private
name the package no longer has is reported as absent, never as a failure.
"""
from __future__ import annotations

import importlib
import statistics
import time

#: (module, attribute, span name).  The span name's prefix is the layer.
#: Functions imported by name into another module are wrapped there too.
TARGETS = (
    ("flow", "run", "flow.run"),
    ("flow", "_advance_checked", "flow.step"),
    ("flow", "_make_state", "flow.record"),
    ("flow", "hausdorff_to_minimizing_arc", "flow.stop_rule"),
    ("flow", "theta_bar_ode_check", "flow.check.ode"),
    ("flow", "maximum_principle_check", "flow.check.max_principle"),
    ("flow", "speed_bound_check", "flow.check.speed_bound"),
    ("flow", "nn_avoidance_check", "flow.check.avoidance"),
    ("flow", "write_trajectory", "flow.write_trajectory"),
    ("flow", "load_trajectory", "flow.load_trajectory"),
    ("flow", "curve_diagnostics", "geometry.curve_diagnostics"),
    ("geometry", "curvature_profile", "geometry.curvature_profile"),
    ("flow", "curvature_profile", "geometry.curvature_profile"),
    ("analysis", "curvature_profile", "geometry.curvature_profile"),
    ("hairclip", "curvature_profile", "geometry.curvature_profile"),
    ("analysis", "extract_blowup", "analysis.extract_blowup"),
    ("analysis", "compare_grim_reaper", "analysis.compare_grim_reaper"),
    ("analysis", "area_balance", "analysis.area_balance"),
    ("barriers", "verify_barrier_inequality", "barriers.verify_inequality"),
    ("barriers", "integrate_characteristic_ode", "barriers.integrate_ode"),
    ("hairclip", "initial_curve", "hairclip.initial_curve"),
    ("hairclip", "solve_orthogonal_pair", "hairclip.solve_pair"),
    ("hairclip", "lambda0", "hairclip.lambda0"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_verify", "cli.verify"),
)

LAYERS = ("flow", "geometry", "hairclip", "barriers", "analysis", "cli")


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.flow_results: list = []  # return values of flow.run
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, span in TARGETS:
            module = importlib.import_module(f"discflow.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is not None:
                keep = self.flow_results if span == "flow.run" else None
                setattr(module, attr, self._wrap(fn, span, keep))
                self._patched.append((module, attr, fn))
                self.installed.add(span)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, span: str, keep: list | None):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(span)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if keep is not None:
                keep.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, span: str, fn, *args):
        """Call fn(*args) inside a span of the benchmark's own, e.g. a pass."""
        return self._wrap(fn, span, None)(*args)

    def aggregate(self) -> dict:
        """{(root name, span name): [calls, total seconds, self seconds]}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = list(range(n))
        for i in range(n):  # a parent is opened, and numbered, before its children
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
        out: dict = {}
        for i in range(n):
            row = out.setdefault((self.name[root[i]], self.name[i]), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out

    def dump(self) -> dict:
        return {"name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end}


#: metric -> (statistic, span).  Statistics: "total" seconds and "calls"
#: over every root, mean "us" per call, and "self" seconds under the pass
#: root.  A span also matches the spans named below it ("flow.check").
SPAN_METRICS = {
    "flow.run_s": ("total", "flow.run"),
    "flow.loop_self_s": ("self", "flow.run"),
    "flow.step_calls": ("calls", "flow.step"),
    "flow.step_us": ("us", "flow.step"),
    "flow.stop_rule_calls": ("calls", "flow.stop_rule"),
    "flow.stop_rule_us": ("us", "flow.stop_rule"),
    "flow.checks_s": ("total", "flow.check"),
    "flow.write_trajectory_s": ("total", "flow.write_trajectory"),
    "flow.load_trajectory_s": ("total", "flow.load_trajectory"),
    "geometry.curvature_profile_calls": ("calls", "geometry.curvature_profile"),
    "analysis.extract_blowup_s": ("total", "analysis.extract_blowup"),
    "analysis.compare_grim_reaper_s": ("total", "analysis.compare_grim_reaper"),
    "analysis.area_balance_s": ("total", "analysis.area_balance"),
    "barriers.verify_inequality_s": ("total", "barriers.verify_inequality"),
    "barriers.verify_inequality_calls": ("calls", "barriers.verify_inequality"),
    "barriers.integrate_ode_s": ("total", "barriers.integrate_ode"),
    "barriers.integrate_ode_calls": ("calls", "barriers.integrate_ode"),
    "hairclip.solve_pair_s": ("total", "hairclip.solve_pair"),
    "hairclip.solve_pair_calls": ("calls", "hairclip.solve_pair"),
    "hairclip.lambda0_s": ("total", "hairclip.lambda0"),
    "hairclip.lambda0_calls": ("calls", "hairclip.lambda0"),
    "hairclip.initial_curve_s": ("total", "hairclip.initial_curve"),
    "hairclip.initial_curve_calls": ("calls", "hairclip.initial_curve"),
    "cli.verify_s": ("total", "cli.verify"),
}


def _matches(name: str, span: str) -> bool:
    return name == span or name.startswith(span + ".")


def layer_metrics(agg: dict, installed: set, pass_root: str) -> dict:
    """Per-layer metric values (without units) from aggregated spans.

    Totals and calls sum over every root, so hairclip work done in set-up
    counts; self times count only spans under `pass_root`, so the layers'
    self times add up to the traced pass's wall time.  Metrics of spans
    that could not be installed are left out.
    """
    out = {}
    for metric, (stat, span) in SPAN_METRICS.items():
        if not any(_matches(s, span) for s in installed):
            continue
        rows = [(r, v) for (r, s), v in agg.items() if _matches(s, span)]
        calls = sum(v[0] for _, v in rows)
        total = sum(v[1] for _, v in rows)
        out[metric] = {
            "calls": calls,
            "total": total,
            "us": 1e6 * total / calls if calls else 0.0,
            "self": sum(v[2] for r, v in rows if r == pass_root),
        }[stat]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[2] for (r, s), v in agg.items()
                                     if r == pass_root and s.split(".")[0] == layer)
    return out


def isolated_timings(trajs, samples: int = 12, reps: int = 100) -> dict:
    """Median over sampled recorded states of the per-call time, in us, of
    the stepper's pieces and of recording.  Missing functions are left out."""
    from discflow import flow, geometry

    states = [(t, s) for t in trajs for s in t.states]
    if not states:
        return {}
    stride = max(1, len(states) // samples)
    picked = states[::stride][:samples]

    def case(traj, s):
        nodes = s.curve.nodes
        n = nodes.shape[0] - 1
        length = float(geometry.segment_lengths(nodes).sum())
        dt = traj.dt_safety * (length / n) ** 2
        return {
            "flow.advance_us": ("_advance", flow, (nodes, traj.d, dt, n)),
            "flow.valid_us": ("_step_valid", flow, (nodes,)),
            "geometry.curvature_vectors_us": ("curvature_vectors", geometry, (nodes,)),
            "geometry.resample_us": ("_resample_nodes", geometry, (nodes, n)),
            "flow.poly_area_us": ("_poly_area", flow, (nodes,)),
            "flow.record_us": ("_make_state", flow,
                               (nodes, traj.d, s.time, s.step, s.area_shed)),
            "geometry.curve_diagnostics_us": ("curve_diagnostics", geometry,
                                              (s.curve, traj.d)),
        }

    per_metric: dict[str, list[float]] = {}
    clock = time.perf_counter
    for traj, s in picked:
        for metric, (attr, module, args) in case(traj, s).items():
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            t0 = clock()
            for _ in range(reps):
                fn(*args)
            per_metric.setdefault(metric, []).append(1e6 * (clock() - t0) / reps)
    return {k: statistics.median(v) for k, v in per_metric.items()}
