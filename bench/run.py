"""discflow benchmark: end-to-end and per-layer timing of checked workloads.

    python3 bench/run.py --workload converge --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload converge,blowup,verify   # all, in turn

Run it from the root of a checkout.  Every measurement runs in a fresh
single-threaded interpreter (bench/worker.py), one after another.

--trace 0 reports the end-to-end metrics: ``wall_s``, the median wall time
of a checked pass without set-up; ``setup_s``, the median time to import
discflow and discflow.cli and build the workload's initial data, over
several fresh interpreters; ``peak_rss_mb``, the median peak resident
memory of a pass's interpreter; and ``pass_frac``, the share of attempted
operations that passed their checks (``failed_frac`` is printed beside
it).  Passes repeat while another one fits in ``--seconds``; there is
always at least one.  ``wall_s`` and ``setup_s`` are in reference seconds:
each interval is scaled by a host-speed kernel timed beside it
(bench/calib.py), because the shared host's load changes this process's
speed by up to 2x for tens of seconds.  The raw seconds are printed beside
them.

--trace 1 runs one untraced and one traced pass, both timed in raw
seconds, and reports the per-layer metrics of the traced one (see
bench/spans.py), the tracing overhead as the difference of the two walls,
and the exact counts.

Exact counts and the blowup trajectory's SHA-256 are kept per code version
and parameters in .bench_out/repeats.json; a run whose counts or digest
differ from an earlier run of the same code fails.  The readable summary
goes to standard output; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import calib  # noqa: E402
from params import WORKLOADS, make_params  # noqa: E402
from spans import LAYERS  # noqa: E402

SETUP_SAMPLES = 12
#: a run must end within 180 s; workers are stopped before that
RUN_LIMIT_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}

LAYER_UNITS = {
    "flow.run_s": "s", "flow.loop_self_s": "s",
    "flow.steps": "count", "flow.step_calls": "count",
    "flow.rejected_steps": "count", "flow.accept_ratio": "frac",
    "flow.step_us": "us", "flow.advance_us": "us", "flow.valid_us": "us",
    "geometry.curvature_vectors_us": "us", "geometry.resample_us": "us",
    "flow.poly_area_us": "us",
    "flow.records": "count", "flow.record_us": "us",
    "geometry.curve_diagnostics_us": "us",
    "flow.stop_rule_calls": "count", "flow.stop_rule_us": "us",
    "flow.checks_s": "s", "analysis.extract_blowup_s": "s",
    "analysis.compare_grim_reaper_s": "s", "analysis.area_balance_s": "s",
    "geometry.curvature_profile_calls": "count",
    "flow.write_trajectory_s": "s", "flow.write_files": "count",
    "flow.write_bytes": "B", "flow.load_trajectory_s": "s",
    "barriers.verify_inequality_s": "s", "barriers.verify_inequality_calls": "count",
    "barriers.integrate_ode_s": "s", "barriers.integrate_ode_calls": "count",
    "hairclip.solve_pair_s": "s", "hairclip.solve_pair_calls": "count",
    "hairclip.lambda0_s": "s", "hairclip.lambda0_calls": "count",
    "hairclip.initial_curve_s": "s", "hairclip.initial_curve_calls": "count",
    "cli.verify_s": "s",
    "flow.self_s": "s", "geometry.self_s": "s", "hairclip.self_s": "s",
    "barriers.self_s": "s", "analysis.self_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "frac", "trace.layer_sum_frac": "frac",
}


class WorkerFailed(Exception):
    pass


def code_version() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.tmp = OUT / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def worker(self, spec: dict) -> dict:
        """Run one worker to completion and return its JSON result."""
        spec = dict(spec, tmp=str(self.tmp))
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise WorkerFailed(f"{spec['mode']} worker exceeded {timeout:.0f} s") from exc
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"{spec['mode']} worker exited {proc.returncode}")
        return json.loads(lines[-1])


class RepeatStore:
    """Exact counts and digests per (code version, workload, parameters)."""

    def __init__(self, workload: str, params: dict):
        self.path = OUT / "repeats.json"
        self.key = hashlib.sha256(json.dumps(
            [code_version(), workload, params], sort_keys=True).encode()).hexdigest()
        self.data = json.loads(self.path.read_text()) if self.path.exists() else {}
        self.mismatches: list[str] = []

    def check(self, result: dict) -> None:
        seen = self.data.setdefault(self.key, {})
        now = dict(result.get("counts", {}))
        if "digest" in result:
            now["digest"] = result["digest"]
        for name, value in now.items():
            if seen.setdefault(name, value) != value:
                self.mismatches.append(f"{name}: {value} != earlier {seen[name]}")

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True, indent=1))
        os.replace(tmp, self.path)


def measure_plain(base: dict, seconds: float, runner: Runner) -> tuple[list, list]:
    """Set-up samples, then passes while another one fits in `seconds`.
    Each set-up is scaled by the kernel times taken just before and after
    its interpreter."""
    setups = []
    calib.kernel_time()  # warm-up
    kernel = calib.kernel_time()
    for _ in range(SETUP_SAMPLES):
        s = runner.worker(dict(base, mode="setup"))
        before, kernel = kernel, calib.kernel_time()
        s["raw_setup_s"] = s["setup_s"]
        s["setup_s"] = calib.scale(s["setup_s"], before, kernel)
        setups.append(s)
    passes = []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(runner.worker(dict(base, mode="pass", calibrate=True)))
        last = time.monotonic() - t0
        if time.monotonic() - begin + last > seconds:
            return passes, setups


def layer_values(plain: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    layers.update(traced["counts"])
    steps, calls = layers.get("flow.steps"), layers.get("flow.step_calls")
    if steps is not None and calls:
        layers["flow.accept_ratio"] = steps / calls
    for name in ("flow.write_files", "flow.write_bytes"):
        layers.setdefault(name, 0)
    wall = traced["wall_s"]
    layers["trace.wall_s"] = wall
    layers["trace.untraced_wall_s"] = plain["wall_s"]  # both in raw seconds
    layers["trace.overhead_frac"] = wall / plain["wall_s"] - 1.0
    layers["trace.layer_sum_frac"] = sum(
        layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS) / wall
    return layers


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    params = make_params(workload, seed)
    base = {"workload": workload, "params": params}
    runner = Runner(deadline)
    if trace:
        plain = runner.worker(dict(base, mode="pass"))
        traced = runner.worker(dict(base, mode="trace",
                                    spans_out=str(OUT / f"spans-{workload}.json")))
        passes, setups = [plain, traced], []
    else:
        passes, setups = measure_plain(base, seconds, runner)

    store = RepeatStore(workload, params)
    for p in passes:
        store.check(p)
    store.save()
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for ok, _ in ops if not ok)
    correct = failed == 0 and not store.mismatches

    if trace:
        values, units = layer_values(plain, traced), LAYER_UNITS
    else:
        values = {"wall_s": statistics.median(p["wall_s"] for p in passes),
                  "setup_s": statistics.median(s["setup_s"] for s in setups),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
                  "pass_frac": (len(ops) - failed) / len(ops)}
        units = E2E_UNITS
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    absent = [k for k in units if k not in values]

    last = passes[-1]  # the traced pass when tracing
    report = {"workload": workload, "seed": seed, "params": params, "trace": trace,
              "code_version": code_version(), "identity": last["identity"],
              "counts": last.get("counts", {}), "digest": last.get("digest"),
              "ops": ops, "absent": absent, "mismatches": store.mismatches,
              "samples": {"wall_s": [p["wall_s"] for p in passes],
                          "raw_wall_s": [p["raw_wall_s"] for p in passes],
                          "setup_s": [s["setup_s"] for s in setups],
                          "raw_setup_s": [s["raw_setup_s"] for s in setups],
                          "peak_rss_mb": [p["peak_rss_mb"] for p in passes]},
              "metrics": metrics}
    (OUT / f"result-{workload}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))
    print_summary(report, failed)
    return {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}


def print_summary(r: dict, failed: int) -> None:
    ident = r["identity"]
    print(f"== {r['workload']} seed={r['seed']} params={json.dumps(r['params'])}")
    print(f"   python {ident['python']}  numpy {ident['numpy']}  kernel {ident['kernel']}")
    counts = {"wall_s": len(r["samples"]["wall_s"]), "setup_s": len(r["samples"]["setup_s"]),
              "peak_rss_mb": len(r["samples"]["peak_rss_mb"])}
    for name, m in r["metrics"].items():
        n = f"  (median of {counts[name]})" if name in counts and not r["trace"] else ""
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"   {name:34s} {value} {m['unit']}{n}")
        raw = r["samples"].get(f"raw_{name}")
        if raw and not r["trace"]:
            print(f"   {'  raw ' + name:34s} {statistics.median(raw):.6g} s"
                  f"  (median of {len(raw)})")
    attempted = len(r["ops"])
    print(f"   {'failed_frac':34s} {failed / attempted:.6g} frac"
          f"  ({failed} failed of {attempted} attempted)")
    for ok, detail in r["ops"]:
        if not ok:
            print(f"   FAILED: {detail}")
    if r["absent"]:
        print(f"   absent: {', '.join(r['absent'])}")
    print(f"   counts: {json.dumps(r['counts'], sort_keys=True)}")
    if r["digest"]:
        print(f"   trajectory sha256: {r['digest']}")
    for line in r["mismatches"]:
        print(f"   NOT REPEATED: {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(WORKLOADS)}, or a comma-separated list")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = args.workload.split(",")
    if any(n not in WORKLOADS for n in names):
        ap.error(f"unknown workload in {args.workload!r}")
    if not (SRC / "discflow" / "__init__.py").is_file():
        print(f"bench: no discflow sources under {SRC}", file=sys.stderr)
        return 2
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except WorkerFailed as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
