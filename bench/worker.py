"""One measurement in a fresh interpreter.

    python3 bench/worker.py '{"workload": "blowup", "params": {...},
                              "mode": "setup" | "pass" | "trace",
                              "tmp": "<temp dir>", "spans_out": null}'

Imports discflow from the checkout's ``src`` and builds the workload's
initial data (set-up); in ``pass`` and ``trace`` modes it then runs one
checked pass.  With ``"calibrate": true`` a pass is timed by calib.Clock:
``wall_s`` is then in reference seconds and ``raw_wall_s`` in seconds.
``trace`` wraps discflow's module attributes in spans first and times the
stepper's pieces in isolation afterwards.  The last line of
standard output is one JSON object with the measurements.
"""
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import discflow
    import discflow.cli
    t_import = time.perf_counter() - t0
    if Path(discflow.__file__).resolve().parent != (SRC / "discflow").resolve():
        print(f"discflow imported from {discflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy as np

    import calib
    import spans
    import workloads

    from discflow import flow
    workload, params, mode = spec["workload"], spec["params"], spec["mode"]
    out = {"identity": {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "kernel": "numba" if getattr(flow, "_advance_status", None) is not None
        else "numpy",
    }}

    tracer = spans.Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
        data = tracer.call("bench.setup", workloads.setup, workload, params)
    else:
        t1 = time.perf_counter()
        data = workloads.setup(workload, params)
        out["setup_s"] = t_import + time.perf_counter() - t1
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tmp = Path(tempfile.mkdtemp(dir=spec["tmp"]))
    clock = calib.Clock() if spec.get("calibrate") else None
    try:
        if clock is not None:
            clock.start()
        t1 = time.perf_counter()
        try:
            args = (workload, params, data, tmp)
            res = (workloads.run_pass(*args) if tracer is None
                   else tracer.call("bench.pass", workloads.run_pass, *args))
        except Exception:  # a pass that raises is a failed operation
            traceback.print_exc()
            n_ops = workloads.operations(workload, params)
            res = {"ops": [(False, "raised")] * n_ops, "trajs": [], "written": None}
        if clock is None:
            out["wall_s"] = out["raw_wall_s"] = time.perf_counter() - t1
        else:
            clock.stop()
            out["wall_s"], out["raw_wall_s"] = clock.scaled, clock.raw
            out["kernel_samples"] = clock.samples
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["ops"] = res["ops"]

        trajs = res["trajs"] if tracer is None else tracer.flow_results
        counts = workloads.trajectory_counts(trajs) if trajs else {}
        if res["written"] is not None:
            digest, files, size = workloads.directory_digest(res["written"])
            out["digest"] = digest
            counts.update({"flow.write_files": files, "flow.write_bytes": size})
        if tracer is not None:
            tracer.restore()
            layers = spans.layer_metrics(tracer.aggregate(), tracer.installed, "bench.pass")
            counts.update({k: v for k, v in layers.items() if k.endswith("_calls")})
            layers.update(spans.isolated_timings(trajs))
            out["layers"] = layers
            if spec.get("spans_out"):
                Path(spec["spans_out"]).write_text(json.dumps(tracer.dump()))
        elif "flow.steps" in counts:
            counts["flow.step_calls"] = counts["flow.steps"] + counts["flow.rejected_steps"]
        out["counts"] = counts
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
