"""Self-test of the benchmark: exact counts repeat, layers add up.

    python3 bench/selftest.py                      # all workloads, seed 0
    python3 bench/selftest.py --workload blowup --seed 3

Runs the traced benchmark twice per workload and fails unless both runs
pass every check, report the same exact counts and blowup trajectory
SHA-256, report every per-layer metric of BENCHMARK.json (or list it as
absent), and the layers' self times add up to the traced wall within 10%.
Also checks that the metric names and units in BENCHMARK.json are the ones
bench/run.py reports.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from params import WORKLOADS  # noqa: E402
from run import E2E_UNITS, LAYER_UNITS, OUT  # noqa: E402


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((OUT / f"result-{workload}-trace1.json").read_text())
    return result, report


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == E2E_UNITS, f"end_to_end differs from run.py: {e2e}"
    assert layers == LAYER_UNITS, f"per_layer differs from run.py: {layers}"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def check_workload(workload: str, seed: int) -> None:
    runs = [traced_run(workload, seed) for _ in range(2)]
    for result, report in runs:
        assert result["correct"], f"{workload}: {report['ops']} {report['mismatches']}"
        reported = set(result["metrics"]) | set(report["absent"])
        assert reported == set(LAYER_UNITS), f"{workload}: missing {set(LAYER_UNITS) - reported}"
        frac = result["metrics"]["trace.layer_sum_frac"]["value"]
        assert 0.9 <= frac <= 1.1, f"{workload}: layer self times sum to {frac:.3f} of wall"
    (_, first), (_, second) = runs
    assert first["counts"] == second["counts"], f"{workload}: counts differ"
    assert first["digest"] == second["digest"], f"{workload}: trajectory digest differs"
    print(f"{workload}: ok, counts {json.dumps(first['counts'], sort_keys=True)}"
          f" digest {first['digest']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default=",".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    check_spec()
    for workload in args.workload.split(","):
        check_workload(workload, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
