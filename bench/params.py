"""Workload parameters from a seed; imports nothing from discflow, so the
orchestrator stays independent of the package it measures."""
from __future__ import annotations

import random

WORKLOADS = ("converge", "blowup", "verify")

NOMINAL_RHO = 0.3
RHO_SHIFT = 0.02
D_SHIFT = 0.02
VERIFY_D = tuple(round(0.1 * k, 1) for k in range(1, 11))


def make_params(workload: str, seed: int) -> dict:
    """Workload parameters; seed 0 is nominal, any other seed shifts rho by
    at most RHO_SHIFT and each verify d below 1 by at most D_SHIFT."""
    rng = random.Random(seed)

    def shifted(value: float, width: float) -> float:
        return value if seed == 0 else round(value + rng.uniform(-width, width), 6)

    if workload == "converge":
        return {"d": 0.5, "rho": shifted(NOMINAL_RHO, RHO_SHIFT), "n": 64,
                "record_every": 1000}
    if workload == "blowup":
        return {"d": 1.0, "rho": shifted(NOMINAL_RHO, RHO_SHIFT), "n": 96,
                "record_every": 10, "count": 8}
    if workload == "verify":
        return {"d_list": [d if d == 1.0 else shifted(d, D_SHIFT) for d in VERIFY_D]}
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, params: dict) -> int:
    return len(params["d_list"]) if workload == "verify" else 1
