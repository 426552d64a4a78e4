"""The benchmark's workloads: parameters from a seed, initial data, one
checked pass, and the exact counts a pass leaves behind.

Only public discflow API is called here.  A pass is a list of operations;
an operation that misses one of the paper's acceptance thresholds is
failed, not slow.

Why these workloads:

* ``converge`` (d=0.5, N=64, record_every=1000, until the minimizing arc)
  is the stepper alone: ~92% of ``flow.run`` is ``_advance_checked`` and
  recording, analysis and I/O are under 1%.
* ``blowup`` (d=1, N=96, record_every=10, until extinction) steps the same
  way but also records ~4.5k states, runs the blow-up analysis and the
  comparison checks, and writes and reloads the trajectory, so a faster
  step that records or writes more slowly shows here and not in
  ``converge``.
* ``verify`` is ten short ``discflow verify`` calls, where barriers,
  hairclip and per-run fixed costs weigh most, so a stepper that wins on
  long runs but costs more to start shows a loss here.
"""
from __future__ import annotations

import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from discflow import analysis, cli, flow, hairclip

# bound before any tracing is installed, so the end-of-run acceptance check
# is not counted as a call of the flow's stop rule
from discflow.flow import hausdorff_to_minimizing_arc as _hausdorff_check

#: `discflow verify` defaults, used to build its initial data in set-up
VERIFY_RHO = 0.3
VERIFY_NODES = 64

TOL_CONVERGED = 1e-3
TOL_SOLITON = 0.05


def setup(workload: str, params: dict):
    """Initial data of the workload: slice, pairing and eigenvalue."""
    if workload == "verify":
        return [(hairclip.initial_curve(VERIFY_RHO, d, VERIFY_NODES),
                 hairclip.solve_orthogonal_pair(VERIFY_RHO, d),
                 hairclip.lambda0(d)) for d in params["d_list"]]
    d, rho = params["d"], params["rho"]
    return (hairclip.initial_curve(rho, d, params["n"]),
            hairclip.solve_orthogonal_pair(rho, d),
            hairclip.lambda0(d))


def run_pass(workload: str, params: dict, data, tmp: Path) -> dict:
    """One timed pass.  Returns {"ops": [(ok, detail)], "trajs": [...],
    "written": dir or None}; the caller times it."""
    if workload == "verify":
        return _verify(params, tmp)
    initial, (lam, _), _ = data
    traj = flow.run(flow.FlowRunConfig(d=params["d"], initial=initial, n=params["n"],
                                       record_every=params["record_every"]))
    traj.rho = params["rho"]
    traj.lambda_ref = lam
    if workload == "converge":
        return {"ops": [_check_converge(traj)], "trajs": [traj], "written": None}
    out = Path(tempfile.mkdtemp(dir=tmp)) / "trajectory"
    return {"ops": [_check_blowup(traj, params, out)], "trajs": [traj], "written": out}


def _check_converge(traj) -> tuple[bool, str]:
    if traj.outcome.kind != "converged_to_minimizer":
        return False, f"outcome {traj.outcome.kind}"
    final = traj.states[-1]
    dist = _hausdorff_check(final.curve.nodes, traj.d)
    kappa = final.diagnostics.kappa_max
    ok = dist < TOL_CONVERGED and kappa < TOL_CONVERGED
    return ok, f"hausdorff {dist:.3e} kappa_max {kappa:.3e}"


def _check_blowup(traj, params: dict, out: Path) -> tuple[bool, str]:
    if traj.outcome.kind != "extinct":
        return False, f"outcome {traj.outcome.kind}"
    seq = analysis.extract_blowup(traj, count=params["count"])
    rep = analysis.compare_grim_reaper(seq, 1.0)
    mp = flow.maximum_principle_check(traj)
    flow.theta_bar_ode_check(traj, raise_on_fail=False)
    flow.speed_bound_check(traj, traj.lambda_ref, raise_on_fail=False)
    analysis.area_balance(traj)
    flow.write_trajectory(traj, out)
    same = same_trajectory(traj, flow.load_trajectory(out))
    ind = rep.type2_indicator
    type2 = all(b > a for a, b in zip(ind, ind[1:]))
    ok = (rep.sup_deviation < TOL_SOLITON and rep.tip_identity_error < TOL_SOLITON
          and type2 and mp.passed and same)
    return ok, (f"soliton {rep.sup_deviation:.4f} tip {rep.tip_identity_error:.4f} "
                f"type2 {type2} max-principle {mp.passed} reload-equal {same}")


def _verify(params: dict, tmp: Path) -> dict:
    ops = []
    for d in params["d_list"]:
        out = tempfile.mkdtemp(dir=tmp)
        with redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "--d", repr(d), "--out", out])
        ops.append((rc == 0, f"d={d} exit {rc}"))
    return {"ops": ops, "trajs": [], "written": None}


def same_trajectory(a, b) -> bool:
    """Exact equality of two trajectories, states included."""
    head = ("d", "n", "outcome", "events", "rho", "lambda_ref", "record_every",
            "dt_safety")
    if any(getattr(a, k) != getattr(b, k) for k in head):
        return False
    if len(a.states) != len(b.states):
        return False
    return all(s.time == r.time and s.step == r.step and s.area_shed == r.area_shed
               and s.diagnostics == r.diagnostics
               and np.array_equal(s.curve.nodes, r.curve.nodes)
               for s, r in zip(a.states, b.states))


def trajectory_counts(trajs) -> dict:
    """Exact step, rejection and record counts of the returned runs."""
    steps = sum(t.states[-1].step for t in trajs)
    rejected = sum(1 for t in trajs for _, name in t.events
                   if name.startswith("step_rejected"))
    return {"flow.steps": steps, "flow.rejected_steps": rejected,
            "flow.records": sum(len(t.states) for t in trajs)}


def directory_digest(root: Path) -> tuple[str, int, int]:
    """SHA-256 over the relative names and bytes of every file under root,
    with the file count and total size."""
    h = hashlib.sha256()
    files = total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
        files += 1
        total += len(data)
    return h.hexdigest(), files, total
