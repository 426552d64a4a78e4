"""Batch front end: configure runs, execute the construction pipeline
(barriers, initial data, flow, analysis), and emit plot-ready files.

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid usage or
parameters.  All computations are deterministic; identical parameters
produce byte-identical CSV/JSON/npy outputs.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import analysis as ana
from . import barriers as bar
from . import checks
from . import flow as flw
from . import geometry as geo
from . import hairclip as hc
from .errors import DiscFlowError, DomainError, InsufficientWindow, ParameterError


def _validate_common(args) -> None:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{name.replace('_', '-')} must be finite, got {value}")
    if getattr(args, "d", None) is not None:
        bar.ProblemConfig(args.d)  # the one rule for d
    if getattr(args, "rho", None) is not None and not (0.0 < args.rho < 0.5 * math.pi):
        raise ParameterError(f"rho must lie in (0, pi/2), got {args.rho}")
    if getattr(args, "theta", None) is not None and not (0.0 < args.theta < 0.5 * math.pi):
        raise ParameterError(f"theta must lie in (0, pi/2), got {args.theta}")
    if getattr(args, "nodes", None) is not None and args.nodes < geo.MIN_SEGMENTS:
        raise ParameterError(f"nodes must be >= {geo.MIN_SEGMENTS}, got {args.nodes}")
    if getattr(args, "record_every", None) is not None and args.record_every < 1:
        raise ParameterError("record-every must be >= 1")
    if getattr(args, "t_end", None) is not None and not args.t_end > 0.0:
        raise ParameterError(f"t-end must be positive, got {args.t_end}")
    # checked here, before any output directory exists
    if getattr(args, "count", None) is not None and args.count < ana.MIN_BLOWUP_COUNT:
        raise ParameterError(f"count must be >= {ana.MIN_BLOWUP_COUNT}, got {args.count}")
    if args.out:
        # the nearest existing ancestor of --out must be a directory to make it in
        there = next(p for p in (Path(args.out), *Path(args.out).parents) if p.exists())
        if not there.is_dir():
            raise ParameterError(f"out {args.out}: {there} is not a directory")


def _outdir(args) -> Path:
    """The output directory (--out, else a timestamped one), made if
    missing, with the command and its parameters in run_manifest.json."""
    if args.out:
        out = Path(args.out)
    else:
        out = Path(f"{args.command}-{time.strftime('%Y%m%d-%H%M%S')}")
    out.mkdir(parents=True, exist_ok=True)
    params = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    _write_json(out / "run_manifest.json", {"command": args.command, "params": params})
    return out


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None, so the JSON is
    standard (null) instead of NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_finite_or_null(obj), sort_keys=True, indent=1,
                               allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# verify


def _check(name, value, tol, mode):
    if mode == "abs_max":
        ok = abs(value) <= tol
    elif mode == "min":  # value must not drop below -tol
        ok = value >= -tol
    elif mode == "max":  # value must not exceed tol
        ok = value <= tol
    else:  # "flag": value is a truth value
        ok = bool(value)
    return {"name": name, "value": float(value), "tol": float(tol), "passed": bool(ok)}


def _or_nan(value_of) -> float:
    # a run that recorded too few states for a check gives a FAIL row (NaN,
    # null in report.json)
    try:
        return value_of()
    except InsufficientWindow:
        return math.nan


def cmd_verify(args) -> int:
    orth, through_o = checks.arc_residuals()
    ode_law, closed_d1 = checks.angle_law_residuals()
    pairing, decreasing = checks.pairing_residuals()
    traj = _run_flow(args.d, args.rho, args.nodes, args.t_end, args.record_every)
    ode = flw.theta_bar_ode_check(traj, raise_on_fail=False)
    speed = flw.speed_bound_check(traj, traj.lambda_ref, raise_on_fail=False)
    rows = [
        ("hyperbolic identity a^2 - b^2 = 1", checks.hyperbolic_identity_residual(),
         1e-14, "abs_max"),
        ("arc orthogonality |center|^2 - r^2 = 1", orth, 1e-12, "abs_max"),
        ("DN arc passes through o", through_o, 1e-12, "abs_max"),
        ("characteristic ODE vs closed form", ode_law, 1e-8, "abs_max"),
        ("d=1 angle law closed form", closed_d1, 1e-12, "abs_max"),
        ("barrier inequality slack", checks.barrier_min_slack(), -bar.SLACK_TOL, "min"),
        ("eigenvalue residual", checks.eigenvalue_residual(), 1e-12, "abs_max"),
        ("pairing orthogonality residual", pairing, hc.TANGENT_TOL, "abs_max"),
        ("pairing function strictly decreasing", decreasing, 1.0, "flag"),
        ("flow growth vs characteristic law", ode.min_growth_margin, flw.TOL_ODE, "min"),
        ("theta_bar below subsolution", ode.max_barrier_excess, flw.TOL_ODE, "max"),
        ("sharp speed lower bound", speed.min_margin, flw.TOL_SPEED, "min"),
        ("maximum-principle margins",
         _or_nan(lambda: min(vars(flw.maximum_principle_check(traj)).values())),
         0.0, "min"),
        ("avoidance of upper barrier", flw.nn_avoidance_check(traj), 1e-6, "min"),
        ("area first variation",
         _or_nan(lambda: ana.area_balance(traj).max_discrepancy),
         5e-3 * (128.0 / args.nodes) ** 2, "abs_max"),
    ]
    report = [_check(*row) for row in rows]
    passed = all(c["passed"] for c in report)
    out = _outdir(args)
    _write_json(out / "report.json", {"checks": report, "passed": passed})
    for c in report:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
              f"value={c['value']:.3e} tol={c['tol']:.3e}")
    if not passed:
        first_bad = next(c["name"] for c in report if not c["passed"])
        print(f"verify failed at: {first_bad}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# single-purpose commands


def cmd_barriers(args) -> int:
    cfg = bar.ProblemConfig(args.d)
    reports = [rep for kind in bar.ArcKind for rep in bar.window_reports(cfg, kind)]
    out = _outdir(args)
    _write_json(out / "barrier_reports.json", {"reports": [asdict(rep) for rep in reports]})
    # a NaN slack counts as violated
    violated = [rep for rep in reports if not rep.min_slack >= bar.SLACK_TOL]
    for rep in violated:
        print(f"{rep.kind.value} inequality violated at t={rep.t}: "
              f"slack {rep.min_slack:.3e}", file=sys.stderr)
    print(f"{len(reports)} barrier slices checked, {len(violated)} violated; "
          f"reports in {out}")
    return 1 if violated else 0


def cmd_pair(args) -> int:
    lam, t = hc.solve_orthogonal_pair(args.theta, args.d)
    payload = {
        "theta": args.theta,
        "d": args.d,
        "lambda": lam,
        "t": t,
        "tangent_residual": hc.tangent_residual(hc.HairclipSlice(lam=lam, t=t, d=args.d),
                                                args.theta),
        "lambda0": hc.lambda0(args.d).lambda0,
    }
    curve = hc.initial_curve(args.theta, args.d, args.nodes)
    out = _outdir(args)
    _write_json(out / "pair.json", payload)
    (out / "slice.csv").write_text(geo.curve_to_csv(curve))
    print(json.dumps(payload, sort_keys=True))
    return 0


def _run_flow(d, rho, nodes, t_end, record_every):
    initial = hc.initial_curve(rho, d, nodes)
    lam, _ = hc.solve_orthogonal_pair(rho, d)
    cfg = flw.FlowRunConfig(d=d, initial=initial, n=nodes, t_end=t_end,
                            record_every=record_every)
    traj = flw.run(cfg)
    traj.rho = rho
    traj.lambda_ref = lam
    return traj


def cmd_flow(args) -> int:
    traj = _run_flow(args.d, args.rho, args.nodes, args.t_end, args.record_every)
    flw.write_trajectory(traj, _outdir(args) / "trajectory")
    print(f"outcome: {traj.outcome.kind} at t={traj.outcome.time}")
    return 0


def cmd_ancient(args) -> int:
    try:
        rhos = [float(v) for v in args.rho_list.split(",") if v]
    except ValueError as exc:
        raise ParameterError(f"rho-list: {exc}") from exc
    if not rhos:
        raise ParameterError("empty rho list")
    if any(not (0.0 < r < 0.5 * math.pi) for r in rhos):
        raise ParameterError("every rho must lie in (0, pi/2)")
    if any(b >= a for a, b in zip(rhos, rhos[1:])):
        raise ParameterError("rho list must be strictly decreasing")
    lam0 = hc.lambda0(args.d).lambda0
    out = _outdir(args)
    rows = []
    failures = []
    for rho in rhos:
        # repr keeps every digit, so distinct rho never share a directory
        tag = f"rho_{rho!r}".replace(".", "p")
        try:
            traj = _run_flow(args.d, rho, args.nodes, args.t_end, args.record_every)
            flw.write_trajectory(traj, out / tag)
            row = {"rho": rho, "lambda_rho": traj.lambda_ref,
                   "outcome": traj.outcome.kind, "outcome_time": traj.outcome.time}
            try:
                fit = ana.fit_asymptotics(traj, lam0)
                row.update({"rate": fit.rate, "A": fit.A,
                            "profile_error": fit.profile_error})
            except DiscFlowError as exc:
                row["fit_error"] = str(exc)
            rows.append(row)
        except DiscFlowError as exc:
            failures.append({"rho": rho, "error": str(exc)})
    _write_json(out / "summary.json",
                {"d": args.d, "lambda0": lam0, "rows": rows, "failures": failures})
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0 if not failures else 1


def cmd_blowup(args) -> int:
    traj = _run_flow(1.0, args.rho, args.nodes, None, args.record_every)
    out = _outdir(args)
    flw.write_trajectory(traj, out / "trajectory")
    seq = ana.extract_blowup(traj, count=args.count)
    rep = ana.compare_grim_reaper(seq)
    members = []
    for i, nodes in enumerate(seq.rescaled_curves):
        name = f"rescaled_{i:03d}.csv"
        (out / name).write_text(geo.curve_to_csv(geo.Curve(nodes=nodes)))
        members.append({"blowup_index": i, "file": name, "time": seq.times[i],
                        "scale": seq.scales[i],
                        "basepoint": [float(v) for v in seq.basepoints[i]]})
    _write_json(out / "blowup.json", {"omega": seq.omega, "members": members, **asdict(rep)})
    print(f"extinction at {seq.omega:.6f}; final soliton deviation "
          f"{rep.sup_deviation:.4f} on |x| <= {rep.window_halfwidth}")
    return 0


def cmd_fit(args) -> int:
    traj = flw.load_trajectory(Path(args.run_dir))
    lam0 = hc.lambda0(traj.d).lambda0
    fit = ana.fit_asymptotics(traj, lam0)
    payload = {"d": traj.d, "lambda0": lam0, **asdict(fit)}
    if args.out:
        _write_json(_outdir(args) / "fit.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p, reads=(), *, nodes=128, record_every=100, t_end=None):
    """--out, plus the run options named in `reads` ("d", "rho", "nodes",
    "record_every", "t_end"): the ones the command uses."""
    if "d" in reads:
        p.add_argument("--d", type=float, default=0.5, help="Dirichlet offset in (0, 1]")
    if "rho" in reads:
        p.add_argument("--rho", type=float, default=0.3,
                       help="boundary angle of the initial slice, in (0, pi/2)")
    if "nodes" in reads:
        p.add_argument("--nodes", type=int, default=nodes, help="node budget N")
    if "record_every" in reads:
        p.add_argument("--record-every", dest="record_every", type=int,
                       default=record_every, help="record one state every K steps")
    if "t_end" in reads:
        p.add_argument("--t-end", dest="t_end", type=float, default=t_end,
                       help="stop the flow at this time")
    p.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discflow",
        description="Curve shortening flow in the unit disc with mixed "
                    "Dirichlet-Neumann boundary conditions")
    add_command = parser.add_subparsers(dest="command", required=True).add_parser

    run_options = ("d", "rho", "nodes", "record_every", "t_end")
    p = add_command("verify", help="run the full invariant suite")
    _add_common(p, run_options, nodes=64, record_every=25, t_end=0.5)
    p.set_defaults(func=cmd_verify)

    p = add_command("barriers", help="verify barrier inequalities on a time grid")
    _add_common(p, ("d",))
    p.set_defaults(func=cmd_barriers)

    p = add_command("pair", help="solve the orthogonal slice pairing")
    _add_common(p, ("d", "nodes"))
    p.add_argument("--theta", type=float, required=True,
                   help="boundary angle in (0, pi/2)")
    p.set_defaults(func=cmd_pair)

    p = add_command("flow", help="run one flow from a slice initial datum")
    _add_common(p, run_options)
    p.set_defaults(func=cmd_flow)

    p = add_command("ancient", help="sweep decreasing rho toward the ancient limit")
    _add_common(p, ("d", "nodes", "record_every", "t_end"))
    p.add_argument("--rho-list", dest="rho_list", default="0.3,0.1,0.03",
                   help="comma-separated strictly decreasing angles")
    p.set_defaults(func=cmd_ancient)

    p = add_command("blowup", help="extract the type-II blow-up sequence (d = 1)")
    _add_common(p, ("rho", "nodes", "record_every"))
    p.add_argument("--count", type=int, default=8)
    p.set_defaults(func=cmd_blowup)

    p = add_command("fit", help="fit height asymptotics of a stored trajectory")
    p.add_argument("--run-dir", dest="run_dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        _validate_common(args)
        return args.func(args)
    except (ParameterError, DomainError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except DiscFlowError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
