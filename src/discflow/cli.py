"""Batch front end: configure runs, execute the construction pipeline
(barriers, initial data, flow, analysis), and emit plot-ready files.

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid usage or
parameters.  All computations are deterministic; identical parameters
produce byte-identical CSV/JSON outputs.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import barriers as bar
from . import flow as flw
from . import geometry as geo
from . import hairclip as hc
from .errors import DiscFlowError, DomainError, ParameterError

DEFAULT_D_GRID = (0.3, 0.7, 1.0)


def _positive(name, value):
    if value is not None and value <= 0.0:
        raise ParameterError(f"{name} must be positive, got {value}")
    return value


def _validate_common(args) -> None:
    if getattr(args, "d", None) is not None and not (0.0 < args.d <= 1.0):
        raise ParameterError(f"d must lie in (0, 1], got {args.d}")
    if getattr(args, "rho", None) is not None and not (0.0 < args.rho < 0.5 * math.pi):
        raise ParameterError(f"rho must lie in (0, pi/2), got {args.rho}")
    if getattr(args, "theta", None) is not None and not (0.0 < args.theta < 0.5 * math.pi):
        raise ParameterError(f"theta must lie in (0, pi/2), got {args.theta}")
    if getattr(args, "nodes", None) is not None and args.nodes < 8:
        raise ParameterError(f"nodes must be >= 8, got {args.nodes}")
    if getattr(args, "record_every", None) is not None and args.record_every < 1:
        raise ParameterError("record-every must be >= 1")
    for tol_name in ("tol_ode", "tol_inv", "tol_slack", "tol_bc"):
        _positive(tol_name.replace("_", "-"), getattr(args, tol_name, None))
    _positive("t-end", getattr(args, "t_end", None))
    _positive("samples", getattr(args, "samples", None))


def _outdir(args, command: str) -> Path:
    if args.out:
        out = Path(args.out)
    else:
        out = Path(f"{command}-{time.strftime('%Y%m%d-%H%M%S')}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _write_run_manifest(out: Path, command: str, args) -> None:
    params = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "config") and v is not None}
    _write_json(out / "run_manifest.json", {"command": command, "params": params})


# ---------------------------------------------------------------------------
# verify


def _check(name, value, tol, mode="abs_max"):
    if mode == "abs_max":
        ok = abs(value) <= tol
    else:  # "min": value must not drop below -tol
        ok = value >= -tol
    return {"name": name, "value": float(value), "tol": float(tol), "passed": bool(ok)}


def cmd_verify(args) -> int:
    checks = []

    d_grid = np.linspace(0.1, 1.0, 50)
    resid = max(abs(bar.ProblemConfig(d).a ** 2 - bar.ProblemConfig(d).b ** 2 - 1.0)
                for d in d_grid)
    checks.append(_check("hyperbolic identity a^2 - b^2 = 1", resid, 1e-14))

    worst_orth = worst_origin = 0.0
    for d in DEFAULT_D_GRID:
        cfg = bar.ProblemConfig(d)
        for theta in np.linspace(0.05, math.pi - 0.05, 25):
            arc = bar.dn_arc(cfg, theta)
            worst_orth = max(worst_orth,
                             abs(arc.center @ arc.center - 1.0 - arc.radius ** 2))
            worst_origin = max(worst_origin,
                               abs(math.hypot(-d - arc.center[0], -arc.center[1])
                                   - arc.radius))
    for theta in np.linspace(0.05, 0.5 * math.pi - 0.05, 25):
        arc = bar.nn_arc(theta)
        worst_orth = max(worst_orth,
                         abs(arc.center @ arc.center - 1.0 - arc.radius ** 2))
    checks.append(_check("arc orthogonality |center|^2 - r^2 = 1", worst_orth, 1e-12))
    checks.append(_check("DN arc passes through o", worst_origin, 1e-12))

    worst_ode = 0.0
    for d in DEFAULT_D_GRID:
        cfg = bar.ProblemConfig(d)
        t_hi = min(cfg.omega - 0.01, 5.0)
        t_grid, th_grid = bar.integrate_characteristic_ode(cfg, -10.0, t_hi)
        sub = slice(0, None, 25)
        worst_ode = max(worst_ode, float(np.abs(
            bar.theta_minus(cfg, t_grid[sub]) - th_grid[sub]).max()))
    checks.append(_check("characteristic ODE vs closed form", worst_ode, 1e-8))

    cfg1 = bar.ProblemConfig(1.0)
    ts = np.linspace(-10.0, math.log(2.0) - 0.01, 120)
    resid = float(np.abs(bar.theta_minus(cfg1, ts) - np.arccos(1.0 - np.exp(ts))).max())
    checks.append(_check("d=1 angle law closed form", resid, 1e-12))

    min_slack = math.inf
    for d in DEFAULT_D_GRID:
        cfg = bar.ProblemConfig(d)
        # cap the family where the arc stays well-conditioned: near
        # theta = pi the radius diverges and sampling is pure round-off
        t_hi = min(cfg.omega - 0.05, 3.0,
                   bar.characteristic_time(cfg, math.pi - 1e-3))
        for t in np.linspace(-8.0, t_hi, 20):
            rep = bar.verify_barrier_inequality(cfg, bar.ArcKind.DIRICHLET_NEUMANN,
                                                float(t), args.samples)
            min_slack = min(min_slack, rep.min_slack)
    for t in np.linspace(-3.0, -0.05, 20):
        rep = bar.verify_barrier_inequality(bar.ProblemConfig(args.d),
                                            bar.ArcKind.NEUMANN_NEUMANN,
                                            float(t), args.samples)
        min_slack = min(min_slack, rep.min_slack)
    checks.append(_check("barrier inequality slack", min_slack, args.tol_slack,
                         mode="min"))

    worst_eig = max(abs(hc.lambda0(float(d)).residual) for d in np.linspace(0.05, 1.0, 50))
    checks.append(_check("eigenvalue residual", worst_eig, 1e-12))

    worst_pair = 0.0
    mono_ok = True
    for d in np.linspace(0.1, 1.0, 10):
        for theta in np.linspace(0.1, 0.5 * math.pi - 0.05, 10):
            lam, t = hc.solve_orthogonal_pair(float(theta), float(d))
            s = hc.HairclipSlice(lam=lam, t=t, d=float(d))
            slope = float(hc.slice_slope(s, math.cos(theta)))
            worst_pair = max(worst_pair, abs(math.atan(slope) - theta))
            lam_hi = 0.5 * math.pi / math.sin(theta)
            g = hc.pairing_function_g(np.linspace(1e-4, lam_hi * (1 - 1e-9), 1000),
                                      float(theta), float(d))
            mono_ok = mono_ok and bool(np.all(np.diff(g) < 0.0))
    checks.append(_check("pairing orthogonality residual", worst_pair, args.tol_bc))
    checks.append({"name": "pairing function strictly decreasing",
                   "value": float(mono_ok), "tol": 1.0, "passed": mono_ok})

    initial = hc.initial_curve(args.rho, args.d, args.nodes)
    lam_ref, _ = hc.solve_orthogonal_pair(args.rho, args.d)
    traj = flw.run(flw.FlowRunConfig(d=args.d, initial=initial, n=args.nodes,
                                     t_end=args.t_end, record_every=25))
    ode_rep = flw.theta_bar_ode_check(traj, tol_ode=args.tol_ode, raise_on_fail=False)
    checks.append(_check("flow growth vs characteristic law",
                         ode_rep.min_growth_margin, args.tol_ode, mode="min"))
    speed_rep = flw.speed_bound_check(traj, lam_ref, tol=args.tol_inv,
                                      raise_on_fail=False)
    checks.append(_check("sharp speed lower bound", speed_rep.min_margin,
                         args.tol_inv, mode="min"))
    mp = flw.maximum_principle_check(traj)
    checks.append(_check("maximum-principle margins",
                         min(mp.kappa_margin, mp.kappa_s_margin,
                             mp.curvature_bound_margin, mp.gradient_bound_margin),
                         0.0, mode="min"))
    avoid = flw.nn_avoidance_check(traj, args.rho)
    checks.append(_check("avoidance of upper barrier", avoid, 1e-6, mode="min"))
    balance = ana.area_balance(traj)
    checks.append(_check("area first variation",
                         balance.max_discrepancy, 5e-3 * (128.0 / args.nodes) ** 2))

    passed = all(c["passed"] for c in checks)
    out = _outdir(args, "verify")
    _write_run_manifest(out, "verify", args)
    _write_json(out / "report.json", {"checks": checks, "passed": passed})
    for c in checks:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
              f"value={c['value']:.3e} tol={c['tol']:.3e}")
    if not passed:
        first_bad = next(c["name"] for c in checks if not c["passed"])
        print(f"verify failed at: {first_bad}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# single-purpose commands


def cmd_barriers(args) -> int:
    out = _outdir(args, "barriers")
    _write_run_manifest(out, "barriers", args)
    cfg = bar.ProblemConfig(args.d)
    reports = []
    kinds = {"dn": [bar.ArcKind.DIRICHLET_NEUMANN], "nn": [bar.ArcKind.NEUMANN_NEUMANN],
             "both": [bar.ArcKind.DIRICHLET_NEUMANN, bar.ArcKind.NEUMANN_NEUMANN]}
    for kind in kinds[args.kind]:
        if kind is bar.ArcKind.NEUMANN_NEUMANN:
            # keep theta_plus above 1e-3 so the arc radius stays bounded
            t_lo = max(min(args.t_min, -0.05), 0.5 * math.log(math.sin(1e-3)))
            times = np.linspace(t_lo, -0.05, args.t_count)
        else:
            t_hi = min(cfg.omega - 0.05, args.t_max,
                       bar.characteristic_time(cfg, math.pi - 1e-3))
            times = np.linspace(args.t_min, t_hi, args.t_count)
        for t in times:
            rep = bar.verify_barrier_inequality(cfg, kind, float(t), args.samples)
            reports.append(json.loads(rep.to_json()))
    _write_json(out / "barrier_reports.json", {"reports": reports})
    print(f"{len(reports)} barrier slices verified; reports in {out}")
    return 0


def cmd_pair(args) -> int:
    out = _outdir(args, "pair")
    _write_run_manifest(out, "pair", args)
    lam, t = hc.solve_orthogonal_pair(args.theta, args.d)
    s = hc.HairclipSlice(lam=lam, t=t, d=args.d)
    slope = float(hc.slice_slope(s, math.cos(args.theta)))
    payload = {
        "theta": args.theta,
        "d": args.d,
        "lambda": lam,
        "t": t,
        "tangent_residual": abs(math.atan(slope) - args.theta),
        "lambda0": hc.lambda0(args.d).lambda0,
    }
    _write_json(out / "pair.json", payload)
    curve = hc.initial_curve(args.theta, args.d, args.nodes)
    (out / "slice.csv").write_text(geo.curve_to_csv(curve))
    _write_json(out / "slice_meta.json",
                {"lambda": lam, "t": t, "d": args.d, "rho": args.theta})
    print(json.dumps(payload, sort_keys=True))
    return 0


def _run_flow(d, rho, nodes, t_end, record_every, dt_safety=0.25):
    initial = hc.initial_curve(rho, d, nodes)
    lam, _ = hc.solve_orthogonal_pair(rho, d)
    cfg = flw.FlowRunConfig(d=d, initial=initial, n=nodes, t_end=t_end,
                            dt_safety=dt_safety, record_every=record_every)
    traj = flw.run(cfg)
    traj.rho = rho
    traj.lambda_ref = lam
    return traj


def cmd_flow(args) -> int:
    out = _outdir(args, "flow")
    _write_run_manifest(out, "flow", args)
    traj = _run_flow(args.d, args.rho, args.nodes, args.t_end, args.record_every)
    flw.write_trajectory(traj, out / "trajectory")
    print(f"outcome: {traj.outcome.kind} at t={traj.outcome.time}")
    return 0


def cmd_ancient(args) -> int:
    rhos = [float(v) for v in args.rho_list.split(",") if v]
    if not rhos:
        raise ParameterError("empty rho list")
    if any(not (0.0 < r < 0.5 * math.pi) for r in rhos):
        raise ParameterError("every rho must lie in (0, pi/2)")
    if any(b >= a for a, b in zip(rhos, rhos[1:])):
        raise ParameterError("rho list must be strictly decreasing")
    out = _outdir(args, "ancient")
    _write_run_manifest(out, "ancient", args)
    lam0 = hc.lambda0(args.d).lambda0
    rows = []
    failures = []
    for rho in rhos:
        tag = f"rho_{rho:g}".replace(".", "p")
        try:
            traj = _run_flow(args.d, rho, args.nodes, args.t_end, args.record_every)
            flw.write_trajectory(traj, out / tag)
            row = {"rho": rho, "lambda_rho": traj.lambda_ref,
                   "outcome": traj.outcome.kind, "outcome_time": traj.outcome.time}
            try:
                fit = ana.fit_asymptotics(traj, lam0, args.d)
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
    if args.d != 1.0:
        raise ParameterError("blow-up extraction requires d = 1")
    out = _outdir(args, "blowup")
    _write_run_manifest(out, "blowup", args)
    traj = _run_flow(args.d, args.rho, args.nodes, None, args.record_every)
    flw.write_trajectory(traj, out / "trajectory")
    seq = ana.extract_blowup(traj, count=args.count)
    rep = ana.compare_grim_reaper(seq, window_halfwidth=args.window)
    members = []
    for i, nodes in enumerate(seq.rescaled_curves):
        name = f"rescaled_{i:03d}.csv"
        curve = geo.Curve(nodes=nodes, dirichlet_point=nodes[0])
        (out / name).write_text(geo.curve_to_csv(curve))
        members.append({"blowup_index": i, "file": name, "time": seq.times[i],
                        "scale": seq.scales[i],
                        "basepoint": [float(v) for v in seq.basepoints[i]]})
    _write_json(out / "blowup.json", {
        "omega": seq.omega,
        "members": members,
        "type2_indicator": rep.type2_indicator,
        "deviations": rep.deviations,
        "sup_deviation": rep.sup_deviation,
        "tip_identity_error": rep.tip_identity_error,
        "window_halfwidth": rep.window_halfwidth,
    })
    print(f"extinction at {seq.omega:.6f}; final soliton deviation "
          f"{rep.sup_deviation:.4f} on |x| <= {rep.window_halfwidth}")
    return 0


def cmd_fit(args) -> int:
    traj = flw.load_trajectory(Path(args.run_dir))
    lam0 = hc.lambda0(traj.d).lambda0
    fit = ana.fit_asymptotics(traj, lam0, traj.d)
    payload = {"d": traj.d, "lambda0": lam0, "rate": fit.rate, "A": fit.A,
               "profile_error": fit.profile_error, "window": list(fit.window),
               "n_states": fit.n_states}
    if args.out:
        out = _outdir(args, "fit")
        _write_run_manifest(out, "fit", args)
        _write_json(out / "fit.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p, *, d=0.5, rho=0.3, nodes=128, record_every=100):
    p.add_argument("--d", type=float, default=d, help="Dirichlet offset in (0, 1]")
    p.add_argument("--rho", type=float, default=rho,
                   help="boundary angle of the initial slice, in (0, pi/2)")
    p.add_argument("--nodes", type=int, default=nodes, help="node budget N")
    p.add_argument("--record-every", dest="record_every", type=int,
                   default=record_every, help="record one state every K steps")
    p.add_argument("--t-end", dest="t_end", type=float, default=None,
                   help="stop the flow at this time")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None,
                   help="flat key=value file; explicit flags override it")


def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="discflow",
        description="Curve shortening flow in the unit disc with mixed "
                    "Dirichlet-Neumann boundary conditions")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def add_command(name, help):
        commands[name] = sub.add_parser(name, help=help)
        return commands[name]

    p = add_command("verify", help="run the full invariant suite")
    _add_common(p, nodes=64)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--tol-ode", dest="tol_ode", type=float, default=5e-3)
    p.add_argument("--tol-inv", dest="tol_inv", type=float, default=1e-3)
    p.add_argument("--tol-slack", dest="tol_slack", type=float, default=1e-10)
    p.add_argument("--tol-bc", dest="tol_bc", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify, t_end=0.5)

    p = add_command("barriers", help="verify barrier inequalities on a time grid")
    _add_common(p)
    p.add_argument("--kind", choices=("dn", "nn", "both"), default="both")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--t-min", dest="t_min", type=float, default=-8.0)
    p.add_argument("--t-max", dest="t_max", type=float, default=3.0)
    p.add_argument("--t-count", dest="t_count", type=int, default=20)
    p.set_defaults(func=cmd_barriers)

    p = add_command("pair", help="solve the orthogonal slice pairing")
    _add_common(p)
    p.add_argument("--theta", type=float, required=True,
                   help="boundary angle in (0, pi/2)")
    p.set_defaults(func=cmd_pair)

    p = add_command("flow", help="run one flow from a slice initial datum")
    _add_common(p)
    p.set_defaults(func=cmd_flow)

    p = add_command("ancient", help="sweep decreasing rho toward the ancient limit")
    _add_common(p)
    p.add_argument("--rho-list", dest="rho_list", default="0.3,0.1,0.03",
                   help="comma-separated strictly decreasing angles")
    p.set_defaults(func=cmd_ancient)

    p = add_command("blowup", help="extract the type-II blow-up sequence (d = 1)")
    _add_common(p, d=1.0)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--window", type=float, default=1.0)
    p.set_defaults(func=cmd_blowup)

    p = add_command("fit", help="fit height asymptotics of a stored trajectory")
    p.add_argument("--run-dir", dest="run_dir", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_fit)
    return parser, commands


def _apply_config(parser, commands, argv) -> None:
    """Install the --config file's values as defaults of the chosen
    subcommand; string defaults go through each option's type."""
    ns, _ = parser.parse_known_args(argv)
    path = getattr(ns, "config", None)
    if not path:
        return
    overrides = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        overrides[key.strip().replace("-", "_")] = value.strip()
    # the namespace holds every option of the subcommand
    known = vars(ns).keys() - {"command", "func"}
    for key in overrides:
        if key not in known:
            raise ParameterError(f"unknown config key {key!r}")
    commands[ns.command].set_defaults(**overrides)


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _apply_config(parser, commands, argv)
        args = parser.parse_args(argv)
        _validate_common(args)
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except DiscFlowError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
