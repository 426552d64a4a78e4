"""Command-line surface: exit codes, file formats, determinism."""
import argparse
import dataclasses
import json
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import discflow.barriers as barriers
import discflow.flow as flow
from discflow.analysis import GrimReaperReport
from discflow.cli import _write_json, build_parser, main


def run_cli(*argv):
    return main(list(argv))


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_subcommand_help_lists_flags(capsys):
    with pytest.raises(SystemExit):
        main(["flow", "--help"])
    out = capsys.readouterr().out
    for flag in ("--d", "--rho", "--nodes", "--t-end", "--out", "--record-every"):
        assert flag in out


class TestValidation:
    def test_invalid_d_exits_2(self, capsys):
        assert run_cli("verify", "--d", "0") == 2
        assert "d must lie in (0, 1]" in capsys.readouterr().err

    def test_empty_rho_list_exits_2(self):
        assert run_cli("ancient", "--rho-list", "") == 2

    def test_increasing_rho_list_exits_2(self):
        assert run_cli("ancient", "--rho-list", "0.1,0.3") == 2

    def test_bad_rho_exits_2(self):
        assert run_cli("flow", "--rho", "2.0") == 2

    def test_blowup_requires_d_one(self, capsys):
        # blowup runs at d = 1 alone, so --d is not one of its options
        with pytest.raises(SystemExit) as exc:
            run_cli("blowup", "--d", "0.5")
        assert exc.value.code == 2
        assert "unrecognized arguments: --d 0.5" in capsys.readouterr().err

    def test_bad_nodes_exits_2(self):
        assert run_cli("flow", "--nodes", "4") == 2

    def test_unparsable_nodes_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("flow", "--nodes", "abc")
        assert exc.value.code == 2
        assert "argument --nodes: invalid int value: 'abc'" in capsys.readouterr().err

    def test_unparsable_rho_list_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran")

        monkeypatch.setattr(flow, "run", no_flow)
        out = tmp_path / "X"
        assert run_cli("ancient", "--rho-list", "0.3,abc", "--out", str(out)) == 2
        assert "rho-list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("barriers", "--d", "nan"),
        ("pair", "--theta", "inf"),
        ("verify", "--rho", "nan"),
        ("verify", "--t-end", "inf"),
        ("blowup", "--rho", "inf"),
    ])
    def test_non_finite_option_writes_nothing(self, argv, tmp_path, monkeypatch, capsys):
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran")

        monkeypatch.setattr(flow, "run", no_flow)
        out = tmp_path / "X"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert f"{argv[1][2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_too_small_count_runs_no_flow(self, tmp_path, monkeypatch, capsys):
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran")

        monkeypatch.setattr(flow, "run", no_flow)
        out = tmp_path / "X"
        assert run_cli("blowup", "--count", "2", "--out", str(out)) == 2
        assert "count must be >= 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, out", [(("pair", "--theta", "0.6"), "afile"),
                                           (("flow",), "afile/sub")], ids=["pair", "flow"])
    def test_out_naming_a_file_runs_nothing(self, argv, out, tmp_path, monkeypatch, capsys):
        def no_flow(*args, **kwargs):
            raise AssertionError("the flow ran")

        monkeypatch.setattr(flow, "run", no_flow)
        (tmp_path / "afile").touch()
        assert run_cli(*argv, "--out", str(tmp_path / out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("parameter error: ")
        assert f"{tmp_path / 'afile'} is not a directory" in err
        assert (tmp_path / "afile").read_bytes() == b""

    @pytest.mark.parametrize("argv, message", [
        (("pair", "--theta", "1e-15"), "theta = 1e-15 is too small"),
        (("flow", "--rho", "1e-13"), "theta = 1e-13 is too small"),
        (("barriers", "--d", "1e-320"), "DN arc radius at d = 1e-320 is not finite"),
    ], ids=["pair_theta", "flow_rho", "barriers_d"])
    def test_too_small_value_writes_nothing(self, argv, message, tmp_path, capsys):
        # a pairing root below the bisection bracket, a barrier radius that
        # is not a float: parameter errors, not wrong numbers or tracebacks
        out = tmp_path / "X"
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("parameter error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("verify", "--tol-ode", "1"), ("verify", "--tol-inv", "1"),
        ("verify", "--tol-slack", "1"), ("verify", "--tol-bc", "1"),
        ("verify", "--samples", "64"), ("barriers", "--samples", "64"),
        ("barriers", "--t-min", "-1"), ("barriers", "--t-max", "1"),
        ("barriers", "--t-count", "6"), ("barriers", "--kind", "nn"),
        ("blowup", "--d", "1"), ("blowup", "--window", "1"),
        *((command, "--config", "x") for command in
          ("verify", "barriers", "pair", "flow", "ancient", "blowup", "fit")),
    ], ids=lambda argv: "_".join(argv[:2]))
    def test_deleted_option_is_a_usage_error(self, argv, capsys):
        # each check has one tolerance and one grid, a constant of its
        # module, and each run value comes from the command line alone
        required = {"pair": ("--theta", "0.6"), "fit": ("--run-dir", "x")}
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, *required.get(argv[0], ()))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_readme_option_table_is_the_parser():
    table = re.findall(r"^\| `(\w+)` +\| `([^`]*)` \|$",
                       (Path(__file__).parents[1] / "README.md").read_text(), re.M)
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parser_options = [(name, " ".join(flag for action in sub._actions
                                       if not isinstance(action, argparse._HelpAction)
                                       for flag in action.option_strings))
                      for name, sub in subparsers.choices.items()]
    assert table == parser_options
    assert sum(len(options.split()) for _, options in parser_options) == 31


class TestPair:
    def test_writes_reports(self, tmp_path):
        out = tmp_path / "pair"
        assert run_cli("pair", "--theta", "0.7", "--d", "0.5", "--nodes", "32",
                       "--out", str(out)) == 0
        payload = json.loads((out / "pair.json").read_text())
        assert payload["lambda"] > 0.0
        assert payload["tangent_residual"] < 1e-8
        assert sorted(p.name for p in out.iterdir()) == ["pair.json", "run_manifest.json",
                                                          "slice.csv"]
        header = (out / "slice.csv").read_text().splitlines()[0]
        assert header == "x,y"

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("pair", "--theta", "0.7", "--d", "0.5",
                           "--nodes", "32", "--out", str(out)) == 0
        for name in ("pair.json", "slice.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.fixture(scope="module")
def flow_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "flow"
    code = run_cli("flow", "--d", "0.5", "--rho", "0.1", "--nodes", "48",
                   "--t-end", "1.5", "--record-every", "25",
                   "--out", str(out))
    assert code == 0
    return out


class TestFlowAndFit:
    def test_trajectory_files(self, flow_dir):
        traj_dir = flow_dir / "trajectory"
        manifest = json.loads((traj_dir / "manifest.json").read_text())
        assert manifest["d"] == 0.5
        assert manifest["outcome"]["kind"] == "max_time"
        assert manifest["format_version"] == 3
        assert not any(isinstance(v, list) for k, v in manifest.items() if k != "events")
        assert sorted(p.name for p in traj_dir.iterdir()) == [
            "diagnostics.csv", "manifest.json", "states.npy"]
        rows = (traj_dir / "diagnostics.csv").read_text().splitlines()[1:]
        nodes = np.load(traj_dir / "states.npy", allow_pickle=False)
        assert nodes.shape == (len(rows), 49, 2)
        assert (flow_dir / "run_manifest.json").exists()

    def test_fit_command(self, flow_dir, capsys):
        assert run_cli("fit", "--run-dir", str(flow_dir / "trajectory")) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert abs(payload["rate"] - payload["lambda0"] ** 2) < 0.1

    def test_fit_without_window_fails(self, tmp_path):
        out = tmp_path / "short"
        assert run_cli("flow", "--d", "0.5", "--rho", "0.4", "--nodes", "48",
                       "--t-end", "0.05", "--out", str(out)) == 0
        assert run_cli("fit", "--run-dir", str(out / "trajectory")) == 1

    def test_fit_on_broken_run_dir_exits_2(self, flow_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(flow_dir / "trajectory", broken)
        (broken / "states.npy").unlink()
        assert run_cli("fit", "--run-dir", str(broken)) == 2
        assert "states.npy" in capsys.readouterr().err
        np.save(broken / "states.npy", np.zeros((2, 49, 2)))
        assert run_cli("fit", "--run-dir", str(broken)) == 2
        assert "states.npy holds float64 (2, 49, 2)" in capsys.readouterr().err
        assert run_cli("fit", "--run-dir", str(tmp_path / "absent")) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_fit_on_too_few_nodes_exits_2(self, flow_dir, tmp_path, capsys):
        # n = 4 with a matching (rows, 5, 2) states.npy: run() takes n >= 8
        broken = tmp_path / "broken"
        shutil.copytree(flow_dir / "trajectory", broken)
        path = broken / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "n": 4}))
        np.save(broken / "states.npy", np.load(broken / "states.npy")[:, :5])
        assert run_cli("fit", "--run-dir", str(broken)) == 2
        assert "malformed n: 4 is below the node minimum 8" in capsys.readouterr().err

    def test_fit_on_a_flat_run_is_a_check_failure(self, tmp_path, capsys):
        # the long critical arc is stationary at height 0: log height has no slope
        traj = flow.run(flow.FlowRunConfig(d=0.5, initial=flow.unstable_arc(0.5, 32), n=32,
                                           t_end=0.05, record_every=5))
        flow.write_trajectory(traj, tmp_path / "flat")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("fit", "--run-dir", str(tmp_path / "flat")) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("check failed: ") and "height <= 0" in captured.err
        assert captured.out == ""

    def test_fit_on_malformed_manifest_exits_2(self, flow_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(flow_dir / "trajectory", broken)
        path = broken / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "events": [[0.1]]}))
        assert run_cli("fit", "--run-dir", str(broken)) == 2
        assert "malformed events" in capsys.readouterr().err


class TestAncient:
    def test_sweep_summary(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli("ancient", "--d", "0.5", "--rho-list", "0.3,0.15",
                       "--nodes", "48", "--t-end", "0.4",
                       "--record-every", "25", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failures"] == []
        lams = [row["lambda_rho"] for row in summary["rows"]]
        assert lams[0] > lams[1] > summary["lambda0"]
        assert (out / "rho_0p3" / "manifest.json").exists()
        assert (out / "rho_0p15" / "manifest.json").exists()

    def test_rhos_that_print_alike_keep_their_own_runs(self, tmp_path):
        # 0.3000001 and 0.3 agree to the 6 digits of "%g"
        out = tmp_path / "sweep"
        assert run_cli("ancient", "--d", "0.5", "--rho-list", "0.3000001,0.3",
                       "--nodes", "16", "--t-end", "0.05",
                       "--record-every", "10", "--out", str(out)) == 0
        runs = {p.name: flow.load_trajectory(p).rho for p in out.iterdir() if p.is_dir()}
        assert runs == {"rho_0p3000001": 0.3000001, "rho_0p3": 0.3}


class TestBarriersCommand:
    def test_reports_written(self, tmp_path):
        out = tmp_path / "bars"
        assert run_cli("barriers", "--d", "0.7", "--out", str(out)) == 0
        payload = json.loads((out / "barrier_reports.json").read_text())
        assert len(payload["reports"]) == 40
        assert all(r["min_slack"] >= -1e-10 for r in payload["reports"])

    def test_tiny_d_reports_points_on_the_arcs(self, tmp_path):
        # the DN radius is about 5e159: each slice's least slack, 0, lies at
        # its circle endpoint (cos(theta), sin(theta)), which ends the arc
        out = tmp_path / "bars"
        assert run_cli("barriers", "--d", "1e-160", "--out", str(out)) == 0
        reports = json.loads((out / "barrier_reports.json").read_text())["reports"]
        cfg = barriers.ProblemConfig(1e-160)
        dn = [r for r in reports if r["kind"] == "dn"]
        assert len(dn) == 20
        for r in dn:
            theta = barriers.theta_minus(cfg, r["t"])
            assert r["argmin_point"] == [math.cos(theta), math.sin(theta)]
            assert r["min_slack"] == 0.0

    def test_violated_slices_exit_1_with_every_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(barriers, "nn_slack",
                            lambda theta, y: np.zeros_like(np.asarray(y)) - 1e-9)
        out = tmp_path / "bars"
        assert run_cli("barriers", "--d", "0.7", "--out", str(out)) == 1
        reports = json.loads((out / "barrier_reports.json").read_text())["reports"]
        assert [r["kind"] for r in reports] == ["dn"] * 20 + ["nn"] * 20
        assert all(r["min_slack"] == pytest.approx(-1e-9) for r in reports[20:])
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 20
        assert all(line.startswith("nn inequality violated at t=") for line in err)

    def test_undeclared_run_option_is_a_usage_error(self, capsys):
        # barriers reads no initial slice, so --rho is not one of its options
        with pytest.raises(SystemExit) as exc:
            run_cli("barriers", "--rho", "0.3")
        assert exc.value.code == 2
        assert "unrecognized arguments: --rho 0.3" in capsys.readouterr().err


#: the rows of verify's report.json, in order
VERIFY_ROWS = [
    "hyperbolic identity a^2 - b^2 = 1",
    "arc orthogonality |center|^2 - r^2 = 1",
    "DN arc passes through o",
    "characteristic ODE vs closed form",
    "d=1 angle law closed form",
    "barrier inequality slack",
    "eigenvalue residual",
    "pairing orthogonality residual",
    "pairing function strictly decreasing",
    "flow growth vs characteristic law",
    "theta_bar below subsolution",
    "sharp speed lower bound",
    "maximum-principle margins",
    "avoidance of upper barrier",
    "area first variation",
]

SMALL_VERIFY = ("verify", "--nodes", "48", "--t-end", "0.3")


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def verify_rows(out):
    report = json.loads((out / "report.json").read_text())
    return report, {c["name"]: c for c in report["checks"]}


def test_json_outputs_write_null_for_non_finite(tmp_path):
    path = tmp_path / "out.json"
    _write_json(path, {"inf": math.inf, "rows": [(-math.inf, math.nan), 0.5]})
    assert json.loads(path.read_text(), parse_constant=reject_constant) == {
        "inf": None, "rows": [[None, None], 0.5]}


@pytest.mark.parametrize("argv", [("pair", "--theta"), ("flow", "--rho"),
                                  ("verify", "--rho")])
def test_failed_pair_recheck_is_a_check_failure(argv, tmp_path, capsys):
    # at this angle the paired slice's tangent misses the radial
    # direction by 1.9e-8 rad, beyond the 1e-8 re-check
    out = tmp_path / "X"
    assert run_cli(*argv, "1.57079632679", "--d", "1", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: slice tangent not radial")
    assert "Traceback" not in err
    assert not out.exists()


class TestVerifyCommand:
    def test_desk_scale_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "verify"
        assert run_cli(*SMALL_VERIFY, "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        assert [c["name"] for c in report["checks"]] == VERIFY_ROWS
        lines = capsys.readouterr().out.splitlines()
        assert all(ln.startswith("[PASS]") for ln in lines if ln.startswith("["))
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["params"]["record_every"] == 25

    def test_report_bytes_repeat(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(*SMALL_VERIFY, "--out", str(out)) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_violated_barrier_is_a_fail_row(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(barriers, "nn_slack",
                            lambda theta, y: np.zeros_like(np.asarray(y)) - 1e-9)
        out = tmp_path / "verify"
        assert run_cli(*SMALL_VERIFY, "--out", str(out)) == 1
        report, rows = verify_rows(out)
        assert not report["passed"]
        assert rows["barrier inequality slack"]["value"] == pytest.approx(-1e-9)
        assert not rows["barrier inequality slack"]["passed"]
        assert all(c["passed"] for name, c in rows.items()
                   if name != "barrier inequality slack")
        assert (out / "run_manifest.json").exists()
        assert "[FAIL] barrier inequality slack" in capsys.readouterr().out

    def test_too_short_run_gives_fail_rows(self, tmp_path, capsys):
        # one step: no post-transient state and fewer than 3 states
        out = tmp_path / "short"
        assert run_cli(*SMALL_VERIFY, "--t-end", "1e-5", "--out", str(out)) == 1
        report, rows = verify_rows(out)
        assert not report["passed"]
        failed = [name for name, c in rows.items() if not c["passed"]]
        assert failed == ["maximum-principle margins", "area first variation"]
        # the rows that cannot be evaluated are null: the file is standard JSON
        assert [rows[name]["value"] for name in failed] == [None, None]
        json.loads((out / "report.json").read_text(), parse_constant=reject_constant)
        printed = capsys.readouterr().out
        assert "[FAIL] maximum-principle margins: value=nan" in printed

    def test_theta_bar_row_gates_the_subsolution(self, tmp_path):
        # by t = 2.5 theta_bar has crossed pi/2 (near t = 2.05 at d = 0.5),
        # so the row compares the run with the aligned subsolution
        out = tmp_path / "long"
        assert run_cli("verify", "--nodes", "32", "--t-end", "2.5", "--out", str(out)) == 0
        _, rows = verify_rows(out)
        row = rows["theta_bar below subsolution"]
        assert row["passed"]
        assert -5e-3 < row["value"] < 0.0


@pytest.fixture(scope="class")
def blowup_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "blow"
    assert run_cli("blowup", "--rho", "0.3", "--nodes", "48", "--record-every", "50",
                   "--count", "6", "--out", str(out)) == 0
    return out


class TestBlowupCommand:
    def test_full_pipeline(self, blowup_out):
        payload = json.loads((blowup_out / "blowup.json").read_text())
        assert payload["omega"] > 0.0
        ind = payload["type2_indicator"]
        assert all(b > a for a, b in zip(ind, ind[1:]))
        assert (blowup_out / payload["members"][0]["file"]).exists()

    def test_blowup_json_is_the_report(self, blowup_out):
        payload = json.loads((blowup_out / "blowup.json").read_text())
        fields = {f.name for f in dataclasses.fields(GrimReaperReport)}
        assert set(payload) == {"omega", "members"} | fields
