"""Command-line surface: exit codes, file formats, determinism."""
import json
import shutil

import pytest

from discflow.cli import main


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

    def test_negative_tolerance_exits_2(self):
        assert run_cli("verify", "--tol-ode", "-1") == 2

    def test_empty_rho_list_exits_2(self):
        assert run_cli("ancient", "--rho-list", "") == 2

    def test_increasing_rho_list_exits_2(self):
        assert run_cli("ancient", "--rho-list", "0.1,0.3") == 2

    def test_bad_rho_exits_2(self):
        assert run_cli("flow", "--rho", "2.0") == 2

    def test_blowup_requires_d_one(self):
        assert run_cli("blowup", "--d", "0.5") == 2

    def test_bad_nodes_exits_2(self):
        assert run_cli("flow", "--nodes", "4") == 2


class TestPair:
    def test_writes_reports(self, tmp_path):
        out = tmp_path / "pair"
        assert run_cli("pair", "--theta", "0.7", "--d", "0.5", "--nodes", "32",
                       "--out", str(out)) == 0
        payload = json.loads((out / "pair.json").read_text())
        assert payload["lambda"] > 0.0
        assert payload["tangent_residual"] < 1e-8
        meta = json.loads((out / "slice_meta.json").read_text())
        assert set(meta) == {"lambda", "t", "d", "rho"}
        header = (out / "slice.csv").read_text().splitlines()[0]
        assert header == "x,y"

    def test_deterministic_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("pair", "--theta", "0.7", "--d", "0.5",
                           "--nodes", "32", "--out", str(out)) == 0
        for name in ("pair.json", "slice.csv", "slice_meta.json"):
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
        assert (traj_dir / "diagnostics.csv").exists()
        assert (traj_dir / manifest["state_files"][0]).exists()
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
        (broken / "state_000001.csv").unlink()
        assert run_cli("fit", "--run-dir", str(broken)) == 2
        assert "state_000001.csv" in capsys.readouterr().err
        assert run_cli("fit", "--run-dir", str(tmp_path / "absent")) == 2
        assert "manifest.json" in capsys.readouterr().err


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


class TestBarriersCommand:
    def test_reports_written(self, tmp_path):
        out = tmp_path / "bars"
        assert run_cli("barriers", "--d", "0.7", "--t-count", "6",
                       "--samples", "64", "--out", str(out)) == 0
        payload = json.loads((out / "barrier_reports.json").read_text())
        assert len(payload["reports"]) == 12
        assert all(r["min_slack"] >= -1e-10 for r in payload["reports"])


class TestConfigFile:
    def test_config_provides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 0.7\nnodes = 32\n# comment\n")
        out = tmp_path / "out"
        assert run_cli("pair", "--config", str(cfg), "--theta", "0.6",
                       "--out", str(out)) == 0
        payload = json.loads((out / "pair.json").read_text())
        # explicit flag wins over the config value
        assert payload["theta"] == 0.6
        # the config's nodes = 32 took effect: 33 node rows under the header
        assert len((out / "slice.csv").read_text().splitlines()) == 1 + 33

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert run_cli("pair", "--config", str(cfg), "--theta", "0.6") == 2


class TestVerifyCommand:
    def test_desk_scale_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = run_cli("verify", "--nodes", "48", "--t-end", "0.3",
                       "--samples", "64", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        names = [c["name"] for c in report["checks"]]
        assert "barrier inequality slack" in names
        assert "sharp speed lower bound" in names
        assert "area first variation" in names
        lines = capsys.readouterr().out.splitlines()
        assert all(ln.startswith("[PASS]") for ln in lines if ln.startswith("["))


class TestBlowupCommand:
    def test_full_pipeline(self, tmp_path):
        out = tmp_path / "blow"
        code = run_cli("blowup", "--rho", "0.3", "--nodes", "48",
                       "--record-every", "50", "--count", "6",
                       "--out", str(out))
        assert code == 0
        payload = json.loads((out / "blowup.json").read_text())
        assert payload["omega"] > 0.0
        ind = payload["type2_indicator"]
        assert all(b > a for a, b in zip(ind, ind[1:]))
        assert (out / payload["members"][0]["file"]).exists()
