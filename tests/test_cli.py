"""Command-line verbs, exit codes, and machine-readable failures."""

import json
from pathlib import Path

import numpy as np
import pytest

from mixedtraffic.cli import main
from mixedtraffic.harness import read_sweep, read_trajectory

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_YAML = REPO_ROOT / "scenarios" / "default.yaml"


@pytest.fixture()
def short_yaml(tmp_path):
    """Quarter-hour variant of the default scenario, for fast CLI runs."""
    text = DEFAULT_YAML.read_text().replace("horizon_h: 3.0", "horizon_h: 0.25")
    path = tmp_path / "short.yaml"
    path.write_text(text)
    return path


def test_simulate_writes_truth_csv(tmp_path, short_yaml, capsys):
    code = main(["simulate", "--scenario", str(short_yaml), "--out", str(tmp_path)])
    assert code == 0
    data = read_trajectory(tmp_path / "trajectory.csv")
    assert data["rho"].shape == (91, 20)
    assert np.isnan(data["rho_hat"]).all()
    assert (tmp_path / "metrics.csv").exists()
    assert "simulated 90 steps" in capsys.readouterr().out


def test_estimate_reports_index(tmp_path, short_yaml, capsys):
    code = main(["estimate", "--scenario", str(short_yaml), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "P_R" in out
    data = read_trajectory(tmp_path / "trajectory.csv")
    assert not np.isnan(data["rho_hat"]).any()
    metrics = dict(line.split(",", 1) for line in
                   (tmp_path / "metrics.csv").read_text().strip().splitlines()[1:])
    assert float(metrics["p_r"]) > 0


def test_seed_override_changes_output(tmp_path, short_yaml):
    main(["simulate", "--scenario", str(short_yaml), "--out", str(tmp_path / "a"),
          "--seed", "1"])
    main(["simulate", "--scenario", str(short_yaml), "--out", str(tmp_path / "b"),
          "--seed", "2"])
    a = read_trajectory(tmp_path / "a" / "trajectory.csv")
    b = read_trajectory(tmp_path / "b" / "trajectory.csv")
    assert not np.array_equal(a["rho"], b["rho"])


def test_offramp_mode_flag(tmp_path, short_yaml):
    code = main(["estimate", "--scenario", str(short_yaml), "--out", str(tmp_path),
                 "--offramp-mode", "unmeasured"])
    assert code == 0
    metrics = (tmp_path / "metrics.csv").read_text()
    assert "unmeasured" in metrics


def test_sweep_csv(tmp_path, short_yaml, capsys):
    code = main(["sweep", "--scenario", str(short_yaml), "--out", str(tmp_path),
                 "--sigmas", "0.5", "1.0", "2.0"])
    assert code == 0
    points = read_sweep(tmp_path / "sweep.csv")
    assert [p.sigma for p in points] == [0.5, 1.0, 2.0]
    assert capsys.readouterr().out.count("sigma =") == 3


@pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-1", "abc"])
def test_sweep_rejects_bad_sigma_flag(tmp_path, short_yaml, capsys, sigma):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--scenario", str(short_yaml), "--out", str(tmp_path),
              "--sigmas", "1.0", sigma])
    assert excinfo.value.code == 2
    assert "--sigmas" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_estimate_refuses_diverged_filter(tmp_path, capsys):
    """A 1% initial connected share at the default seed drives the covariance
    to about -2.75e45 and P_R to about 1.27e18."""
    text = DEFAULT_YAML.read_text()
    initial = "initial:\n  rho: 9.0                        # veh/km, uniform\n  penetration: "
    assert initial + "0.2" in text
    path = tmp_path / "sparse.yaml"
    path.write_text(text.replace(initial + "0.2", initial + "0.01"))
    code = main(["estimate", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "filter_diverged"
    assert float(err["min_p_eigenvalue"]) < -1e40
    assert not (tmp_path / "trajectory.csv").exists()


def test_observability_report(tmp_path, short_yaml, capsys):
    code = main(["observability", "--scenario", str(short_yaml),
                 "--out", str(tmp_path), "--stride", "10"])
    assert code == 0
    lines = (tmp_path / "observability.csv").read_text().strip().splitlines()
    assert lines[0] == "start_step,observable,min_anti_diag,max_anti_diag"
    assert len(lines) > 1
    assert "0 unobservable" in capsys.readouterr().out


def test_observability_refuses_run_shorter_than_a_window(tmp_path, capsys):
    """18 steps cannot hold one window of N-1 = 19 steps."""
    path = tmp_path / "tiny.yaml"
    path.write_text(DEFAULT_YAML.read_text().replace("horizon_h: 3.0", "horizon_h: 0.05"))
    code = main(["observability", "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "no_observability_window"
    assert "19 steps" in err["message"]
    assert not (tmp_path / "observability.csv").exists()


def test_observability_rejects_zero_stride(tmp_path, short_yaml, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["observability", "--scenario", str(short_yaml), "--out", str(tmp_path),
              "--stride", "0"])
    assert excinfo.value.code == 2
    assert "--stride" in capsys.readouterr().err


def test_invalid_scenario_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("geometry:\n  step_h: quick\nrun:\n  offramp_mode: nope\n")
    code = main(["estimate", "--scenario", str(bad), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid_scenario"
    assert any(f.startswith("geometry.step_h") for f in err["failures"])
    assert any(f.startswith("run.offramp_mode") for f in err["failures"])


def test_missing_scenario_file(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "io"
