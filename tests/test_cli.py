"""Command-line verbs, exit codes, and machine-readable failures."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mixedtraffic.cli import main
from mixedtraffic.harness import read_trajectory

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
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as handle:
        assert [float(row["sigma"]) for row in csv.DictReader(handle)] == [0.5, 1.0, 2.0]
    assert capsys.readouterr().out.count("sigma =") == 3


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "1.5", "abc"])
def test_simulate_rejects_bad_seed_flag(tmp_path, short_yaml, capsys, seed):
    """The flag takes the seeds a scenario file takes: integers in [0, 2**64)."""
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--scenario", str(short_yaml), "--out", str(tmp_path), "--seed", seed])
    assert excinfo.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_simulate_accepts_the_largest_seed(tmp_path, short_yaml):
    code = main(["simulate", "--scenario", str(short_yaml), "--out", str(tmp_path),
                 "--seed", str(2**64 - 1)])
    assert code == 0


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
    code = main(["estimate", "--scenario", str(_sparse_yaml(tmp_path)), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "filter_diverged"
    assert float(err["min_p_eigenvalue"]) < -1e40
    assert not (tmp_path / "trajectory.csv").exists()


def _sparse_yaml(tmp_path):
    """The default scenario with a 1% initial connected share."""
    text = DEFAULT_YAML.read_text()
    initial = "initial:\n  rho: 9.0                        # veh/km, uniform\n  penetration: "
    assert initial + "0.2" in text
    path = tmp_path / "sparse.yaml"
    path.write_text(text.replace(initial + "0.2", initial + "0.01"))
    return path


def test_sweep_refuses_diverged_members(tmp_path, capsys):
    """At the default seed a 1% initial connected share drives every sweep
    member's covariance far below zero (P_R 5.6e15 to 1.27e18)."""
    code = main(["sweep", "--scenario", str(_sparse_yaml(tmp_path)), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "filter_diverged"
    assert [float(s) for s in err["sigmas"]] == [0.01, 0.1, 1.0, 10.0, 100.0]
    assert float(err["p_r"][2]) > 1e18
    assert all(float(e) < -1e20 for e in err["min_p_eigenvalue"])
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("verb", ["estimate", "sweep"])
def test_filter_overflow_is_refused(tmp_path, capsys, verb):
    """Every noise sigma x10 at the default seed overflows the filter state at
    step 336, alone and in the sweep's batch."""
    text, count = re.subn(r"(  std_\w+: )([0-9.]+)",
                          lambda m: f"{m.group(1)}{10 * float(m.group(2))}", DEFAULT_YAML.read_text())
    assert count == 6
    path = tmp_path / "noisy.yaml"
    path.write_text(text)
    code = main([verb, "--scenario", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "filter_diverged"
    assert err["raised"] == "non-finite filter state at step 336"
    assert list(tmp_path.glob("*.csv")) == []


def _absurd_entry_yaml(tmp_path):
    """The default scenario with an entry demand of 1e300 veh/h: finite, so it
    loads, but the simulated densities overflow the speed law at step 1."""
    text = DEFAULT_YAML.read_text()
    entry = "  entry:\n  - [0.0, 1300.0]\n"
    assert entry in text
    path = tmp_path / "absurd.yaml"
    path.write_text(text.replace(entry, "  entry:\n  - [0.0, 1.0e+300]\n"))
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("verb", ["simulate", "estimate", "sweep", "observability"])
def test_simulator_overflow_is_refused(tmp_path, capsys, verb):
    """Blamed on the truth, not the filter, with no warning and no file."""
    out = tmp_path / "out"
    code = main([verb, "--scenario", str(_absurd_entry_yaml(tmp_path)), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "truth_diverged"
    assert err["raised"] == "overflow encountered in power at step 1"
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("line, bad, path", [
    ("  horizon_h: 3.0", "  horizon_h: .inf", "run.horizon_h"),
    ("  r_cov: 100.0", "  r_cov: .nan", "filter.r_cov"),
    ("  r_cov: 100.0", "  r_cov: -1.0", "filter.r_cov"),
    ("  std_speed: 5.0 ", "  std_speed: .nan ", "noise.std_speed"),
    ("  tau_h: 0.005555555555555556", "  tau_h: .nan", "model.tau_h"),
    ("  rho: 9.0 ", "  rho: [1.0, 2.0] ", "initial.rho"),
    ("  rho: 9.0 ", "  rho: -5.0 ", "initial.rho"),
    ("penetration: 0.2 ", "penetration: .nan ", "penetration"),
])
def test_bad_scenario_values_are_refused_at_load(tmp_path, capsys, line, bad, path):
    """Non-finite numbers, a non-positive covariance and a malformed initial
    density fail with their path, before anything runs."""
    text = DEFAULT_YAML.read_text()
    assert text.count(line) == 1
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(text.replace(line, bad))
    code = main(["estimate", "--scenario", str(scenario), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid_scenario"
    assert [f.split(":")[0] for f in err["failures"]] == [path]
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("line, bad, path", [
    ("    - [0.0, 150.0]", "    - [0.0, -150.0]", "demand.on_ramps.2"),
    ("  - [0.0, 1300.0]", "  - [0.0, -1300.0]", "demand.entry"),
], ids=["on-ramp", "entry"])
def test_negative_demands_are_refused_at_load(tmp_path, capsys, line, bad, path):
    """A negative demand breakpoint fails with its path instead of crashing
    the simulator (on-ramp) or being clamped to zero (entry)."""
    text = DEFAULT_YAML.read_text()
    assert text.count(line) == 1
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(text.replace(line, bad))
    code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid_scenario"
    assert [f.split(":")[0] for f in err["failures"]] == [path]
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("bad", ["penetration: 1.5 ", "penetration: [[0.0, 0.2], [1.0, -0.1]] "],
                         ids=["above 1", "below 0"])
def test_penetration_outside_unit_interval_is_refused_at_load(tmp_path, capsys, bad):
    """A connected share outside [0, 1] fails with its path instead of being
    clipped by the simulator."""
    text = DEFAULT_YAML.read_text()
    assert text.count("penetration: 0.2 ") == 1
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(text.replace("penetration: 0.2 ", bad))
    code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid_scenario"
    assert [f.split(":")[0] for f in err["failures"]] == ["penetration"]
    assert list(tmp_path.iterdir()) == [scenario]


def test_on_ramp_demand_without_an_on_ramp_is_refused_at_load(tmp_path, capsys):
    """Before, the file loaded and the simulator raised after --out was made."""
    text = DEFAULT_YAML.read_text()
    assert text.count("    10:\n") == 1
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(text.replace("    10:\n", "    7:\n"))
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid_scenario"
    assert [f.split(":")[0] for f in err["failures"]] == ["demand.on_ramps.7"]
    assert not out.exists()


@pytest.mark.parametrize("text, failure", [
    ("geometry: [1, 2\n", "line 2, column 1: expected ',' or ']', but got '<stream end>'"),
    ("demand: {entry: 1300.0}\nname: a: b\n", "line 2, column 8: mapping values are not allowed here"),
], ids=["unclosed list", "colon in a plain value"])
def test_yaml_syntax_error_is_refused_at_load(tmp_path, capsys, text, failure):
    """Before, the parser's error escaped with a traceback and exit 1."""
    scenario = tmp_path / "bad.yaml"
    scenario.write_text(text)
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid_scenario"
    assert err["failures"] == [failure]
    assert not out.exists()


def test_scenario_that_is_not_utf8_is_refused_at_load(tmp_path, capsys):
    """Latin-1 bytes: before, the UnicodeDecodeError escaped with a traceback and exit 1."""
    scenario = tmp_path / "latin1.yaml"
    scenario.write_bytes(b"name: caf\xe9\n")
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid_scenario"
    [failure] = err["failures"]
    assert "#x00e9: invalid continuation byte" in failure and "position 9" in failure
    assert not out.exists()


def test_horizon_beyond_the_noise_streams_is_refused_at_load(tmp_path, capsys):
    """2**32 steps: before, the file loaded, --out was made, and the stream
    derivation raised with a traceback and exit 1."""
    text = DEFAULT_YAML.read_text()
    assert text.count("horizon_h: 3.0") == 1
    scenario = tmp_path / "long.yaml"
    scenario.write_text(text.replace("horizon_h: 3.0", f"horizon_h: {2**32 * (10 / 3600)!r}"))
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid_scenario"
    assert err["failures"] == ["run.horizon_h: must be at most 2**32 - 2 steps (horizon_h)"]
    assert not out.exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub", "taken"],
                         ids=["a file", "below a file", "trajectory.csv a directory"])
def test_unusable_out_is_refused_as_io(tmp_path, short_yaml, capsys, out):
    """Before, mkdir's FileExistsError or NotADirectoryError, or the writer's
    IsADirectoryError, escaped with a traceback and exit 1."""
    (tmp_path / "afile").write_text("")
    (tmp_path / "taken" / "trajectory.csv").mkdir(parents=True)
    code = main(["simulate", "--scenario", str(short_yaml), "--out", str(tmp_path / out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io" and str(tmp_path) in err["message"]


def test_missing_scenario_file(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(tmp_path / "absent.yaml"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "io"
