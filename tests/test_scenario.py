"""Scenario construction, YAML parsing, and validation reporting."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
import yaml

import mixedtraffic as mt
from mixedtraffic.scenario import ScenarioError, default_scenario, load_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_YAML = REPO_ROOT / "scenarios" / "default.yaml"


def test_shipped_default_matches_coded_default():
    """The YAML file and the in-code default are the same experiment."""
    from_file = load_scenario(DEFAULT_YAML)
    coded = default_scenario()
    assert from_file.seed == coded.seed
    assert from_file.n_steps == coded.n_steps
    truth_a = mt.simulate_truth(from_file)
    truth_b = mt.simulate_truth(coded)
    assert np.array_equal(truth_a.states[-1].rho, truth_b.states[-1].rho)
    assert np.array_equal(truth_a.states[-1].v, truth_b.states[-1].v)


def test_default_scenario_shape():
    sc = default_scenario()
    assert sc.geometry.n_segments == 20
    assert sc.geometry.step_h == 10 / 3600
    assert np.all(sc.geometry.seg_len_km == 0.5)
    assert sc.layout.on_ramp_segments == (2, 6, 10)
    assert sc.layout.off_ramp_segments == (4, 8, 12)
    assert sc.layout.exit_rate == (0.1, 0.1, 0.1)
    assert sc.n_steps == 1080
    assert (sc.q_sigma, sc.r_cov, sc.x0_value, sc.p0_sigma) == (1.0, 100.0, 10.0, 1.0)


def test_validation_collects_failures_with_paths(tmp_path):
    bad = {
        "geometry": {"n_segments": 20, "step_h": "fast"},
        "model": {"nu": "many"},
        "run": {"seed": 1.5, "offramp_mode": "guessed"},
        "demand": {"entry": "lots"},
    }
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    failures = excinfo.value.failures
    prefixes = {f.split(":")[0] for f in failures}
    assert "geometry.step_h" in prefixes
    assert "model.nu" in prefixes
    assert "run.seed" in prefixes
    assert "run.offramp_mode" in prefixes
    assert "demand.entry" in prefixes


def test_horizon_must_be_integral_steps():
    sc = default_scenario()
    with pytest.raises(ValueError):
        dataclasses.replace(sc, horizon_h=3.0001)


def test_seed_override():
    sc = default_scenario().with_seed(42)
    assert sc.seed == 42
    assert sc.noise.std_entry_flow == 25.0


def test_initial_state_consistency():
    sc = default_scenario()
    state = sc.initial_state()
    assert np.all(state.rho == 9.0)
    assert np.allclose(state.rho_a, 1.8)
    assert np.allclose(state.q, state.rho * state.v)


def test_fast_step_triggers_cfl_warning():
    sc = default_scenario()
    geom = dataclasses.replace(sc.geometry, step_h=30 / 3600)  # 1 km per step
    with pytest.warns(UserWarning, match="unstable"):
        dataclasses.replace(sc, geometry=geom, horizon_h=0.25)


def test_minimal_yaml_uses_defaults(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text("demand:\n  entry: 1200.0\n")
    sc = load_scenario(path)
    assert sc.geometry.n_segments == 20
    assert sc.noise.std_speed == 5.0
    assert sc.entry_demand(2.0) == 1200.0
    assert sc.layout.on_ramp_segments == ()


def test_omitted_values_take_coded_defaults(tmp_path):
    """A file that sets only the entry demand gets every coded model, noise
    and filter default."""
    path = tmp_path / "entry_only.yaml"
    path.write_text("demand:\n  entry: 1200.0\n")
    sc = load_scenario(path)
    coded = {f.name: f.default for f in dataclasses.fields(mt.Scenario)}
    assert sc.params == mt.MetanetParams.defaults()
    assert sc.noise == dataclasses.replace(mt.NoiseSpec(), seed=sc.seed)
    for name in ("q_sigma", "r_cov", "x0_value", "p0_sigma", "horizon_h", "offramp_mode",
                 "init_rho", "init_penetration"):
        assert getattr(sc, name) == coded[name]
