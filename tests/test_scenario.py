"""Scenario construction, YAML parsing, and validation reporting."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import mixedtraffic as mt
from mixedtraffic.core import HighwayGeometry
from mixedtraffic.metanet import PiecewiseLinear
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, field", [
    (lambda sc: dataclasses.replace(sc.params, tau_h=NAN), "tau_h"),
    (lambda sc: dataclasses.replace(sc.params, v_free=INF), "v_free"),
    (lambda sc: dataclasses.replace(sc.noise, std_speed=NAN), "std_speed"),
    (lambda sc: dataclasses.replace(sc.noise, std_entry_flow=INF), "std_entry_flow"),
    (lambda sc: HighwayGeometry(20, NAN, 0.5), "step_h"),
    (lambda sc: HighwayGeometry(20, INF, 0.5), "step_h"),
    (lambda sc: dataclasses.replace(sc, horizon_h=INF), "horizon_h"),
    (lambda sc: dataclasses.replace(sc, horizon_h=NAN), "horizon_h"),
    (lambda sc: PiecewiseLinear.from_pairs([(0.0, 1.0), (NAN, 2.0)]), "breakpoints"),
    (lambda sc: PiecewiseLinear.from_pairs([(0.0, INF)]), "breakpoints"),
], ids=["tau_h-nan", "v_free-inf", "std_speed-nan", "std_entry_flow-inf", "step_h-nan",
        "step_h-inf", "horizon_h-inf", "horizon_h-nan", "profile-time-nan", "profile-value-inf"])
def test_objects_built_in_code_refuse_non_finite_values(build, field):
    """Values that never pass through load_scenario are checked too, and the
    error names the field."""
    with pytest.raises(ValueError, match=field):
        build(default_scenario())


@pytest.mark.parametrize("field, bad", [
    ("q_sigma", NAN), ("q_sigma", 0.0), ("r_cov", 0.0), ("r_cov", INF), ("p0_sigma", -1.0),
    ("x0_value", NAN), ("x0_value", -INF), ("init_rho", -5.0), ("init_rho", NAN),
    ("init_rho", np.full(19, 9.0)), ("init_rho", np.r_[np.full(19, 9.0), INF]),
])
def test_scenario_built_in_code_refuses_bad_filter_and_initial_values(field, bad):
    """Checked when the Scenario is built, not when it runs, under the field's name."""
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(default_scenario(), **{field: bad})


@pytest.mark.parametrize("field", ["entry_demand", "onramp_demand[6]"])
def test_scenario_built_in_code_refuses_negative_demands(field):
    sc = default_scenario()
    negative = PiecewiseLinear.from_pairs([(0.0, 100.0), (1.0, -1.0)])
    if field == "entry_demand":
        change = {"entry_demand": negative}
    else:
        change = {"onramp_demand": {**sc.onramp_demand, 6: negative}}
    with pytest.raises(ValueError, match=re.escape(field)):
        dataclasses.replace(sc, **change)


@pytest.mark.parametrize("share", [1.5, -0.1])
def test_scenario_built_in_code_refuses_penetration_outside_unit_interval(share):
    profile = PiecewiseLinear.from_pairs([(0.0, 0.2), (1.0, share)])
    with pytest.raises(ValueError, match="penetration_profile"):
        dataclasses.replace(default_scenario(), penetration_profile=profile)


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
