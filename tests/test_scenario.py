"""Scenario construction, YAML parsing, and validation reporting."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import mixedtraffic as mt
from mixedtraffic.core import HighwayGeometry, MetanetParams, RampLayout
from mixedtraffic.kalman import KalmanConfig
from mixedtraffic.metanet import NoiseSpec, PiecewiseLinear
from mixedtraffic.scenario import Scenario, ScenarioError, default_scenario, load_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_YAML = REPO_ROOT / "scenarios" / "default.yaml"


def _assert_same(a, b, path="scenario"):
    """``a`` and ``b`` are equal exactly, part by part: the same type, each
    dataclass field and mapping entry in turn, arrays byte for byte."""
    assert type(a) is type(b), path
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, dict):
        assert list(a) == list(b), path
        for key in a:
            _assert_same(a[key], b[key], f"{path}[{key}]")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), path
    else:
        assert a == b, path


@pytest.mark.parametrize("seed", [20260810, 7])
def test_shipped_default_matches_coded_default(seed):
    """The YAML file and the in-code default are the same experiment, in every field."""
    _assert_same(default_scenario(seed), load_scenario(DEFAULT_YAML).with_seed(seed))


def test_default_scenario_shape():
    sc = default_scenario()
    assert sc.geometry.n_segments == 20
    assert sc.geometry.step_h == 10 / 3600
    assert np.all(sc.geometry.seg_len_km == 0.5)
    assert sc.layout.on_ramp_segments == (2, 6, 10)
    assert sc.layout.off_ramp_segments == (4, 8, 12)
    assert sc.layout.exit_rate == (0.1, 0.1, 0.1)
    assert sc.n_steps == 1080
    f = sc.filter
    assert (f.q_sigma, f.r_cov, f.x0_value, f.p0_sigma) == (1.0, 100.0, 10.0, 1.0)


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


def test_horizon_stays_within_the_noise_streams():
    """Steps 0..M each draw from their own stream, whose index stays below 2**32."""
    sc = default_scenario()
    longest = dataclasses.replace(sc, horizon_h=(2**32 - 2) * sc.geometry.step_h)
    assert longest.n_steps == 2**32 - 2
    with pytest.raises(ValueError, match=r"^horizon_h must be at most 2\*\*32 - 2 steps$"):
        dataclasses.replace(sc, horizon_h=(2**32 - 1) * sc.geometry.step_h)


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
    """Checked when the Scenario or its filter is built, not when it runs,
    under the field's name."""
    with pytest.raises(ValueError, match=field):
        _replace(default_scenario(), field, bad)


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


@pytest.mark.parametrize("seed", [True, False])
def test_a_bool_seed_is_refused_in_code_as_in_a_file(tmp_path, seed):
    """A bool is an int, yet no seed: with_seed(True) used to run as seed 1
    and write seed,True to metrics.csv.  A NumPy integer is still a seed."""
    with pytest.raises(ValueError, match=r"^seed must be a 64-bit nonnegative integer$"):
        default_scenario().with_seed(seed)
    assert _file_failures(tmp_path, {"run.seed": seed}) == [
        f"run.seed: expected an integer, got {seed!r}"]
    assert default_scenario().with_seed(np.uint64(7)).seed == 7


def test_initial_state_consistency():
    """For the stock uniform density and a per-segment one, v is the speed law
    at rho, and q and q_a are rho v and rho_a v, byte for byte."""
    stock, per_segment = default_scenario(), np.linspace(0.0, 60.0, 20)
    for sc, rho in ((stock, np.full(20, 9.0)),
                    (dataclasses.replace(stock, init_rho=per_segment), per_segment)):
        state = sc.initial_state()
        assert state.rho.tobytes() == rho.tobytes()
        assert np.allclose(state.rho_a, 0.2 * rho)
        assert state.v.tobytes() == sc.params.stationary_speed(rho).tobytes()
        assert state.q.tobytes() == (state.rho * state.v).tobytes()
        assert state.q_a.tobytes() == (state.rho_a * state.v).tobytes()


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
    assert sc.noise == mt.NoiseSpec()
    assert sc.filter == KalmanConfig()
    for name in ("horizon_h", "offramp_mode", "init_rho", "init_penetration"):
        assert getattr(sc, name) == coded[name]


# --- One rule table, two construction paths -------------------------------

RULES = (HighwayGeometry.rules + MetanetParams.rules + RampLayout.rules + NoiseSpec.rules
         + KalmanConfig.rules + Scenario.rules)
FILTER = [f.name for f in dataclasses.fields(KalmanConfig)]


def _replace(sc, field, value):
    """``sc`` with ``field`` set, in its filter when the filter holds it."""
    if field in FILTER:
        return dataclasses.replace(sc, filter=dataclasses.replace(sc.filter, **{field: value}))
    return dataclasses.replace(sc, **{field: value})
MODEL = [f.name for f in dataclasses.fields(MetanetParams)]
STDS = [f.name for f in dataclasses.fields(NoiseSpec) if f.name != "seed"]
DEMAND = [[0.0, 100.0], [1.0, -1.0]]
NEGATIVE = PiecewiseLinear.from_pairs(DEMAND)

# One bad value per rule in a copy of scenarios/default.yaml: (path, value).
FILE_ROWS = [
    ("geometry.n_segments", 1), ("geometry.step_h", 0.0), ("geometry.seg_len_km", -0.5),
    ("geometry.seg_len_km", [0.5] * 19),
    *((f"model.{name}", -1.0) for name in MODEL),
    ("ramps.on_ramps", [2, 2, 6, 10]), ("ramps.off_ramps", [4, 4]),
    ("ramps.exit_rate", 1.0), ("ramps.exit_rate_a", -0.1),
    ("ramps.exit_rate", [0.1, 0.1]), ("ramps.exit_rate_a", [0.1]),
    *((f"noise.{name}", -1.0) for name in STDS), ("run.seed", 2**64),
    ("demand.entry", DEMAND), ("demand.on_ramps.2", DEMAND), ("penetration", 1.5),
    ("filter.q_sigma", 0.0), ("filter.r_cov", -1.0), ("filter.p0_sigma", NAN),
    ("run.horizon_h", -1.0), ("filter.x0_value", INF), ("run.offramp_mode", "guessed"),
    ("initial.rho", -5.0), ("initial.penetration", 0.0), ("run.horizon_h", 3.0001),
    ("initial.rho", [1.0, 2.0]), ("ramps.on_ramps", [2, 6, 10, 21]),
    ("ramps.off_ramps", [0, 8, 12]), ("demand.on_ramps.7", 100.0),
    ("run.horizon_h", (2**32 - 1) * (10 / 3600)), ("run.horizon_h", 1e-15),
]


# One bad value per rule in an object built in code: (field, build from the default).
CODE_ROWS = [
    ("n_segments", lambda sc: HighwayGeometry(1, 0.01, 0.5)),
    ("step_h", lambda sc: HighwayGeometry(20, 0.0, 0.5)),
    ("seg_len_km", lambda sc: HighwayGeometry(20, 0.01, -0.5)),
    ("seg_len_km", lambda sc: HighwayGeometry(20, 0.01, [0.5] * 19)),
    *((name, lambda sc, name=name: dataclasses.replace(sc.params, **{name: -1.0}))
      for name in MODEL),
    ("on_ramp_segments", lambda sc: RampLayout(on_ramp_segments=(2, 2))),
    ("off_ramp_segments", lambda sc: RampLayout(off_ramp_segments=(4, 4))),
    ("exit_rate", lambda sc: RampLayout(off_ramp_segments=(4,), exit_rate=(1.0,))),
    ("exit_rate_a", lambda sc: RampLayout(off_ramp_segments=(4,), exit_rate_a=(-0.1,))),
    ("exit_rate", lambda sc: RampLayout(off_ramp_segments=(4, 8), exit_rate=(0.1,))),
    ("exit_rate_a", lambda sc: RampLayout(off_ramp_segments=(4, 8), exit_rate_a=(0.1,))),
    *((name, lambda sc, name=name: dataclasses.replace(sc.noise, **{name: -1.0}))
      for name in STDS),
    ("seed", lambda sc: sc.with_seed(-1)),
    ("entry_demand", lambda sc: dataclasses.replace(sc, entry_demand=NEGATIVE)),
    ("onramp_demand[6]", lambda sc: dataclasses.replace(
        sc, onramp_demand={**sc.onramp_demand, 6: NEGATIVE})),
    ("penetration_profile", lambda sc: dataclasses.replace(
        sc, penetration_profile=PiecewiseLinear.constant(1.5))),
    *((name, lambda sc, name=name, bad=bad: _replace(sc, name, bad))
      for name, bad in [("q_sigma", 0.0), ("r_cov", -1.0), ("p0_sigma", NAN),
                        ("horizon_h", -1.0), ("x0_value", INF), ("offramp_mode", "guessed"),
                        ("init_rho", -5.0), ("init_penetration", 0.0), ("horizon_h", 3.0001),
                        ("horizon_h", (2**32 - 1) * (10 / 3600)),
                        ("init_rho", np.full(19, 9.0)), ("horizon_h", 1e-15)]),
    ("on_ramp_segments", lambda sc: dataclasses.replace(
        sc, layout=dataclasses.replace(sc.layout, on_ramp_segments=(2, 6, 10, 21)))),
    ("off_ramp_segments", lambda sc: dataclasses.replace(
        sc, layout=dataclasses.replace(sc.layout, off_ramp_segments=(0, 8, 12)))),
    ("onramp_demand[7]", lambda sc: dataclasses.replace(
        sc, onramp_demand={**sc.onramp_demand, 7: PiecewiseLinear.constant(100.0)})),
]


def _file_failures(tmp_path, changes: dict) -> list[str]:
    """The failures of scenarios/default.yaml with each dotted path in ``changes`` set."""
    data = yaml.safe_load(DEFAULT_YAML.read_text())
    for path, value in changes.items():
        *parents, key = [int(k) if k.isdigit() else k for k in path.split(".")]
        node = data
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = value
    scenario = tmp_path / "changed.yaml"
    scenario.write_text(yaml.safe_dump(data))
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(scenario)
    return excinfo.value.failures


def _code_failure(build) -> str:
    with pytest.raises(ValueError) as excinfo:
        build(default_scenario())
    return str(excinfo.value)


def _rule(field: str, message: str) -> tuple[str, str]:
    """The rule's (field, message), an on-ramp demand's ``[segment]`` dropped."""
    return re.sub(r"\[\d+\]$", "", field), message


@pytest.mark.parametrize("path, bad", FILE_ROWS)
def test_each_rule_refuses_its_bad_file_value_with_its_path(tmp_path, path, bad):
    assert [f.split(":")[0] for f in _file_failures(tmp_path, {path: bad})] == [path]


@pytest.mark.parametrize("field, build", CODE_ROWS, ids=[field for field, _ in CODE_ROWS])
def test_each_rule_refuses_its_bad_code_built_value_by_field(field, build):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} [^;]*$"):
        build(default_scenario())


def test_every_rule_has_a_file_row_and_a_code_row(tmp_path):
    """Each row breaks exactly one rule, and together they break every rule."""
    rules = {(rule.field, rule.message) for rule in RULES}
    assert len(rules) == len(RULES)
    by_file = [_rule(*re.fullmatch(r"[^:]+: (.*) \((\S+)\)", failure).groups()[::-1])
               for path, bad in FILE_ROWS for failure in _file_failures(tmp_path, {path: bad})]
    by_code = [_rule(*_code_failure(build).split(" ", 1)) for _, build in CODE_ROWS]
    assert sorted(by_file) == sorted(by_code) == sorted(rules)


@pytest.mark.parametrize("changes, expected", [
    ({"model.tau_h": -1.0, "noise.std_speed": -2.0, "initial.penetration": 1.5},
     ["model.tau_h: must be finite and > 0 (tau_h)",
      "noise.std_speed: must be finite and >= 0 (std_speed)",
      "initial.penetration: must lie in (0, 1] (init_penetration)"]),
    ({"geometry.seg_len_km": -0.5, "ramps.on_ramps": [30], "ramps.off_ramps": [4],
      "ramps.exit_rate": 1.5, "run.horizon_h": 0.0001},
     ["geometry.seg_len_km: entries must be finite and > 0 (seg_len_km)",
      "ramps.on_ramps: must lie within 1..n_segments (on_ramp_segments)",
      "ramps.exit_rate: entries must lie in [0, 1) (exit_rate)",
      "run.horizon_h: must be an integer number of steps (horizon_h)"]),
], ids=["three", "four"])
def test_a_file_reports_every_broken_rule(tmp_path, changes, expected):
    """The omitted exit_rate_a inherits exit_rate and is not reported again."""
    assert sorted(_file_failures(tmp_path, changes)) == sorted(expected)


@pytest.mark.parametrize("path, bad", [
    ("ramps.off_ramps", [4.7]), ("ramps.on_ramps", "12"), ("ramps.off_ramps", [True]),
    ("ramps.exit_rate", "high"), ("ramps.exit_rate_a", [0.1, "x", 0.1]),
    ("geometry.seg_len_km", "long"), ("demand.on_ramps", [2, 6]),
    ("geometry", 5), ("demand.on_ramps.x", 100.0),
])
def test_values_of_the_wrong_type_are_refused_with_their_path(tmp_path, path, bad):
    """Before, [4.7] read as segment 4, "12" as segments 1 and 2, [true] as
    segment 1, and "long" failed without a path."""
    assert [f.split(":")[0] for f in _file_failures(tmp_path, {path: bad})] == [path]


@pytest.mark.parametrize("path", ["filter.q_sgima", "modle", "ramps.exit_rates",
                                  "geometry.n_segment"])
def test_unknown_keys_are_refused_with_their_path(tmp_path, path):
    assert _file_failures(tmp_path, {path: 5}) == [f"{path}: unknown key"]


def test_duplicated_off_ramp_is_refused_not_overwritten(tmp_path):
    """[4, 4] with two rates used to keep only the second."""
    failures = _file_failures(tmp_path, {"ramps.off_ramps": [4, 4], "ramps.exit_rate": [0.1, 0.2]})
    assert failures == ["ramps.off_ramps: must not repeat a segment (off_ramp_segments)"]
