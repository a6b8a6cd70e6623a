"""Experiment scenarios: geometry, demands, noise, filter tuning, horizon.

Scenario files are YAML (nested keys plus arrays) so experiment configs stay
reviewable and diff-friendly.  Each field's rules are written once, in the
``rules`` of the dataclass that holds it; ``load_scenario`` applies the same
rules to a parsed file and reports every failure with its path before raising,
rather than stopping at the first.
"""

from __future__ import annotations

import dataclasses
import math
import os
import warnings
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np
import yaml

from .core import (
    HighwayGeometry,
    MetanetParams,
    RampLayout,
    Rule,
    TrafficState,
    _is_integer,
    _positive,
    broken_rules,
    enforce,
)
from .kalman import KalmanConfig
from .metanet import DEFAULT_SEED, NoiseSpec, PiecewiseLinear

OFFRAMP_MODES = ("measured", "unmeasured")


class ScenarioError(ValueError):
    """Carries the full list of path-tagged validation failures."""

    def __init__(self, failures: list[str]):
        self.failures = list(failures)
        super().__init__("invalid scenario: " + "; ".join(self.failures))


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one experiment run."""

    geometry: HighwayGeometry
    params: MetanetParams
    layout: RampLayout
    entry_demand: PiecewiseLinear
    onramp_demand: Mapping[int, PiecewiseLinear]
    penetration_profile: PiecewiseLinear
    noise: NoiseSpec
    filter: KalmanConfig
    horizon_h: float = 3.0
    offramp_mode: str = "measured"
    init_rho: float | np.ndarray = 9.0
    init_penetration: float = 0.2
    name: str = "scenario"

    rules = (
        Rule("entry_demand", lambda p: np.all(p.values >= 0), "must be >= 0"),
        Rule("onramp_demand", lambda _, p: np.all(p.values >= 0), "must be >= 0"),
        Rule("penetration_profile", lambda p: np.all((p.values >= 0) & (p.values <= 1)),
             "must lie in [0, 1]"),
        Rule("horizon_h", _positive, "must be finite and > 0"),
        Rule("offramp_mode", lambda mode: mode in OFFRAMP_MODES, f"must be one of {OFFRAMP_MODES}"),
        Rule("init_rho", lambda rho: np.all(np.isfinite(rho) & (np.asarray(rho, dtype=float) >= 0)),
             "must be finite and >= 0"),
        Rule("init_penetration", lambda share: 0 < share <= 1, "must lie in (0, 1]"),
        # Rules across the parts, each run once its inputs passed their own.
        Rule("horizon_h", lambda h, step: math.isfinite(h / step)
             and abs(h / step - round(h / step)) <= 1e-9,
             "must be an integer number of steps", needs=("step_h",)),
        Rule("horizon_h", lambda h, step: round(h / step) >= 1, "must be at least one step",
             needs=("step_h",)),
        # inputs_at draws for steps 0..M, and a stream index stays below 2**32.
        Rule("horizon_h", lambda h, step: round(h / step) <= 2**32 - 2,
             "must be at most 2**32 - 2 steps", needs=("step_h",)),
        Rule("init_rho", lambda rho, n: np.shape(rho) in ((), (n,)),
             "must be one density or one per segment", needs=("n_segments",)),
        *RampLayout.placement_rules,
    )

    def __post_init__(self):
        enforce(self.rules, {**vars(self.geometry), **vars(self.layout), **vars(self)})
        if not self.geometry.cfl_ok(self.params.v_free):
            warnings.warn("step_h * v_free exceeds the shortest segment; "
                          "the explicit update may be unstable", stacklevel=2)

    @property
    def n_steps(self) -> int:
        return round(self.horizon_h / self.geometry.step_h)

    @property
    def seed(self) -> int:
        return self.noise.seed

    def with_seed(self, seed: int) -> "Scenario":
        return dataclasses.replace(self, noise=dataclasses.replace(self.noise, seed=seed))

    def initial_state(self) -> TrafficState:
        n = self.geometry.n_segments
        rho = np.asarray(self.init_rho, dtype=float)
        if rho.ndim == 0:
            rho = np.full(n, float(rho))
        v = self.params.stationary_speed(rho)      # the init_rho rule refused rho < 0
        return TrafficState.from_densities(rho, self.init_penetration * rho, v)


# --- YAML parsing ---------------------------------------------------------

# The keys a scenario file may set, by section ("" is the top level): each sets
# a field of a part (_PARTS) or of Scenario from a value of the kind named
# beside it (see _Collector.parse).
_KEYS = {
    "": {"name": ("name", "text"), "penetration": ("penetration_profile", "profile")},
    "geometry": {"n_segments": ("n_segments", "integer"), "step_h": ("step_h", "number"),
                 "seg_len_km": ("seg_len_km", "numbers")},
    "model": {f.name: (f.name, "number") for f in dataclasses.fields(MetanetParams)},
    "ramps": {"on_ramps": ("on_ramp_segments", "segments"),
              "off_ramps": ("off_ramp_segments", "segments"),
              "exit_rate": ("exit_rate", "numbers"), "exit_rate_a": ("exit_rate_a", "numbers")},
    "demand": {"entry": ("entry_demand", "profile"), "on_ramps": ("onramp_demand", "profiles")},
    "noise": {f.name: (f.name, "number") for f in dataclasses.fields(NoiseSpec)
              if f.name != "seed"},
    "filter": {f.name: (f.name, "number") for f in dataclasses.fields(KalmanConfig)},
    "run": {"horizon_h": ("horizon_h", "number"), "seed": ("seed", "integer"),
            "offramp_mode": ("offramp_mode", "text")},
    "initial": {"rho": ("init_rho", "numbers"), "penetration": ("init_penetration", "number")},
}
_PATHS = {field: f"{section}.{key}" if section else key
          for section, keys in _KEYS.items() for key, (field, _) in keys.items()}
_PARTS = {"geometry": HighwayGeometry, "params": MetanetParams, "layout": RampLayout,
          "noise": NoiseSpec, "filter": KalmanConfig}
_RULES = sum((cls.rules for cls in _PARTS.values()), ()) + Scenario.rules

# Omitted values: the default experiment's geometry, model and noise, the coded
# defaults of the rest, no ramps, no on-ramp demand (set per load) and a 20%
# connected share.  The entry demand has none.
_DEFAULTS = {
    **{f.name: f.default for cls in (RampLayout, NoiseSpec, KalmanConfig, Scenario)
       for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING},
    **vars(MetanetParams.defaults()),
    "n_segments": 20, "step_h": 10 / 3600, "seg_len_km": 0.5,
    "penetration_profile": PiecewiseLinear.constant(0.2),
}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(test, value: Any) -> bool:
    return isinstance(value, list) and all(map(test, value))


# The plain kinds of value: what each is called, its test, and how it is kept.
_KINDS = {
    "number": ("a number", _is_number, float),
    "integer": ("an integer", _is_integer, int),
    "text": ("a string", lambda value: isinstance(value, str), str),
    "numbers": ("a number or a list of numbers",
                lambda value: _is_number(value) or _list_of(_is_number, value),
                lambda value: float(value) if _is_number(value) else np.array(value, dtype=float)),
    "segments": ("a list of integer segments", lambda value: _list_of(_is_integer, value), list),
}


class _Collector:
    """Accumulates path-tagged failures while parsing YAML values into Python
    ones; each parser returns None for a value it refuses."""

    def __init__(self):
        self.failures: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.failures.append(f"{path}: {message}")

    def parse(self, kind: str, value: Any, path: str):
        """``value`` as a ``kind`` of _KINDS, or by the method named ``kind``."""
        if value is None:
            self.fail(path, "missing required value")
        elif kind in _KINDS:
            expected, fits, convert = _KINDS[kind]
            if fits(value):
                return convert(value)
            self.fail(path, f"expected {expected}, got {value!r}")
        else:
            return getattr(self, kind)(value, path)

    def section(self, value: Any, path: str, keys) -> Mapping:
        """A mapping whose keys are all among ``keys``; None reads as empty."""
        if value is None:
            return {}
        if not isinstance(value, Mapping):
            self.fail(path, "expected a mapping")
            return {}
        for key in value.keys() - set(keys):
            self.fail(f"{path}.{key}" if path else str(key), "unknown key")
        return value

    def profile(self, value: Any, path: str) -> PiecewiseLinear | None:
        if _is_number(value):
            value = [[0.0, value]]
        if not isinstance(value, list) or not value:
            self.fail(path, "expected a number or a list of [time_h, value] pairs")
            return None
        try:
            return PiecewiseLinear.from_pairs(value)
        except (TypeError, ValueError) as exc:
            self.fail(path, str(exc))

    def profiles(self, value: Any, path: str) -> dict[int, PiecewiseLinear] | None:
        """One profile per integer segment key."""
        if not isinstance(value, Mapping):
            self.fail(path, "expected a mapping from segment to profile")
            return None
        out = {}
        for seg, raw in value.items():
            profile = self.profile(raw, f"{path}.{seg}")
            if not _is_integer(seg):
                self.fail(f"{path}.{seg}", "segment keys must be integers")
            elif profile is not None:
                out[seg] = profile
        return out


def _scenario_from_dict(data: Mapping[str, Any], name: str) -> Scenario:
    col = _Collector()
    values = {**_DEFAULTS, "onramp_demand": {}, "name": name}
    top = col.section(data, "", {*_KEYS[""], *_KEYS} - {""})
    for section, keys in _KEYS.items():
        given = top if not section else col.section(top.get(section), section, keys)
        for key, (field, kind) in keys.items():
            if key in given or field not in values:
                values[field] = col.parse(kind, given.get(key), _PATHS[field])
    # A value that failed to parse is left out, and so are the rules that need it.
    values = {field: value for field, value in values.items() if value is not None}
    # One exit rate applies to every off-ramp.
    for field in ("exit_rate", "exit_rate_a"):
        if isinstance(values.get(field), float):
            values[field] = [values[field]] * len(values.get("off_ramp_segments", [None]))
    for field, message in broken_rules(_RULES, values):
        base, _, seg = field.partition("[")
        col.fail(_PATHS[base] + (f".{seg[:-1]}" if seg else ""), f"{message} ({field})")
    if col.failures:
        raise ScenarioError(col.failures)
    values.update((part, _build(cls, values)) for part, cls in _PARTS.items())
    return _build(Scenario, values)


def _build(cls, values: Mapping[str, Any]):
    return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values})


def load_scenario(path) -> Scenario:
    """Parse and validate a YAML scenario file; a file that is not valid YAML
    fails as a ScenarioError at the parser's line and column, and one that is
    not UTF-8 (or UTF-16 with a byte order mark) at its byte position."""
    with open(path, "rb") as handle:      # PyYAML decodes, raising its ReaderError
        try:
            data = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)    # the reader's errors have none
            raise ScenarioError([f"line {mark.line + 1}, column {mark.column + 1}: {exc.problem}"
                                 if mark else " ".join(str(exc).split())]) from exc
    if not isinstance(data, Mapping):
        raise ScenarioError(["top level: expected a mapping"])
    return _scenario_from_dict(data, os.path.splitext(os.path.basename(path))[0])


def default_scenario(seed: int = DEFAULT_SEED) -> Scenario:
    """The stock 20-segment experiment: a file that sets only its ramps, its
    demands and ``seed``, so the rest are the values any file omits.  The
    demands rise over the second hour until the merge at segment 6 exceeds
    capacity and the queue spills back to the entry, then recede so the last
    hour is free-flowing again."""
    return _scenario_from_dict({
        "ramps": {"on_ramps": [2, 6, 10], "off_ramps": [4, 8, 12], "exit_rate": 0.1},
        "demand": {
            "entry": [[0.0, 1300.0], [0.9, 1300.0], [1.05, 1700.0], [1.55, 1700.0],
                      [1.75, 1300.0], [3.0, 1300.0]],
            "on_ramps": {
                2: [[0.0, 150.0], [0.9, 150.0], [1.05, 250.0], [1.55, 250.0],
                    [1.75, 150.0], [3.0, 150.0]],
                6: [[0.0, 250.0], [0.9, 250.0], [1.05, 550.0], [1.55, 550.0],
                    [1.75, 250.0], [3.0, 250.0]],
                10: [[0.0, 100.0], [3.0, 100.0]],
            },
        },
        "run": {"seed": seed},
    }, "default")
