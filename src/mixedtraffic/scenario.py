"""Experiment scenarios: geometry, demands, noise, filter tuning, horizon.

Scenario files are YAML (nested keys plus arrays) so experiment configs stay
reviewable and diff-friendly.  ``load_scenario`` collects every validation
failure with its path before raising, rather than stopping at the first.
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

from .core import HighwayGeometry, MetanetParams, RampLayout, TrafficState, nominal_speed
from .kalman import KalmanConfig
from .metanet import NoiseSpec, PiecewiseLinear

OFFRAMP_MODES = ("measured", "unmeasured")

DEFAULT_SEED = 20260810


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
    q_sigma: float = 1.0
    r_cov: float = 100.0
    x0_value: float = 10.0
    p0_sigma: float = 1.0
    horizon_h: float = 3.0
    offramp_mode: str = "measured"
    init_rho: float | np.ndarray = 9.0
    init_penetration: float = 0.2
    name: str = "scenario"

    def __post_init__(self):
        self.layout.validate_against(self.geometry.n_segments)
        if self.offramp_mode not in OFFRAMP_MODES:
            raise ValueError(f"offramp_mode must be one of {OFFRAMP_MODES}")
        if not (math.isfinite(self.horizon_h) and self.horizon_h > 0):
            raise ValueError("horizon_h must be finite and > 0")
        steps = self.horizon_h / self.geometry.step_h
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon_h must be an integer number of steps")
        if not 0 < self.init_penetration <= 1:
            raise ValueError("init_penetration must lie in (0, 1]")
        for name in ("q_sigma", "r_cov", "p0_sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not math.isfinite(self.x0_value):
            raise ValueError(f"x0_value must be finite, got {self.x0_value!r}")
        rho = np.asarray(self.init_rho, dtype=float)
        if rho.shape not in ((), (self.geometry.n_segments,)):
            raise ValueError(f"init_rho must be a number or {self.geometry.n_segments} "
                             f"values, got shape {rho.shape}")
        if not np.all(np.isfinite(rho) & (rho >= 0)):
            raise ValueError(f"init_rho must be finite and >= 0, got {self.init_rho!r}")
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

    def filter_config(self) -> KalmanConfig:
        return KalmanConfig.scaled_identity(
            self.geometry.n_segments, q_sigma=self.q_sigma, r_cov=self.r_cov,
            x0_value=self.x0_value, p0_sigma=self.p0_sigma)

    def initial_state(self) -> TrafficState:
        n = self.geometry.n_segments
        rho = np.asarray(self.init_rho, dtype=float)
        if rho.ndim == 0:
            rho = np.full(n, float(rho))
        v = nominal_speed(rho, self.params)
        return TrafficState.from_densities(rho, self.init_penetration * rho, v)


def default_scenario(seed: int = DEFAULT_SEED) -> Scenario:
    """The stock 20-segment experiment.

    Entry and on-ramp demands rise over the second hour far enough that the
    merge at segment 6 exceeds capacity and the queue spills back to the
    entry, then recede so the last hour is free-flowing again.
    """
    geometry = HighwayGeometry(n_segments=20, step_h=10 / 3600, seg_len_km=0.5)
    params = MetanetParams.defaults()
    layout = RampLayout(on_ramp_segments=(2, 6, 10), off_ramp_segments=(4, 8, 12),
                        exit_rate=(0.1, 0.1, 0.1))
    entry = PiecewiseLinear.from_pairs([
        (0.0, 1300.0), (0.9, 1300.0), (1.05, 1700.0), (1.55, 1700.0),
        (1.75, 1300.0), (3.0, 1300.0),
    ])
    onramps = {
        2: PiecewiseLinear.from_pairs([
            (0.0, 150.0), (0.9, 150.0), (1.05, 250.0), (1.55, 250.0),
            (1.75, 150.0), (3.0, 150.0),
        ]),
        6: PiecewiseLinear.from_pairs([
            (0.0, 250.0), (0.9, 250.0), (1.05, 550.0), (1.55, 550.0),
            (1.75, 250.0), (3.0, 250.0),
        ]),
        10: PiecewiseLinear.from_pairs([
            (0.0, 100.0), (3.0, 100.0),
        ]),
    }
    return Scenario(
        geometry=geometry,
        params=params,
        layout=layout,
        entry_demand=entry,
        onramp_demand=onramps,
        penetration_profile=PiecewiseLinear.constant(0.2),
        noise=NoiseSpec(seed=seed),
        name="default",
    )


# --- YAML parsing ---------------------------------------------------------

def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Collector:
    """Accumulates path-tagged failures while pulling typed values."""

    def __init__(self):
        self.failures: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.failures.append(f"{path}: {message}")

    def number(self, data: Mapping, path: str, key: str, default=None):
        value = data.get(key, default)
        if value is None:
            self.fail(f"{path}.{key}", "missing required value")
            return None
        if not _is_number(value):
            self.fail(f"{path}.{key}", f"expected a number, got {value!r}")
            return None
        if not math.isfinite(value):
            self.fail(f"{path}.{key}", f"expected a finite number, got {value!r}")
            return None
        return float(value)

    def integer(self, data: Mapping, path: str, key: str, default=None):
        value = data.get(key, default)
        if value is None:
            self.fail(f"{path}.{key}", "missing required value")
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            self.fail(f"{path}.{key}", f"expected an integer, got {value!r}")
            return None
        return value

    def section(self, data: Mapping, path: str, key: str) -> Mapping:
        value = data.get(key)
        if value is None:
            return {}
        if not isinstance(value, Mapping):
            self.fail(f"{path}.{key}" if path else key, "expected a mapping")
            return {}
        return value

    def profile(self, value: Any, path: str) -> PiecewiseLinear | None:
        if _is_number(value):
            value = [[0.0, value]]
        if not isinstance(value, list) or not value:
            self.fail(path, "expected a number or a list of [time_h, value] pairs")
            return None
        try:
            profile = PiecewiseLinear.from_pairs(value)
        except (TypeError, ValueError) as exc:
            self.fail(path, str(exc))
            return None
        return profile

    def densities(self, value: Any, path: str, n: int | None):
        """A uniform density or a list of one per segment, each finite and >= 0."""
        items = value if isinstance(value, list) else [value]
        if (isinstance(value, list) and len(value) != n) or not all(map(_is_number, items)):
            self.fail(path, f"expected a number or a list of {n} numbers, got {value!r}")
            return None
        if not all(math.isfinite(x) and x >= 0 for x in items):
            self.fail(path, f"expected finite densities >= 0, got {value!r}")
            return None
        return np.asarray(value, dtype=float) if isinstance(value, list) else float(value)


def _scenario_from_dict(data: Mapping[str, Any], name: str) -> Scenario:
    col = _Collector()
    geo = col.section(data, "", "geometry")
    n_segments = col.integer(geo, "geometry", "n_segments", 20)
    step_h = col.number(geo, "geometry", "step_h", 10 / 3600)
    seg_len = geo.get("seg_len_km", 0.5)

    # Omitted model, noise, filter, run and initial values take the coded
    # defaults of MetanetParams, NoiseSpec and Scenario.
    coded = {f.name: f.default for f in dataclasses.fields(Scenario)}
    model = col.section(data, "", "model")
    model_kwargs = {key: col.number(model, "model", key, default)
                    for key, default in dataclasses.asdict(MetanetParams.defaults()).items()}

    ramps = col.section(data, "", "ramps")
    on_ramps = ramps.get("on_ramps", [])
    off_ramps = ramps.get("off_ramps", [])
    exit_rate = ramps.get("exit_rate", 0.0)
    if not isinstance(exit_rate, list):
        exit_rate = [exit_rate] * len(off_ramps)
    exit_rate_a = ramps.get("exit_rate_a", exit_rate)
    if not isinstance(exit_rate_a, list):
        exit_rate_a = [exit_rate_a] * len(off_ramps)

    demand = col.section(data, "", "demand")
    entry_demand = col.profile(demand.get("entry"), "demand.entry")
    onramp_demand: dict[int, PiecewiseLinear] = {}
    onramp_section = col.section(demand, "demand", "on_ramps")
    for seg, raw in onramp_section.items():
        profile = col.profile(raw, f"demand.on_ramps.{seg}")
        if not isinstance(seg, int):
            col.fail(f"demand.on_ramps.{seg}", "segment keys must be integers")
        elif profile is not None:
            onramp_demand[seg] = profile
    penetration = col.profile(data.get("penetration", 0.2), "penetration")

    noise_sec = col.section(data, "", "noise")
    run = col.section(data, "", "run")
    seed = col.integer(run, "run", "seed", DEFAULT_SEED)
    noise_kwargs = {f.name: col.number(noise_sec, "noise", f.name, f.default)
                    for f in dataclasses.fields(NoiseSpec) if f.name != "seed"}

    filt = col.section(data, "", "filter")
    filter_kwargs = {key: col.number(filt, "filter", key, coded[key])
                     for key in ("q_sigma", "r_cov", "x0_value", "p0_sigma")}
    for key in ("q_sigma", "r_cov", "p0_sigma"):
        if filter_kwargs[key] is not None and filter_kwargs[key] <= 0:
            col.fail(f"filter.{key}", f"expected a number > 0, got {filter_kwargs[key]!r}")

    horizon_h = col.number(run, "run", "horizon_h", coded["horizon_h"])
    offramp_mode = run.get("offramp_mode", coded["offramp_mode"])
    if offramp_mode not in OFFRAMP_MODES:
        col.fail("run.offramp_mode", f"must be one of {OFFRAMP_MODES}")

    initial = col.section(data, "", "initial")
    init_rho = col.densities(initial.get("rho", coded["init_rho"]), "initial.rho", n_segments)
    init_pen = col.number(initial, "initial", "penetration", coded["init_penetration"])

    if col.failures:
        raise ScenarioError(col.failures)

    try:
        geometry = HighwayGeometry(n_segments=n_segments, step_h=step_h,
                                   seg_len_km=seg_len)
        params = MetanetParams(**model_kwargs)
        layout = RampLayout(on_ramp_segments=on_ramps, off_ramp_segments=off_ramps,
                            exit_rate=exit_rate, exit_rate_a=exit_rate_a)
        noise = NoiseSpec(seed=seed, **noise_kwargs)
        return Scenario(
            geometry=geometry, params=params, layout=layout,
            entry_demand=entry_demand, onramp_demand=onramp_demand,
            penetration_profile=penetration, noise=noise,
            **filter_kwargs, horizon_h=horizon_h, offramp_mode=offramp_mode,
            init_rho=init_rho,
            init_penetration=init_pen,
            name=data.get("name", name),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError([str(exc)]) from exc


def load_scenario(path) -> Scenario:
    """Parse and validate a YAML scenario file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = yaml.safe_load(handle)
    if not isinstance(data, Mapping):
        raise ScenarioError(["top level: expected a mapping"])
    return _scenario_from_dict(data, os.path.splitext(os.path.basename(path))[0])
