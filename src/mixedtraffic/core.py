"""Shared domain types and algebraic relations for mixed highway traffic.

Unit conventions, used consistently across the package: time in hours,
length in km, density in veh/km, speed in km/h, flow in veh/h.  All
quantities are totals over the carriageway (no per-lane bookkeeping).

Segments are numbered 1..N in user-facing fields (ramp locations, reports);
arrays are 0-based, so segment i lives at index i-1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

# Density floor applied before any ratio of densities or flows.  Percentage
# dynamics are undefined on an empty segment, so ratios are taken against a
# tiny positive density instead of raising inside inner loops.
EPS_DENSITY = 1e-6


def _as_step_array(x, shape: tuple, name: str):
    """Coerce to float64 of ``shape``, broadcasting scalars; shape () gives a float."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(arr) if shape == () else np.full(shape, float(arr))
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


class StepRecord:
    """A frozen record of one step, or of a run of steps stacked along a leading
    axis: of a run, ``rec[k]`` is step k, ``rec[a:b]`` those steps, ``len(rec)``
    their count.  ``_segment_fields`` hold (N,) per step, ``_step_fields`` one value.
    """

    _segment_fields: tuple[str, ...] = ()
    _step_fields: tuple[str, ...] = ()

    def __post_init__(self):
        lead = self._segment_fields[0]
        shape = np.shape(getattr(self, lead))
        if len(shape) not in (1, 2):
            raise ValueError(f"{lead}: expected shape (N,) or (M, N), got {shape}")
        for names, rows in ((self._segment_fields, shape), (self._step_fields, shape[:-1])):
            for name in names:
                object.__setattr__(self, name, _as_step_array(getattr(self, name), rows, name))

    @property
    def n_segments(self) -> int:
        return np.shape(getattr(self, self._segment_fields[0]))[-1]

    def __len__(self) -> int:
        shape = np.shape(getattr(self, self._segment_fields[0]))
        if len(shape) < 2:
            raise TypeError(f"a single-step {type(self).__name__} has no length")
        return shape[0]

    def __getitem__(self, steps):
        return dataclasses.replace(self, **{f.name: getattr(self, f.name)[steps]
                                            for f in dataclasses.fields(self)})

    @classmethod
    def stack(cls, steps):
        """The run whose step k is ``steps[k]``."""
        return cls(**{f.name: np.array([getattr(s, f.name) for s in steps], dtype=float)
                      for f in dataclasses.fields(cls)})


@dataclass(frozen=True)
class HighwayGeometry:
    """Discretization frame: segment count, time step, per-segment lengths."""

    n_segments: int
    step_h: float
    seg_len_km: np.ndarray

    def __post_init__(self):
        if self.n_segments < 2:
            raise ValueError("n_segments must be >= 2")
        if self.step_h <= 0:
            raise ValueError("step_h must be > 0")
        lengths = _as_step_array(self.seg_len_km, (self.n_segments,), "seg_len_km")
        if not np.all(np.isfinite(lengths) & (lengths > 0)):
            raise ValueError("seg_len_km entries must be finite and > 0")
        object.__setattr__(self, "seg_len_km", lengths)

    @property
    def t_over_delta(self) -> np.ndarray:
        """Per-segment T/Delta_i in h/km; multiplies flows into densities."""
        return self.step_h / self.seg_len_km

    def cfl_ok(self, v_free: float) -> bool:
        """Explicit-scheme sanity check: step_h * v_free <= min segment length.

        Advisory only; callers warn rather than refuse when this fails.
        """
        return self.step_h * v_free <= float(np.min(self.seg_len_km))


@dataclass(frozen=True)
class MetanetParams:
    """Parameters of the second-order speed dynamics and stationary speed law."""

    tau_h: float        # relaxation time, h
    nu: float           # anticipation constant, km^2/h
    kappa: float        # density offset, veh/km
    delta_ramp: float   # on-ramp friction coefficient, dimensionless
    v_free: float       # free speed, km/h
    rho_crit: float     # critical density, veh/km
    alpha_exp: float    # stationary speed exponent, dimensionless

    def __post_init__(self):
        for name in ("tau_h", "nu", "kappa", "delta_ramp", "v_free", "rho_crit",
                     "alpha_exp"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @classmethod
    def defaults(cls) -> "MetanetParams":
        """Standard motorway parameter set used by the shipped scenarios."""
        return cls(tau_h=20 / 3600, nu=35.0, kappa=13.0, delta_ramp=1.4,
                   v_free=120.0, rho_crit=33.5, alpha_exp=1.4324)


@dataclass(frozen=True)
class TrafficState(StepRecord):
    """Per-segment totals at one time step or over a run: densities, speeds, flows.

    ``rho_a``/``q_a`` are the connected-vehicle shares of ``rho``/``q``.
    Flows normally satisfy q = rho * v; additive process noise in the
    simulator perturbs them, so that identity is not enforced here.
    """

    rho: np.ndarray
    rho_a: np.ndarray
    v: np.ndarray
    q: np.ndarray
    q_a: np.ndarray

    _segment_fields = ("rho", "rho_a", "v", "q", "q_a")

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.rho < 0) or np.any(self.v < 0):
            raise ValueError("rho and v must be nonnegative")
        if np.any(self.rho_a < 0) or np.any(self.rho_a > self.rho + 1e-12):
            raise ValueError("rho_a must lie in [0, rho]")

    @classmethod
    def from_densities(cls, rho, rho_a, v) -> "TrafficState":
        """Build a state with exact q = rho*v, q_a = rho_a*v flows."""
        rho = np.asarray(rho, dtype=float)
        rho_a = np.asarray(rho_a, dtype=float)
        v = np.asarray(v, dtype=float)
        q, q_a = flows_from_state(rho, rho_a, v)
        return cls(rho=rho, rho_a=rho_a, v=v, q=q, q_a=q_a)


@dataclass(frozen=True)
class RampLayout:
    """On/off-ramp locations (1-based segment numbers) and off-ramp exit rates."""

    on_ramp_segments: tuple[int, ...] = ()
    off_ramp_segments: tuple[int, ...] = ()
    exit_rate: tuple[float, ...] = ()      # beta_i, aligned with off_ramp_segments
    exit_rate_a: tuple[float, ...] = ()    # beta^a_i, defaults to exit_rate

    def __post_init__(self):
        object.__setattr__(self, "on_ramp_segments", tuple(int(s) for s in self.on_ramp_segments))
        object.__setattr__(self, "off_ramp_segments", tuple(int(s) for s in self.off_ramp_segments))
        rates = tuple(float(b) for b in self.exit_rate)
        if not rates:
            rates = (0.0,) * len(self.off_ramp_segments)
        if len(rates) != len(self.off_ramp_segments):
            raise ValueError("exit_rate must align with off_ramp_segments")
        rates_a = tuple(float(b) for b in self.exit_rate_a)
        if not rates_a:
            rates_a = rates
        if len(rates_a) != len(self.off_ramp_segments):
            raise ValueError("exit_rate_a must align with off_ramp_segments")
        for b in rates + rates_a:
            if not 0.0 <= b < 1.0:
                raise ValueError("exit rates must lie in [0, 1)")
        object.__setattr__(self, "exit_rate", rates)
        object.__setattr__(self, "exit_rate_a", rates_a)

    def validate_against(self, n_segments: int) -> None:
        for s in self.on_ramp_segments + self.off_ramp_segments:
            if not 1 <= s <= n_segments:
                raise ValueError(f"ramp segment {s} outside 1..{n_segments}")

    def exit_rate_vector(self, n_segments: int, connected: bool = False) -> np.ndarray:
        """Length-N vector of exit rates, zero where there is no off-ramp."""
        self.validate_against(n_segments)
        out = np.zeros(n_segments)
        rates = self.exit_rate_a if connected else self.exit_rate
        for seg, beta in zip(self.off_ramp_segments, rates):
            out[seg - 1] = beta
        return out


@dataclass(frozen=True)
class BoundaryInputs(StepRecord):
    """Entry and ramp flows feeding the conservation updates at one step or over a run."""

    q0: float | np.ndarray         # total entry flow
    q0_a: float | np.ndarray       # connected entry flow
    r: np.ndarray                  # on-ramp total inflow per segment
    r_a: np.ndarray
    s: np.ndarray                  # off-ramp total outflow per segment
    s_a: np.ndarray

    _segment_fields = ("r", "r_a", "s", "s_a")
    _step_fields = ("q0", "q0_a")

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.q0 < 0) or np.any(self.q0_a < 0) or np.any(self.q0_a > self.q0 + 1e-9):
            raise ValueError("entry flows must satisfy 0 <= q0_a <= q0")
        for total, part, label in ((self.r, self.r_a, "r"), (self.s, self.s_a, "s")):
            if np.any(total < 0) or np.any(part < 0):
                raise ValueError(f"{label} flows must be nonnegative")
            if np.any(part > total + 1e-9):
                raise ValueError(f"{label}_a must not exceed {label}")


def nominal_speed(rho, params: MetanetParams):
    """Stationary speed law V(rho) = v_free * exp(-(1/alpha) (rho/rho_crit)^alpha).

    Strictly decreasing in rho; V(0) = v_free.  Accepts scalars or arrays.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise ValueError("rho must be nonnegative")
    a = params.alpha_exp
    out = params.v_free * np.exp(-(1.0 / a) * (rho_arr / params.rho_crit) ** a)
    return float(out) if np.ndim(rho) == 0 else out


def flows_from_state(rho, rho_a, v) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise q = rho*v and q_a = rho_a*v."""
    rho = np.asarray(rho, dtype=float)
    rho_a = np.asarray(rho_a, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (rho.shape == rho_a.shape == v.shape):
        raise ValueError("rho, rho_a, v must have identical shapes")
    if np.any(rho < 0) or np.any(rho_a < 0) or np.any(v < 0):
        raise ValueError("inputs must be nonnegative")
    return rho * v, rho_a * v


def penetration(rho, rho_a) -> np.ndarray:
    """Connected-vehicle share rho_a/rho per segment, floored at EPS_DENSITY."""
    rho = np.maximum(np.asarray(rho, dtype=float), EPS_DENSITY)
    rho_a = np.maximum(np.asarray(rho_a, dtype=float), EPS_DENSITY)
    return rho_a / rho


def inverse_penetration(rho, rho_a) -> np.ndarray:
    """Ratio rho/rho_a per segment (the estimator's state), floored at EPS_DENSITY."""
    rho = np.maximum(np.asarray(rho, dtype=float), EPS_DENSITY)
    rho_a = np.maximum(np.asarray(rho_a, dtype=float), EPS_DENSITY)
    return rho / rho_a
