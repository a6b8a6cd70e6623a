"""Second-order macroscopic ground-truth simulator with seeded noise.

The simulator advances per-segment densities by exact conservation, speeds
by the second-order relaxation/convection/anticipation dynamics, and flows
as density*speed plus additive process noise.  Detector readings (entry,
exit, and ramp total flows) carry additive Gaussian measurement noise;
connected-vehicle aggregates are reported exactly.

All randomness is derived from (seed, step, purpose) so repeated calls for
the same step are identical and runs are reproducible bit for bit.

A run is held as whole-run arrays, one record each for the states, inputs
and frames: the per-step functions (``TruthSimulator.inputs_at``,
``observe``, ``step_truth``) each fill one row, and the frames' connected
columns are the state and input arrays themselves.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    BoundaryInputs,
    HighwayGeometry,
    MetanetParams,
    RampLayout,
    StepRecord,
    TrafficState,
    _as_step_array,
    nominal_speed,
)

# Stream purposes; one independent generator per (seed, step, purpose).
_STREAM_STATE = 0    # speed/flow process noise inside step_truth
_STREAM_DETECT = 1   # detector measurement noise inside observe
_STREAM_ENTRY = 2    # entry-flow process noise inside the inputs builder


@dataclass(frozen=True)
class NoiseSpec:
    """Standard deviations of all noise sources, plus the run seed.

    Measurement noise: ``std_entry_flow`` (entry/exit detectors),
    ``std_onramp``, ``std_offramp``.  Process noise: ``std_speed`` on the
    speed update, ``std_flow_proc``/``std_flow_proc_a`` on the total and
    connected flow relations.
    """

    std_entry_flow: float = 25.0
    std_onramp: float = 10.0
    std_offramp: float = 5.0
    std_speed: float = 5.0
    std_flow_proc: float = 25.0
    std_flow_proc_a: float = 15.0
    seed: int = 0

    def __post_init__(self):
        for name in ("std_entry_flow", "std_onramp", "std_offramp", "std_speed",
                     "std_flow_proc", "std_flow_proc_a"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit nonnegative integer")

    @classmethod
    def silent(cls, seed: int = 0) -> "NoiseSpec":
        """All noise sources off; useful for exactness checks."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, seed)


@dataclass(frozen=True)
class MeasurementFrame(StepRecord):
    """Everything the estimator may see at one step or over a run.

    Connected-vehicle aggregates (``q0_a``, ``q_a_seg``, ``rho_a_seg``,
    ``r_a``, ``s_a``) are exact; detector fields (``q0_meas``, ``qN_meas``,
    ``r_meas``, ``s_meas``) carry additive noise and are clamped at zero.
    """

    q0_a: float | np.ndarray
    q_a_seg: np.ndarray
    rho_a_seg: np.ndarray
    r_a: np.ndarray
    s_a: np.ndarray
    q0_meas: float | np.ndarray
    qN_meas: float | np.ndarray
    r_meas: np.ndarray
    s_meas: np.ndarray

    _segment_fields = ("q_a_seg", "rho_a_seg", "r_a", "s_a", "r_meas", "s_meas")
    _step_fields = ("q0_a", "q0_meas", "qN_meas")

    @classmethod
    def of_run(cls, states: TrafficState, inputs: BoundaryInputs) -> "MeasurementFrame":
        """A run's frames: connected columns are its state and input arrays, not
        copies; detector columns start at zero."""
        return cls(inputs.q0_a, states.q_a, states.rho_a, inputs.r_a, inputs.s_a,
                   *np.zeros((2, len(states))), *np.zeros((2,) + states.q.shape))


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear profile over time (hours); constant beyond the ends."""

    times_h: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times_h, dtype=float)
        if t.ndim != 1:
            raise ValueError(f"times_h: expected a 1-d array, got shape {t.shape}")
        v = _as_step_array(self.values, t.shape, "values")
        if len(t) == 0:
            raise ValueError("profile needs at least one breakpoint")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("breakpoint times must be strictly increasing")
        object.__setattr__(self, "times_h", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, value: float) -> "PiecewiseLinear":
        return cls(np.array([0.0]), np.array([float(value)]))

    @classmethod
    def from_pairs(cls, pairs) -> "PiecewiseLinear":
        pts = [(float(t), float(v)) for t, v in pairs]
        return cls(np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))

    def __call__(self, t_h: float) -> float:
        if t_h < 0:
            raise ValueError("t_h must be >= 0")
        return float(np.interp(t_h, self.times_h, self.values))


def _stream(noise: NoiseSpec, step: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng((noise.seed, step, purpose))


def offramp_outflows(q: np.ndarray, q_a: np.ndarray, q0: float, q0_a: float,
                     layout: RampLayout) -> tuple[np.ndarray, np.ndarray]:
    """Off-ramp outflows as exit-rate fractions of the upstream flow.

    s_i = beta_i * q_{i-1} and s_a_i = beta_a_i * q_a_{i-1} for one step's
    flows, with the entry flow standing in for q_0 at segment 1.
    """
    idx = [seg - 1 for seg in layout.off_ramp_segments]
    s, s_a = np.zeros(q.shape[0]), np.zeros(q.shape[0])
    s[idx] = np.asarray(layout.exit_rate) * np.concatenate(([q0], q[:-1]))[idx]
    s_a[idx] = np.asarray(layout.exit_rate_a) * np.concatenate(([q0_a], q_a[:-1]))[idx]
    return s, s_a


def step_truth(states: TrafficState, inputs: BoundaryInputs, geom: HighwayGeometry,
               params: MetanetParams, noise: NoiseSpec, step: int) -> None:
    """Advance the ground truth one step: fill row step+1 of the run ``states``
    from row ``step`` of ``states`` and of the run ``inputs``.

    Densities update by exact conservation; the speed update uses the
    upstream-copy convention at the entry (v_0 = v_1) and the flat-density
    convention at the exit (rho_{N+1} = rho_N).  Process noise perturbs the
    speed update and the flow relations; densities and speeds are clamped
    nonnegative afterwards and the connected density at or below the total.
    Raises FloatingPointError on a non-finite value.
    """
    n = geom.n_segments
    td = geom.t_over_delta
    rng = _stream(noise, step, _STREAM_STATE)
    xi_v = noise.std_speed * rng.standard_normal(n)
    xi_q = noise.std_flow_proc * rng.standard_normal(n)
    xi_q_a = noise.std_flow_proc_a * rng.standard_normal(n)

    rho, rho_a, v, q, q_a = (states.rho[step], states.rho_a[step], states.v[step],
                             states.q[step], states.q_a[step])
    q_up = np.concatenate(([inputs.q0[step]], q[:-1]))
    q_a_up = np.concatenate(([inputs.q0_a[step]], q_a[:-1]))
    rho_next = rho + td * (q_up - q + inputs.r[step] - inputs.s[step])
    rho_a_next = rho_a + td * (q_a_up - q_a + inputs.r_a[step] - inputs.s_a[step])
    rho_next = np.maximum(rho_next, 0.0)
    rho_a_next = np.clip(rho_a_next, 0.0, rho_next)

    v_up = np.concatenate(([v[0]], v[:-1]))
    rho_down = np.concatenate((rho[1:], [rho[-1]]))
    rho_k = rho + params.kappa
    t = geom.step_h
    v_next = (
        v
        + (t / params.tau_h) * (nominal_speed(rho, params) - v)
        + td * v * (v_up - v)
        - (params.nu * t / params.tau_h) / geom.seg_len_km * (rho_down - rho) / rho_k
        - params.delta_ramp * td * inputs.r[step] * v / rho_k
        + xi_v
    )
    v_next = np.clip(v_next, 0.0, 1.5 * params.v_free)

    q_next = np.maximum(rho_next * v_next + xi_q, 0.0)
    q_a_next = np.clip(rho_a_next * v_next + xi_q_a, 0.0, q_next)

    for column, row in zip((states.rho, states.rho_a, states.v, states.q, states.q_a),
                           (rho_next, rho_a_next, v_next, q_next, q_a_next)):
        if not np.all(np.isfinite(row)):
            raise FloatingPointError(f"non-finite state at step {step}")
        column[step + 1] = row


def observe(states: TrafficState, inputs: BoundaryInputs, frames: MeasurementFrame,
            layout: RampLayout, noise: NoiseSpec, step: int) -> None:
    """Fill row ``step`` of the detector columns of ``frames`` from that row of
    the runs ``states`` and ``inputs``.

    Detector noise applies only where detectors exist: entry, exit, and the
    layout's ramp segments.  Noisy flows are clamped at zero.
    """
    n = states.n_segments
    rng = _stream(noise, step, _STREAM_DETECT)
    gamma_0 = noise.std_entry_flow * rng.standard_normal()
    gamma_n = noise.std_entry_flow * rng.standard_normal()
    gamma_r = noise.std_onramp * rng.standard_normal(n)
    gamma_s = noise.std_offramp * rng.standard_normal(n)

    on = [seg - 1 for seg in layout.on_ramp_segments]
    frames.r_meas[step, on] = np.maximum(inputs.r[step, on] + gamma_r[on], 0.0)
    off = [seg - 1 for seg in layout.off_ramp_segments]
    frames.s_meas[step, off] = np.maximum(inputs.s[step, off] + gamma_s[off], 0.0)
    frames.q0_meas[step] = max(inputs.q0[step] + gamma_0, 0.0)
    frames.qN_meas[step] = max(states.q[step, -1] + gamma_n, 0.0)


@dataclass(frozen=True)
class TruthRun:
    """A simulated trajectory: M+1 states, inputs and frames, each stacked over the steps."""

    states: TrafficState
    inputs: BoundaryInputs
    frames: MeasurementFrame

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1

    def rho_matrix(self) -> np.ndarray:
        return self.states.rho

    def rho_a_matrix(self) -> np.ndarray:
        return self.states.rho_a


@dataclass(frozen=True)
class TruthSimulator:
    """Owns demand profiles, geometry, and the noise stream for one run."""

    geom: HighwayGeometry
    params: MetanetParams
    layout: RampLayout
    noise: NoiseSpec
    entry_demand: PiecewiseLinear
    onramp_demand: Mapping[int, PiecewiseLinear]
    penetration_profile: PiecewiseLinear
    init_state: TrafficState

    def __post_init__(self):
        self.layout.validate_against(self.geom.n_segments)
        for seg in self.onramp_demand:
            if seg not in self.layout.on_ramp_segments:
                raise ValueError(f"demand given for segment {seg} without an on-ramp")
        if self.init_state.n_segments != self.geom.n_segments:
            raise ValueError("initial state size does not match geometry")

    def inputs_at(self, states: TrafficState, inputs: BoundaryInputs, step: int) -> None:
        """Fill row ``step`` of the run ``inputs``: demands at the step's clock
        time, entry process noise, and exit-rate outflows of that row of ``states``."""
        t = step * self.geom.step_h
        pen = min(max(self.penetration_profile(t), 0.0), 1.0)
        q0_nom = self.entry_demand(t)
        r = inputs.r[step]
        for seg, profile in self.onramp_demand.items():
            r[seg - 1] = profile(t)
        inputs.r_a[step] = pen * r

        rng = _stream(self.noise, step, _STREAM_ENTRY)
        q0 = max(q0_nom + self.noise.std_flow_proc * rng.standard_normal(), 0.0)
        q0_a = min(max(pen * q0_nom + self.noise.std_flow_proc_a * rng.standard_normal(), 0.0), q0)
        inputs.q0[step], inputs.q0_a[step] = q0, q0_a
        inputs.s[step], inputs.s_a[step] = offramp_outflows(states.q[step], states.q_a[step],
                                                            q0, q0_a, self.layout)

    def run(self, n_steps: int) -> TruthRun:
        """Simulate n_steps transitions into n_steps+1 rows of preallocated arrays,
        filled a row per step; the records over them are checked once filled."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        states = TrafficState.stack([self.init_state] * (n_steps + 1))
        inputs = BoundaryInputs(*np.zeros((2, n_steps + 1)), *np.zeros((4,) + states.rho.shape))
        frames = MeasurementFrame.of_run(states, inputs)
        for k in range(n_steps + 1):
            self.inputs_at(states, inputs, k)
            observe(states, inputs, frames, self.layout, self.noise, k)
            if k < n_steps:
                step_truth(states, inputs, self.geom, self.params, self.noise, k)
        return TruthRun(dataclasses.replace(states), dataclasses.replace(inputs), frames)
