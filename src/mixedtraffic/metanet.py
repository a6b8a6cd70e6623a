"""Second-order macroscopic ground-truth simulator with seeded noise.

The simulator advances per-segment densities by exact conservation, speeds
by the second-order relaxation/convection/anticipation dynamics, and flows
as density*speed plus additive process noise.  Detector readings (entry,
exit, and ramp total flows) carry additive Gaussian measurement noise;
connected-vehicle aggregates are reported exactly.

All randomness is derived from (seed, step, purpose) so repeated calls for
the same step are identical and runs are reproducible bit for bit.  Step k's
draws for a purpose are those of ``np.random.default_rng((seed, k, purpose))``,
but no generator is built per step.  ``_stream_words`` runs NumPy's
SeedSequence hash for every step of the run in one uint32 array pass, and
``_normals``, the one draw path, applies PCG64's seeding to each step's words
and sets them as the state of one reused generator before that step draws:
for every step of the run at once for the entry-flow and detector noise, and
a chunk of steps at a time for the process noise.

``TruthSimulator``, ``observe`` and ``StepConstants.of`` take one
``scenario.Scenario``, read the parts of the run they use from it and rely on
its rules, the only check that its ramps lie on its road.  An unseeded
``NoiseSpec`` uses ``DEFAULT_SEED``, as a file without ``run.seed`` does.

A run is held as whole-run arrays, one record each for the states, inputs
and frames.  Everything that does not depend on the state is computed for
the whole run at once: ``TruthSimulator.inputs_at`` gives every step's
demands and entry flows, and the off-ramp outflows and ``observe``'s
detector readings are computed for every step after the step loop.  The
loop calls ``step_truth`` once per step to fill the next state row, and
checks the off-ramp bound on each chunk's steps as the chunk finishes.  The
frames' connected columns are the state and input arrays themselves.

The step loop runs over chunks of ``STEP_CHUNK`` steps, so its scratch does
not grow with the run: the process-noise stream words are hashed once per
run, and each chunk draws and scales its own (C, 3, N) noise from them and
scatters its on-ramp inflows into a reused (2, C, N) block, zero elsewhere.

Ramp flows and their detector readings exist only at ramps, so the records
hold them as one column per ramp, in the order of the layout's
``on_ramp_segments`` and ``off_ramp_segments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    STEP_CHUNK,
    BoundaryInputs,
    MetanetParams,
    Rule,
    StepRecord,
    TrafficState,
    _as_step_array,
    _is_integer,
    enforce,
    upstream,
)

if TYPE_CHECKING:                     # scenario imports this module
    from .scenario import Scenario

# The seed of the stock experiment, and of every run that names none.
DEFAULT_SEED = 20260810

# Stream purposes; one independent generator per (seed, step, purpose).
_STREAM_STATE = 0    # speed/flow process noise inside step_truth
_STREAM_DETECT = 1   # detector measurement noise inside observe
_STREAM_ENTRY = 2    # entry-flow process noise inside TruthSimulator.inputs_at


class TruthDivergedError(FloatingPointError):
    """The ground-truth run overflowed, left the finite range or had s_a > s."""


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
    seed: int = DEFAULT_SEED

    rules = (
        *(Rule(name, lambda x: math.isfinite(x) and x >= 0, "must be finite and >= 0")
          for name in ("std_entry_flow", "std_onramp", "std_offramp", "std_speed",
                       "std_flow_proc", "std_flow_proc_a")),
        Rule("seed", lambda s: _is_integer(s) and 0 <= s < 2**64,
             "must be a 64-bit nonnegative integer"),
    )

    def __post_init__(self):
        enforce(self.rules, vars(self))

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
    ``r_a`` and ``r_meas`` hold one column per on-ramp, ``s_a`` and
    ``s_meas`` one per off-ramp, in the layout's order.
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

    _segment_fields = ("q_a_seg", "rho_a_seg")
    _on_ramp_fields = ("r_a", "r_meas")
    _off_ramp_fields = ("s_a", "s_meas")
    _step_fields = ("q0_a", "q0_meas", "qN_meas")


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

    def __call__(self, t_h):
        """The profile at time ``t_h``: a float, or an array for an array of times."""
        if np.any(np.asarray(t_h) < 0):
            raise ValueError("t_h must be >= 0")
        out = np.interp(t_h, self.times_h, self.values)
        return float(out) if np.ndim(t_h) == 0 else out


# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hasher(init: int, mult: int):
    """SeedSequence's running hash: each call xors its value with the current
    constant, advances the constant by ``mult`` and multiplies by the new one."""
    const = init

    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hash_


def _mix(x, y):
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ result >> np.uint32(16)


def _stream_words(seed: int, purpose: int, steps) -> np.ndarray:
    """Row i holds ``SeedSequence((seed, k, purpose)).generate_state(4, np.uint64)``
    for the i-th step k of ``steps``: a step count n, meaning steps 0..n-1, or an
    array of step indices.

    The entropy words are the seed's little-endian 32-bit words, then k, then
    ``purpose``; the hash runs over uint32 arrays, wrapping as NumPy's does.
    A step index of 2**32 or more would add an entropy word, so it is refused,
    and so is a step count of 2**32 or more, before anything is allocated.
    """
    if np.ndim(steps) == 0:
        if not 0 <= steps < 2**32:
            raise ValueError(f"step count must lie in [0, 2**32), got {steps!r}")
        k = np.arange(steps, dtype=np.uint32)
    else:
        k = np.asarray(steps)
        if k.size and not (k.min() >= 0 and k.max() < 2**32):
            raise ValueError("step indices must lie in [0, 2**32)")
        k = k.astype(np.uint32)
    seed_words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
    entropy = [np.uint32(w) for w in seed_words] + [k, np.uint32(purpose)]
    out = np.empty((len(k), 8), dtype="<u4")
    with np.errstate(over="ignore"):
        hash_a = _hasher(_INIT_A, _MULT_A)
        pool = [hash_a(w) for w in entropy + [np.uint32(0)] * (4 - len(entropy))]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hash_a(pool[src]))
        hash_b = _hasher(_INIT_B, _MULT_B)
        for i in range(8):
            out[:, i] = hash_b(pool[i % 4])
    # Word pairs read as little-endian uint64, as generate_state reads them.
    return out.view("<u8")


def _pcg64_state(words: np.ndarray) -> dict:
    """The state of ``PCG64`` seeded with one row of ``_stream_words``: initstate
    and initseq are its word pairs, high word first; inc = 2 initseq + 1 and
    state = ((inc + initstate) MULT + inc) mod 2**128."""
    s_hi, s_lo, i_hi, i_lo = words.tolist()
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _normals(words: np.ndarray, size: int, kept=slice(None), out=None) -> np.ndarray:
    """Row i holds the ``kept`` entries of ``size`` standard normals drawn in one
    call as ``np.random.default_rng((seed, k, purpose))`` draws them, where row
    i of ``words`` is step k's row of ``_stream_words(seed, purpose, steps)``;
    written to ``out`` when it is given."""
    generator = np.random.Generator(np.random.PCG64(0))   # state set per step
    block = np.empty(size)
    if out is None:
        out = np.empty((len(words),) + block[kept].shape)
    for i, row in enumerate(words):
        generator.bit_generator.state = _pcg64_state(row)
        generator.standard_normal(out=block)
        out[i] = block[kept]
    return out


def _first_non_finite(*columns: np.ndarray) -> int:
    """The first step (leading index) at which any column holds a non-finite
    value, or the step count if none does."""
    finite = np.logical_and.reduce([np.isfinite(c).reshape(len(c), -1).all(axis=1)
                                    for c in columns])
    return len(finite) if finite.all() else int(finite.argmin())


@dataclass(frozen=True)
class StepConstants:
    """The loop-invariant factors of ``step_truth``, computed once per run by
    the same operations, in the same order, as its formulas apply them."""

    params: MetanetParams
    td: np.ndarray             # T/Delta_i, h/km
    relax: float               # T/tau
    anticipation: np.ndarray   # (nu T/tau)/Delta_i
    friction: np.ndarray       # delta_ramp T/Delta_i
    beta: np.ndarray           # (2, N) exit rates beta, beta_a; zero where there is no off-ramp

    @classmethod
    def of(cls, sc: Scenario) -> "StepConstants":
        geom, params, layout = sc.geometry, sc.params, sc.layout
        t, td = geom.step_h, geom.t_over_delta
        beta = np.zeros((2, geom.n_segments))
        beta[:, layout.columns()[1]] = layout.exit_rate, layout.exit_rate_a
        return cls(params=params, td=td, relax=t / params.tau_h,
                   anticipation=(params.nu * t / params.tau_h) / geom.seg_len_km,
                   friction=params.delta_ramp * td, beta=beta)


def step_truth(x: np.ndarray, entry: np.ndarray, onramp: np.ndarray, noise: np.ndarray,
               c: StepConstants, k: int) -> None:
    """Advance the ground truth one step: fill ``x[:, k+1]`` from ``x[:, k]``,
    step k of the inputs and row k of the process ``noise``; nothing else is
    written.

    ``x`` is a (5, M+1, N) state block (rho, rho_a, v, q, q_a), ``entry``
    its (2, M+1) entry flows (q0, q0_a), ``onramp`` its on-ramp inflows
    (r, r_a), (2, M, N) and zero off the on-ramps, and ``noise`` its
    (M, 3, N) process noise (speed, flow, connected flow), already scaled by
    its deviations; each total and its connected part update as one pair.
    ``TruthSimulator.run`` passes one chunk of its run at a time, with k
    counted from the chunk's first step.

    Densities update by exact conservation, with off-ramp outflows beta * q_up
    and beta_a * q_a_up; the speed update uses the upstream-copy convention at
    the entry (v_0 = v_1) and the flat-density convention at the exit
    (rho_{N+1} = rho_N).  Process noise perturbs the speed update and the flow
    relations; densities and speeds are clamped nonnegative afterwards and the
    connected density at or below the total.  Raises FloatingPointError on a
    non-finite value.
    """
    dens, v, flow = x[0:2, k], x[2, k], x[3:5, k]
    rho = dens[0]
    nxt = x[:, k + 1]
    xi = noise[k]
    up = upstream(entry[:, k], flow)
    dens_next = dens + c.td * (up - flow + onramp[:, k] - c.beta * up)
    np.maximum(dens_next[0], 0.0, out=nxt[0])
    dens_next[1].clip(0.0, nxt[0], out=nxt[1])

    v_up = upstream(v[0], v)
    rho_down = np.concatenate((rho[1:], [rho[-1]]))
    rho_k = rho + c.params.kappa
    v_next = (
        v
        + c.relax * (c.params.stationary_speed(rho) - v)
        + c.td * v * (v_up - v)
        - c.anticipation * (rho_down - rho) / rho_k
        - c.friction * onramp[0, k] * v / rho_k
        + xi[0]
    )
    v_next.clip(0.0, 1.5 * c.params.v_free, out=nxt[2])

    flow_next = nxt[0:2] * nxt[2] + xi[1:]
    np.maximum(flow_next[0], 0.0, out=nxt[3])
    flow_next[1].clip(0.0, nxt[3], out=nxt[4])
    if not np.isfinite(nxt).all():
        raise FloatingPointError("non-finite state")


def observe(sc: Scenario, states: TrafficState, inputs: BoundaryInputs) -> MeasurementFrame:
    """The frames of a run of ``sc``, read from every step of ``states`` and
    ``inputs`` at once: the connected columns are the run's own arrays, not copies.

    Detector noise applies only where detectors exist: entry, exit, and the
    layout's ramps, one reading per ramp.  Noisy flows are clamped at zero.
    Raises ValueError naming a ramp field of ``inputs`` whose column count is
    not the layout's, and TruthDivergedError naming the first step with a
    non-finite detector noise value or reading.
    """
    inputs.check_ramp_columns(sc.layout)
    steps, n, noise = len(states), sc.geometry.n_segments, sc.noise
    on, off = sc.layout.columns()
    # Step k's stream holds entry, exit, on-ramp and off-ramp noise for every
    # segment, in that order; the draws stop at the last detector's column,
    # and only the detectors' columns are kept.
    kept = np.r_[0, 1, 2 + on, 2 + n + off]
    gamma = _normals(_stream_words(noise.seed, _STREAM_DETECT, steps), kept.max() + 1, kept)
    with np.errstate(over="ignore"):       # an overflow leaves a non-finite value, refused below
        gamma *= np.repeat([noise.std_entry_flow, noise.std_onramp, noise.std_offramp],
                           [2, len(on), len(off)])
        q0_meas = np.maximum(inputs.q0 + gamma[:, 0], 0.0)
        qN_meas = np.maximum(states.q[:, -1] + gamma[:, 1], 0.0)
        r_meas = np.maximum(inputs.r + gamma[:, 2:2 + len(on)], 0.0)
        s_meas = np.maximum(inputs.s + gamma[:, 2 + len(on):], 0.0)
    bad = _first_non_finite(gamma, q0_meas, qN_meas, r_meas, s_meas)
    if bad < steps:
        raise TruthDivergedError(f"non-finite detector reading at step {bad}")
    return MeasurementFrame(inputs.q0_a, states.q_a, states.rho_a, inputs.r_a, inputs.s_a,
                            q0_meas, qN_meas, r_meas, s_meas)


def _off_ramp_outflows(sc: Scenario, beta: np.ndarray, x: np.ndarray, entry: np.ndarray,
                       first: int, stop: int) -> np.ndarray:
    """The (2, stop - first, off-ramps) outflows beta q_up and beta_a q_a,up
    at steps first..stop-1 of the (5, M+1, N) state block ``x`` and the
    (2, M+1) ``entry`` flows; ``beta`` is ``StepConstants.beta``.  Raises
    TruthDivergedError naming the first of those steps, and its off-ramp,
    where the connected outflow exceeds the total by more than
    ``BoundaryInputs``' bound."""
    off = sc.layout.columns()[1]
    up = x[3:5, first:stop, off - 1]           # the flows entering the off-ramp segments
    up[:, :, off == 0] = entry[:, first:stop, None]
    outflows = beta[:, None, off] * up
    over = np.argwhere(outflows[1] > outflows[0] + 1e-9)
    if len(over):
        raise TruthDivergedError(f"connected off-ramp outflow exceeds the total at step "
                                 f"{first + over[0, 0]}, at the off-ramp of segment "
                                 f"{sc.layout.off_ramp_segments[over[0, 1]]}")
    return outflows


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
        """Alias of ``states.rho``."""
        return self.states.rho

    def rho_a_matrix(self) -> np.ndarray:
        """Alias of ``states.rho_a``."""
        return self.states.rho_a


@dataclass(frozen=True)
class TruthSimulator:
    """The ground-truth run of ``scenario``, whose rules checked every part it reads."""

    scenario: Scenario

    def inputs_at(self) -> tuple[np.ndarray, np.ndarray]:
        """The boundary inputs at steps 0..M of the scenario's run that do not
        depend on the state, as two blocks: the entry flows (q0, q0_a), shape
        (2, M+1), and the on-ramp inflows (r, r_a), shape (2, M+1, on-ramps),
        one column per on-ramp in the layout's order.

        Demands and connected shares are taken at each step's clock time, and
        the entry flows carry their process noise.  The off-ramp outflows
        depend on the state; ``run`` computes them.  The arithmetic follows
        Python floats: an overflow leaves an entry flow infinite, for the run
        to refuse.
        """
        sc, steps = self.scenario, self.scenario.n_steps + 1
        # Drawn first: a run too long for its streams is refused before any
        # whole-run array is allocated.
        xi_0, xi_0a = _normals(_stream_words(sc.noise.seed, _STREAM_ENTRY, steps), 2).T
        t = np.arange(steps) * sc.geometry.step_h
        pen = np.clip(sc.penetration_profile(t), 0.0, 1.0)
        q0_nom = sc.entry_demand(t)
        entry = np.empty((2, steps))
        with np.errstate(over="ignore", invalid="ignore"):
            np.maximum(q0_nom + sc.noise.std_flow_proc * xi_0, 0.0, out=entry[0])
            np.minimum(np.maximum(pen * q0_nom + sc.noise.std_flow_proc_a * xi_0a, 0.0),
                       entry[0], out=entry[1])
        ramps = sc.layout.on_ramp_segments
        onramp = np.zeros((2, steps, len(ramps)))
        for j, seg in enumerate(ramps):
            if seg in sc.onramp_demand:
                onramp[0, :, j] = sc.onramp_demand[seg](t)
        np.multiply(pen[:, None], onramp[0], out=onramp[1])
        return entry, onramp

    def run(self) -> TruthRun:
        """Simulate the scenario's M transitions into M+1 rows of whole-run arrays.

        The inputs are computed for every step before the step loop, and the
        off-ramp outflows and detector readings after it; the loop advances
        only the state, ``STEP_CHUNK`` steps at a time; each chunk's process
        noise is drawn and scaled by its deviations, in place, as it starts.
        The off-ramp outflows, beta times the flow entering the segment, are
        computed at the off-ramps only.

        Raises TruthDivergedError at the first chunk with a fault: a state
        update, or a step's scaled process noise, that overflows or leaves the
        finite range raises first, naming its step; then the first step and
        off-ramp of the chunk where beta_a q_a,up > beta q_up (an exit rate
        beta_a above beta allows it), checked as the chunk finishes, so such a
        run is refused after the first chunk that breaks the bound.  The loop
        stops before the first step whose inputs are not finite, named once
        the steps before it have passed; then come the last step's outflows
        and the first step with a non-finite detector reading.
        """
        sc, n_steps = self.scenario, self.scenario.n_steps
        entry, ramp_in = self.inputs_at()
        bad_input = _first_non_finite(*entry, *ramp_in)
        n = sc.geometry.n_segments
        x = np.zeros((5, n_steps + 1, n))
        init = sc.initial_state()
        x[:, 0] = init.rho, init.rho_a, init.v, init.q, init.q_a
        constants = StepConstants.of(sc)
        on = sc.layout.columns()[0]
        words = _stream_words(sc.noise.seed, _STREAM_STATE, n_steps)
        std = np.array([sc.noise.std_speed, sc.noise.std_flow_proc, sc.noise.std_flow_proc_a])
        noise = np.empty((STEP_CHUNK, 3, n))
        onramp = np.zeros((2, STEP_CHUNK, n))       # zero off the on-ramps in every chunk
        stop = min(bad_input, n_steps)
        with np.errstate(over="raise"):
            for start in range(0, stop, STEP_CHUNK):
                size = min(STEP_CHUNK, stop - start)
                chunk_noise = noise[:size]
                _normals(words[start:start + size], 3 * n, out=chunk_noise.reshape(size, -1))
                with np.errstate(over="ignore"):    # an overflow is raised at its step below
                    chunk_noise *= std[:, None]
                steps = _first_non_finite(chunk_noise)
                onramp[:, :size, on] = ramp_in[:, start:start + size]
                chunk, chunk_entry = x[:, start:], entry[:, start:]
                try:
                    for k in range(start, start + steps):
                        step_truth(chunk, chunk_entry, onramp, noise, constants, k - start)
                    if steps < size:
                        k = start + steps
                        raise FloatingPointError("overflow encountered in multiply")
                except FloatingPointError as exc:
                    raise TruthDivergedError(f"{exc} at step {k}") from exc
                _off_ramp_outflows(sc, constants.beta, x, entry, start, start + size)
        del noise, onramp                  # not alive while observe allocates
        if bad_input <= n_steps:
            raise TruthDivergedError(f"non-finite boundary input at step {bad_input}")
        ramp_out = _off_ramp_outflows(sc, constants.beta, x, entry, 0, n_steps + 1)
        states, inputs = TrafficState(*x), BoundaryInputs(*entry, *ramp_in, *ramp_out)
        return TruthRun(states, inputs, observe(sc, states, inputs))
