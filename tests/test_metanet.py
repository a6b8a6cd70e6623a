"""Ground-truth simulator: dynamics, noise model, and determinism."""

import dataclasses
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixedtraffic as mt
from mixedtraffic import metanet
from mixedtraffic.core import (STEP_CHUNK, BoundaryInputs, HighwayGeometry, MetanetParams,
                               RampLayout, TrafficState, nominal_speed)
from mixedtraffic.kalman import KalmanConfig
from mixedtraffic.metanet import (
    MeasurementFrame,
    NoiseSpec,
    PiecewiseLinear,
    StepConstants,
    TruthDivergedError,
    TruthSimulator,
    _normals,
    _pcg64_state,
    _stream_words,
    observe,
    step_truth,
)

from test_ltv import on_road

PARAMS = MetanetParams.defaults()
SILENT = NoiseSpec.silent()


def _no_ramp_inputs(q0, q0_a):
    none = np.zeros(0)
    return BoundaryInputs(q0=q0, q0_a=q0_a, r=none, r_a=none, s=none, s_a=none)


def _repeated(record, steps):
    """A run of ``steps`` rows, each equal to the single-step ``record``."""
    return type(record)(**{f.name: np.broadcast_to(getattr(record, f.name),
                                                   (steps,) + np.shape(getattr(record, f.name)))
                           for f in dataclasses.fields(record)})


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _step(state, inputs, geom, layout=RampLayout()):
    """The state after one noise-free step from ``state`` under ``inputs``, whose
    on-ramp inflows are placed at the layout's on-ramp segments.  The inputs
    and the noise are read-only, and of a three-row state block only the
    second row may change."""
    inputs.check_ramp_columns(layout)
    x = np.array([[getattr(state, f.name)] * 3 for f in dataclasses.fields(state)])
    before = x.copy()
    onramp = np.zeros((2, 1, state.n_segments))
    onramp[:, 0, [seg - 1 for seg in layout.on_ramp_segments]] = inputs.r, inputs.r_a
    entry, onramp, normals = _read_only(np.array([[inputs.q0], [inputs.q0_a]]), onramp,
                                        np.zeros((1, 3, state.n_segments)))
    step_truth(x, entry, onramp, normals, StepConstants.of(on_road(geom, layout, SILENT)), 0)
    assert x[:, 0::2].tobytes() == before[:, 0::2].tobytes()
    return TrafficState(*x[:, 1])


def test_uniform_equilibrium_is_fixed_point():
    """No ramps, zero noise, v = V(rho) uniform: every difference term vanishes."""
    geom = HighwayGeometry(n_segments=5, step_h=10 / 3600, seg_len_km=0.5)
    rho = np.full(5, 20.0)
    v = mt.nominal_speed(rho, PARAMS)
    state = TrafficState.from_densities(rho, 0.2 * rho, v)
    inputs = _no_ramp_inputs(q0=float(rho[0] * v[0]), q0_a=float(0.2 * rho[0] * v[0]))
    nxt = _step(state, inputs, geom)
    assert np.array_equal(nxt.rho, state.rho)
    assert np.array_equal(nxt.v, state.v)
    assert np.array_equal(nxt.q, state.q)
    assert np.array_equal(nxt.q_a, state.q_a)


def test_conservation_telescopes_to_boundary_flows():
    """Zero noise: total vehicle count changes only through the boundaries."""
    geom = HighwayGeometry(n_segments=6, step_h=10 / 3600, seg_len_km=0.5)
    rng = np.random.default_rng(3)
    rho = rng.uniform(10, 40, 6)
    state = TrafficState.from_densities(rho, 0.2 * rho, mt.nominal_speed(rho, PARAMS))
    r = np.array([300.0])                  # the on-ramp at segment 2
    s = np.array([0.1 * state.q[2]])       # the off-ramp at segment 4
    inputs = BoundaryInputs(q0=1500.0, q0_a=300.0, r=r, r_a=0.2 * r, s=s, s_a=0.2 * s)
    nxt = _step(state, inputs, geom, RampLayout(on_ramp_segments=(2,), off_ramp_segments=(4,),
                                                exit_rate=(0.1,)))
    gained = np.sum(geom.seg_len_km * nxt.rho) - np.sum(geom.seg_len_km * state.rho)
    boundary = geom.step_h * (inputs.q0 - state.q[-1] + r.sum() - s.sum())
    assert gained == pytest.approx(boundary, abs=1e-9)


def test_one_step_matches_scalar_evaluation():
    """N=3 step checked against an independent scalar-by-scalar evaluation."""
    geom = HighwayGeometry(n_segments=3, step_h=10 / 3600, seg_len_km=0.5)
    rho = [22.0, 30.0, 26.0]
    rho_a = [4.0, 6.5, 5.0]
    v = [95.0, 70.0, 88.0]
    state = TrafficState.from_densities(rho, rho_a, v)
    r = np.array([0.0, 350.0, 0.0])
    inputs = BoundaryInputs(q0=2000.0, q0_a=420.0, r=r[[1]], r_a=0.2 * r[[1]], s=[0.0], s_a=[0.0])
    layout = RampLayout(on_ramp_segments=(2,), off_ramp_segments=(3,), exit_rate=(0.05,),
                        exit_rate_a=(0.08,))
    nxt = _step(state, inputs, geom, layout)

    # Independent oracle: plain-float loops, formulas written out term by term.
    T = 10 / 3600
    delta = 0.5
    tau, nu, kappa, delt = 20 / 3600, 35.0, 13.0, 1.4
    q = [rho[i] * v[i] for i in range(3)]
    q_a = [rho_a[i] * v[i] for i in range(3)]
    q_up = [2000.0, q[0], q[1]]
    q_a_up = [420.0, q_a[0], q_a[1]]
    s = [0.0, 0.0, 0.05 * q_up[2]]
    s_a = [0.0, 0.0, 0.08 * q_a_up[2]]
    exp_rho, exp_rho_a, exp_v = [], [], []
    for i in range(3):
        exp_rho.append(rho[i] + (T / delta) * (q_up[i] - q[i] + r[i] - s[i]))
        exp_rho_a.append(rho_a[i] + (T / delta) * (q_a_up[i] - q_a[i] + 0.2 * r[i] - s_a[i]))
        v_upstream = v[i - 1] if i > 0 else v[0]
        rho_downstream = rho[i + 1] if i < 2 else rho[2]
        stationary = 120.0 * math.exp(-(1 / 1.4324) * (rho[i] / 33.5) ** 1.4324)
        vi = (v[i]
              + (T / tau) * (stationary - v[i])
              + (T / delta) * v[i] * (v_upstream - v[i])
              - (nu * T / (tau * delta)) * (rho_downstream - rho[i]) / (rho[i] + kappa)
              - (delt * T / delta) * r[i] * v[i] / (rho[i] + kappa))
        exp_v.append(vi)
    assert np.allclose(nxt.rho, exp_rho, rtol=0, atol=1e-12)
    assert np.allclose(nxt.rho_a, exp_rho_a, rtol=0, atol=1e-12)
    assert np.allclose(nxt.v, exp_v, rtol=0, atol=1e-12)
    assert np.allclose(nxt.q, np.array(exp_rho) * np.array(exp_v), rtol=0, atol=1e-12)
    assert np.allclose(nxt.q_a, np.array(exp_rho_a) * np.array(exp_v), rtol=0, atol=1e-12)


def test_offramp_outflows_use_upstream_flow():
    """Every step's outflows, the last step's included, are the exit rate times
    the flow entering the segment."""
    sc = mt.Scenario(
        geometry=HighwayGeometry(n_segments=3, step_h=10 / 3600, seg_len_km=0.5), params=PARAMS,
        layout=RampLayout(off_ramp_segments=(1, 3), exit_rate=(0.2, 0.1)),
        entry_demand=PiecewiseLinear.constant(1500.0), onramp_demand={},
        penetration_profile=PiecewiseLinear.constant(0.2), noise=SILENT, filter=KalmanConfig(),
        init_rho=np.array([10.0, 20.0, 30.0]), init_penetration=0.1, horizon_h=3 * 10 / 3600)
    run = TruthSimulator(sc).run()
    inputs, states = run.inputs, run.states
    v = nominal_speed(20.0, PARAMS)
    assert inputs.s[0].tolist() == [0.2 * 1500.0, 0.1 * (20.0 * v)]
    assert inputs.s_a[0].tolist() == [0.2 * 300.0, 0.1 * (2.0 * v)]
    for k in range(4):
        assert inputs.s[k].tolist() == [0.2 * inputs.q0[k], 0.1 * states.q[k, 1]]
        assert inputs.s_a[k].tolist() == [0.2 * inputs.q0_a[k], 0.1 * states.q_a[k, 1]]


def test_exit_rates_sit_at_the_off_ramps():
    """Both rows of the step constants' exit rates, total then connected, hold
    each off-ramp's rate at its segment and zero elsewhere."""
    layout = RampLayout(on_ramp_segments=(2,), off_ramp_segments=(4, 1), exit_rate=(0.1, 0.3),
                        exit_rate_a=(0.2, 0.05))
    geom = HighwayGeometry(n_segments=6, step_h=10 / 3600, seg_len_km=0.5)
    beta = StepConstants.of(on_road(geom, layout, SILENT)).beta
    assert beta.tolist() == [[0.3, 0.0, 0.0, 0.1, 0.0, 0.0], [0.05, 0.0, 0.0, 0.2, 0.0, 0.0]]
    with pytest.raises(ValueError, match="off_ramp_segments must lie within"):
        on_road(dataclasses.replace(geom, n_segments=3, seg_len_km=0.5), layout, SILENT)


def _infinite_entry(sc):
    """``sc`` with an entry demand whose interpolation overflows to +inf from step 1 on:
    its slope, 1.7e308 per half hour, is itself infinite."""
    return dataclasses.replace(sc, entry_demand=PiecewiseLinear.from_pairs(
        [(0.0, 0.0), (0.5, 1.7e308)]), horizon_h=0.25)


def test_non_finite_input_faults(default_sc):
    """An infinite entry flow is refused before the loop reaches it, at the step
    where the per-step oracle's state went non-finite."""
    with pytest.raises(TruthDivergedError) as oracle:
        _reference_run(_infinite_entry(default_sc))
    assert str(oracle.value) == "non-finite state at step 1"
    with pytest.raises(FloatingPointError, match="^non-finite boundary input at step 1$"):
        mt.simulate_truth(_infinite_entry(default_sc))


class TestObserve:
    layout = RampLayout(on_ramp_segments=(2,), off_ramp_segments=(3,), exit_rate=(0.1,))
    geom = HighwayGeometry(n_segments=4, step_h=10 / 3600, seg_len_km=0.5)

    def _setup(self):
        state = TrafficState.from_densities([20.0, 25.0, 22.0, 18.0],
                                            [4.0, 5.0, 4.4, 3.6],
                                            [100.0, 95.0, 98.0, 102.0])
        r = np.array([400.0])              # the on-ramp at segment 2
        s = np.array([200.0])              # the off-ramp at segment 3
        inputs = BoundaryInputs(q0=1900.0, q0_a=380.0, r=r, r_a=0.2 * r, s=s, s_a=0.2 * s)
        return state, inputs

    def _observe(self, state, inputs, noise, steps):
        """Frames observed at steps 0..steps-1 of a run that repeats ``state`` and ``inputs``."""
        return observe(on_road(self.geom, self.layout, noise), _repeated(state, steps),
                       _repeated(inputs, steps))

    def test_silent_frame_equals_truth(self):
        state, inputs = self._setup()
        frame = self._observe(state, inputs, SILENT, 8)[7]
        assert frame.q0_meas == inputs.q0
        assert frame.qN_meas == state.q[-1]
        assert np.array_equal(frame.r_meas, inputs.r)
        assert np.array_equal(frame.s_meas, inputs.s)
        assert np.array_equal(frame.q_a_seg, state.q_a)
        assert np.array_equal(frame.rho_a_seg, state.rho_a)
        assert frame.q0_a == inputs.q0_a

    def test_same_step_same_frame(self):
        state, inputs = self._setup()
        noisy = NoiseSpec(seed=11)
        run = self._observe(state, inputs, noisy, 44)
        a, b = run[42], self._observe(state, inputs, noisy, 44)[42]
        assert a.q0_meas == b.q0_meas and a.qN_meas == b.qN_meas
        assert np.array_equal(a.r_meas, b.r_meas)
        c = run[43]
        assert c.q0_meas != a.q0_meas

    def test_noise_only_at_detector_locations(self):
        state, inputs = self._setup()
        frame = self._observe(state, inputs, NoiseSpec(seed=5), 1)[0]
        assert frame.r_meas.shape == frame.s_meas.shape == (1,)    # one reading per ramp
        assert frame.r_meas[0] != inputs.r[0]
        assert frame.s_meas[0] != inputs.s[0]
        # connected aggregates stay exact under full noise
        assert np.array_equal(frame.q_a_seg, state.q_a)

    @pytest.mark.parametrize("ramps, message", [
        ({"r": [400.0, 0.0], "r_a": [80.0, 0.0]}, r"^r: expected 1 columns"),
        ({"s": np.zeros(0), "s_a": np.zeros(0)}, r"^s: expected 1 columns"),
        ({"r_a": [80.0, 0.0]}, r"^r_a: expected shape"),
    ], ids=["two on-ramp columns", "no off-ramp column", "r_a wider than r"])
    def test_ramp_columns_other_than_the_layout_are_refused(self, ramps, message):
        """Inputs must hold one column per ramp of the layout, one per on-ramp
        in ``r`` and ``r_a`` and one per off-ramp in ``s`` and ``s_a``."""
        state, inputs = self._setup()
        with pytest.raises(ValueError, match=message):
            self._observe(state, dataclasses.replace(inputs, **ramps), SILENT, 2)

    def test_entry_noise_sample_std(self):
        """Statistical oracle: sample std of the additive entry noise within 2%."""
        state, inputs = self._setup()
        noisy = NoiseSpec(seed=99)
        devs = self._observe(state, inputs, noisy, 100_000).q0_meas - inputs.q0
        assert abs(devs.std() / 25.0 - 1.0) < 0.02


def test_piecewise_linear_profiles():
    flat = PiecewiseLinear.from_pairs([(0.0, 1000.0), (1.0, 1000.0)])
    assert flat(0.5) == 1000.0
    ramp = PiecewiseLinear.from_pairs([(0.0, 0.0), (1.0, 2000.0)])
    assert ramp(0.5) == 1000.0
    assert ramp(2.0) == 2000.0  # held beyond the last breakpoint
    with pytest.raises(ValueError):
        PiecewiseLinear.from_pairs([(1.0, 0.0), (0.5, 10.0)])
    with pytest.raises(ValueError):
        ramp(-0.1)


def test_run_is_deterministic(default_sc):
    a = mt.simulate_truth(default_sc)
    b = mt.simulate_truth(default_sc)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.rho, sb.rho) and np.array_equal(sa.v, sb.v)
    for fa, fb in zip(a.frames, b.frames):
        assert fa.q0_meas == fb.q0_meas and np.array_equal(fa.r_meas, fb.r_meas)


def test_connected_subset_preserved_under_noise(default_result):
    for state in default_result.truth.states:
        assert np.all(state.rho_a <= state.rho)
        assert np.all(state.q_a <= state.q)
        assert np.all(state.rho >= 0) and np.all(state.v >= 0)


def test_constant_demand_reaches_fixed_point(default_sc):
    """Zero noise and flat feasible demand settle to a steady state."""
    sc = dataclasses.replace(
        default_sc,
        noise=NoiseSpec.silent(),
        entry_demand=PiecewiseLinear.constant(1300.0),
        onramp_demand={2: PiecewiseLinear.constant(150.0),
                       6: PiecewiseLinear.constant(250.0),
                       10: PiecewiseLinear.constant(100.0)},
        horizon_h=2000 * default_sc.geometry.step_h,
    )
    run = TruthSimulator(sc).run()
    last, prev = run.states[-1], run.states[-2]
    change = max(np.abs(last.rho - prev.rho).max(), np.abs(last.v - prev.v).max(),
                 np.abs(last.rho_a - prev.rho_a).max())
    assert change < 1e-8


def _scaled(profile, factor):
    return PiecewiseLinear(profile.times_h, factor * profile.values)


def _variant(sc, n, share, demand, noise):
    """Half an hour of ``sc`` on n segments (ramps beyond n dropped), with a
    constant connected share and scaled demand and noise."""
    off = [(seg, b) for seg, b in zip(sc.layout.off_ramp_segments, sc.layout.exit_rate) if seg <= n]
    stds = [noise * getattr(sc.noise, f.name)
            for f in dataclasses.fields(NoiseSpec) if f.name != "seed"]
    return dataclasses.replace(
        sc, geometry=HighwayGeometry(n_segments=n, step_h=sc.geometry.step_h, seg_len_km=0.5),
        layout=RampLayout(on_ramp_segments=[seg for seg in sc.layout.on_ramp_segments if seg <= n],
                          off_ramp_segments=[seg for seg, _ in off], exit_rate=[b for _, b in off]),
        entry_demand=_scaled(sc.entry_demand, demand),
        onramp_demand={seg: _scaled(p, demand) for seg, p in sc.onramp_demand.items() if seg <= n},
        penetration_profile=PiecewiseLinear.constant(share), init_penetration=share,
        noise=NoiseSpec(*stds, seed=sc.seed), horizon_h=0.5)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), share=st.floats(min_value=0.01, max_value=1.0),
       demand=st.floats(min_value=0.5, max_value=3.0), noise=st.floats(min_value=0.0, max_value=10.0))
def test_array_simulator_properties(default_sc, n, share, demand, noise):
    """Only FloatingPointError may escape, with the oracle's message; a run equals
    the oracle bit for bit; the frames' connected columns are the run's own
    arrays; without noise every step balances its boundary flows."""
    for noise_scale in (noise, 0.0):
        sc = _variant(default_sc, n, share, demand, noise_scale)
        try:
            truth = mt.simulate_truth(sc)
        except FloatingPointError as exc:
            with pytest.raises(FloatingPointError) as oracle:
                _reference_run(sc)
            assert str(exc) == str(oracle.value)
            continue
        _assert_same_run(truth, _reference_run(sc), sc.layout)
        states, inputs, frames = truth.states, truth.inputs, truth.frames
        for view, base in ((frames.q0_a, inputs.q0_a), (frames.q_a_seg, states.q_a),
                           (frames.rho_a_seg, states.rho_a), (frames.r_a, inputs.r_a),
                           (frames.s_a, inputs.s_a)):
            # a run without ramps of a kind has empty ramp columns, which share nothing
            assert np.shares_memory(view, base) or view.shape == base.shape == (len(view), 0)
        if noise_scale == 0.0:
            lengths = sc.geometry.seg_len_km
            gained = np.sum(lengths * states.rho[1:], axis=1) - np.sum(lengths * states.rho[:-1], axis=1)
            boundary = sc.geometry.step_h * (inputs.q0[:-1] - states.q[:-1, -1]
                                             + inputs.r[:-1].sum(axis=1) - inputs.s[:-1].sum(axis=1))
            assert np.max(np.abs(gained - boundary)) < 1e-9


# --- Oracle: the simulator as it was, stepping every function a row at a time ---
# A literal copy of the per-step loop that whole-run passes replaced; the
# simulator must equal it bit for bit and fail at the same step.

def _ref_stream(noise, step, purpose):
    return np.random.default_rng((noise.seed, step, purpose))


def _ref_offramp_outflows(q, q_a, q0, q0_a, layout):
    idx = [seg - 1 for seg in layout.off_ramp_segments]
    s, s_a = np.zeros(q.shape[0]), np.zeros(q.shape[0])
    s[idx] = np.asarray(layout.exit_rate) * np.concatenate(([q0], q[:-1]))[idx]
    s_a[idx] = np.asarray(layout.exit_rate_a) * np.concatenate(([q0_a], q_a[:-1]))[idx]
    return s, s_a


def _ref_step_truth(states, inputs, geom, params, noise, step):
    n = geom.n_segments
    td = geom.t_over_delta
    rng = _ref_stream(noise, step, 0)
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
        + (t / params.tau_h) * (mt.nominal_speed(rho, params) - v)
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
            raise FloatingPointError("non-finite state")
        column[step + 1] = row


def _ref_observe(states, inputs, frames, layout, noise, step):
    n = states.n_segments
    rng = _ref_stream(noise, step, 1)
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


def _ref_inputs_at(sim, states, inputs, step):
    t = step * sim.geom.step_h
    pen = min(max(sim.penetration_profile(t), 0.0), 1.0)
    q0_nom = sim.entry_demand(t)
    r = inputs.r[step]
    for seg, profile in sim.onramp_demand.items():
        r[seg - 1] = profile(t)
    inputs.r_a[step] = pen * r

    rng = _ref_stream(sim.noise, step, 2)
    q0 = max(q0_nom + sim.noise.std_flow_proc * rng.standard_normal(), 0.0)
    q0_a = min(max(pen * q0_nom + sim.noise.std_flow_proc_a * rng.standard_normal(), 0.0), q0)
    inputs.q0[step], inputs.q0_a[step] = q0, q0_a
    inputs.s[step], inputs.s_a[step] = _ref_offramp_outflows(states.q[step], states.q_a[step],
                                                             q0, q0_a, sim.layout)


def _reference_run(sc):
    sim = types.SimpleNamespace(geom=sc.geometry, params=sc.params, layout=sc.layout,
                                noise=sc.noise, entry_demand=sc.entry_demand,
                                onramp_demand=sc.onramp_demand,
                                penetration_profile=sc.penetration_profile,
                                init_state=sc.initial_state())
    n_steps = sc.n_steps
    states = TrafficState.stack([sim.init_state] * (n_steps + 1))
    inputs = BoundaryInputs(*np.zeros((2, n_steps + 1)), *np.zeros((4,) + states.rho.shape))
    frames = MeasurementFrame(inputs.q0_a, states.q_a, states.rho_a, inputs.r_a, inputs.s_a,
                              *np.zeros((2, n_steps + 1)), *np.zeros((2,) + states.q.shape))
    try:
        with np.errstate(over="raise"):
            for k in range(n_steps + 1):
                _ref_inputs_at(sim, states, inputs, k)
                _ref_observe(states, inputs, frames, sim.layout, sim.noise, k)
                if k < n_steps:
                    _ref_step_truth(states, inputs, sim.geom, sim.params, sim.noise, k)
    except FloatingPointError as exc:
        raise TruthDivergedError(f"{exc} at step {k}") from exc
    return mt.metanet.TruthRun(dataclasses.replace(states), dataclasses.replace(inputs), frames)


def _assert_same_run(truth, reference, layout):
    """Every column of the states, inputs and frames equal byte for byte, so a
    -0.0 against a 0.0 fails too.  A ramp field holds the oracle's columns at
    the layout's ramps, in the layout's order, and every other column of the
    oracle's is +0.0."""
    on, off = ([seg - 1 for seg in segs] for segs in (layout.on_ramp_segments,
                                                      layout.off_ramp_segments))
    ramp_columns = {**dict.fromkeys(("r", "r_a", "r_meas"), on),
                    **dict.fromkeys(("s", "s_a", "s_meas"), off)}
    for record in ("states", "inputs", "frames"):
        got, want = getattr(truth, record), getattr(reference, record)
        for field in dataclasses.fields(want):
            a, b = np.asarray(getattr(got, field.name)), np.asarray(getattr(want, field.name))
            ramps = ramp_columns.get(field.name)
            if ramps is not None:
                rest = np.delete(b, ramps, axis=1)
                assert rest.tobytes() == np.zeros_like(rest).tobytes(), f"{record}.{field.name}"
                b = b[:, ramps]
            assert a.shape == b.shape and a.dtype == b.dtype, f"{record}.{field.name}"
            assert a.tobytes() == b.tobytes(), f"{record}.{field.name}"


def _corridor(sc, n=200, horizon_h=0.5):
    return dataclasses.replace(
        sc, geometry=HighwayGeometry(n_segments=n, step_h=sc.geometry.step_h, seg_len_km=0.5),
        horizon_h=horizon_h)


def _ramps_reversed(sc):
    """``sc`` with its ramps listed last segment first, so that ramp column j
    is not the j-th ramp from the entry."""
    return dataclasses.replace(sc, layout=RampLayout(
        *(getattr(sc.layout, f.name)[::-1] for f in dataclasses.fields(RampLayout))))


@pytest.mark.parametrize("case", ["default", "seed 7", "corridor", "ramps reversed"])
def test_run_equals_the_per_step_oracle(default_sc, case):
    sc = {"default": default_sc, "seed 7": default_sc.with_seed(7),
          "corridor": _corridor(default_sc), "ramps reversed": _ramps_reversed(default_sc)}[case]
    _assert_same_run(mt.simulate_truth(sc), _reference_run(sc), sc.layout)


def test_ramp_fields_hold_one_column_per_ramp(default_sc):
    """On a 200-segment, half-hour run, each ramp field of the inputs and the
    frames has one column per ramp of its kind: 3 on-ramps and 3 off-ramps."""
    sc = _corridor(default_sc)
    truth = mt.simulate_truth(sc)
    steps = sc.n_steps + 1
    for record, fields in ((truth.inputs, ("r", "r_a", "s", "s_a")),
                           (truth.frames, ("r_a", "r_meas", "s_a", "s_meas"))):
        for name in fields:
            assert getattr(record, name).shape == (steps, 3), name


def _absurd_entry(sc):
    """An entry demand of 1e300 veh/h overflows the speed law at step 1."""
    return dataclasses.replace(sc, entry_demand=PiecewiseLinear.constant(1e300), horizon_h=0.25)


def test_overflow_fails_like_the_oracle(default_sc):
    """A state overflow raises at the oracle's step with the oracle's message."""
    with pytest.raises(TruthDivergedError) as want:
        _reference_run(_absurd_entry(default_sc))
    with pytest.raises(TruthDivergedError) as got:
        mt.simulate_truth(_absurd_entry(default_sc))
    assert str(got.value) == str(want.value) == "overflow encountered in power at step 1"


def test_process_noise_overflow_fails_like_the_oracle(default_sc):
    """A speed-noise deviation of a quarter of the largest float overflows the
    scaled noise first at step 886, inside the seventh chunk and not at its
    start: the run raises at the oracle's step with the oracle's message."""
    sc = dataclasses.replace(default_sc, noise=dataclasses.replace(
        default_sc.noise, std_speed=1.797e308 / 4))
    with pytest.raises(TruthDivergedError) as want:
        _reference_run(sc)
    with pytest.raises(TruthDivergedError) as got:
        mt.simulate_truth(sc)
    assert str(got.value) == str(want.value) == "overflow encountered in multiply at step 886"
    assert 886 % STEP_CHUNK != 0


def _for_steps(sc, steps):
    return dataclasses.replace(sc, horizon_h=steps * sc.geometry.step_h)


# Runs that end inside the first chunk of the step loop, one step before, at
# and one step past its end, and one step into a third chunk.
CHUNK_EDGES = {"M < C": 7, "M = C-1": STEP_CHUNK - 1, "M = C": STEP_CHUNK,
               "M = C+1": STEP_CHUNK + 1, "M = 2C+1": 2 * STEP_CHUNK + 1}


@pytest.mark.parametrize("steps", list(CHUNK_EDGES.values()), ids=list(CHUNK_EDGES))
def test_run_equals_the_oracle_at_chunk_edges(default_sc, steps):
    sc = _for_steps(default_sc, steps)
    _assert_same_run(mt.simulate_truth(sc), _reference_run(sc), sc.layout)


STEP_IN_SECOND_CHUNK = STEP_CHUNK + 3


def _entry_from(sc, before, after):
    """``sc`` over 2C+1 steps, its entry demand ``before`` up to the step
    before STEP_IN_SECOND_CHUNK and ``after`` at that step: the slope between
    them, ``after`` per half hour, is infinite when ``after`` is 1.7e308."""
    step_h = sc.geometry.step_h
    last = (STEP_IN_SECOND_CHUNK - 1) * step_h
    rise = step_h if after < 1e308 else 0.5
    return _for_steps(dataclasses.replace(sc, entry_demand=PiecewiseLinear.from_pairs(
        [(0.0, before), (last, before), (last + rise, after)])), 2 * STEP_CHUNK + 1)


def test_divergence_in_a_later_chunk_names_its_step(default_sc):
    """A state overflow and a non-finite input inside the second chunk are
    named by their step in the run, as the per-step oracle names them."""
    absurd = _entry_from(default_sc, 1300.0, 1e300)
    with pytest.raises(TruthDivergedError) as want:
        _reference_run(absurd)
    with pytest.raises(TruthDivergedError) as got:
        mt.simulate_truth(absurd)
    assert (str(got.value) == str(want.value)
            == f"overflow encountered in power at step {STEP_IN_SECOND_CHUNK + 1}")
    infinite = _entry_from(default_sc, 0.0, 1.7e308)
    with pytest.raises(TruthDivergedError) as oracle:
        _reference_run(infinite)
    assert str(oracle.value) == f"non-finite state at step {STEP_IN_SECOND_CHUNK}"
    with pytest.raises(TruthDivergedError,
                       match=f"^non-finite boundary input at step {STEP_IN_SECOND_CHUNK}$"):
        mt.simulate_truth(infinite)


def _connected_exit(sc, rate):
    """``sc`` with connected vehicles leaving every off-ramp at ``rate``."""
    layout = sc.layout
    return dataclasses.replace(sc, layout=dataclasses.replace(
        layout, exit_rate_a=(rate,) * len(layout.off_ramp_segments)))


def test_a_broken_off_ramp_bound_is_refused_after_its_first_chunk(default_sc, monkeypatch):
    """beta_a = 0.9 against beta = 0.1 takes more connected vehicles off the
    ramp at segment 4 than vehicles in all from step 0 on: the run is refused
    once its first chunk of steps finishes, not after the whole loop.  A
    state overflow inside that chunk (the entry jumps to 1e300 at step 3)
    still raises first, and an overflow in a later chunk is never reached."""
    calls = []

    def counting_step_truth(*args):
        calls.append(args[-1])
        return step_truth(*args)
    monkeypatch.setattr(metanet, "step_truth", counting_step_truth)
    with pytest.raises(TruthDivergedError, match="^connected off-ramp outflow exceeds the total "
                                                 "at step 0, at the off-ramp of segment 4$"):
        mt.simulate_truth(_connected_exit(default_sc, 0.9))
    assert 0 < len(calls) <= STEP_CHUNK
    with pytest.raises(TruthDivergedError, match="^connected off-ramp outflow exceeds the total "
                                                 "at step 0, at the off-ramp of segment 4$"):
        mt.simulate_truth(_connected_exit(_entry_from(default_sc, 1300.0, 1e300), 0.9))
    step_h = default_sc.geometry.step_h
    early = dataclasses.replace(default_sc, entry_demand=PiecewiseLinear.from_pairs(
        [(0.0, 1300.0), (2 * step_h, 1300.0), (3 * step_h, 1e300)]))
    with pytest.raises(TruthDivergedError) as want:
        mt.simulate_truth(early)
    assert re.fullmatch("overflow encountered in .* at step [3-9]", str(want.value))
    with pytest.raises(TruthDivergedError) as got:
        mt.simulate_truth(_connected_exit(early, 0.9))
    assert str(got.value) == str(want.value)


def _distinct_bytes(*records):
    """Bytes of the distinct arrays that the records' fields are or view."""
    bases = {}
    for record in records:
        for field in dataclasses.fields(record):
            array = getattr(record, field.name)
            while array.base is not None:
                array = array.base
            bases[id(array)] = array.nbytes
    return sum(bases.values())


def test_run_holds_one_chunk_of_scratch(default_sc):
    """On a 200-segment, 3 h run (M = 1080), the traced peak of simulate_truth
    stays below the arrays it returns plus six (C, N) float arrays: one
    chunk's process noise (three) and on-ramp inflows (two), and one to
    spare.  The run's (M, 3, N) noise and (2, M+1, N) on-ramp block are never
    held."""
    sc = _corridor(default_sc, horizon_h=3.0)
    mt.simulate_truth(_corridor(default_sc, horizon_h=0.05))    # lazy imports are not the run's
    tracemalloc.start()
    try:
        truth = mt.simulate_truth(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = _distinct_bytes(truth.states, truth.inputs, truth.frames)
    assert returned > 5 * 1081 * 200 * 8
    assert peak < returned + 6 * STEP_CHUNK * 200 * 8


# --- Streams: derived for a whole run, equal to default_rng((seed, step, purpose)) ---

STREAM_STEPS = [0, 1, 1079, 2**16, 2**32 - 1]


def _assert_stream_equals_default_rng(seed, purpose, steps):
    words = _stream_words(seed, purpose, np.array(steps))
    drawn = _normals(words, 7)
    generator = np.random.Generator(np.random.PCG64(0))
    for i, step in enumerate(steps):
        key = (seed, step, purpose)
        want = np.random.SeedSequence(key).generate_state(4, np.uint64)
        assert words[i].tobytes() == want.tobytes(), key
        assert _pcg64_state(words[i]) == np.random.default_rng(key).bit_generator.state, key
        normals = np.random.default_rng(key).standard_normal(7).tobytes()
        generator.bit_generator.state = _pcg64_state(words[i])
        assert generator.standard_normal(7).tobytes() == normals, key
        assert drawn[i].tobytes() == normals, key


@pytest.mark.parametrize("purpose", [0, 1, 2])
@pytest.mark.parametrize("seed", [0, 1, 7, 20260810, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_streams_equal_default_rng(seed, purpose):
    """One- and two-word seeds, and steps up to the last one-word index."""
    _assert_stream_equals_default_rng(seed, purpose, STREAM_STEPS)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       steps=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=4),
       purpose=st.integers(min_value=0, max_value=2))
def test_streams_equal_default_rng_anywhere(seed, steps, purpose):
    _assert_stream_equals_default_rng(seed, purpose, steps)


def test_run_streams_are_the_run_steps():
    """A step count derives the rows of steps 0..n-1."""
    assert _stream_words(5, 1, 9).tobytes() == _stream_words(5, 1, np.arange(9)).tobytes()
    assert (_normals(_stream_words(5, 1, 9), 4, [0, 3]).tobytes()
            == _normals(_stream_words(5, 1, np.arange(9)), 4)[:, [0, 3]].tobytes())


@pytest.mark.parametrize("steps", [2**32, 2**32 + 1, 2**64, -1,
                                   np.array([0, 2**32]), np.array([-1, 3])],
                         ids=["2**32", "2**32+1", "2**64", "-1", "index 2**32", "index -1"])
def test_stream_steps_past_one_entropy_word_are_refused(monkeypatch, steps):
    """A count or index that would give a step two entropy words is refused
    before anything is allocated: ``np.arange`` is made to fail, so an
    accepted count could not build its index array."""
    def no_index_array(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(np, "arange", no_index_array)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"2\*\*32"):
            _stream_words(20260810, 0, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("seed", [1.5, "7", -1, 2**64])
def test_noise_spec_refuses_a_seed_that_is_no_64_bit_integer(seed):
    """The streams hash the seed's 32-bit words, so only such an integer is a seed."""
    with pytest.raises(ValueError, match="seed must be a 64-bit nonnegative integer"):
        NoiseSpec(seed=seed)


def test_simulator_builds_no_generator_per_step(default_sc, monkeypatch):
    """The truth run draws through derived streams, never ``default_rng``."""
    def refused(*args, **kwargs):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refused)
    assert mt.simulate_truth(default_sc).n_steps == default_sc.n_steps
    corridor = _corridor(default_sc, horizon_h=0.25)
    assert mt.simulate_truth(corridor).states.rho.shape == (corridor.n_steps + 1, 200)
