"""Ground-truth simulator: dynamics, noise model, and determinism."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixedtraffic as mt
from mixedtraffic.core import BoundaryInputs, HighwayGeometry, MetanetParams, RampLayout, TrafficState
from mixedtraffic.metanet import (
    MeasurementFrame,
    NoiseSpec,
    PiecewiseLinear,
    TruthSimulator,
    observe,
    offramp_outflows,
    step_truth,
)

PARAMS = MetanetParams.defaults()
SILENT = NoiseSpec.silent()


def _no_ramp_inputs(n, q0, q0_a):
    zeros = np.zeros(n)
    return BoundaryInputs(q0=q0, q0_a=q0_a, r=zeros, r_a=zeros, s=zeros, s_a=zeros)


def _repeated(record, steps):
    """A run of ``steps`` rows, each equal to the single-step ``record``."""
    return type(record)(**{f.name: np.broadcast_to(getattr(record, f.name),
                                                   (steps,) + np.shape(getattr(record, f.name)))
                           for f in dataclasses.fields(record)})


def _step(state, inputs, geom):
    """The state after one noise-free step from ``state`` under ``inputs``."""
    states = TrafficState.stack([state, state])
    step_truth(states, _repeated(inputs, 1), geom, PARAMS, SILENT, step=0)
    return states[1]


def test_uniform_equilibrium_is_fixed_point():
    """No ramps, zero noise, v = V(rho) uniform: every difference term vanishes."""
    geom = HighwayGeometry(n_segments=5, step_h=10 / 3600, seg_len_km=0.5)
    rho = np.full(5, 20.0)
    v = mt.nominal_speed(rho, PARAMS)
    state = TrafficState.from_densities(rho, 0.2 * rho, v)
    inputs = _no_ramp_inputs(5, q0=float(rho[0] * v[0]), q0_a=float(0.2 * rho[0] * v[0]))
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
    r = np.zeros(6)
    r[1] = 300.0
    s = np.zeros(6)
    s[3] = 0.1 * state.q[2]
    inputs = BoundaryInputs(q0=1500.0, q0_a=300.0, r=r, r_a=0.2 * r, s=s, s_a=0.2 * s)
    nxt = _step(state, inputs, geom)
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
    s = np.array([0.0, 0.0, 150.0])
    inputs = BoundaryInputs(q0=2000.0, q0_a=420.0, r=r, r_a=0.2 * r, s=s, s_a=0.25 * s)
    nxt = _step(state, inputs, geom)

    # Independent oracle: plain-float loops, formulas written out term by term.
    T = 10 / 3600
    delta = 0.5
    tau, nu, kappa, delt = 20 / 3600, 35.0, 13.0, 1.4
    q = [rho[i] * v[i] for i in range(3)]
    q_a = [rho_a[i] * v[i] for i in range(3)]
    q_up = [2000.0, q[0], q[1]]
    q_a_up = [420.0, q_a[0], q_a[1]]
    exp_rho, exp_rho_a, exp_v = [], [], []
    for i in range(3):
        exp_rho.append(rho[i] + (T / delta) * (q_up[i] - q[i] + r[i] - s[i]))
        exp_rho_a.append(rho_a[i] + (T / delta) * (q_a_up[i] - q_a[i] + 0.2 * r[i] - 0.25 * s[i]))
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
    layout = RampLayout(off_ramp_segments=(1, 3), exit_rate=(0.2, 0.1))
    state = TrafficState.from_densities([10.0, 20.0, 30.0], [1.0, 2.0, 3.0],
                                        [100.0, 90.0, 80.0])
    s, s_a = offramp_outflows(state.q, state.q_a, q0=1500.0, q0_a=300.0, layout=layout)
    assert s.tolist() == [0.2 * 1500.0, 0.0, 0.1 * 20.0 * 90.0]
    assert s_a.tolist() == [0.2 * 300.0, 0.0, 0.1 * 2.0 * 90.0]


def test_non_finite_input_faults():
    geom = HighwayGeometry(n_segments=3, step_h=10 / 3600, seg_len_km=0.5)
    state = TrafficState.from_densities([10.0] * 3, [2.0] * 3, [100.0] * 3)
    inputs = _no_ramp_inputs(3, q0=float("inf"), q0_a=100.0)
    with pytest.raises(FloatingPointError):
        _step(state, inputs, geom)


class TestObserve:
    layout = RampLayout(on_ramp_segments=(2,), off_ramp_segments=(3,), exit_rate=(0.1,))

    def _setup(self):
        state = TrafficState.from_densities([20.0, 25.0, 22.0, 18.0],
                                            [4.0, 5.0, 4.4, 3.6],
                                            [100.0, 95.0, 98.0, 102.0])
        r = np.array([0.0, 400.0, 0.0, 0.0])
        s = np.array([0.0, 0.0, 200.0, 0.0])
        inputs = BoundaryInputs(q0=1900.0, q0_a=380.0, r=r, r_a=0.2 * r, s=s, s_a=0.2 * s)
        return state, inputs

    def _observe(self, state, inputs, noise, steps):
        """Frames observed at steps 0..steps-1 of a run that repeats ``state`` and ``inputs``."""
        states, run_inputs = _repeated(state, steps), _repeated(inputs, steps)
        frames = MeasurementFrame.of_run(states, run_inputs)
        for k in range(steps):
            observe(states, run_inputs, frames, self.layout, noise, step=k)
        return frames

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
        assert frame.r_meas[0] == 0.0 and frame.r_meas[2] == 0.0 and frame.r_meas[3] == 0.0
        assert frame.r_meas[1] != inputs.r[1]
        assert frame.s_meas[2] != inputs.s[2]
        # connected aggregates stay exact under full noise
        assert np.array_equal(frame.q_a_seg, state.q_a)

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
    )
    sim = TruthSimulator(geom=sc.geometry, params=sc.params, layout=sc.layout,
                         noise=sc.noise, entry_demand=sc.entry_demand,
                         onramp_demand=sc.onramp_demand,
                         penetration_profile=sc.penetration_profile,
                         init_state=sc.initial_state())
    run = sim.run(2000)
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
    """Only FloatingPointError may escape; the frames' connected columns are the
    run's own arrays; without noise every step balances its boundary flows."""
    for noise_scale in (noise, 0.0):
        sc = _variant(default_sc, n, share, demand, noise_scale)
        try:
            truth = mt.simulate_truth(sc)
        except FloatingPointError:
            continue
        states, inputs, frames = truth.states, truth.inputs, truth.frames
        for view, base in ((frames.q0_a, inputs.q0_a), (frames.q_a_seg, states.q_a),
                           (frames.rho_a_seg, states.rho_a), (frames.r_a, inputs.r_a),
                           (frames.s_a, inputs.s_a)):
            assert np.shares_memory(view, base)
        if noise_scale == 0.0:
            lengths = sc.geometry.seg_len_km
            gained = np.sum(lengths * states.rho[1:], axis=1) - np.sum(lengths * states.rho[:-1], axis=1)
            boundary = sc.geometry.step_h * (inputs.q0[:-1] - states.q[:-1, -1]
                                             + inputs.r[:-1].sum(axis=1) - inputs.s[:-1].sum(axis=1))
            assert np.max(np.abs(gained - boundary)) < 1e-9
