"""End-to-end pipeline: metrics, sweeps, CSV round-trips, regression values."""

import csv
import dataclasses
import io
import math
import os
import re
import shutil
import struct
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

import mixedtraffic as mt
from mixedtraffic import harness
from mixedtraffic.cli import DEFAULT_SIGMAS
from mixedtraffic.core import STEP_CHUNK, HighwayGeometry, RampLayout
from mixedtraffic.harness import (
    TRAJECTORY_COLUMNS,
    EstimateRun,
    build_systems,
    observability_trace,
    performance_index,
    q_sweep,
    read_trajectory,
    run_experiment,
    run_filter,
    simulate_only,
    write_metrics,
    write_sweep,
    write_trajectory,
)
from mixedtraffic.kalman import (PSD_TOL, KalmanConfig, StepScratch, filter_step,
                                 output_measurement, reconstruct_totals)
from mixedtraffic.ltv import anti_diagonal, observability_matrix, window_anti_diagonals
from mixedtraffic.metanet import MeasurementFrame, NoiseSpec, PiecewiseLinear

from test_kalman import initial_state

# Regression values produced by this build of the default scenario
# (seed 20260810) and pinned; see also the acceptance suite.
GOLDEN_P_R_MEASURED = 0.06965755328735371
GOLDEN_P_R_UNMEASURED = 0.06506929124147043
GOLDEN_RHO2_HAT = {250: 16.645712822161716, 450: 29.46490967454612,
                   540: 65.18610978538022, 700: 14.862014631704422}


def test_performance_index_perfect_estimate():
    rho = np.full((11, 4), 30.0)
    rho_a = 0.2 * rho
    x_hat = np.full((11, 4), 5.0)
    assert performance_index(rho, rho_a, x_hat) == 0.0


def test_performance_index_uniform_ten_percent_error():
    """Constant truth 40, constant estimate 44.

    With sums over M+1 recorded steps and the 1/(M N) normalization, the
    uniform-error index is 0.1 * sqrt(M / (M + 1)), i.e. 0.1 up to a
    half-percent for any realistic horizon.
    """
    m, n = 60, 5
    rho = np.full((m + 1, n), 40.0)
    rho_a = np.full((m + 1, n), 8.0)
    x_hat = np.full((m + 1, n), 5.5)  # reconstructs 44 everywhere
    value = performance_index(rho, rho_a, x_hat)
    assert value == pytest.approx(0.1 * math.sqrt(m / (m + 1)), abs=1e-12)
    assert value == pytest.approx(0.1, rel=1e-2)


def test_performance_index_rejects_degenerate_input():
    with pytest.raises(ValueError):
        performance_index(np.zeros((5, 3)), np.zeros((5, 3)), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        performance_index(np.ones((1, 3)), np.ones((1, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="^trajectory shapes must match$"):
        performance_index(np.ones((5, 3)), np.ones((5, 3)), np.ones((5, 2)))


def test_golden_p_r_regression(default_result):
    assert abs(default_result.p_r - GOLDEN_P_R_MEASURED) < 1e-12


def test_golden_p_r_unmeasured_mode(default_sc):
    res = run_experiment(dataclasses.replace(default_sc, offramp_mode="unmeasured"))
    assert abs(res.p_r - GOLDEN_P_R_UNMEASURED) < 1e-12


def test_experiment_is_deterministic(default_sc, default_result):
    again = run_experiment(default_sc)
    assert again.p_r == default_result.p_r
    assert np.array_equal(again.estimate.x_hat, default_result.estimate.x_hat)
    assert np.array_equal(again.estimate.innovation, default_result.estimate.innovation)


def test_zero_noise_exact_init_gives_tiny_index(silent_sc):
    truth = mt.simulate_truth(silent_sc)
    x0 = mt.inverse_penetration(truth.states[0].rho, truth.states[0].rho_a)
    exact = dataclasses.replace(silent_sc.filter, x0_value=float(x0[0]))
    res = run_experiment(dataclasses.replace(silent_sc, filter=exact))
    assert res.p_r < 1e-6


def test_estimated_density_tracks_congestion_wave(default_sc, default_result):
    """Segment-2 reconstruction follows the truth through the congestion."""
    truth, est = default_result.truth, default_result.estimate
    hours = np.arange(truth.n_steps + 1) * default_sc.geometry.step_h
    mid = (hours >= 1.0) & (hours <= 2.0)
    rho2 = truth.states.rho[:, 1]
    rho2_hat = est.rho_hat[:, 1]
    rel_rms = np.sqrt(np.mean((rho2_hat[mid] - rho2[mid]) ** 2)) / rho2[mid].mean()
    assert rel_rms < 0.05
    for step, frozen in GOLDEN_RHO2_HAT.items():
        assert rho2_hat[step] == pytest.approx(frozen, abs=1e-9)


def test_congestion_signature(default_sc, default_result):
    rho = default_result.truth.states.rho
    hours = np.arange(rho.shape[0]) * default_sc.geometry.step_h
    rho2 = rho[:, 1]
    rho_crit = default_sc.params.rho_crit
    assert rho2[hours < 1.0].max() < rho_crit
    assert rho2[(hours >= 1.0) & (hours < 2.0)].max() > rho_crit
    assert rho2[hours >= 2.0].max() < rho_crit

    def crossing(seg):
        above = rho[:, seg - 1] > rho_crit
        return hours[np.argmax(above)] if above.any() else None

    times = {seg: crossing(seg) for seg in range(1, 21)}
    onset = min((t, seg) for seg, t in times.items() if t is not None)
    assert onset[1] in (5, 6, 7)              # congestion starts at the merge
    for seg in (1, 2, 3, 4, 5):               # and reaches every upstream segment
        assert times[seg] is not None
        assert times[seg] > times[6]


def test_sweep_single_sigma_reproduces_default(default_sc, default_result):
    points = q_sweep(default_sc, [1.0])
    assert len(points) == 1
    assert points[0].p_r == default_result.p_r


def test_sweep_truth_shared_across_points(default_sc):
    sigmas = [0.1, 1.0, 10.0]
    a = q_sweep(default_sc, sigmas)
    b = q_sweep(default_sc, list(reversed(sigmas)))
    assert {p.sigma: p.p_r for p in a} == {p.sigma: p.p_r for p in b}


def test_sweep_rejects_nonpositive_sigma(default_sc):
    with pytest.raises(ValueError):
        q_sweep(default_sc, [1.0, 0.0])


@pytest.mark.parametrize("sigmas", [[float("nan")], [1.0, float("inf")], []])
def test_sweep_rejects_nonfinite_or_empty_sigmas_before_simulating(default_sc, monkeypatch,
                                                                  sigmas):
    def refuse(sc):
        raise AssertionError("simulated before validating the sigmas")
    monkeypatch.setattr(harness, "simulate_truth", refuse)
    with pytest.raises(ValueError, match="sigma"):
        q_sweep(default_sc, sigmas)


def _serial_run(frames, systems, config):
    """The unbatched filter loop: x_hat, innovations, and the exact smallest
    P eigenvalue of every step (P0 first)."""
    x, p = initial_state(config, frames.n_segments)
    x_hat, innovation = [x], []
    min_eigs = [np.min(np.linalg.eigvalsh(p))]
    last_z = None
    scratch = StepScratch(config, frames.n_segments)
    for k in range(len(frames) - 1):
        z, _ = output_measurement(frames, k, last_z)
        last_z = z
        x, p, nu = filter_step(x, p, systems, k, z, scratch)
        x_hat.append(x)
        innovation.append(nu)
        min_eigs.append(np.min(np.linalg.eigvalsh(p)))
    return np.stack(x_hat), np.array(innovation), np.array(min_eigs)


@pytest.mark.parametrize("mode", ["measured", "unmeasured"])
def test_batch_members_equal_unbatched_runs(default_sc, default_result, monkeypatch, mode):
    """Each member of a batched run equals run_filter and the unbatched loop
    with its own config, bit for bit, and the sweep scores those estimates
    from one batched run_filter call, which reconstructs no totals."""
    sc = dataclasses.replace(default_sc, offramp_mode=mode)
    truth = default_result.truth
    systems = build_systems(sc, truth.frames[:truth.n_steps])
    sigmas = [0.01, 1.0, 100.0]
    configs = [dataclasses.replace(sc.filter, q_sigma=s) for s in sigmas]
    batch = run_filter(_sigma_batch(sc, sigmas), truth.frames)
    m, n = truth.n_steps, sc.geometry.n_segments
    for field in ("x_hat", "rho_hat", "q_hat"):
        assert getattr(batch, field).shape == (len(sigmas), m + 1, n)
    assert batch.innovation.shape == (len(sigmas), m)
    assert batch.min_p_eigenvalue.shape == (len(sigmas),)

    calls = []

    def counting_run_filter(sc, frames):
        calls.append(np.shape(sc.filter.q_sigma))
        return run_filter(sc, frames)
    with monkeypatch.context() as patch:
        patch.setattr(harness, "run_filter", counting_run_filter)
        patch.setattr(harness, "reconstruct_totals", None)
        points = q_sweep(sc, sigmas)
    assert calls == [(len(sigmas),)]

    for i, config in enumerate(configs):
        est = run_filter(dataclasses.replace(sc, filter=config), truth.frames)
        x_hat, innovation, min_eigs = _serial_run(truth.frames, systems, config)
        assert np.array_equal(batch.x_hat[i], est.x_hat)
        assert np.array_equal(est.x_hat, x_hat)
        assert np.array_equal(batch.rho_hat[i], est.rho_hat)
        assert np.array_equal(batch.q_hat[i], est.q_hat)
        assert np.array_equal(batch.innovation[i], est.innovation)
        assert np.array_equal(est.innovation, innovation)
        # A sound run's reported minimum skips the steps whose shifted Cholesky
        # passed, so it bounds the exact minimum from above with the same verdict.
        assert batch.min_p_eigenvalue[i] == est.min_p_eigenvalue
        assert min_eigs.min() <= est.min_p_eigenvalue
        assert (harness.diverged(points[i].p_r, min_eigs.min())
                == harness.diverged(points[i].p_r, est.min_p_eigenvalue))
        assert type(est.min_p_eigenvalue) is float
        assert batch.z_fallback_count == est.z_fallback_count
        assert points[i].p_r == performance_index(truth.states.rho, truth.states.rho_a,
                                                  est.x_hat)


@pytest.mark.parametrize("share, mode, sigmas", [(0.01, "measured", [0.01, 1.0, 1000.0]),
                                                 (0.03, "unmeasured", [0.01, 1.0, 10000.0])])
def test_batch_psd_check_on_members_that_lose_semidefiniteness(default_sc, share, mode, sigmas):
    """Batches whose members lose semidefiniteness at different steps.

    With a 1% initial connected share every member loses it, from step 2 or 3
    on.  With 3% and unmeasured off-ramps the sigma = 0.01 member stays
    semidefinite while the others lose it at step 14, where their negative
    eigenvalues (-3.7e3 and -1.9e7) lie within Cholesky's rounding error of
    P + PSD_TOL*I.  Each member equals its unbatched run, though the batch
    computes eigenvalues at every step where any member failed, and its
    verdict is that of the exact minimum, which it reports when it diverged.
    """
    sc = dataclasses.replace(default_sc, init_penetration=share, offramp_mode=mode)
    truth = mt.simulate_truth(sc)
    systems = build_systems(sc, truth.frames[:truth.n_steps])
    configs = [dataclasses.replace(sc.filter, q_sigma=s) for s in sigmas]
    batch = run_filter(_sigma_batch(sc, sigmas), truth.frames)
    first_lost = []
    for i, config in enumerate(configs):
        est = run_filter(dataclasses.replace(sc, filter=config), truth.frames)
        min_eigs = _serial_run(truth.frames, systems, config)[2]
        lost = np.nonzero(min_eigs < -PSD_TOL)[0]
        first_lost.append(int(lost[0]) if len(lost) else None)
        assert batch.min_p_eigenvalue[i] == est.min_p_eigenvalue
        p_r = performance_index(truth.states.rho, truth.states.rho_a, est.x_hat)
        assert math.isfinite(p_r)
        verdict = harness.diverged(p_r, min_eigs.min())
        assert harness.diverged(p_r, est.min_p_eigenvalue) == verdict
        if verdict:
            assert est.min_p_eigenvalue == min_eigs.min()
        else:
            assert min_eigs.min() <= est.min_p_eigenvalue
    assert len(set(first_lost)) > 1 and any(first_lost)


def test_member_keeps_its_value_when_another_fails_the_psd_check(default_sc, default_result,
                                                                monkeypatch):
    """Member 0's covariance is pushed below zero at step 5, once.  Member 1
    then has its eigenvalues computed there too, but keeps the minimum of its
    own unbatched run, in which that step's eigenvalue (near sigma = 0.01) is
    below its reported minimum but not below -PSD_TOL."""
    truth, n = default_result.truth, default_sc.geometry.n_segments
    configs = [dataclasses.replace(default_sc.filter, q_sigma=s) for s in (1.0, 0.01)]
    batch_steps = []

    def failing_filter_step(x, p, sys, k, z, scratch):
        x, p, innovation = filter_step(x, p, sys, k, z, scratch)
        if p.ndim == 3:
            # k counts from the start of the realization's chunk; step 5 is
            # the batch's sixth call.
            batch_steps.append(k)
            if len(batch_steps) == 6:
                p[0] -= 2 * np.eye(n)  # p is the step's own fresh array
        return x, p, innovation
    monkeypatch.setattr(harness, "filter_step", failing_filter_step)
    batch = run_filter(_sigma_batch(default_sc, (1.0, 0.01)), truth.frames)
    alone = run_filter(dataclasses.replace(default_sc, filter=configs[1]), truth.frames)
    assert len(batch_steps) == truth.n_steps and batch_steps[5] == 5
    assert batch.min_p_eigenvalue[0] < -PSD_TOL
    assert batch.min_p_eigenvalue[1] == alone.min_p_eigenvalue
    systems = build_systems(default_sc, truth.frames[:truth.n_steps])
    min_eigs = _serial_run(truth.frames, systems, configs[1])[2]
    assert -PSD_TOL < min_eigs[6] < alone.min_p_eigenvalue


# --- Oracle: the filter loop as it was, factorising P at every step ---
# A literal copy of run_filter's loop before the Weyl certificate let it skip
# the factorisation; run_filter must equal it bit for bit on every output and
# name the same step when the state becomes non-finite.

def _reference_run_filter(sc, frames, systems):
    m, config = len(frames) - 1, sc.filter
    x, p = initial_state(config, frames.n_segments)
    batch, n = x.shape[:-1], x.shape[-1]
    x_hat = np.empty(batch + (m + 1, n))
    innovation = np.empty(batch + (m,))
    x_hat[..., 0, :] = x

    min_eig = np.linalg.eigvalsh(p).min(axis=-1)
    eye = np.eye(n)
    rounding = (n + 1) * np.finfo(float).eps
    fallbacks = 0
    last_z = None
    scratch = StepScratch(config, n)
    with np.errstate(all="ignore"):
        for k in range(m):
            z, used_fallback = output_measurement(frames, k, last_z)
            fallbacks += used_fallback
            last_z = z
            try:
                x, p, innovation[..., k] = filter_step(x, p, systems, k, z, scratch)
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} at step {k}") from exc
            x_hat[..., k + 1, :] = x
            shift = PSD_TOL - rounding * np.trace(p, axis1=-2, axis2=-1)
            try:
                np.linalg.cholesky(p + shift[..., None, None] * eye)
            except np.linalg.LinAlgError:
                step_min = np.linalg.eigvalsh(p).min(axis=-1)
                min_eig = np.where(step_min < -PSD_TOL, np.minimum(min_eig, step_min), min_eig)
    min_eig = np.minimum(min_eig, np.linalg.eigvalsh(p).min(axis=-1))
    return EstimateRun(x_hat=x_hat, innovation=innovation,
                       min_p_eigenvalue=min_eig if batch else float(min_eig),
                       g_clamp_count=systems.n_clamped, z_fallback_count=fallbacks,
                       frames=frames)


def _assert_same_estimate(est, reference):
    """The same frames, and every other field and the derived totals equal
    byte for byte, and of the same type."""
    assert est.frames is reference.frames
    names = [f.name for f in dataclasses.fields(EstimateRun) if f.name != "frames"]
    for name in names + ["rho_hat", "q_hat"]:
        got, want = getattr(est, name), getattr(reference, name)
        assert type(got) is type(want), name
        a, b = np.asarray(got), np.asarray(want)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def _sigma_batch(sc, sigmas):
    """``sc`` with the batch of its filter at each q_sigma of ``sigmas``."""
    return dataclasses.replace(sc, filter=KalmanConfig.stack(
        [dataclasses.replace(sc.filter, q_sigma=s) for s in sigmas]))


def _on_segments(sc, n, horizon_h=None):
    """``sc`` on n segments, ramps beyond n dropped."""
    off = [(seg, b) for seg, b in zip(sc.layout.off_ramp_segments, sc.layout.exit_rate) if seg <= n]
    return dataclasses.replace(
        sc, geometry=HighwayGeometry(n_segments=n, step_h=sc.geometry.step_h, seg_len_km=0.5),
        layout=RampLayout(on_ramp_segments=[seg for seg in sc.layout.on_ramp_segments if seg <= n],
                          off_ramp_segments=[seg for seg, _ in off], exit_rate=[b for _, b in off]),
        onramp_demand={seg: d for seg, d in sc.onramp_demand.items() if seg <= n},
        horizon_h=horizon_h or sc.horizon_h)


_ORACLE_CASES = {
    "default": lambda sc: (sc, None),
    "unmeasured sweep": lambda sc: (dataclasses.replace(sc, offramp_mode="unmeasured"),
                                    (0.01, 0.1, 1.0, 10.0, 100.0)),
    "corridor": lambda sc: (_on_segments(sc, 200), None),
    "share 1%": lambda sc: (dataclasses.replace(sc, init_penetration=0.01), (0.01, 1.0, 1000.0)),
    "share 3%": lambda sc: (dataclasses.replace(sc, init_penetration=0.03,
                                                offramp_mode="unmeasured"), (0.01, 1.0, 10000.0)),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_run_filter_equals_the_per_step_factorisation(default_sc, case):
    """Skipping the factorisation where the Weyl bound certifies it changes no
    output: healthy runs, a sweep, the N = 200 corridor, and batches whose
    members lose semidefiniteness at different steps."""
    sc, sigmas = _ORACLE_CASES[case](default_sc)
    truth = mt.simulate_truth(sc)
    systems = build_systems(sc, truth.frames[:truth.n_steps])
    if sigmas is not None:
        sc = _sigma_batch(sc, sigmas)
    _assert_same_estimate(run_filter(sc, truth.frames),
                          _reference_run_filter(sc, truth.frames, systems))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), share=st.floats(min_value=0.01, max_value=1.0),
       noise=st.floats(min_value=0.0, max_value=10.0),
       sigma=st.floats(min_value=0.01, max_value=100.0))
def test_run_filter_equals_the_oracle_on_varied_runs(default_sc, n, share, noise, sigma):
    """Half-hour runs on 2 to 40 segments at any connected share, noise scale
    and Q; one filter and a batch alike.  A filter that overflows must do so
    in the oracle too."""
    stds = [noise * getattr(default_sc.noise, f.name)
            for f in dataclasses.fields(NoiseSpec) if f.name != "seed"]
    sc = dataclasses.replace(_on_segments(default_sc, n, horizon_h=0.5), init_penetration=share,
                             penetration_profile=PiecewiseLinear.constant(share),
                             noise=NoiseSpec(*stds, seed=default_sc.seed),
                             filter=dataclasses.replace(default_sc.filter, q_sigma=sigma))
    try:
        truth = mt.simulate_truth(sc)
    except FloatingPointError:
        return
    systems = build_systems(sc, truth.frames[:truth.n_steps])
    for tuned in (sc, _sigma_batch(sc, [sigma, 1.0])):
        try:
            est = run_filter(tuned, truth.frames)
        except FloatingPointError as exc:
            with pytest.raises(FloatingPointError) as oracle:
                _reference_run_filter(tuned, truth.frames, systems)
            assert str(exc) == str(oracle.value)
            continue
        _assert_same_estimate(est, _reference_run_filter(tuned, truth.frames, systems))


# Runs that end inside the first chunk of the realization, one step before,
# at and one step past its end, and one step into a third chunk.
CHUNK_EDGES = {"M < C": 7, "M = C-1": STEP_CHUNK - 1, "M = C": STEP_CHUNK,
               "M = C+1": STEP_CHUNK + 1, "M = 2C+1": 2 * STEP_CHUNK + 1}


def _for_steps(sc, steps):
    return dataclasses.replace(sc, horizon_h=steps * sc.geometry.step_h)


@pytest.mark.parametrize("steps", list(CHUNK_EDGES.values()), ids=list(CHUNK_EDGES))
@pytest.mark.parametrize("mode", ["measured", "unmeasured"])
def test_run_filter_equals_the_oracle_at_chunk_edges(default_sc, mode, steps):
    """The filter, one and a batch alike, equals the oracle run on the whole
    run's realization byte for byte, clamp count included."""
    sc = dataclasses.replace(_for_steps(default_sc, steps), offramp_mode=mode)
    truth = mt.simulate_truth(sc)
    systems = build_systems(sc, truth.frames[:steps])
    for tuned in (sc, _sigma_batch(sc, [0.01, 1.0, 100.0])):
        _assert_same_estimate(run_filter(tuned, truth.frames),
                              _reference_run_filter(tuned, truth.frames, systems))


def test_filter_divergence_in_a_later_chunk_stops_at_its_step(default_sc, monkeypatch):
    """An infinite exit reading inside the second chunk makes the estimate
    non-finite at that step of the run: run_filter raises the oracle's error,
    which names the step counted from the start of the run, after exactly
    that step's filter_step call."""
    step = STEP_CHUNK + 3
    sc = _for_steps(default_sc, 2 * STEP_CHUNK + 1)
    truth = mt.simulate_truth(sc)
    q_n = truth.frames.qN_meas.copy()
    q_n[step] = np.inf
    frames = dataclasses.replace(truth.frames, qN_meas=q_n)
    with pytest.raises(FloatingPointError) as oracle:
        _reference_run_filter(sc, frames, build_systems(sc, frames[:-1]))
    calls = []

    def counting_filter_step(x, p, sys, k, z, scratch):
        calls.append(k)
        return filter_step(x, p, sys, k, z, scratch)
    monkeypatch.setattr(harness, "filter_step", counting_filter_step)
    with pytest.raises(FloatingPointError) as got:
        run_filter(sc, frames)
    assert str(got.value) == str(oracle.value) == f"non-finite filter state at step {step}"
    assert len(calls) == step + 1 and calls[-1] == step - STEP_CHUNK


@pytest.mark.parametrize("mode", ["measured", "unmeasured"])
def test_filter_reads_only_the_frames(default_sc, default_result, mode):
    """Frames built by hand from copies of a run's connected columns and
    detector readings, sharing no memory with the run, give run_experiment's
    estimate and the simulated run's observability trace bit for bit; the
    first N of them give that trace's first window alone."""
    sc = dataclasses.replace(default_sc, offramp_mode=mode)
    result = default_result if mode == "measured" else run_experiment(sc)
    states, inputs, read = result.truth.states, result.truth.inputs, result.truth.frames
    frames = MeasurementFrame(
        q0_a=inputs.q0_a.copy(), q_a_seg=states.q_a.copy(), rho_a_seg=states.rho_a.copy(),
        r_a=inputs.r_a.copy(), s_a=inputs.s_a.copy(), q0_meas=read.q0_meas.copy(),
        qN_meas=read.qN_meas.copy(), r_meas=read.r_meas.copy(), s_meas=read.s_meas.copy())
    for field in dataclasses.fields(MeasurementFrame):
        mine = getattr(frames, field.name)
        assert not any(np.shares_memory(mine, theirs) for record in (states, inputs, read)
                       for theirs in vars(record).values()), field.name
    _assert_same_estimate(run_filter(sc, frames), dataclasses.replace(result.estimate,
                                                                      frames=frames))
    trace = observability_trace(sc, frames)
    assert trace == observability_trace(sc)
    assert observability_trace(sc, frames[:sc.geometry.n_segments]) == trace[:1]


def test_a_slice_shares_its_records_arrays(default_sc, default_result):
    """``rec[a:b]`` of a run's frames, states and realization holds views of
    the record's own arrays, of the record's type; a single step has no steps
    to index."""
    truth = default_result.truth
    with pytest.raises(TypeError, match="^a single-step TrafficState has no length$"):
        truth.states[5][0]
    for record in (truth.frames, truth.states, build_systems(default_sc, truth.frames[:300])):
        part = record[100:250]
        assert type(part) is type(record) and len(part) == 150
        for field in dataclasses.fields(record):
            mine, theirs = getattr(part, field.name), getattr(record, field.name)
            assert np.shares_memory(mine, theirs), field.name
            assert np.array_equal(mine, theirs[100:250]), field.name


def test_the_estimator_checks_no_frame_again(default_sc, default_result, monkeypatch):
    """The filter and the observability trace slice a built run's frames into
    chunks, and no chunk runs the frames' checks again."""
    calls = []
    check = MeasurementFrame.__post_init__

    def counted(frames):
        calls.append(len(frames))
        check(frames)

    monkeypatch.setattr(MeasurementFrame, "__post_init__", counted)
    run_filter(default_sc, default_result.truth.frames)
    observability_trace(default_sc, default_result.truth.frames)
    assert calls == []


CONNECTED_FIELDS = ("q0_a", "q_a_seg", "rho_a_seg", "r_a", "s_a")
FLOW_FIELDS = ("q0_a", "q_a_seg", "r_a", "s_a", "q0_meas", "qN_meas", "r_meas", "s_meas")


def _times(frames, c, fields):
    return dataclasses.replace(frames, **{name: getattr(frames, name) * c for name in fields})


def _connected_times(sc, frames, c):
    """The frames with every connected column times c, and their estimate with
    x0 over c and q_sigma, r_cov and p0_sigma over c**2."""
    config = sc.filter
    scaled = _times(frames, c, CONNECTED_FIELDS)
    return scaled, run_filter(dataclasses.replace(sc, filter=KalmanConfig(
        q_sigma=config.q_sigma / c**2, r_cov=config.r_cov / c**2, x0_value=config.x0_value / c,
        p0_sigma=config.p0_sigma / c**2)), scaled)


def _shorter_time_unit(sc, frames, c):
    """The estimate of the frames with every flow times c, read with step_h
    and horizon_h over c."""
    geom = sc.geometry
    short = dataclasses.replace(
        sc, geometry=HighwayGeometry(geom.n_segments, geom.step_h / c, geom.seg_len_km),
        horizon_h=sc.horizon_h / c)
    return run_filter(short, _times(frames, c, FLOW_FIELDS))


def _assert_related(run, plain, c=1.0):
    """x_hat and the innovations of ``run`` are those of ``plain`` over c bit
    for bit, with the same clamp and fallback counts."""
    assert np.array_equal(run.x_hat, plain.x_hat / c)
    assert np.array_equal(run.innovation, plain.innovation / c)
    assert run.g_clamp_count == plain.g_clamp_count
    assert run.z_fallback_count == plain.z_fallback_count


@pytest.mark.parametrize("c", [2.0, 0.25, 1024.0])
@pytest.mark.parametrize("seed", [20260810, 7])
@pytest.mark.parametrize("mode", ["measured", "unmeasured"])
def test_estimator_is_scale_equivariant(default_sc, mode, seed, c):
    """Connected flows and densities times c, with x0 over c and q_sigma,
    r_cov and p0_sigma over c**2, give x_hat and innovations over c bit for
    bit, the same clamp and fallback counts, and the same P_R scored against
    the scaled connected densities.  Powers of two only: c = 3 is off by up
    to 2.1e-15."""
    sc = dataclasses.replace(default_sc.with_seed(seed), offramp_mode=mode)
    truth = mt.simulate_truth(sc)
    plain = run_filter(sc, truth.frames)
    scaled, run = _connected_times(sc, truth.frames, c)
    _assert_related(run, plain, c)
    rho = truth.states.rho
    assert (performance_index(rho, scaled.rho_a_seg, run.x_hat)
            == performance_index(rho, truth.frames.rho_a_seg, plain.x_hat))


@pytest.mark.parametrize("c", [2.0, 4.0])
@pytest.mark.parametrize("seed", [20260810, 7])
@pytest.mark.parametrize("mode", ["measured", "unmeasured"])
def test_estimator_is_time_unit_invariant(default_sc, mode, seed, c):
    """Every flow of the frames times c, with step_h and horizon_h over c,
    gives the same x_hat and innovations bit for bit and the same clamp and
    fallback counts: flows and steps are read in a time unit c times shorter.
    Powers of two of at least 2 only: c = 3 is off by up to 8.9e-15, and
    c < 1 lengthens the step past the CFL bound."""
    sc = dataclasses.replace(default_sc.with_seed(seed), offramp_mode=mode)
    frames = mt.simulate_truth(sc).frames
    _assert_related(_shorter_time_unit(sc, frames, c), run_filter(sc, frames))


def _demand_times(profile, factor):
    return PiecewiseLinear(profile.times_h, factor * profile.values)


# No explain phase: on a failing example it took 126 of the run's 165 s.
@settings(max_examples=25, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.explain])
@given(n=st.integers(min_value=2, max_value=40), share=st.floats(min_value=0.05, max_value=1.0),
       noise=st.floats(min_value=0.0, max_value=5.0), demand=st.floats(min_value=0.5, max_value=2.0),
       mode=st.sampled_from(["measured", "unmeasured"]),
       seed=st.integers(min_value=0, max_value=2**64 - 1),
       scale=st.integers(min_value=-4, max_value=4), time=st.integers(min_value=1, max_value=4))
def test_estimator_symmetries_hold_on_varied_runs(default_sc, n, share, noise, demand, mode,
                                                   seed, scale, time):
    """Both relations above on quarter-hour runs on 2 to 40 segments at any
    connected share, noise and demand scale, mode and seed, with c = 2**scale
    for the scale relation and 2**time for the time unit.  Where g is clamped
    or the exit falls back in any run, the absolute EPS_G or EPS_DENSITY
    binds and the relations need not hold, so such examples are dropped; so
    is a run whose truth or plain filter raises."""
    stds = [noise * getattr(default_sc.noise, f.name)
            for f in dataclasses.fields(NoiseSpec) if f.name != "seed"]
    sc = dataclasses.replace(
        _on_segments(default_sc, n, horizon_h=0.25), init_penetration=share, offramp_mode=mode,
        penetration_profile=PiecewiseLinear.constant(share),
        entry_demand=_demand_times(default_sc.entry_demand, demand),
        onramp_demand={seg: _demand_times(profile, demand)
                       for seg, profile in default_sc.onramp_demand.items() if seg <= n},
        noise=NoiseSpec(*stds, seed=seed))
    try:
        truth = mt.simulate_truth(sc)
        plain = run_filter(sc, truth.frames)
    except FloatingPointError:
        return
    assume(not (plain.g_clamp_count or plain.z_fallback_count))
    c = 2.0**scale
    scaled, run = _connected_times(sc, truth.frames, c)
    shorter = _shorter_time_unit(sc, truth.frames, 2.0**time)
    assume(not any(est.g_clamp_count or est.z_fallback_count for est in (run, shorter)))
    _assert_related(run, plain, c)
    rho = truth.states.rho
    assert (performance_index(rho, scaled.rho_a_seg, run.x_hat)
            == performance_index(rho, truth.frames.rho_a_seg, plain.x_hat))
    _assert_related(shorter, plain)


@pytest.mark.parametrize("mode", ["measured", "unmeasured"])
def test_filter_holds_one_chunk_of_realization(default_sc, mode):
    """On a 200-segment, 3 h run (M = 1080), the traced peak of run_filter
    stays below x_hat and the innovations plus ten N x N arrays and one
    chunk: the chunk's four (C, N) realization arrays and its build's
    scratch.  The whole run's realization is never held."""
    n = 200
    sc = dataclasses.replace(_on_segments(default_sc, n, horizon_h=3.0), offramp_mode=mode)
    truth = mt.simulate_truth(sc)
    warm = _for_steps(sc, 20)                    # lazy imports are not the run's
    run_filter(warm, mt.simulate_truth(warm).frames)
    chunk, square = 5 * STEP_CHUNK * n * 8, n * n * 8
    tracemalloc.start()
    try:
        est = run_filter(sc, truth.frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.x_hat.nbytes == (truth.n_steps + 1) * square // n
    assert peak < est.x_hat.nbytes + est.innovation.nbytes + 10 * square + chunk


@pytest.mark.parametrize("n", [20, 200], ids=["default", "N = 200"])
def test_an_estimate_retains_only_x_hat_sized_data(default_sc, default_result, n):
    """The memory that run_filter leaves allocated, with its estimate alive,
    stays below 1.5 x_hat: x_hat, the innovations and a reference to the
    frames, where the stored totals made it about 3 x_hat."""
    if n == 20:
        sc, frames = default_sc, default_result.truth.frames
    else:
        sc = _on_segments(default_sc, n, horizon_h=0.25)
        frames = mt.simulate_truth(sc).frames
    run_filter(sc, frames[:STEP_CHUNK + 2])      # lazy imports are not the run's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        est = run_filter(sc, frames)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert est.frames is frames and est.x_hat.shape == (len(frames), n)
    assert retained < 1.5 * est.x_hat.nbytes


@pytest.mark.parametrize("case", ["single", "batch", "unmeasured"])
def test_totals_are_reconstructed_from_x_hat_and_the_frames(default_sc, default_result, case):
    """rho_hat and q_hat are reconstruct_totals of x_hat and the frames'
    connected densities and flows byte for byte, a 5-member batch
    broadcasting against its one run."""
    sc, truth = default_sc, default_result.truth
    if case == "batch":
        sc = _sigma_batch(sc, [0.01, 0.1, 1.0, 10.0, 100.0])
    elif case == "unmeasured":
        sc = dataclasses.replace(sc, offramp_mode="unmeasured")
        truth = mt.simulate_truth(sc)
    est = run_filter(sc, truth.frames)
    totals = reconstruct_totals(est.x_hat, truth.frames.rho_a_seg, truth.frames.q_a_seg)
    for got, want in zip((est.rho_hat, est.q_hat), totals):
        assert got.shape == want.shape == est.x_hat.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _array_weyl_floor(top, p_nn, floor, a, q, r_cov, n):
    """The bound as the filter loop once computed it on (S,) arrays; given
    1-element float64 arrays, NumPy squares by multiplication."""
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    lost = np.maximum(-floor, 0.0)
    m = top + lost
    denom = p_nn + r_cov
    gain = np.sqrt(m * (abs(p_nn) + lost) / denom) / np.sqrt(denom)
    a2 = a * a
    weyl = lost * (1.0 + math.sqrt(n) * gain) ** 2 * a2
    rounding = 16 * n * (eps * (a2 * (1.0 + gain) * m + q)
                         + tiny * (1.0 + a) ** 2 * (1.0 + m))
    return q - 32 * eps * q - (weyl + rounding) * (1 + 32 * eps)


_EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324,
                math.inf, -math.inf, math.nan]
_ANY_FLOAT = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
# top and a are maxima of absolute values: >= 0, +inf or NaN.
_NOT_NEGATIVE = st.one_of(st.sampled_from([x for x in _EDGE_FLOATS if not x < 0.0]),
                          st.floats(min_value=0.0))


@settings(max_examples=500, deadline=None)
@given(top=_NOT_NEGATIVE, p_nn=_ANY_FLOAT, floor=_ANY_FLOAT, a=_NOT_NEGATIVE, q=_ANY_FLOAT,
       r_cov=_ANY_FLOAT, n=st.integers(min_value=1, max_value=400))
@example(top=1.0, p_nn=-100.0, floor=0.5, a=1.0, q=1.0, r_cov=100.0, n=20)   # P_NN + R = 0
@example(top=1.0, p_nn=-200.0, floor=0.5, a=1.0, q=1.0, r_cov=100.0, n=20)   # P_NN + R < 0
@example(top=1.0, p_nn=-0.0, floor=0.0, a=1.0, q=1.0, r_cov=-0.0, n=20)      # P_NN + R = -0
def test_weyl_floor_on_floats_equals_the_array_formula(top, p_nn, floor, a, q, r_cov, n):
    """The filter's bound on Python floats equals the array formula bit for
    bit wherever both are finite; elsewhere both say "no bound", NaN or
    -inf, and neither raises, whatever the sign, size or finiteness of the
    inputs (a P_NN + R <= 0 included)."""
    got = harness._weyl_floor(top, p_nn, floor, a, q, r_cov, n)
    with np.errstate(all="ignore"):
        want = float(_array_weyl_floor(*(np.array([v]) for v in (top, p_nn, floor, a, q, r_cov)),
                                       n)[0])
    assert type(got) is float
    if math.isfinite(got) and math.isfinite(want):
        assert struct.pack("<d", got) == struct.pack("<d", want)
    else:
        assert all(math.isnan(v) or v == -math.inf for v in (got, want)), (got, want)


_FACTORISATION_CASES = {
    "default": lambda sc: (sc, None),
    "corridor": lambda sc: (_on_segments(sc, 200, horizon_h=0.25), None),
    "share 1%": lambda sc: (dataclasses.replace(sc, init_penetration=0.01), None),
    "sweep": lambda sc: (sc, DEFAULT_SIGMAS),
    "unmeasured sweep": lambda sc: (dataclasses.replace(sc, offramp_mode="unmeasured"),
                                    DEFAULT_SIGMAS),
    # Member 0 has the largest bound, above the other members' min P_ii.
    "descending sweep": lambda sc: (sc, DEFAULT_SIGMAS[::-1]),
    "unmeasured descending sweep": lambda sc: (
        dataclasses.replace(sc, offramp_mode="unmeasured"), DEFAULT_SIGMAS[::-1]),
    "share 1% sweep": lambda sc: (dataclasses.replace(sc, init_penetration=0.01), DEFAULT_SIGMAS),
}


@pytest.mark.parametrize("case", list(_FACTORISATION_CASES))
def test_factorisation_runs_only_where_the_bound_fails(default_sc, monkeypatch, case):
    """A healthy run never factorises P: the bound certifies every step, the
    first included, since P0 = p0_sigma*I has lambda_min = p0_sigma; a run
    whose covariance loses semidefiniteness keeps factorising.  The default
    sweep's batch certifies each member on its own bound, in either order of
    its sigmas and in both modes."""
    sc, sigmas = _FACTORISATION_CASES[case](default_sc)
    truth = mt.simulate_truth(sc)
    if sigmas is not None:
        sc = _sigma_batch(sc, sigmas)
    cholesky, calls = np.linalg.cholesky, []

    def counting_cholesky(a):
        calls.append(a.shape)
        return cholesky(a)
    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    run_filter(sc, truth.frames)
    if case.startswith("share 1%"):
        assert len(calls) > 1
    else:
        assert len(calls) == 0


def test_sweep_fails_when_one_member_overflows(default_sc):
    """Q = 1e308 I overflows the covariance on the first step, alone or batched."""
    short = dataclasses.replace(default_sc, horizon_h=0.05)
    huge = dataclasses.replace(short, filter=dataclasses.replace(short.filter, q_sigma=1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            run_filter(huge, mt.simulate_truth(short).frames)
        with pytest.raises(FloatingPointError):
            q_sweep(short, [1.0, 1e308])
    assert len(q_sweep(short, [1.0, 1e307])) == 2


@pytest.mark.parametrize("sigmas", [[1.0], [0.1, 10.0]], ids=["single", "batch"])
def test_run_filter_leaves_its_config_unchanged(default_sc, default_result, sigmas):
    """No field of the scenario's filter is written to, so a second run with
    the same config is identical."""
    truth = default_result.truth
    configs = [dataclasses.replace(default_sc.filter, q_sigma=s) for s in sigmas]
    config = configs[0] if len(configs) == 1 else KalmanConfig.stack(configs)
    sc = dataclasses.replace(default_sc, filter=config)
    before = {name: np.copy(value) for name, value in vars(config).items()}
    first = run_filter(sc, truth.frames)
    assert all(np.array_equal(vars(config)[name], value) for name, value in before.items())
    again = run_filter(sc, truth.frames)
    assert np.array_equal(again.x_hat, first.x_hat)


def _trajectory_text_cell_by_cell(result) -> str:
    """The trajectory CSV as csv.writer writes it, each float formatted by repr."""
    truth, est = result.truth, result.estimate
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(TRAJECTORY_COLUMNS)
    for k, state in enumerate(truth.states):
        for i in range(state.n_segments):
            row = [str(k), str(i + 1)] + [repr(float(getattr(state, name)[i]))
                                          for name in ("rho", "rho_a", "v", "q", "q_a")]
            if est is None:
                row += ["", "", "", ""]
            else:
                row += [repr(float(est.rho_hat[k, i])), repr(float(est.q_hat[k, i])),
                        repr(float(est.x_hat[k, i])),
                        repr(float(est.innovation[k])) if k < truth.n_steps else ""]
            writer.writerow(row)
    return buffer.getvalue()


def _first_step_only(result):
    """``result`` cut to its step 0: a run of M = 0 transitions."""
    est = result.estimate
    return dataclasses.replace(
        result, truth=dataclasses.replace(result.truth, states=result.truth.states[:1]),
        estimate=dataclasses.replace(est, x_hat=est.x_hat[:1], innovation=est.innovation[:0],
                                     frames=est.frames[:1]))


def _runs_to_write(default_sc, default_result):
    """Full runs in both modes and at seed 7, truth-only runs, a short N = 200
    run, and runs of M = 0, 1 and 2, where one of the writer's two processes
    has no step or one step."""
    short = dataclasses.replace(default_sc, horizon_h=0.05)
    yield from (run_experiment(short), simulate_only(short), default_result,
                run_experiment(dataclasses.replace(default_sc, offramp_mode="unmeasured")),
                run_experiment(default_sc.with_seed(7)), simulate_only(default_sc),
                run_experiment(_on_segments(default_sc, 200, horizon_h=0.05)))
    one, two = (run_experiment(_for_steps(default_sc, m)) for m in (1, 2))
    for run in (_first_step_only(one), one, two):
        yield run
        yield dataclasses.replace(run, estimate=None)


def test_trajectory_csv_bytes_match_cell_by_cell_repr(tmp_path, default_sc, default_result):
    path = tmp_path / "trajectory.csv"
    for result in _runs_to_write(default_sc, default_result):
        write_trajectory(path, result)
        assert path.read_bytes() == _trajectory_text_cell_by_cell(result).encode("utf-8")


def _raise_in_own_half(*args):
    raise RuntimeError("own half failed")


@pytest.mark.parametrize("fault", ["helper exits 1", "own half raises"])
def test_failed_write_leaves_no_file_no_temporary_and_no_child(tmp_path, default_sc,
                                                               monkeypatch, fault):
    """A helper that exits 1 (``false`` runs in its place) fails the write
    with an OSError naming the path; a failure in this process's own half
    propagates.  Either way the half-written file and both temporary files
    are gone, and the helper has been reaped."""
    result = simulate_only(dataclasses.replace(default_sc, horizon_h=0.05))
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    path = tmp_path / "trajectory.csv"
    if fault == "helper exits 1":
        monkeypatch.setattr(sys, "executable", shutil.which("false"))
        raised = pytest.raises(OSError, match=re.escape(str(path)))
    else:
        monkeypatch.setattr(harness._rows, "write_steps", _raise_in_own_half)
        raised = pytest.raises(RuntimeError, match="own half failed")
    with raised:
        write_trajectory(path, result)
    assert not path.exists()
    assert list(temp.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("meeting", ["near step 0", "at step M"])
def test_trajectory_bytes_do_not_depend_on_where_the_writers_meet(tmp_path, default_result,
                                                                  monkeypatch, meeting):
    """Near step 0: this process sleeps 50 ms before each of its blocks, so
    the helper formats almost every block.  At step M: ``true`` runs in the
    helper's place and exits 0 having written nothing, so this process
    formats every block.  Either way the file has the one-process bytes, no
    temporary is left and no child is."""
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    write_steps, firsts = harness._rows.write_steps, []

    def own_block(handle, first, *args):
        firsts.append(first)
        if meeting == "near step 0":
            time.sleep(0.05)
        write_steps(handle, first, *args)
    monkeypatch.setattr(harness._rows, "write_steps", own_block)
    if meeting == "at step M":
        monkeypatch.setattr(sys, "executable", shutil.which("true"))
    path = tmp_path / "trajectory.csv"
    write_trajectory(path, default_result)
    assert path.read_bytes() == _trajectory_text_cell_by_cell(default_result).encode("utf-8")
    truth = default_result.truth
    grid = list(range(0, truth.n_steps + 1, harness._rows.block_steps(truth.states.n_segments)))
    if meeting == "near step 0":
        assert firsts == grid[:len(firsts)] and len(firsts) < len(grid)
    else:
        assert firsts == grid
    assert list(temp.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_helper_that_claims_a_block_and_fails_leaves_no_file_no_temporary_and_no_child(
        tmp_path, default_result, monkeypatch):
    """A helper that claims the last block, writes nothing and exits 3 fails
    the write with an OSError naming the path, though the claim stopped this
    process short of that block: the half-written file and both temporary
    files are gone, and the helper has been reaped.  This process waits in
    its first block until the claim is there, so the helper always makes it."""
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    truth = default_result.truth
    last = range(0, truth.n_steps + 1, harness._rows.block_steps(truth.states.n_segments))[-1]
    helper = tmp_path / "claim_last_and_fail.py"
    helper.write_text("import os, sys\n"
                      f"open(os.path.join(sys.argv[1], {str(last)!r}), 'x').close()\n"
                      "sys.exit(3)\n")
    monkeypatch.setattr(harness._rows, "__file__", str(helper))
    write_steps = harness._rows.write_steps

    def own_block(*args):
        (folder,) = temp.iterdir()
        deadline = time.monotonic() + 30.0
        while not (folder / str(last)).exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        write_steps(*args)
    monkeypatch.setattr(harness._rows, "write_steps", own_block)
    path = tmp_path / "trajectory.csv"
    with pytest.raises(OSError, match=re.escape(f"{path}: the row helper exited with status 3")):
        write_trajectory(path, default_result)
    assert not path.exists()
    assert list(temp.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_trajectory_csv_roundtrip(tmp_path, default_sc, default_result):
    path = tmp_path / "trajectory.csv"
    write_trajectory(path, default_result)
    data = read_trajectory(path)
    truth, est = default_result.truth, default_result.estimate
    assert np.array_equal(data["rho"], truth.states.rho)
    assert np.array_equal(data["rho_a"], truth.states.rho_a)
    assert np.array_equal(data["v"], np.stack([s.v for s in truth.states]))
    assert np.array_equal(data["q"], np.stack([s.q for s in truth.states]))
    assert np.array_equal(data["p_bar_hat"], est.x_hat)
    assert np.array_equal(data["rho_hat"], est.rho_hat)
    assert np.array_equal(data["q_hat"], est.q_hat)
    innov = data["innovation"]
    assert np.array_equal(innov[:-1, 0], est.innovation)
    assert np.isnan(innov[-1, 0])  # final step has no measurement update


def test_truth_only_trajectory_has_empty_estimates(tmp_path, default_sc):
    result = simulate_only(default_sc)
    path = tmp_path / "truth.csv"
    write_trajectory(path, result)
    data = read_trajectory(path)
    assert np.isnan(data["rho_hat"]).all()
    assert not np.isnan(data["rho"]).any()


def _with_a_bad_cell(lines, line, column, cell):
    cells = lines[line - 1].split(",")
    cells[column] = cell
    return lines[:line - 1] + [",".join(cells)] + lines[line:]


# Edits of a 0.05 h run's trajectory.csv (19 steps of 20 segments; line l > 1
# holds step (l - 2) // 20, segment (l - 2) % 20 + 1), and the error each gives.
MALFORMED = {
    "extra cell": (lambda lines: lines[:4] + [lines[4] + ",1.0"] + lines[5:],
                   "line 5: 12 cells, the header has 11"),
    "short row": (lambda lines: lines[:6] + [lines[6].rsplit(",", 1)[0]] + lines[7:],
                  "line 7: 10 cells, the header has 11"),
    "blank line": (lambda lines: lines[:3] + [""] + lines[3:], "line 4: 0 cells"),
    "dropped row": (lambda lines: lines[:9] + lines[10:], "no row for step 0, segment 9"),
    "duplicated row": (lambda lines: lines[:10] + lines[9:], "line 11: repeats step 0, segment 9"),
    "swapped rows": (lambda lines: lines[:9] + [lines[10], lines[9]] + lines[11:],
                     "no row for step 0, segment 9 at line 10"),
    "negative step": (lambda lines: _with_a_bad_cell(lines, 4, 0, "-1"),
                      "line 4: step must be >= 0 and segment >= 1"),
    "segment 0": (lambda lines: _with_a_bad_cell(lines, 30, 1, "0"),
                  "line 30: step must be >= 0 and segment >= 1"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_trajectory_is_refused_naming_the_line(tmp_path, default_sc, case):
    """Before, an extra cell read as intact, a dropped row as NaN, a repeated
    row overwrote its twin, and a short row raised KeyError."""
    path = tmp_path / "trajectory.csv"
    write_trajectory(path, run_experiment(dataclasses.replace(default_sc, horizon_h=0.05)))
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    assert len(lines) == 1 + 19 * 20
    edit, message = MALFORMED[case]
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_trajectory(path)


def _short_trajectory_lines(path, default_sc) -> list[str]:
    """Write a 0.05 h run's trajectory.csv to ``path``; its lines as MALFORMED edits them."""
    write_trajectory(path, run_experiment(dataclasses.replace(default_sc, horizon_h=0.05)))
    return path.read_text(encoding="utf-8").split("\n")[:-1]


# More edits of the same file: refusals that the writer's format makes plain.
REFUSED = {
    "quoted cell": (lambda lines: _with_a_bad_cell(lines, 12, 4, '"107.9"'),
                    "line 12: a quoted cell; the writer never quotes"),
    "quoted comma": (lambda lines: _with_a_bad_cell(lines, 12, 4, '"107,9"'),
                     "line 12: a quoted cell; the writer never quotes"),
    "comment line": (lambda lines: lines[:7] + ["# a note"] + lines[7:],
                     "line 8: a comment line; the writer writes none"),
    "commented row": (lambda lines: lines[:7] + ["#" + lines[7]] + lines[8:],
                      "line 8: a comment line; the writer writes none"),
    "blank after header": (lambda lines: lines[:1] + [""] + lines[1:],
                           "line 2: 0 cells, the header has 11"),
    "step not an integer": (lambda lines: _with_a_bad_cell(lines, 4, 0, "0.0"),
                            "line 4: step '0.0' is not an integer"),
    "segment empty": (lambda lines: _with_a_bad_cell(lines, 4, 1, ""),
                      "line 4: segment '' is not an integer"),
    "not a number": (lambda lines: _with_a_bad_cell(lines, 9, 5, "abc"),
                     "line 9: q 'abc' is not a number"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_unwritable_trajectory_text_is_refused(tmp_path, default_sc, case):
    """Before, csv.reader unquoted '"107.9"' and read the row as intact, and a
    commented row or a cell that is not a number raised the bare ValueError of
    int() or float(), naming neither the path nor the line."""
    path = tmp_path / "trajectory.csv"
    edit, message = REFUSED[case]
    path.write_text("\n".join(edit(_short_trajectory_lines(path, default_sc))) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}, {message}")):
        read_trajectory(path)


@pytest.mark.parametrize("header, body, message", [
    (None, "", "empty file, no header"),
    (TRAJECTORY_COLUMNS, "", "no rows after the header"),
    (TRAJECTORY_COLUMNS, "\r\n", "line 2: 0 cells, the header has 11"),
    (TRAJECTORY_COLUMNS[:3] + TRAJECTORY_COLUMNS[4:], "rows", "line 1: the header is not"),
    (TRAJECTORY_COLUMNS + ("extra",), "rows", "line 1: the header is not"),
    (("segment", "step") + TRAJECTORY_COLUMNS[2:], "rows", "line 1: the header is not"),
], ids=["empty file", "header only", "blank body", "header lacks rho_a",
        "header has an extra column", "header reordered"])
def test_trajectory_without_the_header_or_rows_is_refused(tmp_path, default_sc, header, body,
                                                          message):
    """Before, an empty file raised StopIteration, a header-only file KeyError:
    'step' and a header without rho_a KeyError: 'rho_a'."""
    path = tmp_path / "trajectory.csv"
    lines = _short_trajectory_lines(path, default_sc)
    text = "" if header is None else ",".join(header) + "\r\n"
    text += "\r\n".join(lines[1:]) + "\r\n" if body == "rows" else body
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ValueError) as excinfo:
        read_trajectory(path)
    assert str(excinfo.value).startswith(str(path)) and message in str(excinfo.value)


@pytest.mark.parametrize("line", [1, 9], ids=["header", "row"])
def test_trajectory_that_is_not_utf8_is_refused_naming_the_line(tmp_path, default_sc, line):
    """A Latin-1 byte: before, a bare UnicodeDecodeError named neither the path nor the line."""
    path = tmp_path / "trajectory.csv"
    _short_trajectory_lines(path, default_sc)
    lines = path.read_bytes().split(b"\r\n")
    lines[line - 1] = lines[line - 1].replace(b",", b"\xe9,", 1)
    path.write_bytes(b"\r\n".join(lines))
    message = f"{path}, line {line}: byte 0xe9 is not UTF-8"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_trajectory(path)


def test_huge_trajectory_step_is_refused_without_a_grid_of_its_size(tmp_path, default_sc):
    """Before, the check counted rows on a grid sized by the largest step:
    a step of 10**5 in this file allocated 16 MB, and 10**15 would ask for
    petabytes."""
    path = tmp_path / "trajectory.csv"
    lines = _with_a_bad_cell(_short_trajectory_lines(path, default_sc), 4, 0, str(10**15))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"{path}: no row for step 0, segment 3")):
            read_trajectory(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_lf_and_crlf_trajectories_read_identically(tmp_path, default_sc):
    """The writer ends lines with CRLF; the MALFORMED edits write LF."""
    crlf = tmp_path / "crlf.csv"
    lines = _short_trajectory_lines(crlf, default_sc)
    assert crlf.read_bytes().count(b"\r\n") == len(lines)
    lf = tmp_path / "lf.csv"
    lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
    a, b = read_trajectory(crlf), read_trajectory(lf)
    assert a.keys() == b.keys() == set(TRAJECTORY_COLUMNS[2:])
    assert all(_same_bits(a[k], b[k]) for k in a)


def test_empty_trajectory_cells_read_as_nan(tmp_path, default_sc):
    path = tmp_path / "trajectory.csv"
    lines = _short_trajectory_lines(path, default_sc)
    lines = _with_a_bad_cell(lines, 23, 2, "")                      # rho of step 1, segment 2
    lines = _with_a_bad_cell(_with_a_bad_cell(lines, 5, 7, ""), 5, 8, "")  # rho_hat, q_hat
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    data = read_trajectory(path)
    assert np.isnan(data["rho"]).sum() == 1 and np.isnan(data["rho"][1, 1])
    assert np.isnan(data["rho_hat"][0, 3]) and np.isnan(data["q_hat"][0, 3])
    assert np.isnan(data["innovation"]).sum() == 20    # the final step's


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and float64 bits, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


# Values whose repr is at an edge: signed zeros, subnormals, the largest
# finite value, non-finite values, and both sides of repr's switch to an
# exponent below 1e-4 and from 1e16.
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
               1e-4, 9.999999999999999e-05, -1e-4, 1e16, 9999999999999998.0, 1.0000000000000002e16,
               -1e16, 0.1, 1 / 3]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(min_value=0, max_value=3),
       n=st.integers(min_value=1, max_value=4), truth_only=st.booleans())
def test_trajectory_round_trips_any_float64(tmp_path_factory, data, m, n, truth_only):
    """write_trajectory then read_trajectory returns every value bit for bit;
    the totals are the products of the drawn x_hat and connected columns."""
    values = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(width=64))

    def draw(shape):
        return np.array(data.draw(st.lists(values, min_size=math.prod(shape),
                                           max_size=math.prod(shape))), dtype=float).reshape(shape)

    truth_cols = {name: draw((m + 1, n)) for name in ("rho", "rho_a", "v", "q", "q_a")}
    states = SimpleNamespace(n_segments=n, **truth_cols)
    estimate = None
    if not truth_only:
        frames = SimpleNamespace(rho_a_seg=draw((m + 1, n)), q_a_seg=draw((m + 1, n)))
        estimate = SimpleNamespace(x_hat=draw((m + 1, n)), innovation=draw((m,)), frames=frames)
    result = SimpleNamespace(truth=SimpleNamespace(n_steps=m, states=states), estimate=estimate)
    path = tmp_path_factory.mktemp("roundtrip") / "trajectory.csv"
    with np.errstate(all="ignore"):               # the totals may be inf * 0 or overflow
        write_trajectory(path, result)
    back = read_trajectory(path)

    expected = dict(truth_cols)
    if truth_only:
        expected.update({name: np.full((m + 1, n), np.nan)
                         for name in ("rho_hat", "q_hat", "p_bar_hat", "innovation")})
    else:
        innovation = np.full((m + 1, n), np.nan)
        innovation[:-1] = estimate.innovation[:, None]
        with np.errstate(all="ignore"):
            rho_hat, q_hat = reconstruct_totals(estimate.x_hat, frames.rho_a_seg, frames.q_a_seg)
        expected.update(rho_hat=rho_hat, q_hat=q_hat, p_bar_hat=estimate.x_hat,
                        innovation=innovation)
    assert back.keys() == expected.keys()
    for name, want in expected.items():
        assert _same_bits(back[name], want), name


def test_reading_the_default_trajectory_peaks_below_three_times_its_arrays(tmp_path, default_result):
    """No cell becomes a Python string: the read's traced peak stays below 3x
    the nine returned arrays (1.56 MB), where csv.reader's peaked at 21.8 MB."""
    path = tmp_path / "trajectory.csv"
    write_trajectory(path, default_result)
    tracemalloc.start()
    try:
        data = read_trajectory(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in data.values())
    assert arrays == 9 * 1081 * 20 * 8
    assert peak < 3 * arrays


def test_metrics_and_sweep_files(tmp_path, default_sc, default_result):
    write_metrics(tmp_path / "metrics.csv", default_result)
    text = (tmp_path / "metrics.csv").read_text()
    assert "p_r" in text and repr(default_result.p_r) in text
    points = q_sweep(default_sc, [0.5, 2.0])
    write_sweep(tmp_path / "sweep.csv", points)
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as handle:
        back = [(float(row["sigma"]), float(row["p_r"])) for row in csv.DictReader(handle)]
    assert back == [(p.sigma, p.p_r) for p in points]


def test_observability_trace_refuses_bad_arguments_before_it_simulates(default_sc, default_result,
                                                                       monkeypatch):
    """A zero stride, or a run shorter than one window of N-1 = 19 steps, is
    refused from the scenario or the frames' count alone."""
    frames = default_result.truth.frames[:19]
    def unreachable(*args):
        raise AssertionError("simulated or built before the arguments were checked")

    monkeypatch.setattr(harness, "simulate_truth", unreachable)
    monkeypatch.setattr(harness, "build_systems", unreachable)
    with pytest.raises(ValueError, match="stride must be >= 1, got 0"):
        observability_trace(default_sc, stride=0)
    short = dataclasses.replace(default_sc, horizon_h=0.05)             # 18 steps
    with pytest.raises(ValueError, match="needs 19 steps for 20 segments; the run has 18"):
        observability_trace(short)
    with pytest.raises(ValueError, match="the run has 18"):
        observability_trace(default_sc, frames)


def test_observability_trace_windows(default_sc):
    short = dataclasses.replace(default_sc, horizon_h=0.25)  # 90 steps
    windows = observability_trace(short, stride=10)
    assert len(windows) == math.ceil((90 - 19 + 1) / 10)
    assert all(w.observable for w in windows)
    assert all(w.min_anti_diag > 1e-12 for w in windows)


@pytest.mark.parametrize("mode", ["measured", "unmeasured"])
def test_observability_trace_matches_dense_oracle(default_sc, default_result, mode):
    """Banded anti-diagonals equal the dense product chain bit for bit, every window."""
    sc = dataclasses.replace(default_sc, offramp_mode=mode)
    truth = default_result.truth
    systems = build_systems(sc, truth.frames[:truth.n_steps])
    window = sc.geometry.n_segments - 1
    oracle = np.abs(np.stack([anti_diagonal(observability_matrix(systems[k0:k0 + window]))
                              for k0 in range(len(systems) - window + 1)]))
    assert np.array_equal(np.abs(window_anti_diagonals(systems.sub)), oracle)
    windows = observability_trace(sc, frames=truth.frames)
    assert [w.start_step for w in windows] == list(range(len(oracle)))
    assert [w.min_anti_diag for w in windows] == oracle.min(axis=1).tolist()
    assert [w.max_anti_diag for w in windows] == oracle.max(axis=1).tolist()


def test_every_traced_span_resolves(monkeypatch):
    """The benchmark's tracer finds every library function it wraps; only
    check_observability, which no longer exists, is reported absent."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.tracer import Tracer
    assert Tracer().absent == ["mixedtraffic.harness.check_observability"]
