"""End-to-end pipeline: metrics, sweeps, CSV round-trips, regression values."""

import dataclasses
import math

import numpy as np
import pytest

import mixedtraffic as mt
from mixedtraffic.harness import (
    build_systems,
    observability_trace,
    performance_index,
    q_sweep,
    read_sweep,
    read_trajectory,
    run_experiment,
    simulate_only,
    write_metrics,
    write_sweep,
    write_trajectory,
)
from mixedtraffic.ltv import anti_diagonal, observability_matrix, window_anti_diagonals

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
    sc = dataclasses.replace(silent_sc, x0_value=float(x0[0]))
    res = run_experiment(sc)
    assert res.p_r < 1e-6


def test_estimated_density_tracks_congestion_wave(default_sc, default_result):
    """Segment-2 reconstruction follows the truth through the congestion."""
    truth, est = default_result.truth, default_result.estimate
    hours = np.arange(truth.n_steps + 1) * default_sc.geometry.step_h
    mid = (hours >= 1.0) & (hours <= 2.0)
    rho2 = truth.rho_matrix()[:, 1]
    rho2_hat = est.rho_hat[:, 1]
    rel_rms = np.sqrt(np.mean((rho2_hat[mid] - rho2[mid]) ** 2)) / rho2[mid].mean()
    assert rel_rms < 0.05
    for step, frozen in GOLDEN_RHO2_HAT.items():
        assert rho2_hat[step] == pytest.approx(frozen, abs=1e-9)


def test_congestion_signature(default_sc, default_result):
    rho = default_result.truth.rho_matrix()
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


def test_trajectory_csv_roundtrip(tmp_path, default_sc, default_result):
    path = tmp_path / "trajectory.csv"
    write_trajectory(path, default_result)
    data = read_trajectory(path)
    truth, est = default_result.truth, default_result.estimate
    assert np.array_equal(data["rho"], truth.rho_matrix())
    assert np.array_equal(data["rho_a"], truth.rho_a_matrix())
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


def test_metrics_and_sweep_files(tmp_path, default_sc, default_result):
    write_metrics(tmp_path / "metrics.csv", default_result)
    text = (tmp_path / "metrics.csv").read_text()
    assert "p_r" in text and repr(default_result.p_r) in text
    points = q_sweep(default_sc, [0.5, 2.0])
    write_sweep(tmp_path / "sweep.csv", points)
    back = read_sweep(tmp_path / "sweep.csv")
    assert [(p.sigma, p.p_r) for p in back] == [(p.sigma, p.p_r) for p in points]


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
    systems = build_systems(sc, truth)
    window = sc.geometry.n_segments - 1
    oracle = np.abs(np.stack([anti_diagonal(observability_matrix(systems[k0:k0 + window]))
                              for k0 in range(len(systems) - window + 1)]))
    assert np.array_equal(np.abs(window_anti_diagonals(systems)), oracle)
    windows = observability_trace(sc, truth=truth)
    assert [w.start_step for w in windows] == list(range(len(oracle)))
    assert [w.min_anti_diag for w in windows] == oracle.min(axis=1).tolist()
    assert [w.max_anti_diag for w in windows] == oracle.max(axis=1).tolist()
