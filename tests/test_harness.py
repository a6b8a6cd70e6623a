"""End-to-end pipeline: metrics, sweeps, CSV round-trips, regression values."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

import mixedtraffic as mt
from mixedtraffic import harness
from mixedtraffic.harness import (
    TRAJECTORY_COLUMNS,
    build_systems,
    observability_trace,
    performance_index,
    q_sweep,
    read_sweep,
    read_trajectory,
    run_experiment,
    run_filter,
    simulate_only,
    write_metrics,
    write_sweep,
    write_trajectory,
)
from mixedtraffic.kalman import PSD_TOL, FilterState, KalmanConfig, filter_step, output_measurement
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


@pytest.mark.parametrize("sigmas", [[float("nan")], [1.0, float("inf")], []])
def test_sweep_rejects_nonfinite_or_empty_sigmas_before_simulating(default_sc, monkeypatch,
                                                                  sigmas):
    def refuse(sc):
        raise AssertionError("simulated before validating the sigmas")
    monkeypatch.setattr(harness, "simulate_truth", refuse)
    with pytest.raises(ValueError, match="sigma"):
        q_sweep(default_sc, sigmas)


def _serial_run(truth, systems, config):
    """The unbatched filter loop: x_hat, innovations, and the exact smallest
    P eigenvalue of every step (P0 first)."""
    fs = FilterState.initial(config)
    x_hat, innovation = [fs.x_hat], []
    min_eigs = [np.min(np.linalg.eigvalsh(fs.p_cov))]
    last_z = None
    for k in range(truth.n_steps):
        z, _ = output_measurement(truth.frames, k, last_z)
        last_z = z
        fs = filter_step(fs, systems, k, z, config)
        x_hat.append(fs.x_hat)
        innovation.append(fs.innovation)
        min_eigs.append(np.min(np.linalg.eigvalsh(fs.p_cov)))
    return np.stack(x_hat), np.array(innovation), np.array(min_eigs)


@pytest.mark.parametrize("mode", ["measured", "unmeasured"])
def test_batch_members_equal_unbatched_runs(default_sc, default_result, monkeypatch, mode):
    """Each member of a batched run equals run_filter and the unbatched loop
    with its own config, bit for bit, and the sweep scores those estimates
    from one batched run_filter call."""
    sc = dataclasses.replace(default_sc, offramp_mode=mode)
    truth = default_result.truth
    systems = build_systems(sc, truth)
    sigmas = [0.01, 1.0, 100.0]
    configs = [KalmanConfig.scaled_identity(sc.geometry.n_segments, q_sigma=s,
                                            r_cov=sc.r_cov, x0_value=sc.x0_value,
                                            p0_sigma=sc.p0_sigma) for s in sigmas]
    batch = run_filter(sc, truth, systems=systems, config=KalmanConfig.stack(configs))
    m, n = truth.n_steps, sc.geometry.n_segments
    for field in ("x_hat", "rho_hat", "q_hat"):
        assert getattr(batch, field).shape == (len(sigmas), m + 1, n)
    assert batch.innovation.shape == (len(sigmas), m)
    assert batch.min_p_eigenvalue.shape == (len(sigmas),)

    calls = []

    def counting_run_filter(sc, truth, systems=None, config=None):
        calls.append(config.x0.shape[:-1])
        return run_filter(sc, truth, systems=systems, config=config)
    monkeypatch.setattr(harness, "run_filter", counting_run_filter)
    points = q_sweep(sc, sigmas)
    assert calls == [(len(sigmas),)]

    for i, config in enumerate(configs):
        est = run_filter(sc, truth, systems=systems, config=config)
        x_hat, innovation, min_eigs = _serial_run(truth, systems, config)
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
        assert points[i].p_r == performance_index(truth.rho_matrix(), truth.rho_a_matrix(),
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
    systems = build_systems(sc, truth)
    configs = [KalmanConfig.scaled_identity(sc.geometry.n_segments, q_sigma=s,
                                            r_cov=sc.r_cov, x0_value=sc.x0_value,
                                            p0_sigma=sc.p0_sigma) for s in sigmas]
    batch = run_filter(sc, truth, systems=systems, config=KalmanConfig.stack(configs))
    first_lost = []
    for i, config in enumerate(configs):
        est = run_filter(sc, truth, systems=systems, config=config)
        min_eigs = _serial_run(truth, systems, config)[2]
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
    """Member 0's covariance is pushed below zero at step 5.  Member 1 then
    has its eigenvalues computed there too, but keeps the minimum of its own
    unbatched run, in which that step's eigenvalue (near sigma = 0.01) is
    below its reported minimum but not below -PSD_TOL."""
    truth, n = default_result.truth, default_sc.geometry.n_segments
    configs = [KalmanConfig.scaled_identity(n, q_sigma=s) for s in (1.0, 0.01)]

    def failing_filter_step(fs, sys, k, z, config):
        fs = filter_step(fs, sys, k, z, config)
        if k == 5 and fs.p_cov.ndim == 3:
            p_cov = fs.p_cov.copy()
            p_cov[0] -= 2 * np.eye(n)
            fs = dataclasses.replace(fs, p_cov=p_cov)
        return fs
    monkeypatch.setattr(harness, "filter_step", failing_filter_step)
    batch = run_filter(default_sc, truth, config=KalmanConfig.stack(configs))
    alone = run_filter(default_sc, truth, config=configs[1])
    assert batch.min_p_eigenvalue[0] < -PSD_TOL
    assert batch.min_p_eigenvalue[1] == alone.min_p_eigenvalue
    min_eigs = _serial_run(truth, build_systems(default_sc, truth), configs[1])[2]
    assert -PSD_TOL < min_eigs[6] < alone.min_p_eigenvalue


def test_sweep_fails_when_one_member_overflows(default_sc):
    """Q = 1e308 I overflows the covariance on the first step, alone or batched."""
    short = dataclasses.replace(default_sc, horizon_h=0.05)
    huge = KalmanConfig.scaled_identity(short.geometry.n_segments, q_sigma=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            run_filter(short, mt.simulate_truth(short), config=huge)
        with pytest.raises(FloatingPointError):
            q_sweep(short, [1.0, 1e308])
    assert len(q_sweep(short, [1.0, 1e307])) == 2


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


def test_trajectory_csv_bytes_match_cell_by_cell_repr(tmp_path, default_sc):
    short = dataclasses.replace(default_sc, horizon_h=0.05)
    for result in (run_experiment(short), simulate_only(short)):
        path = tmp_path / "trajectory.csv"
        write_trajectory(path, result)
        assert path.read_bytes() == _trajectory_text_cell_by_cell(result).encode("utf-8")


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
