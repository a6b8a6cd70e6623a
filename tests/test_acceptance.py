"""Acceptance gate: one test per shipped criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines;
each criterion also fails its test on violation.
"""

import dataclasses
import time

import numpy as np

import mixedtraffic as mt
from mixedtraffic.core import HighwayGeometry, inverse_penetration
from mixedtraffic.harness import (build_systems, performance_index, q_sweep, run_experiment,
                                  run_filter)
from mixedtraffic.kalman import (PSD_TOL, KalmanConfig, StepScratch, filter_step,
                                 output_measurement)
from mixedtraffic.ltv import anti_diagonal, build_system_measured, observability_matrix, selector_output
from mixedtraffic.metanet import MeasurementFrame

from test_harness import GOLDEN_P_R_MEASURED
from test_ltv import make_frame, on_road


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_percentage_model_equivalence(silent_sc):
    """Noise-free closed loop matches the density ratio for both variants, < 1 s."""
    start = time.perf_counter()
    truth = mt.simulate_truth(silent_sc)
    devs = {}
    for mode in ("measured", "unmeasured"):
        systems = build_systems(dataclasses.replace(silent_sc, offramp_mode=mode),
                                truth.frames[:truth.n_steps])
        x = inverse_penetration(truth.states[0].rho, truth.states[0].rho_a)
        worst = 0.0
        for k in range(len(systems)):
            x = systems.propagate(k, x)
            ref = inverse_penetration(truth.states[k + 1].rho, truth.states[k + 1].rho_a)
            worst = max(worst, float(np.max(np.abs(x - ref))))
        devs[mode] = worst
    elapsed = time.perf_counter() - start
    ok = all(d < 1e-9 for d in devs.values()) and elapsed < 1.0
    _report(1, "percentage-model equivalence", ok,
            f"max dev measured={devs['measured']:.2e}, "
            f"unmeasured={devs['unmeasured']:.2e}, runtime={elapsed:.2f}s")


def test_criterion_2_observability():
    """det(O) vs anti-diagonal product on random frames; interior sensors fail."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    all_nonzero = True
    for trial in range(100):
        n = int(rng.integers(2, 21))
        geom = HighwayGeometry(n_segments=n, step_h=10 / 3600, seg_len_km=0.5)
        systems = build_system_measured(on_road(geom), MeasurementFrame.stack(
            [make_frame(rho_a=rng.uniform(2, 20, n), q_a=rng.uniform(100, 800, n),
                        q0_a=float(rng.uniform(100, 800)))
             for _ in range(n - 1)]))
        o = observability_matrix(systems)
        sign, logdet = np.linalg.slogdet(o)
        log_prod = float(np.sum(np.log(np.abs(anti_diagonal(o)))))
        all_nonzero &= sign != 0 and np.all(anti_diagonal(o) != 0)
        worst_rel = max(worst_rel, abs(float(np.expm1(logdet - log_prod))))
        if trial % 10 == 0:  # interior sensor: exactly n-j zero columns
            j = int(rng.integers(1, n))
            o_j = observability_matrix(systems, output_row=selector_output(n, j))
            zero_cols = [c for c in range(n) if not o_j[:, c].any()]
            all_nonzero &= zero_cols == list(range(j, n))
    elapsed = time.perf_counter() - start
    ok = worst_rel < 1e-9 and all_nonzero and elapsed < 1.0
    _report(2, "observability", ok,
            f"worst |det/prod - 1|={worst_rel:.2e}, runtime={elapsed:.2f}s")


def test_criterion_3_filter_exactness(silent_sc):
    """Zero noise, exact initialization: error <= 1e-9 and P stays PSD."""
    truth = mt.simulate_truth(silent_sc)
    systems = build_systems(silent_sc, truth.frames[:truth.n_steps])
    n = silent_sc.geometry.n_segments
    x0 = inverse_penetration(truth.states[0].rho, truth.states[0].rho_a)
    config = KalmanConfig(q_sigma=1.0, r_cov=silent_sc.filter.r_cov, p0_sigma=1.0)
    x, p = x0, np.eye(n)
    worst_err = 0.0
    min_eig = float(np.min(np.linalg.eigvalsh(p)))
    symmetric = True
    scratch = StepScratch(config, n)
    for k in range(len(systems)):
        z, _ = output_measurement(truth.frames, k)
        x, p, _ = filter_step(x, p, systems, k, z, scratch)
        ref = inverse_penetration(truth.states[k + 1].rho, truth.states[k + 1].rho_a)
        worst_err = max(worst_err, float(np.max(np.abs(x - ref))))
        symmetric &= bool(np.array_equal(p, p.T))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(p))))
    ok = worst_err <= 1e-9 and symmetric and min_eig >= -PSD_TOL
    _report(3, "filter exactness", ok,
            f"max err={worst_err:.2e}, min P eig={min_eig:.2e}")


def test_criterion_4_convergence(default_sc, default_result):
    """From remote initialization, the shares of segments 2 and 8 lock on
    within 15 min.  The model does most of this: on the stock run P_R is
    0.0697 with the filter, 0.0703 with R = 1e12 and 0.0435 for a constant
    x_hat = 5 (measured at 9da9069); criterion 9 is the one that needs the
    measurement update."""
    truth, est = default_result.truth, default_result.estimate
    pen_true = truth.states.rho_a / np.maximum(truth.states.rho, 1e-6)
    pen_est = 1.0 / np.maximum(est.x_hat, 1e-6)
    settle_steps = round(0.25 / default_sc.geometry.step_h)  # 15 minutes
    details = []
    ok = True
    for seg in (2, 8):
        rel = np.abs(pen_est[:, seg - 1] - pen_true[:, seg - 1]) / pen_true[:, seg - 1]
        first_in_band = int(np.argmax(rel <= 0.10))
        frac = float(np.mean(rel[settle_steps:] <= 0.10))
        ok &= first_in_band <= settle_steps and frac >= 0.90
        details.append(f"seg{seg}: in-band@step {first_in_band}, tail frac {frac:.3f}")
    _report(4, "convergence", ok, "; ".join(details))


def test_criterion_5_congestion_reproduction(default_sc, default_result):
    """Middle-hour congestion at segment 2; onset at the merge, moving upstream."""
    rho = default_result.truth.states.rho
    hours = np.arange(rho.shape[0]) * default_sc.geometry.step_h
    rho_crit = default_sc.params.rho_crit
    rho2 = rho[:, 1]
    free_first = rho2[hours < 1.0].max() < rho_crit
    congested_mid = rho2[(hours >= 1.0) & (hours < 2.0)].max() > rho_crit
    free_last = rho2[hours >= 2.0].max() < rho_crit

    def crossing(seg):
        above = rho[:, seg - 1] > rho_crit
        return float(hours[np.argmax(above)]) if above.any() else None

    times = {seg: crossing(seg) for seg in range(1, 21)}
    onset_seg = min((t, s) for s, t in times.items() if t is not None)[1]
    upstream = all(times[s] is not None and times[s] > times[6] for s in (1, 2, 3, 4, 5))
    ok = free_first and congested_mid and free_last and onset_seg in (5, 6, 7) and upstream
    _report(5, "congestion reproduction", ok,
            f"rho2 max mid={rho2[(hours >= 1.0) & (hours < 2.0)].max():.1f}, "
            f"onset at segment {onset_seg}")


def test_criterion_6_q_robustness(default_sc):
    """P_R stays flat and below 15% across four decades of Q."""
    start = time.perf_counter()
    points = q_sweep(default_sc, [0.01, 0.1, 1.0, 10.0, 100.0])
    elapsed = time.perf_counter() - start
    values = [p.p_r for p in points]
    ok = max(values) / min(values) < 2.0 and max(values) < 0.15 and elapsed < 30.0
    _report(6, "Q robustness", ok,
            f"P_R range [{100 * min(values):.2f}%, {100 * max(values):.2f}%], "
            f"runtime={elapsed:.1f}s")


def test_criterion_7_conservation(silent_sc, silent_truth):
    """Noise-free step-by-step vehicle balance to 1e-9."""
    geom = silent_sc.geometry
    worst = 0.0
    for k in range(silent_truth.n_steps):
        state, nxt = silent_truth.states[k], silent_truth.states[k + 1]
        inp = silent_truth.inputs[k]
        gained = np.sum(geom.seg_len_km * nxt.rho) - np.sum(geom.seg_len_km * state.rho)
        boundary = geom.step_h * (inp.q0 - state.q[-1] + inp.r.sum() - inp.s.sum())
        worst = max(worst, abs(float(gained - boundary)))
    ok = worst < 1e-9
    _report(7, "conservation", ok, f"worst per-step imbalance={worst:.2e} veh")


def test_criterion_8_determinism_regression(default_sc):
    """Fixed scenario and seed reproduce the stored index to 1e-12."""
    p_r = run_experiment(default_sc).p_r
    ok = abs(p_r - GOLDEN_P_R_MEASURED) < 1e-12
    _report(8, "determinism regression", ok,
            f"P_R={p_r!r} vs golden {GOLDEN_P_R_MEASURED!r}")


# Criterion 9's margins: half the smallest gap between the filter and the same
# realization with R = 1e12 over seeds 1-12 (P_R gaps 0.0114-0.0126, exit
# error gaps 0.0743-0.0785; the default seed's are 0.0122 and 0.0764).
UPDATE_MARGIN_P_R = 0.006
UPDATE_MARGIN_EXIT = 0.04


def test_criterion_9_update_beats_no_update(default_sc):
    """Where the model is wrong (unmeasured off-ramps, beta_a = 0.02 against
    beta = 0.1), the measurement update beats the same realization run with
    R = 1e12, which all but switches it off: on P_R, and on the exit
    segment's RMS error over its mean density after the first hour."""
    sc = dataclasses.replace(default_sc, offramp_mode="unmeasured", layout=dataclasses.replace(
        default_sc.layout, exit_rate_a=(0.02,) * len(default_sc.layout.off_ramp_segments)))
    truth = mt.simulate_truth(sc)
    config = sc.filter
    batch = dataclasses.replace(sc, filter=KalmanConfig.stack(
        [config, dataclasses.replace(config, r_cov=1e12)]))
    rho, rho_a = truth.states.rho, truth.states.rho_a
    hour = round(1.0 / sc.geometry.step_h)
    scores = []
    for x_hat in run_filter(batch, truth.frames).x_hat:
        err = rho[hour:, -1] - rho_a[hour:, -1] * x_hat[hour:, -1]
        scores.append((performance_index(rho, rho_a, x_hat),
                       float(np.sqrt(np.mean(err ** 2)) / np.mean(rho[hour:, -1]))))
    (p_r, exit_err), (p_r_off, exit_off) = scores
    ok = p_r < p_r_off - UPDATE_MARGIN_P_R and exit_err < exit_off - UPDATE_MARGIN_EXIT
    _report(9, "update beats no update", ok,
            f"P_R {p_r:.4f} vs {p_r_off:.4f}, "
            f"exit error after 1 h {exit_err:.4f} vs {exit_off:.4f}")
