"""Filter recursion, output construction, and total reconstruction."""

import numpy as np
import pytest

import mixedtraffic as mt
from mixedtraffic.core import inverse_penetration
from mixedtraffic.kalman import (
    PSD_TOL,
    KalmanConfig,
    filter_step,
    kalman_gain,
    output_measurement,
    reconstruct_totals,
)
from mixedtraffic.ltv import BandedLtv
from mixedtraffic.metanet import MeasurementFrame

from test_ltv import make_frame


def _system(a_mat, drive=None):
    """One step with the given lower-bidiagonal A and B u = ``drive`` (zero by default)."""
    a_mat = np.asarray(a_mat, dtype=float)
    n = a_mat.shape[0]
    drive = np.zeros(n) if drive is None else np.asarray(drive, dtype=float)
    return BandedLtv(diag=np.diag(a_mat)[None], sub=np.diag(a_mat, -1)[None], drive=drive[None],
                     g=np.ones((1, n)))


def test_gain_with_identity_covariance():
    """P=I, C=e_N, R=100: the gain is e_N / 101."""
    n = 6
    config = KalmanConfig.scaled_identity(n, q_sigma=1.0, r_cov=100.0, x0_value=10.0, p0_sigma=1.0)
    expected = np.zeros(n)
    expected[-1] = 1.0 / 101.0
    assert np.array_equal(kalman_gain(config.p0, config.r_cov), expected)


def test_gain_fill_in_spreads_upstream():
    """Subdiagonal coupling lets corrections reach earlier segments over time."""
    n = 6
    a = 0.7 * np.eye(n)
    a[np.arange(1, n), np.arange(n - 1)] = 0.3
    config = KalmanConfig.scaled_identity(n, q_sigma=1.0, r_cov=100.0, x0_value=10.0, p0_sigma=1.0)
    x, p = config.x0, config.p0
    for _ in range(n):
        x, p, _ = filter_step(x, p, _system(a), 0, z=5.0, config=config)
    assert np.count_nonzero(kalman_gain(p, config.r_cov)) > 1


def test_initial_gain_shape_for_scaled_covariance():
    """P0 = h*I puts the whole first correction on the measured segment."""
    n = 5
    h = 7.5
    config = KalmanConfig(q_cov=np.eye(n), r_cov=100.0, x0=np.full(n, 10.0),
                          p0=h * np.eye(n))
    gain = kalman_gain(config.p0, config.r_cov)
    assert gain[:-1].tolist() == [0.0] * (n - 1)
    assert gain[-1] == pytest.approx(h / (h + 100.0), abs=1e-15)


def test_huge_r_reduces_to_pure_prediction():
    n = 4
    rng = np.random.default_rng(1)
    a = np.diag(rng.uniform(0.5, 0.9, n))
    a[np.arange(1, n), np.arange(n - 1)] = rng.uniform(0.1, 0.4, n - 1)
    u = rng.uniform(0, 2000, n + 1)
    sys = _system(a, [u[1] + u[0], 0.0, 0.0, 0.0])   # entry and first ramp on segment 1
    config = KalmanConfig.scaled_identity(n, q_sigma=1.0, r_cov=1e12, x0_value=10.0, p0_sigma=1.0)
    x = rng.uniform(1, 9, n)
    x_next, _, _ = filter_step(x, np.eye(n), sys, 0, z=123.0, config=config)
    prediction = sys.propagate(0, x)
    assert np.allclose(x_next, prediction, rtol=1e-9)
    assert np.linalg.norm(kalman_gain(np.eye(n), config.r_cov)) < 1e-11


def test_scalar_recursion_matches_hand_computation():
    """N=1, A=a, C=1: one step against the written-out scalar formulas."""
    a, q, r = 0.93, 0.4, 2.5
    x0, p0, u, z = 4.0, 1.7, 800.0, 4.6
    sys = BandedLtv(diag=np.array([[a]]), sub=np.zeros((1, 0)), drive=np.array([[0.001 * u]]),
                    g=np.array([[1.0]]))
    config = KalmanConfig(q_cov=np.array([[q]]), r_cov=r, x0=np.array([x0]),
                          p0=np.array([[p0]]))
    x_next, p_next, _ = filter_step(config.x0, config.p0, sys, 0, z=z, config=config)
    k = p0 / (p0 + r)
    x1 = a * x0 + 0.001 * u + a * k * (z - x0)
    p1 = a * (1 - k) * p0 * a + q
    assert kalman_gain(config.p0, config.r_cov)[0] == pytest.approx(k, abs=1e-15)
    assert x_next[0] == pytest.approx(x1, abs=1e-12)
    assert p_next[0, 0] == pytest.approx(p1, abs=1e-12)


def test_covariance_stays_symmetric_psd(default_sc, default_result):
    assert default_result.estimate.min_p_eigenvalue >= -PSD_TOL
    # spot-check symmetry on a fresh short run
    truth = default_result.truth
    systems = mt.harness.build_systems(default_sc, truth.frames[:truth.n_steps])
    config = default_sc.filter_config()
    x, p = config.x0, config.p0
    for k in range(50):
        z, _ = output_measurement(truth.frames, k)
        x, p, _ = filter_step(x, p, systems, k, z, config)
        assert np.array_equal(p, p.T)


def test_exact_initialization_stays_exact(silent_sc, silent_truth):
    """Zero noise and exact start: run_filter's estimate tracks the true ratio."""
    states = silent_truth.states
    config = KalmanConfig(q_cov=np.eye(20), r_cov=100.0, x0=inverse_penetration(
        states[0].rho, states[0].rho_a), p0=np.eye(20))
    x_hat = mt.harness.run_filter(silent_sc, silent_truth.frames, config=config).x_hat
    ref = inverse_penetration(states.rho[1:], states.rho_a[1:])
    assert np.max(np.abs(x_hat[1:] - ref)) <= 1e-9


def test_config_validation():
    n = 3
    asym = np.eye(n)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        KalmanConfig(q_cov=asym, r_cov=1.0, x0=np.zeros(n), p0=np.eye(n))
    with pytest.raises(ValueError):
        KalmanConfig(q_cov=np.zeros((n, n)), r_cov=1.0, x0=np.zeros(n), p0=np.eye(n))
    with pytest.raises(ValueError):
        KalmanConfig(q_cov=np.eye(n), r_cov=0.0, x0=np.zeros(n), p0=np.eye(n))


@pytest.mark.parametrize("field", ["q_cov", "p0", "x0", "r_cov"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_values(field, value):
    n = 3
    fields = {"q_cov": np.eye(n), "r_cov": 1.0, "x0": np.zeros(n), "p0": np.eye(n)}
    fields[field] = np.full(np.shape(fields[field]), value)
    with pytest.raises(ValueError, match=f"{field} must be"):
        KalmanConfig(**fields)


def test_output_measurement_ratio():
    frame = make_frame(rho_a=[5.0, 5.0, 8.0], q_a=[500.0, 450.0, 400.0],
                       q0_a=500.0, qN_meas=2000.0)
    z, fallback = output_measurement(MeasurementFrame.stack([frame]), 0)
    assert z == 5.0 and not fallback


def test_output_measurement_linearity():
    frame = make_frame(rho_a=[5.0, 5.0, 8.0], q_a=[500.0, 450.0, 400.0],
                       q0_a=500.0, qN_meas=2025.0)
    z, _ = output_measurement(MeasurementFrame.stack([frame]), 0)
    assert z - 5.0 == 0.0625


def test_output_measurement_on_silent_run(silent_truth):
    """Noise-free output equals the exit density ratio (shared-speed identity)."""
    for k in range(0, 300, 13):
        z, fallback = output_measurement(silent_truth.frames, k)
        state = silent_truth.states[k]
        assert not fallback
        assert z == pytest.approx(state.rho[-1] / state.rho_a[-1], rel=1e-12)


def test_output_measurement_fallback():
    empty = make_frame(rho_a=[5.0, 5.0, 0.0], q_a=[500.0, 450.0, 0.0],
                       q0_a=500.0, qN_meas=100.0)
    z, fallback = output_measurement(MeasurementFrame.stack([empty]), 0, last_z=4.2)
    assert z == 4.2 and fallback
    with pytest.raises(ValueError):
        output_measurement(MeasurementFrame.stack([empty]), 0)


def test_reconstruct_totals():
    frame = make_frame(rho_a=[8.0], q_a=[400.0], q0_a=400.0)
    rho_hat, q_hat = reconstruct_totals(np.array([5.0]), frame.rho_a_seg, frame.q_a_seg)
    assert rho_hat.tolist() == [40.0] and q_hat.tolist() == [2000.0]


def test_reconstruct_exact_state_recovers_truth(silent_truth):
    state = silent_truth.states[40]
    frame = silent_truth.frames[40]
    x_true = inverse_penetration(state.rho, state.rho_a)
    rho_hat, q_hat = reconstruct_totals(x_true, frame.rho_a_seg, frame.q_a_seg)
    assert np.allclose(rho_hat, state.rho, rtol=1e-12)
    assert np.allclose(q_hat, state.q, rtol=1e-12)


def _first_failing_step(sys, config, z=5.0):
    """Step at which filter_step raises FloatingPointError, or None."""
    x, p = config.x0, config.p0
    for k in range(len(sys)):
        try:
            x, p, _ = filter_step(x, p, sys, k, z, config)
        except FloatingPointError:
            return k
    return None


def test_batch_fails_exactly_when_a_member_fails():
    """A = 2I leaves the upstream segments unobserved, so their variance grows
    4x a step and a huge Q overflows after a number of steps set by its size;
    the batch fails at the first step any member's own run fails, and not at
    all when none does."""
    n, m = 4, 60
    sys = BandedLtv(diag=np.full((m, n), 2.0), sub=np.zeros((m, n - 1)),
                    drive=np.zeros((m, n)), g=np.ones((m, n)))
    configs = [KalmanConfig.scaled_identity(n, q_sigma=q, r_cov=100.0, x0_value=10.0, p0_sigma=1.0)
               for q in (1.0, 1e290, 1e300)]
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [_first_failing_step(sys, c) for c in configs]
        assert alone[0] is None and alone[1] > alone[2] > 0
        assert _first_failing_step(sys, KalmanConfig.stack(configs)) == alone[2]
        assert _first_failing_step(sys, KalmanConfig.stack(configs[:2])) == alone[1]
    assert _first_failing_step(sys, KalmanConfig.stack(configs[:1])) is None


def test_stacked_config_validation():
    single = KalmanConfig.scaled_identity(3, q_sigma=1.0, r_cov=100.0, x0_value=10.0, p0_sigma=1.0)
    batch = KalmanConfig.stack([single, KalmanConfig.scaled_identity(
        3, q_sigma=2.0, r_cov=100.0, x0_value=10.0, p0_sigma=1.0)])
    assert batch.x0.shape == (2, 3) and batch.q_cov.shape == (2, 3, 3)
    with pytest.raises(ValueError):
        KalmanConfig(q_cov=batch.q_cov, r_cov=100.0, x0=batch.x0, p0=batch.p0)
    with pytest.raises(ValueError):
        KalmanConfig(q_cov=batch.q_cov, r_cov=np.array([1.0, 0.0]), x0=batch.x0, p0=batch.p0)
