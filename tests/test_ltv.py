"""LTV realization builders, closed-loop equivalence, and observability."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mixedtraffic as mt
from mixedtraffic.core import HighwayGeometry, RampLayout, inverse_penetration
from mixedtraffic.kalman import KalmanConfig, StepScratch, filter_step
from mixedtraffic.ltv import (
    EPS_G,
    OBSERVABILITY_TOL,
    BandedLtv,
    anti_diagonal,
    build_system_measured,
    build_system_unmeasured_offramps,
    interior_sensor_dead_columns,
    observability_matrix,
    selector_output,
    window_anti_diagonals,
)
from mixedtraffic.metanet import MeasurementFrame, NoiseSpec

# Geometry with T/Delta = 1/180 per segment, matching the worked examples.
GEOM3 = HighwayGeometry(n_segments=3, step_h=1 / 180, seg_len_km=1.0)
DEFAULT_SC = mt.default_scenario()


def on_road(geom, layout=RampLayout(), noise=NoiseSpec.silent()):
    """The stock scenario on ``geom`` with ``layout``, no on-ramp demand,
    ``noise`` and a one-step horizon: what the builders, ``observe`` and
    ``StepConstants.of`` read a road and its ramps from."""
    return dataclasses.replace(DEFAULT_SC, geometry=geom, layout=layout, onramp_demand={},
                               noise=noise, horizon_h=geom.step_h)


def make_frame(rho_a, q_a, q0_a, r_a=(), s_a=(), q0_meas=0.0, qN_meas=0.0,
               r_meas=None, s_meas=None):
    """One frame whose ramp fields hold one column per ramp; no ramps unless
    given, and ramp readings zero unless given."""
    r_a, s_a = np.asarray(r_a, dtype=float), np.asarray(s_a, dtype=float)
    return MeasurementFrame(
        q0_a=q0_a, q_a_seg=np.asarray(q_a, dtype=float),
        rho_a_seg=np.asarray(rho_a, dtype=float), r_a=r_a, s_a=s_a,
        q0_meas=q0_meas, qN_meas=qN_meas,
        r_meas=np.zeros_like(r_a) if r_meas is None else np.asarray(r_meas, dtype=float),
        s_meas=np.zeros_like(s_a) if s_meas is None else np.asarray(s_meas, dtype=float))


def test_build_g_zero_flows():
    frame = make_frame(rho_a=[4.0, 7.5, 2.0], q_a=[0.0, 0.0, 0.0], q0_a=0.0)
    g = build_system_measured(on_road(GEOM3), MeasurementFrame.stack([frame])).g
    assert g[0].tolist() == [4.0, 7.5, 2.0]


def test_build_g_worked_example():
    """rho_a=10, upstream 720, own 600, T/Delta=1/180 -> 10 + 120/180."""
    frame = make_frame(rho_a=[10.0, 10.0, 10.0], q_a=[600.0, 600.0, 600.0], q0_a=720.0)
    g = build_system_measured(on_road(GEOM3), MeasurementFrame.stack([frame])).g[0]
    assert g[0] == pytest.approx(10.0 + 120.0 / 180.0, abs=1e-12)
    assert g[1] == pytest.approx(10.0, abs=1e-12)


def test_build_g_floors_and_counts(silent_sc):
    frame = make_frame(rho_a=[0.1, 5.0, 5.0], q_a=[900.0, 900.0, 900.0], q0_a=0.0)
    sys = build_system_measured(on_road(GEOM3), MeasurementFrame.stack([frame]))
    assert sys.g[0, 0] == pytest.approx(1e-6)
    assert sys.n_clamped == 1


def test_g_predicts_next_connected_density(silent_sc, silent_truth):
    """Noise-free frames: g equals the simulator's next connected density."""
    g = build_system_measured(silent_sc, silent_truth.frames[:200]).g
    for k in range(0, 200, 7):
        assert np.allclose(g[k], silent_truth.states[k + 1].rho_a, rtol=0, atol=1e-12)


def test_measured_system_worked_row():
    """Row with rho_a=10, own flow 600, upstream 720: diag 0.625, sub 0.375."""
    frame = make_frame(rho_a=[10.0, 10.0, 10.0], q_a=[720.0, 600.0, 600.0],
                       q0_a=720.0, q0_meas=2000.0)
    sys = build_system_measured(on_road(GEOM3), MeasurementFrame.stack([frame]))
    assert sys.diag[0, 1] == pytest.approx(0.625, abs=1e-12)
    assert sys.sub[0, 0] == pytest.approx(0.375, abs=1e-12)
    assert sys.diag[0, 1] + sys.sub[0, 0] == pytest.approx(1.0, abs=1e-12)
    # structure: one diagonal and one sub-diagonal per step
    assert sys.diag.shape == (1, 3) and sys.sub.shape == (1, 2)
    # B couples the entry twice on the first row, then one input per segment
    g0 = 10.0 + (1 / 180) * (720.0 - 720.0)
    assert sys.drive[0, 0] == pytest.approx(2000.0 * (1 / 180) / g0)
    assert sys.drive[0, 1] == 0.0
    bu = sys.propagate(0, np.zeros(3))
    assert bu[0] == pytest.approx(2000.0 * (1 / 180) / g0)
    assert bu[1] == 0.0


def test_zero_connected_flow_gives_identity():
    frame = make_frame(rho_a=[3.0, 4.0, 5.0, 6.0], q_a=np.zeros(4), q0_a=0.0)
    geom = HighwayGeometry(n_segments=4, step_h=1 / 180, seg_len_km=1.0)
    sys = build_system_measured(on_road(geom), MeasurementFrame.stack([frame]))
    assert np.array_equal(sys.diag, np.ones((1, 4)))
    assert np.array_equal(sys.sub, np.zeros((1, 3)))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_row_sums_are_one_without_ramps(seed):
    """With no ramp terms, g absorbs exactly the row's numerators.

    Rows 2..N carry their upstream coupling inside A and sum to one; the
    first row's upstream mass enters through B and the entry flow, so its
    complement is exactly (T/Delta) q0_a / g_1.
    """
    rng = np.random.default_rng(seed)
    n = 6
    geom = HighwayGeometry(n_segments=n, step_h=10 / 3600, seg_len_km=0.5)
    frame = make_frame(rho_a=rng.uniform(2, 20, n), q_a=rng.uniform(50, 900, n),
                       q0_a=float(rng.uniform(50, 900)))
    sys = build_system_measured(on_road(geom), MeasurementFrame.stack([frame]))
    assume(sys.n_clamped == 0)  # the floor intentionally breaks the algebra
    assert np.allclose(sys.diag[0, 1:] + sys.sub[0], 1.0, rtol=0, atol=1e-12)
    entry_share = geom.t_over_delta[0] * frame.q0_a / sys.g[0, 0]
    assert sys.diag[0, 0] + entry_share == pytest.approx(1.0, abs=1e-12)


def test_unmeasured_with_zero_exit_rates_matches_measured():
    """An on-ramp at segment 2 and an off-ramp of exit rate 0 at every segment."""
    layout = RampLayout(on_ramp_segments=(2,), off_ramp_segments=(1, 2, 3), exit_rate=(0.0,) * 3)
    frame = make_frame(rho_a=[10.0, 8.0, 9.0], q_a=[700.0, 650.0, 620.0],
                       q0_a=710.0, r_a=[40.0], s_a=np.zeros(3), q0_meas=1950.0,
                       r_meas=[200.0])
    measured = build_system_measured(on_road(GEOM3, layout), MeasurementFrame.stack([frame]))
    unmeasured = build_system_unmeasured_offramps(on_road(GEOM3, layout),
                                                  MeasurementFrame.stack([frame]))
    for name in ("diag", "sub", "drive", "g"):
        assert np.array_equal(getattr(measured, name), getattr(unmeasured, name))


def test_unmeasured_exit_rate_rescales_coupling():
    """An exit rate at one segment scales its upstream coupling by (1-beta)."""
    n = 5
    geom = HighwayGeometry(n_segments=n, step_h=10 / 3600, seg_len_km=0.5)
    rho_a = np.array([8.0, 9.0, 7.0, 8.5, 9.5])
    q_a = np.array([600.0, 640.0, 580.0, 610.0, 630.0])
    s_a_flow = 0.1 * q_a[2]  # connected outflow implied at segment 4
    frame = make_frame(rho_a=rho_a, q_a=q_a, q0_a=650.0, s_a=[s_a_flow])
    layout = RampLayout(off_ramp_segments=(4,), exit_rate=(0.1,))
    sys = build_system_unmeasured_offramps(on_road(geom, layout), MeasurementFrame.stack([frame]))
    td = geom.step_h / 0.5
    g4 = rho_a[3] + td * (0.9 * q_a[2] - q_a[3])
    assert sys.g[0, 3] == pytest.approx(g4, abs=1e-12)
    assert sys.sub[0, 2] == pytest.approx(td * 0.9 * q_a[2] / g4, abs=1e-12)
    # rows without an off-ramp keep the plain coupling
    assert sys.sub[0, 0] == pytest.approx(td * q_a[0] / sys.g[0, 1], abs=1e-12)
    with pytest.raises(ValueError, match="exit_rate"):
        layout = RampLayout(off_ramp_segments=(4,), exit_rate=(1.0,))
        build_system_unmeasured_offramps(on_road(geom, layout), MeasurementFrame.stack([frame]))


def _per_segment(values, segments, n):
    """Length-n vector holding ``values`` at the 1-based ``segments``, zero elsewhere."""
    out = np.zeros(n)
    out[np.array(segments, dtype=int) - 1] = values
    return out


@pytest.mark.parametrize("build", [build_system_measured, build_system_unmeasured_offramps])
@pytest.mark.parametrize("ramps, message", [
    ({"r_a": [40.0, 0.0]}, r"^r_a: expected 1 columns"),
    ({"s_a": []}, r"^s_a: expected 1 columns"),
    ({"r_a": [40.0], "r_meas": [200.0, 0.0]}, r"^r_meas: expected shape"),
], ids=["two on-ramp columns", "no off-ramp column", "r_meas wider than r_a"])
def test_ramp_columns_other_than_the_layout_are_refused(build, ramps, message):
    """Frames must hold one column per ramp of the layout: one per on-ramp in
    ``r_a`` and ``r_meas`` and one per off-ramp in ``s_a`` and ``s_meas``."""
    layout = RampLayout(on_ramp_segments=(2,), off_ramp_segments=(3,), exit_rate=(0.1,))
    with pytest.raises(ValueError, match=message):
        frame = make_frame(rho_a=[10.0, 8.0, 9.0], q_a=[700.0, 650.0, 620.0], q0_a=710.0,
                           **{"r_a": [40.0], "s_a": [60.0], **ramps})
        build(on_road(GEOM3, layout), MeasurementFrame.stack([frame]))


@pytest.mark.parametrize("build", [build_system_measured, build_system_unmeasured_offramps])
@pytest.mark.parametrize("steps, geom, message", [
    (slice(0, 0), GEOM3, "^need at least one frame$"),
    (slice(None), HighwayGeometry(n_segments=4, step_h=1 / 180, seg_len_km=1.0),
     "^frame size does not match geometry$"),
], ids=["no frame", "four segments"])
def test_frames_that_do_not_fit_the_run_are_refused(build, steps, geom, message):
    frames = MeasurementFrame.stack([make_frame(rho_a=[10.0, 8.0, 9.0], q_a=[700.0, 650.0, 620.0],
                                                q0_a=710.0)] * 2)
    with pytest.raises(ValueError, match=message):
        build(on_road(geom), frames[steps])


@pytest.mark.parametrize("field", ["sub", "drive", "g"])
def test_banded_ltv_refuses_bands_of_another_shape(field):
    bands = {"diag": np.ones((2, 3)), "sub": np.ones((2, 2)), "drive": np.ones((2, 3)),
             "g": np.ones((2, 3))}
    BandedLtv(**bands)
    with pytest.raises(ValueError, match=f"^{field} must have shape"):
        BandedLtv(**{**bands, field: np.ones((3, 3))})


@pytest.mark.parametrize("mode", ["measured", "unmeasured"])
def test_build_allocates_one_scratch_array_beside_its_output(default_sc, mode):
    """On a 200-segment, half-hour run, the traced peak of the build stays
    below the arrays it returns plus one (M, N) float array, plus 10%."""
    sc = dataclasses.replace(default_sc, offramp_mode=mode, horizon_h=0.5, geometry=HighwayGeometry(
        n_segments=200, step_h=default_sc.geometry.step_h, seg_len_km=0.5))
    truth = mt.simulate_truth(sc)
    frames = truth.frames[:truth.n_steps]
    tracemalloc.start()
    try:
        systems = mt.harness.build_systems(sc, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(getattr(systems, name).nbytes for name in ("diag", "sub", "drive", "g"))
    assert peak < 1.1 * (returned + systems.diag.size * 8)


def _textbook_realization(frame, geom, layout, unmeasured=False):
    """Dense A, B and u of one frame, assembled entry by entry from the model."""
    n = geom.n_segments
    td = geom.t_over_delta
    r_a, r_meas = (_per_segment(v, layout.on_ramp_segments, n) for v in (frame.r_a, frame.r_meas))
    s_a, s_meas = (_per_segment(v, layout.off_ramp_segments, n) for v in (frame.s_a, frame.s_meas))
    q_up = np.concatenate(([frame.q0_a], frame.q_a_seg[:-1]))
    if not unmeasured:
        flow_up = q_up
        g = frame.rho_a_seg + td * (q_up - frame.q_a_seg + r_a - s_a)
        u = np.concatenate(([frame.q0_meas], r_meas - s_meas))
    else:
        beta = _per_segment(layout.exit_rate_a, layout.off_ramp_segments, n)
        flow_up = (1.0 - beta) * q_up
        g = frame.rho_a_seg + td * (flow_up - frame.q_a_seg) + td * r_a
        u = np.concatenate(([frame.q0_meas], r_meas))
    g = np.where(g <= EPS_G, EPS_G, g)
    a = np.zeros((n, n))
    b = np.zeros((n, n + 1))
    for i in range(n):
        a[i, i] = (frame.rho_a_seg[i] - td[i] * frame.q_a_seg[i]) / g[i]
        if i > 0:
            a[i, i - 1] = td[i] * flow_up[i] / g[i]
        b[i, i + 1] = td[i] / g[i]
    b[0, 0] = td[0] / g[0]
    return a, b, u


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=30), seed=st.integers(min_value=0, max_value=2**32 - 1),
       unmeasured=st.booleans(), sparse=st.booleans())
def test_band_matches_dense_textbook_realization(n, seed, unmeasured, sparse):
    """Stacked A(k), B(k) u(k) and one filter step against dense algebra, with
    an on- and an off-ramp at every segment or, ``sparse``, at a random
    subset of segments listed in random order."""
    rng = np.random.default_rng(seed)
    geom = HighwayGeometry(n_segments=n, step_h=10 / 3600, seg_len_km=0.5)
    frames = MeasurementFrame.stack([
        make_frame(rho_a=rng.uniform(6, 30, n), q_a=rng.uniform(0, 1000, n),
                   q0_a=float(rng.uniform(0, 1000)), r_a=rng.uniform(0, 100, n),
                   s_a=rng.uniform(0, 100, n), q0_meas=float(rng.uniform(0, 5000)),
                   r_meas=rng.uniform(0, 500, n), s_meas=rng.uniform(0, 500, n))
        for _ in range(3)])
    beta = rng.uniform(0, 0.5, n) if unmeasured else np.zeros(n)
    on = off = np.arange(n)
    if sparse:
        on, off = (rng.permutation(n)[:rng.integers(0, n + 1)] for _ in range(2))
        frames = dataclasses.replace(frames, r_a=frames.r_a[:, on], r_meas=frames.r_meas[:, on],
                                     s_a=frames.s_a[:, off], s_meas=frames.s_meas[:, off])
    layout = RampLayout(on_ramp_segments=on + 1, off_ramp_segments=off + 1, exit_rate=beta[off])
    build = build_system_unmeasured_offramps if unmeasured else build_system_measured
    sys = build(on_road(geom, layout), frames)
    assert len(sys) == 3
    for k, frame in enumerate(frames):
        a, b, u = _textbook_realization(frame, geom, layout, unmeasured)
        assert np.array_equal(np.diag(sys.diag[k]) + np.diag(sys.sub[k], -1), a)
        np.testing.assert_allclose(sys.propagate(k, np.zeros(n)), b @ u, rtol=1e-12, atol=1e-12)

    k = int(rng.integers(0, 3))
    a, b, u = _textbook_realization(frames[k], geom, layout, unmeasured)
    root = rng.standard_normal((n, n))
    config = KalmanConfig(q_sigma=1.0, r_cov=float(rng.uniform(1, 100)), p0_sigma=1.0)
    x = rng.uniform(1, 10, n)
    p = root @ root.T + np.eye(n)
    z = float(rng.uniform(1, 10))
    x_step, p_step, _ = filter_step(x, p, sys, k, z, StepScratch(config, n))
    c = np.zeros(n)
    c[-1] = 1.0
    gain = p @ c / (c @ p @ c + config.r_cov)
    p_next = a @ (p - np.outer(gain, c @ p)) @ a.T + config.q_sigma * np.eye(n)
    x_next = a @ x + b @ u + a @ gain * (z - c @ x)
    np.testing.assert_allclose(p_step, p_next, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(x_step, x_next, rtol=1e-12, atol=1e-12)


def _closed_loop_deviation(sc, truth, mode):
    sc = dataclasses.replace(sc, offramp_mode=mode)
    systems = mt.harness.build_systems(sc, truth.frames[:truth.n_steps])
    x = inverse_penetration(truth.states[0].rho, truth.states[0].rho_a)
    worst = 0.0
    for k in range(len(systems)):
        x = systems.propagate(k, x)
        ref = inverse_penetration(truth.states[k + 1].rho, truth.states[k + 1].rho_a)
        worst = max(worst, float(np.max(np.abs(x - ref))))
    return worst


def test_closed_loop_matches_density_ratio(silent_sc, silent_truth):
    """Propagating the realization reproduces rho/rho_a from the simulator."""
    assert _closed_loop_deviation(silent_sc, silent_truth, "measured") < 1e-9
    assert _closed_loop_deviation(silent_sc, silent_truth, "unmeasured") < 1e-9


def _manual_system(a_mat):
    """One step with the given lower-bidiagonal A and no input."""
    a_mat = np.asarray(a_mat, dtype=float)
    n = a_mat.shape[0]
    return BandedLtv(diag=np.diag(a_mat)[None], sub=np.diag(a_mat, -1)[None],
                     drive=np.zeros((1, n)), g=np.ones((1, n)))


def test_observability_matrix_two_by_two():
    sys = _manual_system([[0.7, 0.0], [0.3, 0.9]])
    o = observability_matrix(sys)
    assert np.array_equal(o, np.array([[0.0, 1.0], [0.3, 0.9]]))
    assert np.linalg.det(o) == pytest.approx(-0.3, abs=1e-15)


def test_zero_coupling_kills_observability():
    sys_ok = _manual_system([[0.7, 0.0], [0.3, 0.9]])
    sys_bad = _manual_system([[0.7, 0.0], [0.0, 0.9]])
    assert np.all(np.abs(window_anti_diagonals(sys_ok.sub)) > OBSERVABILITY_TOL)
    assert not np.all(np.abs(window_anti_diagonals(sys_bad.sub)) > OBSERVABILITY_TOL)
    assert np.linalg.det(observability_matrix(sys_bad)) == 0.0


def _random_frame_systems(rng, n, geom, steps):
    frames = MeasurementFrame.stack([
        make_frame(rho_a=rng.uniform(2, 20, n), q_a=rng.uniform(100, 800, n),
                   q0_a=float(rng.uniform(100, 800)))
        for _ in range(steps)])
    return build_system_measured(on_road(geom), frames)


def test_determinant_equals_antidiagonal_product():
    """|det O| is the product of anti-diagonal magnitudes (checked in logs)."""
    n = 20
    geom = HighwayGeometry(n_segments=n, step_h=10 / 3600, seg_len_km=0.5)
    rng = np.random.default_rng(17)
    for _ in range(10):
        systems = _random_frame_systems(rng, n, geom, n - 1)
        o = observability_matrix(systems)
        sign, logdet = np.linalg.slogdet(o)
        assert sign != 0
        log_prod = float(np.sum(np.log(np.abs(anti_diagonal(o)))))
        assert abs(np.expm1(logdet - log_prod)) < 1e-9


def test_interior_sensor_zeroes_columns():
    """Moving the sensor to segment J < N zeroes columns J+1..N of O."""
    n = 8
    geom = HighwayGeometry(n_segments=n, step_h=10 / 3600, seg_len_km=0.5)
    rng = np.random.default_rng(4)
    systems = _random_frame_systems(rng, n, geom, n - 1)
    for j in (1, 3, n - 1):
        o = observability_matrix(systems, output_row=selector_output(n, j))
        zero_cols = [c for c in range(n) if not o[:, c].any()]
        assert zero_cols == list(range(j, n))  # 0-based columns j..n-1
        assert interior_sensor_dead_columns(systems, j) == list(range(j + 1, n + 1))
    assert interior_sensor_dead_columns(systems, n) == []


def test_window_too_short_raises():
    n = 4
    geom = HighwayGeometry(n_segments=n, step_h=10 / 3600, seg_len_km=0.5)
    systems = _random_frame_systems(np.random.default_rng(0), n, geom, n - 2)
    with pytest.raises(ValueError):
        observability_matrix(systems)
