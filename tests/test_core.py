"""Domain types and the algebraic relations shared by simulator and estimator."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mixedtraffic.core import (
    BoundaryInputs,
    HighwayGeometry,
    MetanetParams,
    RampLayout,
    TrafficState,
    flows_from_state,
    inverse_penetration,
    nominal_speed,
)

PARAMS = MetanetParams.defaults()

# Frozen from a 40-digit evaluation of the speed law with the default
# parameters (v_free=120, rho_crit=33.5, alpha=1.4324).
SPEED_AT_CRITICAL = 59.701833304205503
SPEED_AT_TWICE_CRITICAL = 18.233747846890534


def test_nominal_speed_at_zero_density():
    assert nominal_speed(0.0, PARAMS) == 120.0


def test_nominal_speed_at_critical_density():
    assert nominal_speed(33.5, PARAMS) == pytest.approx(SPEED_AT_CRITICAL, abs=1e-9)


def test_nominal_speed_at_twice_critical():
    assert nominal_speed(67.0, PARAMS) == pytest.approx(SPEED_AT_TWICE_CRITICAL, abs=1e-9)


def test_nominal_speed_rejects_negative_density():
    with pytest.raises(ValueError):
        nominal_speed(-1.0, PARAMS)
    with pytest.raises(ValueError):
        nominal_speed(np.array([3.0, -0.1]), PARAMS)


@given(st.floats(min_value=0.0, max_value=300.0),
       st.floats(min_value=1e-6, max_value=100.0))
def test_nominal_speed_strictly_decreasing(rho, gap):
    assert nominal_speed(rho, PARAMS) > nominal_speed(rho + gap, PARAMS)


@given(st.floats(min_value=0.0, max_value=500.0))
def test_nominal_speed_bounded_by_free_speed(rho):
    v = nominal_speed(rho, PARAMS)
    assert 0.0 < v <= PARAMS.v_free


def test_flows_from_state_products():
    q, q_a = flows_from_state([20.0], [4.0], [100.0])
    assert q.tolist() == [2000.0]
    assert q_a.tolist() == [400.0]


def test_flows_zero_speed():
    q, q_a = flows_from_state([30.0, 40.0], [3.0, 4.0], [0.0, 0.0])
    assert not q.any() and not q_a.any()


def test_flows_full_penetration():
    rho = np.array([10.0, 25.0])
    q, q_a = flows_from_state(rho, rho, [80.0, 50.0])
    assert np.array_equal(q, q_a)


def test_flows_length_mismatch():
    with pytest.raises(ValueError):
        flows_from_state([1.0, 2.0], [1.0], [50.0, 50.0])


@given(st.floats(min_value=0.5, max_value=200.0),
       st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=1.0, max_value=130.0))
def test_flow_ratio_matches_density_ratio(rho, share, v):
    """Shared speed makes q_a/q and rho_a/rho the same number."""
    rho_a = share * rho
    q, q_a = flows_from_state([rho], [rho_a], [v])
    assert q_a[0] / q[0] == pytest.approx(rho_a / rho, rel=1e-12)
    assert q[0] / q_a[0] == pytest.approx(inverse_penetration([rho], [rho_a])[0], rel=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        HighwayGeometry(n_segments=1, step_h=0.01, seg_len_km=0.5)
    with pytest.raises(ValueError):
        HighwayGeometry(n_segments=4, step_h=0.0, seg_len_km=0.5)
    with pytest.raises(ValueError):
        HighwayGeometry(n_segments=4, step_h=0.01, seg_len_km=[0.5, 0.5, 0.0, 0.5])


def test_geometry_stores_lengths_per_segment():
    geom = HighwayGeometry(n_segments=3, step_h=0.01, seg_len_km=[0.4, 0.5, 0.6])
    assert geom.seg_len_km.tolist() == [0.4, 0.5, 0.6]
    assert np.allclose(geom.t_over_delta, [0.025, 0.02, 0.01 / 0.6])


def test_cfl_check():
    geom = HighwayGeometry(n_segments=20, step_h=10 / 3600, seg_len_km=0.5)
    assert geom.cfl_ok(120.0)          # 0.333 km per step vs 0.5 km segments
    assert not geom.cfl_ok(200.0)      # 0.556 km per step


def test_traffic_state_invariants():
    with pytest.raises(ValueError):
        TrafficState(rho=np.array([-1.0, 2.0]), rho_a=np.zeros(2), v=np.zeros(2),
                     q=np.zeros(2), q_a=np.zeros(2))
    with pytest.raises(ValueError):  # connected density above total
        TrafficState(rho=np.array([5.0, 5.0]), rho_a=np.array([6.0, 1.0]),
                     v=np.zeros(2), q=np.zeros(2), q_a=np.zeros(2))


def test_traffic_state_from_densities():
    state = TrafficState.from_densities([20.0, 10.0], [4.0, 2.0], [100.0, 110.0])
    assert state.q.tolist() == [2000.0, 1100.0]
    assert state.q_a.tolist() == [400.0, 220.0]


def test_ramp_layout_validation():
    with pytest.raises(ValueError):
        RampLayout(off_ramp_segments=(4,), exit_rate=(1.0,))  # rate must be < 1
    with pytest.raises(ValueError):
        RampLayout(off_ramp_segments=(4, 8), exit_rate=(0.1,))  # misaligned


@pytest.mark.parametrize("seg_len_km", [0.5, [0.5] * 20], ids=["one length", "per segment"])
@pytest.mark.parametrize("bad", [20.0, True])
def test_segment_counts_that_are_not_integers_are_refused(bad, seg_len_km):
    """Refused by name, not built as a float or failed inside np.full; a file
    never reaches this check, since the loader refuses such a value."""
    with pytest.raises(ValueError, match=f"^n_segments must be an integer, got {bad}$"):
        HighwayGeometry(bad, 0.01, seg_len_km)
    geom = HighwayGeometry(np.int64(20), 0.01, seg_len_km)
    assert geom.n_segments == 20 and geom.seg_len_km.shape == (20,)


@pytest.mark.parametrize("bad", [2.7, True, 2.0])
@pytest.mark.parametrize("field", ["on_ramp_segments", "off_ramp_segments"])
def test_ramp_segments_that_are_not_integers_are_refused(field, bad):
    """int() used to truncate them: 2.7 became segment 2 and True segment 1.
    A file never reaches this check, since the loader refuses such a value."""
    with pytest.raises(ValueError, match=f"^{field} entries must be integers"):
        RampLayout(**{field: (4, bad)})
    assert getattr(RampLayout(**{field: np.array([4, 2])}), field) == (4, 2)


def test_boundary_inputs_validation():
    with pytest.raises(ValueError):
        BoundaryInputs(q0=100.0, q0_a=200.0, r=np.zeros(3), r_a=np.zeros(3),
                       s=np.zeros(3), s_a=np.zeros(3))
    with pytest.raises(ValueError):
        BoundaryInputs(q0=100.0, q0_a=20.0, r=np.zeros(3), r_a=np.ones(3),
                       s=np.zeros(3), s_a=np.zeros(3))
