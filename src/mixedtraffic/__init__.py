"""Traffic state estimation for highways with mixed conventional and connected vehicles.

A second-order macroscopic simulator provides ground truth; a linear
time-varying model of the connected-vehicle share, driven by connected-car
aggregates and a handful of boundary flow detectors, feeds a Kalman filter
that reconstructs total per-segment densities and flows.
"""

from .core import (
    EPS_DENSITY,
    BoundaryInputs,
    HighwayGeometry,
    MetanetParams,
    RampLayout,
    TrafficState,
    flows_from_state,
    inverse_penetration,
    nominal_speed,
    penetration,
)
from .harness import (
    EstimateRun,
    RunResult,
    SweepPoint,
    performance_index,
    q_sweep,
    run_experiment,
    run_filter,
    simulate_truth,
)
from .kalman import (
    FilterState,
    KalmanConfig,
    filter_step,
    output_measurement,
    reconstruct_totals,
)
from .ltv import (
    BandedLtv,
    anti_diagonal,
    build_system_measured,
    build_system_unmeasured_offramps,
    interior_sensor_dead_columns,
    observability_matrix,
    selector_output,
)
from .metanet import (
    MeasurementFrame,
    NoiseSpec,
    PiecewiseLinear,
    TruthRun,
    TruthSimulator,
    observe,
    offramp_outflows,
    step_truth,
)
from .scenario import Scenario, ScenarioError, default_scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "BandedLtv",
    "BoundaryInputs",
    "EPS_DENSITY",
    "EstimateRun",
    "FilterState",
    "HighwayGeometry",
    "KalmanConfig",
    "MeasurementFrame",
    "MetanetParams",
    "NoiseSpec",
    "PiecewiseLinear",
    "RampLayout",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SweepPoint",
    "TrafficState",
    "TruthRun",
    "TruthSimulator",
    "anti_diagonal",
    "build_system_measured",
    "build_system_unmeasured_offramps",
    "default_scenario",
    "filter_step",
    "flows_from_state",
    "interior_sensor_dead_columns",
    "inverse_penetration",
    "load_scenario",
    "nominal_speed",
    "observability_matrix",
    "observe",
    "offramp_outflows",
    "output_measurement",
    "penetration",
    "performance_index",
    "q_sweep",
    "reconstruct_totals",
    "run_experiment",
    "run_filter",
    "selector_output",
    "simulate_truth",
    "step_truth",
]
