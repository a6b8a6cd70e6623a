"""Traffic state estimation for highways with mixed conventional and connected vehicles.

A second-order macroscopic simulator provides ground truth; a linear
time-varying model of the connected-vehicle share, driven by connected-car
aggregates and a handful of boundary flow detectors, feeds a Kalman filter
that reconstructs total per-segment densities and flows.

The package namespace holds the entry points of an experiment; every other
name lives in its submodule (``mixedtraffic.harness.run_filter``,
``mixedtraffic.kalman.KalmanConfig``, ...).
"""

from .core import MetanetParams, inverse_penetration, nominal_speed
from .harness import q_sweep, run_experiment, simulate_truth
from .metanet import NoiseSpec
from .scenario import Scenario, default_scenario

__version__ = "0.1.0"

__all__ = [
    "MetanetParams",
    "NoiseSpec",
    "Scenario",
    "default_scenario",
    "inverse_penetration",
    "nominal_speed",
    "q_sweep",
    "run_experiment",
    "simulate_truth",
]
