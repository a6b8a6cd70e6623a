"""Filter tuning sensitivity: sweep the process covariance over four decades.

Truth is generated once per mode and all five tunings run as one batch
through ``run_filter``, the same loop that runs a single filter.  The
performance index barely moves, so the tuning is forgiving, and dropping the
off-ramp detectors (exit-rate mode) costs almost nothing here.
"""

import dataclasses

import mixedtraffic as mt

SIGMAS = [0.01, 0.1, 1.0, 10.0, 100.0]

sc = mt.default_scenario()
for mode in ("measured", "unmeasured"):
    points = mt.q_sweep(dataclasses.replace(sc, offramp_mode=mode), SIGMAS)
    values = [p.p_r for p in points]
    print(f"off-ramp mode: {mode}")
    for p in points:
        print(f"  Q = {p.sigma:6g} * I   ->   P_R = {100 * p.p_r:.3f}%")
    print(f"  spread max/min = {max(values) / min(values):.3f}\n")
