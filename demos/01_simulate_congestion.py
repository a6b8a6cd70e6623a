"""Ground truth only: watch the rush-hour congestion form and clear.

The stock scenario holds demand flat for the first hour, pushes the merge at
segment 6 over capacity during the second, and lets everything drain in the
third.  This script prints the segment-2 density trace and the time each
upstream segment first exceeds the critical density.
"""

import numpy as np

import mixedtraffic as mt

sc = mt.default_scenario()
truth = mt.simulate_truth(sc)
rho = truth.states.rho
hours = np.arange(truth.n_steps + 1) * sc.geometry.step_h
rho_crit = sc.params.rho_crit

print(f"scenario '{sc.name}': {sc.geometry.n_segments} segments, "
      f"{truth.n_steps} steps of {sc.geometry.step_h * 3600:.0f} s")
print(f"critical density: {rho_crit} veh/km\n")

print("segment-2 density, sampled every 6 minutes:")
for k in range(0, truth.n_steps + 1, 36):
    bar = "#" * int(rho[k, 1] / 2)
    flag = " <-- congested" if rho[k, 1] > rho_crit else ""
    print(f"  t={hours[k]:4.1f} h  rho_2={rho[k, 1]:6.1f}  {bar}{flag}")

print("\nfirst crossing of the critical density:")
for seg in range(1, 9):
    above = rho[:, seg - 1] > rho_crit
    when = f"{hours[np.argmax(above)]:.2f} h" if above.any() else "never"
    print(f"  segment {seg}: {when}")

v = truth.states.v
print(f"\nspeed at segment 2: free-flow {v[:360, 1].mean():.0f} km/h, "
      f"mid-hour minimum {v[:, 1].min():.0f} km/h")
