#!/usr/bin/env python3
"""Walk through the pinned 2-UE example: matrices, predicted fixed point,
and how the three policies behave once the backhaul becomes the bottleneck.
"""

import numpy as np

import duplink as dl

np.set_printoptions(precision=4, suppress=True)

# --- high-backhaul regime: everything converges to the same fixed point ----
s = dl.worked_example()
m = dl.build_matrices(s)
print("normalized cross-gain matrices (first links / second links):")
print(m.f11)
print(m.f22)
print("normalized noise:", m.d1, m.d2)

a, c = dl.build_system(m)
rho = dl.spectral_radius(a)
print(f"\nspectral radius of the power iteration: {rho:.4f}")
p1_star, p2_star = dl.closed_form_equilibrium(m, a, c, rho)
print("predicted fixed point p1*:", p1_star, " p2*:", p2_star)

for policy in ("wf", "bdt", "greedy"):
    trace = dl.run(m, policy, max_iter=100)
    err = np.max(np.abs(trace.state.p1 - p1_star))
    print(f"  {policy:6s} {trace.verdict.kind:12s} "
          f"iterations={trace.metrics['iterations_run']:3d} "
          f"|p1 - p1*| = {err:.2e}")

# --- limited backhaul: hysteresis vs. greedy flip-flopping ------------------
print("\nlimited backhaul capacities (relay/pico/macro = 20/12/30 Mbps):")
m2 = dl.build_matrices(dl.worked_example(dl.LIMITED_BACKHAUL))
for policy in ("wf", "bdt", "greedy"):
    trace = dl.run(m2, policy, max_iter=100)
    states = {ue: dl.BackhaulState(code).name
              for ue, code in zip(m2.ue_id.tolist(), trace.report.state)}
    print(f"  {policy:6s} {trace.verdict.kind:12s} "
          f"avg power {trace.metrics['avg_total_power']:.3f} W   "
          f"network rate {trace.metrics['eta_n_final'] / 1e6:6.1f} Mbps   "
          f"final states {states}")

print("\nbdt drains the overload, then holds inside the tolerance band;")
print("greedy keeps toggling between overloading and abandoning its links.")
