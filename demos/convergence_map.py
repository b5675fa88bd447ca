#!/usr/bin/env python3
"""Convergence percentage of the backhaul-state policy over a (tau, Z) grid.

Desk-scale version of the fig2b experiment preset: 60 random contractive
scenarios per grid point instead of hundreds. Larger Z (gentler power
reduction) converges more reliably; very small Z overshoots the tolerance
band and cycles.
"""

from dataclasses import replace

import duplink as dl

TAUS_MBPS = (1, 5, 20)
ZS = (0.5, 0.7, 0.9, 0.95)
TRIALS = 60

print("collecting contractive scenarios...")
scenarios = []
seed = 0
while len(scenarios) < TRIALS:
    s = dl.generate(dl.GenParams(n_ues=10, seed=seed, backhaul_scale=1.2))
    m = dl.build_matrices(s)
    a, _ = dl.build_system(m)
    if dl.spectral_radius(a) < 1.0:
        scenarios.append(m)
    seed += 1

header = "tau \\ Z " + "".join(f"{z:>8}" for z in ZS)
print(header)
print("-" * len(header))
for tau_mbps in TAUS_MBPS:
    row = [f"{tau_mbps:3d}Mbps "]
    for z in ZS:
        converged = 0
        for m in scenarios:
            trace = dl.run(replace(m, tau=tau_mbps * 1e6, z=z), "bdt", max_iter=100)
            converged += trace.verdict.converged
        row.append(f"{100 * converged / TRIALS:7.1f}%")
    print("".join(row))

print("\n(percent of scenarios converged within 100 iterations)")
