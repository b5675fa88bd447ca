#!/usr/bin/env python3
"""Dual-connectivity UEs coexisting with classical fixed-SINR UEs.

Single-link UEs run the fixed-target update p <- beta * E while the dual
UEs waterfill. The combined dynamics stay affine, so the fixed point is
predictable in closed form whenever the combined iteration matrix is
contractive; the simulation must land on it.
"""

import numpy as np

import duplink as dl

np.set_printoptions(precision=4, suppress=True)

s = dl.generate_mixed(
    dl.GenParams(n_ues=3, n_relays=2, n_picos=2, seed=11),
    n_fixed=3,
    beta_range=(1.5, 3.0),
)
m = dl.build_matrices(s)
a, c = dl.build_system(m)
rho = dl.spectral_radius(a)
print(f"combined iteration matrix spectral radius: {rho:.4f}")
assert rho < 1.0, "draw another seed: this mix does not contract"

p1_pred, _ = dl.closed_form_equilibrium(m, a, c, rho)
trace = dl.run(m, "mixed-fm", max_iter=300, eps=1e-12)
final = trace.state

print(f"simulation verdict: {trace.verdict.kind} "
      f"after {trace.metrics['iterations_run']} iterations\n")
print("UE   kind        target SINR   achieved SINR   p1 (sim)   p1 (predicted)")
for i, u in enumerate(s.ues):
    kind = "dual" if u.dual else "fixed-SINR"
    target = f"{u.fixed_sinr_target:11.4f}" if not u.dual else "          -"
    print(f"{u.id:3d}  {kind:10s} {target}   {final.sinr1[i]:13.4f}"
          f"   {final.p1[i]:8.4f}   {p1_pred[i]:8.4f}")

err = np.max(np.abs(final.p1 - p1_pred))
print(f"\nmax |p1 simulated - predicted| = {err:.2e} W")
