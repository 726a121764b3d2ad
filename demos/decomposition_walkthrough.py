"""Walkthrough of the constructive profile decomposition.

A family carrying two bubbles at orthogonally separated scales (n and n^2)
is fed to the extraction loop: estimate the Orlicz mass A_0, find the depth
where W(s) = 4 |v(s)/A_0|^2 - 3s peaks, rescale to the profile variable,
freeze the profile, subtract its mollified bubble, and repeat on the
remainder.  Each subtraction removes 1/4 ||psi'||^2 of the (1/r) d_r
energy; the run stops once the remainder's Orlicz mass drops under 10% of
A_0.

Run:  python demos/decomposition_walkthrough.py
"""

import numpy as np

from orlicz4d import (BubbleSpec, OrliczConfig, decompose, orlicz_norm, profile_L,
                      profile_cusp, synthesize_family)

cfg = OrliczConfig(lambda_tol=2e-4)
indices = [8, 16, 32, 64]

print("family: members u_n = bubble(L at scale n) + bubble(cusp at scale n^2)")
fam = synthesize_family(indices, lambda n: [
    BubbleSpec(alpha=float(n), profile=profile_L(), mollifier=None),
    BubbleSpec(alpha=float(n * n), profile=profile_cusp(), mollifier=None)])

res = decompose(fam, cfg)

print(f"\ncomponents found: {len(res.components)}")
for j, ((sc, psi), delta) in enumerate(zip(res.components, res.diagnostics["stabilization"])):
    print(f"  component {j}: scales per index = {np.round(sc.alpha, 2)}")
    print(f"               ||psi'|| = {psi.deriv_l2:.4f}, "
          f"profile plateau = {psi.values.max():.4f}, "
          f"snapshot stabilization delta = {delta:.2e}")

print("\nOrlicz mass ladder (A_0 then after each subtraction):")
print("  " + "  ->  ".join(f"{a:.5f}" for a in res.A_history))
print("energy-ledger residual per iteration:",
      ", ".join(f"{l*100:.2f}%" for l in res.ledger))
print(f"scale orthogonality |log(a/b)| at the last index: "
      f"{res.orthogonality_matrix[0, 1]:.3f}  (needs >= log 8 = {np.log(8):.3f})")

print("\nremainder per-index Orlicz mass:")
for n, m in zip(res.remainder.indices, res.remainder.members):
    print(f"  index {n:>2}: {orlicz_norm(m, cfg):.5f}")

print("\nevents:", *res.diagnostics["events"], sep="\n  ")
