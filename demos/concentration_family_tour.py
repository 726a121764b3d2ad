"""Tour of the concentrating family f_alpha.

The family carries a flat cap of height ~ sqrt(alpha/8 pi^2) inside
|x| <= e^{-alpha}, a logarithmic ramp across the annulus, and a smooth
compactly supported tail outside the unit ball.  As alpha grows it goes to
zero weakly in H^2 while its Orlicz norm survives: the script reproduces
the norm decompositions term by term, watches the Orlicz norm approach
1/sqrt(32 pi^2), and pairs the concentrating densities against a Gaussian
to exhibit the Dirac masses they converge to.

Run:  python demos/concentration_family_tour.py
"""

import numpy as np

from orlicz4d import (OrliczConfig, appendix_closed_forms,
                      lemma_add1_integrals, make_falpha, norms_squared,
                      orlicz_norm, pair_concentration, gaussian_test,
                      ORLICZ_LIMIT_CONST)

PI2 = np.pi ** 2

print("=" * 72)
print("1. Norms of f_alpha against the closed-form decompositions")
print("=" * 72)
for alpha in (5, 10, 25, 50):
    f = make_falpha(alpha)
    sq = norms_squared(f)
    rec = appendix_closed_forms(alpha)
    print(f"alpha = {alpha}")
    print(f"  ||f||^2      grid {sq['l2']:.8f}  closed form {rec.l2_total:.8f}")
    print(f"  ||grad f||^2 grid {sq['grad']:.8f}  closed form {rec.grad_total:.8f}")
    print(f"  ||lap f||^2  grid {sq['lap']:.8f}  closed form {rec.lap_total:.8f}"
          f"  = 1 + 1/alpha + {rec.lap_outer:.4f} (exterior ramp)")

print()
print("=" * 72)
print("2. The Orlicz norm approaches 1/sqrt(32 pi^2) = %.6f" % ORLICZ_LIMIT_CONST)
print("=" * 72)
cfg = OrliczConfig(lambda_tol=1e-4)
for alpha in (25, 50, 100):
    lam = orlicz_norm(make_falpha(alpha), cfg)
    bracket = 1 / np.sqrt(32 * PI2 + (8 * PI2 / alpha)
                          * np.log(2 / PI2 + np.exp(-4 * alpha)))
    print(f"  alpha={alpha:>3}: lambda* = {lam:.6f}   "
          f"error {abs(lam - ORLICZ_LIMIT_CONST):.6f}   "
          f"lower bracket {bracket:.6f} {'<=' if bracket <= lam else 'XX'} lambda*")

print()
print("=" * 72)
print("3. Concentration: both densities pair like Dirac masses at 0")
print("=" * 72)
print("   |lap f|^2 -> delta, (e^{32 pi^2 f^2} - 1) -> (pi^2/16)(e^4+3) delta")
for alpha in (20, 40, 80):
    rep = pair_concentration(alpha, gaussian_test)
    print(f"  alpha={alpha:>3}: <|lap f|^2, phi> = {rep.pairing_lap:.4f} (limit 1)   "
          f"<exp density, phi> = {rep.pairing_exp:.3f} "
          f"(limit {PI2/16*(np.e**4+3):.3f})")
rep = pair_concentration(80, gaussian_test)
print("  region split of the exponential pairing at alpha=80:")
print(f"    inner ball   {rep.split['exp']['inner']:.4f}   "
      f"(limit {PI2/16*(np.e**4-5):.4f})")
print(f"    annulus      {rep.split['exp']['annulus']:.4f}   (limit {PI2/2:.4f})")
print(f"    exterior     {rep.split['exp']['outer']:.4f}   (limit 0)")

print()
print("=" * 72)
print("4. The two log-weight integrals behind the annulus limit")
print("=" * 72)
for alpha in (25, 50, 100, 200):
    (i4, _), (i3, _) = lemma_add1_integrals(alpha)
    print(f"  alpha={alpha:>3}: r^4 weight {i4:.6f} (-> 1/5)   "
          f"r^3 weight {i3:.6f} (-> 1/2, both endpoints contribute)")
