"""Bubbles: profiles stretched by diverging scales.

A profile psi (one-variable, zero on s <= 0, square-integrable derivative)
and a scale alpha generate the bubble sqrt(alpha/8 pi^2) psi(-log|x|/alpha).
Pure bubbles have corners, so the H^2-honest objects convolve the profile
with a shrinking mollifier first.  The script shows the limiting Orlicz
norm formula max |psi(s)|/sqrt(s) / sqrt(32 pi^2), the closeness of the
mollified and pure variants, and the insensitivity to the mollifier.

Run:  python demos/bubble_gallery.py
"""

import numpy as np

from orlicz4d import (BubbleSpec, NormKind, OrliczConfig, alternative_mollifier,
                      default_mollifier, make_bubble, norm, orlicz_norm,
                      profile_L, profile_cusp, profile_orlicz_limit, profile_tent)

cfg = OrliczConfig(lambda_tol=1e-4)
rho = default_mollifier()

print("=" * 72)
print("1. Profiles and their limiting bubble Orlicz norms")
print("=" * 72)
for psi in (profile_L(), profile_tent(), profile_cusp()):
    lim = profile_orlicz_limit(psi)
    print(f"  {psi.tag:>5}: ||psi'|| = {psi.deriv_l2:.4f}   "
          f"weighted L2 = {psi.l2_exp_norm:.4f}   "
          f"limit max|psi|/sqrt(s) / sqrt(32 pi^2) = {lim:.6f}")

print()
print("=" * 72)
print("2. Mollification: smooth, tiny, vanishing with the scale")
print("=" * 72)
L = profile_L()
for alpha in (25, 100, 400):
    y = np.linspace(-0.1, 3.0, 4001)
    from orlicz4d.bubbles import mollified_profile_values
    sup = np.max(np.abs(mollified_profile_values(L, alpha, rho, y) - L.eval(y)))
    print(f"  alpha={alpha:>4}: sup |L*rho_alpha - L| = {sup:.5f}"
          f"   (the ramp profile is Lipschitz, so the gap scales like 1/alpha)")

print()
print("=" * 72)
print("3. Orlicz norms along the scale ladder (limit 0.056270)")
print("=" * 72)
for alpha in (50, 100, 200):
    g = make_bubble(BubbleSpec(alpha=alpha, profile=L, mollifier=rho))
    h = make_bubble(BubbleSpec(alpha=alpha, profile=L, mollifier=None))
    lg, lh = orlicz_norm(g, cfg), orlicz_norm(h, cfg)
    print(f"  alpha={alpha:>3}: mollified {lg:.6f}   pure {lh:.6f}   "
          f"gap {abs(lg-lh)/lg*100:.3f}%")

g_std = make_bubble(BubbleSpec(alpha=200.0, profile=L, mollifier=rho))
g_alt = make_bubble(BubbleSpec(alpha=200.0, profile=L,
                               mollifier=alternative_mollifier()))
gap = abs(orlicz_norm(g_std, cfg) - orlicz_norm(g_alt, cfg))
print(f"  two different bumps at alpha=200 differ by {gap:.2e} "
      "(mollifier independence)")

print()
print("=" * 72)
print("4. Each bubble carries one quantum of (1/r) d_r energy")
print("=" * 72)
for alpha in (25, 100, 400):
    g = make_bubble(BubbleSpec(alpha=alpha, profile=L, mollifier=rho))
    q = norm(g, NormKind.INVR_GRAD) ** 2
    print(f"  alpha={alpha:>4}: ||(1/r) d_r g||^2 = {q:.5f}   "
          f"(limit ||L'||^2/4 = 0.25)")
