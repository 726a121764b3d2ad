"""Distributional pairings of the concentration family against radial tests.

As alpha -> infinity,

    |Lap f_alpha|^2        -> delta(x = 0)
    e^{32 pi^2 f_alpha^2}-1 -> (pi^2/16)(e^4 + 3) delta(x = 0),

and the limit splits by region: the ball |x| <= e^{-alpha} carries
(pi^2/16)(e^4 - 5) phi(0), the annulus pi^2/2 phi(0), the exterior nothing.
The pairings are computed by 1D quadrature in each region with the
substitutions that cancel e^{4 alpha} analytically; on the ball
32 pi^2 f_alpha^2 = 4 alpha + 4(1 - t^2) + (1 - t^2)^2/alpha with t = r e^alpha,
so no large exponentials ever materialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .bubbles import _step_down, eta_callables

PI2 = np.pi ** 2

EXP_TOTAL_LIMIT = PI2 / 16.0 * (np.e ** 4 + 3.0)    # 35.5294...
EXP_INNER_LIMIT = PI2 / 16.0 * (np.e ** 4 - 5.0)    # 30.5946...
EXP_ANNULUS_LIMIT = PI2 / 2.0                        # 4.9348...


@dataclass
class ConcentrationReport:
    """Pairings of |Lap f_alpha|^2 and e^{32 pi^2 f_alpha^2} - 1 against phi.

    ``split`` holds the inner/annulus/outer region contributions for each
    pairing; they sum to the totals to rounding.
    """

    alpha: float
    pairing_lap: float
    pairing_exp: float
    split: dict
    phi_at_zero: float

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "pairing_lap": self.pairing_lap,
            "pairing_exp": self.pairing_exp,
            "split": self.split,
            "phi_at_zero": self.phi_at_zero,
        }


def gaussian_test(r):
    return np.exp(-np.asarray(r, dtype=float) ** 2)


def plateau_test(r):
    """Smooth radial bump: identically 1 on r <= 0.5, 0 from r = 1 on."""
    r = np.asarray(r, dtype=float)
    return _step_down((r - 0.5) / 0.5)


TEST_FUNCTIONS: dict[str, Callable] = {
    "gaussian": gaussian_test,
    "plateau": plateau_test,
}


def _q(fn, lo, hi, pts=None):
    val, _ = quad(fn, lo, hi, points=pts, limit=600)
    return float(val)


def pair_concentration(alpha: float, phi: Callable) -> ConcentrationReport:
    """Both pairings of f_alpha-densities against the radial test phi.

    phi must be smooth, radial (a function of r) and decay fast enough that
    the exterior region integrals converge; only r in [1, 2] carries eta.
    """
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    a = float(alpha)
    ea = np.exp(-a)

    def phi1(r):
        return float(np.asarray(phi(np.asarray([r], dtype=float))).reshape(-1)[0])

    eta_fn, _, _, lap_eta = eta_callables(a)

    # ---- |Lap f|^2 pairing ------------------------------------------------
    # inner ball, t = r e^alpha: |Lap f|^2 = 2 e^{4a}/(pi^2 a), measure 2 pi^2 r^3 dr
    lap_inner = (4.0 / a) * _q(lambda t: phi1(t * ea) * t ** 3, 0.0, 1.0)
    # annulus in u = -log r: |Lap f|^2 = 1/(2 pi^2 a r^4)
    lap_annulus = (1.0 / a) * _q(lambda u: phi1(np.exp(-u)), 0.0, a,
                                 pts=[min(2.0, a / 2)])
    lap_outer = 2.0 * PI2 * _q(
        lambda r: float(lap_eta(np.array([r]))[0]) ** 2 * phi1(r) * r ** 3,
        1.0, 2.0, pts=[1.3, 1.7, 1.95])

    # ---- (e^{32 pi^2 f^2} - 1) pairing -------------------------------------
    # inner ball: 32 pi^2 f^2 = 4a + 4(1-t^2) + (1-t^2)^2/a, so e^{4a} cancels
    def exp_inner_integrand(t):
        z = 1.0 - t * t
        return (np.exp(4.0 * z + z * z / a) - np.exp(-4.0 * a)) * phi1(t * ea) * t ** 3

    exp_inner = 2.0 * PI2 * _q(exp_inner_integrand, 0.0, 1.0)

    # annulus: 32 pi^2 f^2 = 4 u^2 / a; both exponents stay <= 0
    def exp_annulus_integrand(u):
        return (np.exp(4.0 * u * u / a - 4.0 * u) - np.exp(-4.0 * u)) * phi1(np.exp(-u))

    exp_annulus = 2.0 * PI2 * _q(exp_annulus_integrand, 0.0, a,
                                 pts=[a / 4, a / 2, 3 * a / 4])

    def exp_outer_integrand(r):
        e = float(eta_fn(np.array([r]))[0])
        return np.expm1(32.0 * PI2 * e * e) * phi1(r) * r ** 3

    exp_outer = 2.0 * PI2 * _q(exp_outer_integrand, 1.0, 2.0, pts=[1.3, 1.7])

    split = {
        "lap": {"inner": lap_inner, "annulus": lap_annulus, "outer": lap_outer},
        "exp": {"inner": exp_inner, "annulus": exp_annulus, "outer": exp_outer},
    }
    return ConcentrationReport(
        alpha=a,
        pairing_lap=lap_inner + lap_annulus + lap_outer,
        pairing_exp=exp_inner + exp_annulus + exp_outer,
        split=split,
        phi_at_zero=phi1(0.0),
    )
