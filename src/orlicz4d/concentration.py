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

Each region is integrated on whole arrays by gridfn's graded composite
Gauss-Legendre rule, which also gives each term's error estimate: t in
[0, 1] on the ball, u = -log r in [0, alpha/2] on the annulus, at u and at
alpha - u (breakpoints min(2, alpha/2) and alpha/4), and r in [1, 2] where
eta lives (breakpoints 1.3, 1.7, 1.95).  Panels start at width 0.25 (0.02
on [1, 2]).  The test function phi is called with 1-D arrays of radii only:
once per region and once at r = 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .bubbles import _step_down, eta_jet
from .gridfn import _graded_rule, _integrate


def __getattr__(name: str):
    # scipy's integrators load only when something asks for ``quad``
    if name == "quad":
        from scipy.integrate import quad  # the name perfbench's tracer rebinds
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


PI2 = np.pi ** 2

EXP_TOTAL_LIMIT = PI2 / 16.0 * (np.e ** 4 + 3.0)    # 35.5294...
EXP_INNER_LIMIT = PI2 / 16.0 * (np.e ** 4 - 5.0)    # 30.5946...
EXP_ANNULUS_LIMIT = PI2 / 2.0                        # 4.9348...


@dataclass
class ConcentrationReport:
    """Pairings of |Lap f_alpha|^2 and e^{32 pi^2 f_alpha^2} - 1 against phi.

    ``split`` holds the inner/annulus/outer region contributions for each
    pairing; they sum to the totals to rounding.  ``split_error`` holds the
    estimated absolute quadrature error of each contribution.
    """

    alpha: float
    pairing_lap: float
    pairing_exp: float
    split: dict
    split_error: dict
    phi_at_zero: float

    def to_dict(self) -> dict:
        return asdict(self)


def gaussian_test(r):
    return np.exp(-np.asarray(r, dtype=float) ** 2)


def plateau_test(r):
    """Smooth radial bump: identically 1 on r <= 0.5, 0 from r = 1 on."""
    r = np.asarray(r, dtype=float)
    return _step_down((r - 0.5) / 0.5)[0]


TEST_FUNCTIONS: dict[str, Callable] = {
    "gaussian": gaussian_test,
    "plateau": plateau_test,
}


# the alpha-independent rules: the ball in t = r e^alpha and eta's [1, 2]
_BALL_RULE = _graded_rule((0.0, 1.0), 0.25)
_ETA_RULE = _graded_rule((1.0, 1.3, 1.7, 1.95, 2.0), 0.02)


def pair_concentration(alpha: float, phi: Callable) -> ConcentrationReport:
    """Both pairings of f_alpha-densities against the radial test phi.

    phi maps an array of radii to an array of values; it must be smooth,
    radial and decay fast enough that the exterior region integrals
    converge; only r in [1, 2] carries eta.
    """
    if not 2 <= alpha < np.inf:
        raise ValueError("alpha must be finite and >= 2")
    a = float(alpha)

    # inner ball, t = r e^alpha: |Lap f|^2 = 2 e^{4a}/(pi^2 a), measure 2 pi^2 r^3 dr;
    # 32 pi^2 f^2 = 4a + 4(1-t^2) + (1-t^2)^2/a, so e^{4a} cancels
    t, w = _BALL_RULE
    pt, z = phi(t * np.exp(-a)) * t ** 3, 1.0 - t * t
    lap_inner, exp_inner = _integrate(
        w, (4.0 / a) * pt, 2.0 * PI2 * (np.exp(4.0 * z + z * z / a) - np.exp(-4.0 * a)) * pt)

    # annulus in u = -log r: |Lap f|^2 = 1/(2 pi^2 a r^4) and 32 pi^2 f^2 = 4 u^2 / a.
    # e^{4 u^2/a - 4u} = e^{-4u(1 - u/a)} is symmetric under u <-> a - u, so u in
    # [0, a/2] carries both halves: no panel edge rounds to a at huge a, and no
    # exponent overflows (all stay <= 0)
    u, w = _graded_rule(tuple(np.unique([0.0, min(2.0, a / 2), a / 4, a / 2])), 0.25)
    p0, p1 = np.split(phi(np.exp(np.r_[-u, u - a])), 2)
    g = np.exp(-4.0 * u * (1.0 - u / a))
    lap_annulus, exp_annulus = _integrate(
        w, (p0 + p1) / a,
        2.0 * PI2 * ((g - np.exp(-4.0 * u)) * p0 + (g - np.exp(4.0 * u - 4.0 * a)) * p1))

    r, w = _ETA_RULE
    pr, (e, _, _, lap_e) = 2.0 * PI2 * phi(r) * r ** 3, eta_jet(a)(r)
    lap_outer, exp_outer = _integrate(w, lap_e ** 2 * pr, np.expm1(32.0 * PI2 * e * e) * pr)

    terms = {
        "lap": {"inner": lap_inner, "annulus": lap_annulus, "outer": lap_outer},
        "exp": {"inner": exp_inner, "annulus": exp_annulus, "outer": exp_outer},
    }
    split = {k: {region: v for region, (v, _) in d.items()} for k, d in terms.items()}
    return ConcentrationReport(
        alpha=a,
        pairing_lap=lap_inner[0] + lap_annulus[0] + lap_outer[0],
        pairing_exp=exp_inner[0] + exp_annulus[0] + exp_outer[0],
        split=split,
        split_error={k: {region: e for region, (_, e) in d.items()}
                     for k, d in terms.items()},
        phi_at_zero=float(np.asarray(phi(np.zeros(1))).reshape(-1)[0]),
    )
