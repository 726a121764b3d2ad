"""Orlicz functional and norm, and Trudinger-Moser-type functionals.

With phi(t) = e^{t^2} - 1 the Orlicz (Luxemburg-type) norm used here is

    ||u|| = inf { lambda > 0 :  int phi(|u|/lambda) dx <= kappa },

with a configurable kappa in place of the conventional 1.  In log-radius
coordinates the functional reads

    J(lambda) = 2 pi^2  int ( e^{v(s)^2 / lambda^2} - 1 ) e^{-4s} ds,

nonincreasing in lambda, so the norm is the crossing J(lambda) = kappa,
found by safeguarded secant steps on log J - log kappa in log lambda from a
closed-form seed and returned as the midpoint of a sign-certified bracket.

Each J is the spline rule on the grid's own nodes (weights cached per grid)
applied to exp(v^2/lambda^2 - 4s) - exp(-4s); a nodal exponent beyond the
floating cap raises IntegrandOverflowError, which the search reads as
J > kappa.  orlicz_norm_report estimates what the nodes miss, once, at the
returned lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gridfn import IntegrandOverflowError, LogRadialFunction, exp_weight, integrate_samples
from .norms import TWO_PI2, NormKind, norm

EXP_CAP = 700.0          # exp argument ceiling before declaring overflow
_SMALL_EXPONENT = 45.0   # below this use expm1 for full relative accuracy
_EXP_ZERO = -746.0       # exp of this or anything below is 0.0
_MAX_ITER = 200          # J evaluations the lambda search may spend


@dataclass
class OrliczConfig:
    """kappa and relative tolerance for the lambda search."""

    kappa: float = 1.0
    lambda_tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if not 0.0 < self.lambda_tol < 1e-2:
            raise ValueError("lambda_tol must lie in (0, 1e-2)")


class BracketExpansionError(RuntimeError):
    """No lambda bracket was certified within _MAX_ITER evaluations of J."""


class TmResult(NamedTuple):
    value: float
    l2_ratio: float


class NormReport(NamedTuple):
    """orlicz_norm_report's norm and relative error estimates of it."""

    lam: float
    halving: float      # from halving every cell; inf if the grid is unresolved
    tail: float         # from the ball |x| < e^{-s_max}, u held at v(s_max)
    open_tail: bool     # v(s_min) != 0: an unbounded tail, not estimated
    tol: float          # the lambda_tol the norm was computed to

    @property
    def error(self) -> float:
        return math.inf if self.open_tail else self.halving + self.tail

    @property
    def flagged(self) -> bool:
        """The grid does not certify lam to the tolerance it was asked for."""
        return not self.error <= self.tol


def _integrand(nodes: np.ndarray, v: np.ndarray, coef: float) -> np.ndarray:
    """(e^{coef v^2} - 1) e^{-4s}; overflow error where g = coef v^2 - 4s > EXP_CAP.
    Computed where g > _EXP_ZERO only: elsewhere e^g and e^{-4s} <= e^g are 0.0."""
    x = coef * v * v
    g = x - 4.0 * nodes
    live = np.flatnonzero(g > _EXP_ZERO)
    x, g = x[live], g[live]
    if np.any(g > EXP_CAP):
        bad = live[np.argmax(g)]
        raise IntegrandOverflowError(
            f"exponential integrand overflow (exponent {g.max():.3g} at "
            f"s = {nodes[bad]:.6g}); enlarge lambda", s_offender=float(nodes[bad]))
    e4 = exp_weight(nodes, 4)[live]
    out = np.zeros_like(nodes)
    out[live] = np.where(x < _SMALL_EXPONENT, np.expm1(np.minimum(x, _SMALL_EXPONENT)) * e4,
                         np.exp(g) - e4)
    return out


def exp_weighted_integral(f: LogRadialFunction, coef: float) -> float:
    """2 pi^2 int ( e^{coef * v(s)^2} - 1 ) e^{-4s} ds over the grid span, by
    the spline rule on the grid's own nodes (cached weights); raises
    IntegrandOverflowError if an exponent coef v^2 - 4s exceeds EXP_CAP."""
    if not 0 <= coef < math.inf:
        raise ValueError("coefficient must be nonnegative and finite")
    if coef == 0:
        return 0.0
    nodes = f.grid.nodes
    return TWO_PI2 * integrate_samples(nodes, _integrand(nodes, f.values, coef))


def orlicz_functional(f: LogRadialFunction, lam: float) -> float:
    """J(lambda) = int (e^{|u|^2/lambda^2} - 1) dx; nonincreasing in lambda."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return exp_weighted_integral(f, 1.0 / lam ** 2)


def tm_functional(f: LogRadialFunction, beta: float) -> TmResult:
    """int (e^{beta u^2} - 1) dx plus the diagnostic ratio against ||u||_L2^2."""
    if not 0 <= beta < math.inf:
        raise ValueError("beta must be nonnegative and finite")
    val = exp_weighted_integral(f, beta)
    l2 = norm(f, NormKind.L2)
    ratio = val / l2 ** 2 if l2 > 0 else float("inf") if val > 0 else 0.0
    return TmResult(value=float(val), l2_ratio=float(ratio))


def _log_excess(f: LogRadialFunction, x: float, kappa: float) -> float:
    """log J(e^x) - log kappa; overflow certifies J > kappa (+inf), and a
    nonpositive quadrature value certifies J < kappa (-inf)."""
    try:
        val = orlicz_functional(f, math.exp(x))
    except IntegrandOverflowError:
        return math.inf
    return math.log(val / kappa) if val > 0 else -math.inf


def _seed(f: LogRadialFunction, kappa: float) -> tuple[float, float]:
    """log lambda_0 and the slope guess d log J / d log lambda there: where
    one s dominates, J ~ kappa at v(s)^2 / lambda^2 = 4s + log(kappa / 2 pi^2)
    (floored at 1/2); lambda_0 is the largest such |v| / sqrt(...), with
    slope -2 v^2 / lambda_0^2 at its argmax."""
    q = np.maximum(4.0 * f.grid.nodes + math.log(kappa / TWO_PI2), 0.5)
    ratio = np.abs(f.values) / np.sqrt(q)
    k = int(np.argmax(ratio))
    return math.log(float(ratio[k])), -2.0 * float(q[k])


def orlicz_norm(f: LogRadialFunction, cfg: OrliczConfig | None = None) -> float:
    """The Luxemburg-type norm inf{lambda : J(lambda) <= kappa}.

    The search runs on v / max|v| (the norm is 1-homogeneous), so no
    amplitude leaves floating range.  F = log J - log kappa has slope <= -2
    in log lambda (t e^t >= e^t - 1): the crossing is unique.  From the
    closed-form seed, each secant step lands just past the estimated
    crossing, or else bisects or doubles lambda outward.  The result is the
    midpoint of [lo, hi], J(lo) > kappa >= J(hi), of relative width
    <= cfg.lambda_tol / 4; the zero function gives 0.
    """
    cfg = cfg or OrliczConfig()
    vmax = float(np.max(np.abs(f.values)))
    if vmax == 0.0:
        return 0.0
    unit = f.scaled(1.0 / vmax)
    width = 0.25 * cfg.lambda_tol      # bracket width to reach, in log lambda
    lo, hi = -math.inf, math.inf        # log lambda with J > kappa / J <= kappa
    x, slope = _seed(unit, cfg.kappa)
    last: tuple[float, float] | None = None   # latest finite (x, F)
    for _ in range(_MAX_ITER):
        F = _log_excess(unit, x, cfg.kappa)
        if F > 0:
            lo = x
        else:
            hi = x
        # hi - lo bounds the relative width 2 tanh((hi - lo) / 2)
        if hi - lo <= width:
            return vmax * 0.5 * (math.exp(lo) + math.exp(hi))
        if math.isfinite(F):
            if last is not None:
                secant = (F - last[1]) / (x - last[0])
                slope = secant if secant < 0 else None
            last = (x, F)
        x = _next_point(lo, hi, last, slope, width)
        if x is None:   # bisect, or double lambda outward
            if math.isfinite(hi - lo):
                x = 0.5 * (lo + hi)
            else:
                x = lo + math.log(2.0) if math.isfinite(lo) else hi - math.log(2.0)
    raise BracketExpansionError(
        f"no lambda bracket certified within {_MAX_ITER} evaluations")


def _next_point(lo: float, hi: float, last: tuple[float, float] | None,
                slope: float | None, width: float) -> float | None:
    """The secant estimate r of the crossing in (lo, hi), moved past it away
    from the nearer end so one more evaluation can close the bracket; or None."""
    if last is None or slope is None:
        return None
    r = last[0] - last[1] / slope
    if not lo < r < hi:
        return None
    # the far end is more than width / 2 away, so the point stays inside
    near = min(r - lo, hi - r)
    step = max(0.4 * width, 0.95 * width - near)
    return r + step if r - lo <= hi - r else r - step


def orlicz_norm_report(f: LogRadialFunction,
                       cfg: OrliczConfig | None = None) -> NormReport:
    """orlicz_norm with its quadrature error estimated once, at the result:
    the rule on every cell halved (midpoints from the generator if any, else
    the spline of v) against the base rule, which is infinite if J moves by
    more than a factor 2 or overflows, and the ball beyond s_max, which adds
    2 pi^2 (e^{v(s_max)^2/lambda^2} - 1) e^{-4 s_max} / 4 to J.  Changes of
    log J become relative errors of lambda through |d log J / d log lambda|."""
    cfg = cfg or OrliczConfig()
    lam = orlicz_norm(f, cfg)
    halving = tail = 0.0
    if lam > 0:
        vmax = float(np.max(np.abs(f.values)))
        unit, coef = f.scaled(1.0 / vmax), (vmax / lam) ** 2
        s, v = unit.grid.nodes, unit.values
        mid = 0.5 * (s[1:] + s[:-1])
        J = integrate_samples(s, _integrand(s, v, coef))
        x = coef * v * v
        slope = 2.0 * integrate_samples(s, x * np.exp(x - 4.0 * s)) / J
        cut = np.arange(1, s.size)
        fine_s, fine_v = np.insert(s, cut, mid), np.insert(v, cut, unit.eval(mid))
        try:
            ratio = integrate_samples(fine_s, _integrand(fine_s, fine_v, coef)) / J
        except IntegrandOverflowError:
            ratio = math.inf
        halving = abs(math.log(ratio)) / slope if 0.5 <= ratio <= 2.0 else math.inf
        tail = math.log1p(0.25 * float(_integrand(s[-1:], v[-1:], coef)[0]) / J) / slope
    return NormReport(lam, halving, tail, bool(f.values[0] != 0.0), cfg.lambda_tol)
