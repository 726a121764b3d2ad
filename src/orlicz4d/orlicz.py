"""Orlicz functional and norm, and Trudinger-Moser-type functionals.

With phi(t) = e^{t^2} - 1 the Orlicz (Luxemburg-type) norm used here is

    ||u|| = inf { lambda > 0 :  int phi(|u|/lambda) dx <= kappa },

where the conventional right-hand side 1 is replaced by the configurable
constant kappa.  In log-radius coordinates the functional reads

    J(lambda) = 2 pi^2  int ( e^{v(s)^2 / lambda^2} - 1 ) e^{-4s} ds,

a continuous, nonincreasing function of lambda, so the norm is the unique
crossing J(lambda) = kappa.  It is found by safeguarded secant steps on
log J - log kappa in log lambda from a closed-form seed, and returned as the
midpoint of a sign-certified bracket.

Exponents are handled in log form: the integrand is evaluated as
exp(v^2/lambda^2 - 4s) - exp(-4s), cells are subdivided until the exponent
varies slowly across each, and any exponent beyond the floating cap raises
IntegrandOverflowError, which the root-find reads as J > kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gridfn import IntegrandOverflowError, LogRadialFunction, integrate_samples
from .norms import TWO_PI2, NormKind, norm

EXP_CAP = 700.0          # exp argument ceiling before declaring overflow
_SMALL_EXPONENT = 45.0   # below this use expm1 for full relative accuracy
_REFINE_STEP = 0.25      # target exponent variation per sub-cell
_MAX_SUBDIV = 64


@dataclass
class OrliczConfig:
    """kappa, relative tolerance and evaluation cap for the lambda search."""

    kappa: float = 1.0
    lambda_tol: float = 1e-4
    max_iter: int = 200

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not 0.0 < self.lambda_tol < 1e-2:
            raise ValueError("lambda_tol must lie in (0, 1e-2)")
        if self.max_iter < 8:
            raise ValueError("max_iter too small")


class BracketExpansionError(RuntimeError):
    """No lambda bracket was certified within max_iter evaluations of J."""


class TmResult(NamedTuple):
    value: float
    l2_ratio: float


# --------------------------------------------------------------------------
# the exponential-weight integral core
# --------------------------------------------------------------------------

def _refined_nodes(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Subdivide grid cells where the integrand's exponent moves fast.

    g holds the dominant exponent coef*v^2 - 4s at the nodes s; each cell is
    split so the nodal variation of g per sub-cell is at most _REFINE_STEP
    (capped).
    """
    var = np.abs(np.diff(g))
    m = np.clip(np.ceil(var / _REFINE_STEP).astype(np.int64), 1, _MAX_SUBDIV)
    if np.all(m == 1):
        return s
    total = int(m.sum())
    cell = np.repeat(np.arange(m.size), m)
    head = np.repeat(np.cumsum(m) - m, m)
    frac = (np.arange(total) - head + 1.0) / np.repeat(m, m)
    pts = s[cell] + frac * (s[cell + 1] - s[cell])
    return np.concatenate([s[:1], pts])


def _check_exponent(g: np.ndarray, nodes: np.ndarray) -> None:
    """Raise IntegrandOverflowError where the exponent g exceeds EXP_CAP."""
    if np.any(g > EXP_CAP):
        bad = int(np.argmax(g))
        raise IntegrandOverflowError(
            f"exponential integrand overflow (exponent {g[bad]:.3g} at "
            f"s = {nodes[bad]:.6g}); enlarge lambda", s_offender=float(nodes[bad]))


def exp_weighted_integral(f: LogRadialFunction, coef: float) -> float:
    """2 pi^2 int ( e^{coef * v(s)^2} - 1 ) e^{-4s} ds over the grid span.

    Raises IntegrandOverflowError if the exponent coef*v^2 - 4s exceeds the
    floating cap anywhere on the refined node set.
    """
    if coef < 0:
        raise ValueError("coefficient must be nonnegative")
    if coef == 0:
        return 0.0
    # cheap overflow pre-check on the base nodes before any refinement work
    g = coef * f.values ** 2 - 4.0 * f.grid.nodes
    _check_exponent(g, f.grid.nodes)
    nodes = _refined_nodes(f.grid.nodes, g)
    if nodes.size == f.grid.size:
        v = f.values
    else:
        # spline accuracy suffices for the functional; closed-form generators
        # are reserved for extraction-grade evaluation
        v = f.spline()(nodes) if f.grid.size >= 4 else np.asarray(f.eval(nodes))
    x = coef * v * v
    g = x - 4.0 * nodes
    _check_exponent(g, nodes)
    integrand = np.empty_like(g)
    small = x < _SMALL_EXPONENT
    integrand[small] = np.expm1(x[small]) * np.exp(-4.0 * nodes[small])
    big = ~small
    integrand[big] = np.exp(g[big]) - np.exp(-4.0 * nodes[big])
    return TWO_PI2 * integrate_samples(nodes, integrand)


def orlicz_functional(f: LogRadialFunction, lam: float) -> float:
    """J(lambda) = int (e^{|u|^2/lambda^2} - 1) dx; nonincreasing in lambda."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return exp_weighted_integral(f, 1.0 / lam ** 2)


def tm_functional(f: LogRadialFunction, beta: float) -> TmResult:
    """int (e^{beta u^2} - 1) dx plus the diagnostic ratio against ||u||_L2^2."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    val = exp_weighted_integral(f, beta)
    l2 = norm(f, NormKind.L2)
    ratio = val / l2 ** 2 if l2 > 0 else float("inf") if val > 0 else 0.0
    return TmResult(value=float(val), l2_ratio=float(ratio))


# --------------------------------------------------------------------------
# Luxemburg norm by a seeded, bracketed secant search
# --------------------------------------------------------------------------

def _log_excess(f: LogRadialFunction, x: float, kappa: float) -> float:
    """log J(e^x) - log kappa; overflow certifies J > kappa (+inf), and a
    nonpositive quadrature value certifies J < kappa (-inf)."""
    try:
        val = orlicz_functional(f, math.exp(x))
    except IntegrandOverflowError:
        return math.inf
    return math.log(val / kappa) if val > 0 else -math.inf


def _seed(f: LogRadialFunction, kappa: float) -> tuple[float, float]:
    """log lambda_0 and the slope guess d log J / d log lambda there.

    Where J is dominated by one s, J ~ kappa means v(s)^2 / lambda^2 =
    4s + log(kappa / 2 pi^2); lambda_0 is the largest such ratio (the
    exponent floored at 1/2), and -2 v^2 / lambda_0^2 at its argmax is the
    logarithmic slope of e^{v^2 / lambda^2} there.
    """
    q = np.maximum(4.0 * f.grid.nodes + math.log(kappa / TWO_PI2), 0.5)
    ratio = np.abs(f.values) / np.sqrt(q)
    k = int(np.argmax(ratio))
    return math.log(float(ratio[k])), -2.0 * float(q[k])


def orlicz_norm(f: LogRadialFunction, cfg: OrliczConfig | None = None) -> float:
    """The Luxemburg-type norm inf{lambda : J(lambda) <= kappa}.

    The search runs on v / max|v| (the norm is 1-homogeneous), so neither
    tiny nor huge amplitudes leave floating range.  F = log J - log kappa
    is smooth in log lambda with slope <= -2 (as t e^t >= e^t - 1), so the
    crossing is unique and secant steps converge fast.  The first step
    starts from the closed-form seed with its slope guess; each step is
    placed just past the estimated crossing, so the bracket closes in a few
    evaluations.  A step with no estimate inside the bracket is replaced by
    bisection or, before the crossing is bracketed, by doubling lambda.
    The result is the midpoint of a bracket [lo, hi] with J(lo) > kappa >=
    J(hi) and relative width <= cfg.lambda_tol / 4.  The zero function
    gives 0.
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
    for _ in range(cfg.max_iter):
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
        f"no lambda bracket certified within {cfg.max_iter} evaluations")


def _next_point(lo: float, hi: float, last: tuple[float, float] | None,
                slope: float | None, width: float) -> float | None:
    """The next log lambda: the secant estimate r of the crossing, moved
    past it away from the nearer bracket end so that one more evaluation on
    the far side can close the bracket; None without an estimate inside
    (lo, hi)."""
    if last is None or slope is None:
        return None
    r = last[0] - last[1] / slope
    if not lo < r < hi:
        return None
    # the far end is more than width / 2 away, so the point stays inside
    near = min(r - lo, hi - r)
    step = max(0.4 * width, 0.95 * width - near)
    return r + step if r - lo <= hi - r else r - step

