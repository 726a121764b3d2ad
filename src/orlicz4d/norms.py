"""H^2-type norms of radial functions in the log-radius variable.

All norms are the 1D reductions listed in gridfn's module docstring; the
common prefactor 2 pi^2 is the area of the unit 3-sphere.  SCHROEDINGER is
||(-Lap + I) u||, computed pointwise as

    |v - e^{2s} (v'' - 2 v')|^2 e^{-4s}  =  (v e^{-2s} - (v'' - 2 v'))^2,

which stays in floating range even when Lap u is enormous near r = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gridfn import (IntegrandOverflowError, LogRadialFunction, _fd_derivative,
                     exp_weight, grid_memo, integrate_samples)

TWO_PI2 = 2.0 * np.pi ** 2


class NormKind(Enum):
    L2 = "l2"
    GRAD = "grad"
    INVR_GRAD = "invr_grad"
    LAP = "lap"
    H2_SUM = "h2_sum"
    SCHROEDINGER = "schroedinger"


# Each squared norm is 2 pi^2 times the spline integral of its integrand, a
# function of s, v, v' and lap = v'' - 2 v'; the number says which of the
# derivatives it needs (0: none, 1: v', 2: v' and lap).  Keys are the
# NormKind values.
_INTEGRANDS = {
    "l2": (0, lambda s, v, dv, lap: exp_weight(s, 4) * v * v),
    "grad": (1, lambda s, v, dv, lap: exp_weight(s, 2) * dv * dv),
    "invr_grad": (1, lambda s, v, dv, lap: dv * dv),
    "lap": (2, lambda s, v, dv, lap: lap * lap),
    "schroedinger": (2, lambda s, v, dv, lap: (v * exp_weight(s, 2) - lap) ** 2),
}


def _squared(f: LogRadialFunction, kinds: tuple[str, ...]) -> dict[str, float]:
    """Squared norms of the given kinds; each derivative is taken once, and
    only if a requested kind needs it.  A non-finite derivative makes its
    integral non-finite, so it is reported as an overflow."""
    f.grid.require_norm_grade()
    s = f.grid.nodes
    v = f.values
    order = max(_INTEGRANDS[k][0] for k in kinds)
    dv = _fd_derivative(s, v, 1) if order >= 1 else None
    lap = _fd_derivative(s, v, 2) - 2.0 * dv if order >= 2 else None
    out = {}
    for k in kinds:
        integrand = _INTEGRANDS[k][1](s, v, dv, lap)
        val = integrate_samples(s, integrand)
        if not math.isfinite(val):
            bad = np.flatnonzero(~np.isfinite(integrand))
            i = int(bad[0]) if bad.size else int(np.argmax(np.abs(integrand)))
            raise IntegrandOverflowError(f"{k} integrand overflowed at s = {s[i]:.6g}",
                                         s_offender=float(s[i]))
        out[k] = max(TWO_PI2 * val, 0.0)
    return out


def norm(f: LogRadialFunction, kind: NormKind) -> float:
    """Norm of the radial function represented by f (nonnegative).

    H2_SUM is sqrt(L2^2 + GRAD^2 + LAP^2); the others integrate their 1D
    reduction with the spline-exact composite rule and take a square root.
    Raises IntegrandOverflowError if an integral leaves floating range.
    """
    if kind is NormKind.H2_SUM:
        return math.sqrt(sum(_squared(f, ("l2", "grad", "lap")).values()))
    return math.sqrt(_squared(f, (kind.value,))[kind.value])


def norms_squared(f: LogRadialFunction) -> dict[str, float]:
    """L2/GRAD/INVR_GRAD/LAP squared norms in one pass (shared derivatives)."""
    return _squared(f, ("l2", "grad", "invr_grad", "lap"))


# --------------------------------------------------------------------------
# radial inequality report
# --------------------------------------------------------------------------

@dataclass
class InequalityReport:
    """Result of the two radial inequality checks (always returned).

    half_lap: lhs = ||(1/r) d_r u||, rhs = 0.5 ||Lap u||, flag lhs <= rhs (1+slack).
    pointwise: max over nodes with r >= r_floor of u(r)^2 pi^2 r^3 / (||u|| ||grad u||),
    flag <= 1 + slack.
    """

    invr_grad: float
    half_lap: float
    half_lap_pass: bool
    pointwise_max: float
    pointwise_pass: bool
    slack: float
    r_floor: float

    @property
    def all_pass(self) -> bool:
        return self.half_lap_pass and self.pointwise_pass


def discretization_slack(f: LogRadialFunction) -> float:
    # crude second-order spacing estimate relative to the span
    h = np.diff(f.grid.nodes)
    span = f.grid.s_max - f.grid.s_min
    return float(4.0 * (np.max(h) / max(span, 1.0)) ** 2)


def _prefix_r3(s: np.ndarray, r_floor: float) -> np.ndarray:
    """r^3 where r = e^{-s} >= r_floor: a prefix, as r decreases along s."""
    r = np.exp(-s)
    return r[:np.count_nonzero(r >= r_floor)] ** 3


def check_radial_inequalities(f: LogRadialFunction, r_floor: float = 0.1,
                              slack: float | None = None) -> InequalityReport:
    """Check ||(1/r) d_r u|| <= 0.5 ||Lap u|| and the pointwise decay bound.

    The pointwise bound u(r)^2 <= ||u|| ||grad u|| / (pi^2 r^3) degenerates
    as r -> 0, hence the r_floor; r^3 on r >= r_floor is cached per grid and
    r_floor.  A zero function passes trivially.
    """
    if slack is None:
        slack = 1e-6 + discretization_slack(f)
    sq = norms_squared(f)
    lhs = float(np.sqrt(sq["invr_grad"]))
    rhs = 0.5 * float(np.sqrt(sq["lap"]))
    half_lap_pass = lhs <= rhs * (1.0 + slack) + 1e-300

    l2 = float(np.sqrt(sq["l2"]))
    grad = float(np.sqrt(sq["grad"]))
    denom = l2 * grad
    r3 = grid_memo(f.grid.nodes, f"r^3 on r >= {float(r_floor)!r}",
                   lambda s: _prefix_r3(s, r_floor))
    if denom == 0.0 or r3.size == 0:
        ratio_max = 0.0
    else:
        num = f.values[:r3.size] ** 2 * np.pi ** 2 * r3
        ratio_max = float(np.max(num) / denom)
    pointwise_pass = ratio_max <= 1.0 + slack

    return InequalityReport(invr_grad=lhs, half_lap=rhs,
                            half_lap_pass=half_lap_pass,
                            pointwise_max=ratio_max,
                            pointwise_pass=pointwise_pass,
                            slack=float(slack), r_floor=float(r_floor))
