"""Reference squared norms for the corpus_inequalities output check.

The corpus functions depend on the workload seed, so their squared norms
cannot be tabulated ahead of time.  This module recomputes them the way the
package computed them at commit 3a6260b: second-order three-point finite
differences on the nonuniform nodes (one-sided quadratics at the two ends),
and the exact integral of the not-a-knot cubic spline through the samples.
A later change to the package's quadrature or stencils must still match
these numbers to 1e-9 relative.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

TWO_PI2 = 2.0 * np.pi ** 2


def _first_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.empty_like(y)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    out[1:-1] = (-hp / (hm * (hm + hp)) * y[:-2]
                 + (hp - hm) / (hm * hp) * y[1:-1]
                 + hm / (hp * (hm + hp)) * y[2:])
    h1, h2 = x[1] - x[0], x[2] - x[1]
    out[0] = (-(2 * h1 + h2) / (h1 * (h1 + h2)) * y[0]
              + (h1 + h2) / (h1 * h2) * y[1]
              - h1 / (h2 * (h1 + h2)) * y[2])
    g1, g2 = x[-1] - x[-2], x[-2] - x[-3]
    out[-1] = ((2 * g1 + g2) / (g1 * (g1 + g2)) * y[-1]
               - (g1 + g2) / (g1 * g2) * y[-2]
               + g1 / (g2 * (g1 + g2)) * y[-3])
    return out


def _second_divided_difference(x: np.ndarray, y: np.ndarray) -> float:
    d01 = (y[1] - y[0]) / (x[1] - x[0])
    d12 = (y[2] - y[1]) / (x[2] - x[1])
    return (d12 - d01) / (x[2] - x[0])


def _second_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.empty_like(y)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    out[1:-1] = 2.0 * (y[:-2] / (hm * (hm + hp))
                       - y[1:-1] / (hm * hp)
                       + y[2:] / (hp * (hm + hp)))
    out[0] = 2.0 * _second_divided_difference(x[:3], y[:3])
    out[-1] = 2.0 * _second_divided_difference(x[-3:], y[-3:])
    return out


def _spline_integral(x: np.ndarray, y: np.ndarray) -> float:
    return float(CubicSpline(x, y, bc_type="not-a-knot").integrate(x[0], x[-1]))


def norms_squared(s: np.ndarray, v: np.ndarray) -> dict[str, float]:
    """L2, GRAD, INVR_GRAD and LAP squared norms of v(s) on the nodes s."""
    dv = _first_derivative(s, v)
    lap = _second_derivative(s, v) - 2.0 * dv
    raw = {
        "l2": _spline_integral(s, np.exp(-4.0 * s) * v * v),
        "grad": _spline_integral(s, np.exp(-2.0 * s) * dv * dv),
        "invr_grad": _spline_integral(s, dv * dv),
        "lap": _spline_integral(s, lap * lap),
    }
    return {k: max(TWO_PI2 * x, 0.0) for k, x in raw.items()}
