"""Randomized smooth radial test functions for the inequality suites.

Each function is a clamped cubic spline in r through random knot values on
[0, 4] (u'(0) = 0 for radial regularity, u(4) = u'(4) = 0 so the support
stays in r <= 4), sampled onto a log-radius grid.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline

from .gridfn import LogGrid, LogRadialFunction, compose_segments

R_SUPPORT = 4.0
N_KNOTS = 9


def corpus_grid() -> LogGrid:
    # 1398 nodes spanning r in (e^-10, 4.3]; r > 4 carries only zeros of u
    return compose_segments([(-np.log(R_SUPPORT) - 0.08, 2.0, 933), (2.0, 10.0, 466)])


def _random_smooth_radial(rng: np.random.Generator, grid: LogGrid) -> LogRadialFunction:
    knots = np.linspace(0.0, R_SUPPORT, N_KNOTS)
    y = rng.normal(0.0, 1.0, N_KNOTS)
    y[-1] = 0.0
    if np.allclose(y, 0.0):
        y[N_KNOTS // 2] = 1.0  # never return the zero function
    sp = CubicSpline(knots, y, bc_type="clamped")
    r = np.exp(-grid.nodes)
    inside = r <= R_SUPPORT
    vals = np.zeros_like(r)
    vals[inside] = sp(r[inside])
    return LogRadialFunction(grid, vals, name="corpus")


def corpus_functions(seed: int, count: int) -> list[LogRadialFunction]:
    rng = np.random.default_rng(seed)
    grid = corpus_grid()
    return [_random_smooth_radial(rng, grid) for _ in range(count)]
