"""Log-radius representation of radial functions on R^4.

A radial function u on R^4 is stored through the substitution s = -log r,
r = |x|, as the one-variable function v(s) = u(e^{-s}).  Small radii map to
large s, so concentration at the origin becomes behaviour at s -> +infinity.
Under this substitution the radial integrals reduce to weighted 1D ones:

    ||u||_{L^2}^2            = 2 pi^2  int e^{-4s} |v|^2 ds
    ||du/dr||_{L^2}^2        = 2 pi^2  int e^{-2s} |v'|^2 ds
    ||(1/r) du/dr||_{L^2}^2  = 2 pi^2  int          |v'|^2 ds
    ||Lap u||_{L^2}^2        = 2 pi^2  int |-2 v' + v''|^2 ds

This module provides the grid/value containers, the package's cubic spline
(not-a-knot or clamped ends, built as scipy builds it), second-order finite
differences on nonuniform nodes, and the package's two quadrature rules: the
spline-exact composite rule that all norms of sampled data share, and a
graded composite Gauss-Legendre rule with an error estimate for integrands
in closed form (_graded_rule, _integrate).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import solve_banded

# Minimum node count for norm-grade grids (interpolation, differentiation
# and quadrature all assume at least this much resolution).
MIN_NORM_NODES = 8


class GridDomainError(ValueError):
    """Evaluation point outside the grid span."""


class IntegrandOverflowError(ArithmeticError):
    """An integrand exceeded floating range; carries the offending node."""

    def __init__(self, message: str, s_offender: float | None = None):
        super().__init__(message)
        self.s_offender = s_offender


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LogGrid:
    """Strictly increasing s-nodes (s = -log r).

    Norm-grade grids (the ones produced by the builders below) have at least
    MIN_NORM_NODES nodes and span s_min < 0 < s_max so that both |x| > 1 and
    the concentration region are covered.  Raw grids imported from radius
    samples may be smaller; operations that need resolution check for it.
    """

    nodes: np.ndarray

    def __post_init__(self):
        # a private read-only copy: its quadrature weights can be cached
        nodes = np.array(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 1:
            raise ValueError("grid needs a 1D, non-empty node array")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        _GRID_CACHE[id(nodes)] = {}
        weakref.finalize(nodes, _GRID_CACHE.pop, id(nodes), None)

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def s_min(self) -> float:
        return float(self.nodes[0])

    @property
    def s_max(self) -> float:
        return float(self.nodes[-1])

    def require_norm_grade(self) -> None:
        if self.size < MIN_NORM_NODES:
            raise ValueError(f"operation needs >= {MIN_NORM_NODES} nodes, grid has {self.size}")


def uniform_grid(s_min: float, s_max: float, n: int) -> LogGrid:
    if not s_min < s_max:
        raise ValueError("need s_min < s_max")
    return LogGrid(np.linspace(s_min, s_max, n))


def compose_segments(segments: list[tuple[float, float, int]]) -> LogGrid:
    """Concatenate per-segment linspaces into one graded grid.

    Segment boundaries become exact nodes (duplicates at the joints are
    dropped), which keeps kinks of piecewise closed forms on the grid.
    """
    parts = []
    for i, (a, b, n) in enumerate(segments):
        if not b > a:
            raise ValueError("segment endpoints must increase")
        seg = np.linspace(a, b, max(int(n), 2))
        parts.append(seg if i == 0 else seg[1:])
    return LogGrid(np.concatenate(parts))


def bubble_grid(alpha: float) -> LogGrid:
    """Graded grid for scale-alpha bubbles: nodes cluster in [0, 1.5 alpha].

    Fixed density, 2,236 nodes: 64 on [-1.5, 0], 1365 on [0, alpha] (spacing
    alpha/1364), 682 on [alpha, 1.5 alpha] (alpha/1362) and 128 on the tail
    [1.5 alpha, 1.5 alpha + 14], where e^{-4(s - alpha)} has died.  The
    corner of the profile variable at s = alpha lands exactly on a node.
    Callers that want another density pass their own grid to make_bubble.
    """
    if not 1 <= alpha < np.inf:
        raise ValueError("bubble grids need finite alpha >= 1")
    a = float(alpha)
    return compose_segments([(-1.5, 0.0, 64), (0.0, a, 1365), (a, 1.5 * a, 682),
                             (1.5 * a, 1.5 * a + 14.0, 128)])


# --------------------------------------------------------------------------
# values on a grid
# --------------------------------------------------------------------------

class CubicSpline:
    """Cubic spline through (x, y), 1-D y and n >= 4 nodes, with not-a-knot or
    clamped (zero end slope) ends.  It is built and evaluated operation for
    operation as scipy 1.17's CubicSpline and PPoly, so its coefficients ``c``
    (shape (4, n-1), highest degree first, about each piece's left node) and
    its values carry the same bits; the end pieces extrapolate."""

    def __init__(self, x, y, bc_type: str = "not-a-knot"):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        n, dx = x.size, np.diff(x)
        if n < 4:
            raise ValueError("cubic spline needs at least 4 nodes")
        if x.shape != y.shape or not (np.all(dx > 0) and np.all(np.isfinite(y))):
            raise ValueError("spline needs increasing nodes and finite values")
        slope = np.diff(y) / dx
        # the slopes s solve a tridiagonal system; rows 0 and n-1 hold the ends
        A, b = np.zeros((3, n)), np.empty(n)
        A[1, 1:-1], A[0, 2:], A[-1, :-2] = 2 * (dx[:-1] + dx[1:]), dx[:-1], dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        if bc_type == "clamped":
            A[1, 0] = A[1, -1] = 1.0
            b[0] = b[-1] = 0.0
        else:
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            A[1, 0], A[0, 1], A[1, -1], A[-1, -2] = dx[1], d0, dx[-2], d1
            b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
            b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        s = solve_banded((1, 1), A, b[:, None], overwrite_ab=True, overwrite_b=True,
                         check_finite=False)[:, 0]
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x, self.c = x, np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, xq) -> np.ndarray:
        xq = np.asarray(xq, dtype=float)
        i = np.clip(np.searchsorted(self.x, xq, "right") - 1, 0, self.x.size - 2)
        z = xq - self.x[i]
        c0, c1, c2, c3 = self.c[:, i]
        # PPoly's sum starts from 0.0, so a sum of signed zeros reads +0.0
        return 0.0 + c3 + c2 * z + c1 * (z * z) + c0 * (z * z * z)


@dataclass
class LogRadialFunction:
    """Samples v_i = v(s_i) = u(e^{-s_i}) of a radial function.

    ``generator``, when present, is the analytic closed form v(s) used for
    oracle-grade evaluation between nodes (the ``closed_form`` tag names it);
    sampled-only data falls back to the not-a-knot cubic spline.
    """

    grid: LogGrid
    values: np.ndarray
    name: str = ""
    closed_form: str | None = None
    generator: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False)
    _spline: CubicSpline | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        self.values = vals
        if vals.shape != self.grid.nodes.shape:
            raise ValueError("values length must equal grid length")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")

    # -- evaluation ---------------------------------------------------------

    def spline(self) -> CubicSpline:
        if self._spline is None:
            self._spline = CubicSpline(self.grid.nodes, self.values)
        return self._spline

    def eval(self, s) -> np.ndarray | float:
        """Interpolated value(s); exact at nodes, error outside the span.
        Without a generator this is the spline, which needs 4 nodes."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < self.grid.s_min) or np.any(s_arr > self.grid.s_max):
            raise GridDomainError(
                f"s outside grid span [{self.grid.s_min}, {self.grid.s_max}]")
        if self.generator is not None:
            out = np.asarray(self.generator(np.atleast_1d(s_arr)), dtype=float)
            return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)
        flat = np.atleast_1d(s_arr)
        out = self.spline()(flat)
        # snap to stored values at nodes so interpolation reproduces them bit-exactly
        idx = np.searchsorted(self.grid.nodes, flat)
        idx = np.clip(idx, 0, self.grid.size - 1)
        hit = self.grid.nodes[idx] == flat
        out[hit] = self.values[idx[hit]]
        return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)

    # -- differentiation ----------------------------------------------------

    def derivative(self, order: int) -> "LogRadialFunction":
        """Second-order finite differences on the (nonuniform) nodes.

        Interior nodes use 3-point central stencils; the two boundary nodes
        use the one-sided quadratic through the first/last three nodes.
        """
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if self.grid.size < order + 3:
            raise ValueError("too few nodes for finite differences")
        d = _fd_derivative(self.grid.nodes, self.values, order)
        return LogRadialFunction(self.grid, d,
                                 name=f"{self.name}'" if order == 1 else f"{self.name}''")

    def scaled(self, c: float) -> "LogRadialFunction":
        gen = None
        if self.generator is not None:
            base = self.generator
            gen = lambda s, _b=base, _c=c: _c * np.asarray(_b(s))
        return replace(self, values=c * self.values, generator=gen, _spline=None)


def _fd_stencil(x: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
    """Interior 3-point stencils: weights of y[i-1], y[i], y[i+1] (order 1), divisors (2).
    Order 1 adds the one-sided end weights of y[0], y[1], y[2] and y[-1], y[-2], y[-3];
    order 2 the spacings of the first and last three nodes."""
    hm, hp = x[1:-1] - x[:-2], x[2:] - x[1:-1]
    if order == 1:
        h1, h2, g1, g2 = x[1] - x[0], x[2] - x[1], x[-1] - x[-2], x[-2] - x[-3]
        ends = np.array([[-(2 * h1 + h2) / (h1 * (h1 + h2)), (h1 + h2) / (h1 * h2),
                          -(h1 / (h2 * (h1 + h2)))],
                         [(2 * g1 + g2) / (g1 * (g1 + g2)), -((g1 + g2) / (g1 * g2)),
                          g1 / (g2 * (g1 + g2))]])
        return -hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp)), ends
    ends = np.array([x[1] - x[0], x[2] - x[1], x[2] - x[0],
                     x[-2] - x[-3], x[-1] - x[-2], x[-1] - x[-3]])
    return hm * (hm + hp), hm * hp, hp * (hm + hp), ends


def _fd_derivative(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    out = np.empty(x.size)
    if order == 1:
        a, b, c, e = grid_memo(x, "fd1", lambda x: _fd_stencil(x, 1))
        out[1:-1] = a * y[:-2] + b * y[1:-1] + c * y[2:]
        out[0] = e[0, 0] * y[0] + e[0, 1] * y[1] + e[0, 2] * y[2]
        out[-1] = e[1, 0] * y[-1] + e[1, 1] * y[-2] + e[1, 2] * y[-3]
    else:
        a, b, c, e = grid_memo(x, "fd2", lambda x: _fd_stencil(x, 2))
        h1, h2, h02, g1, g2, g02 = e.tolist()
        out[1:-1] = 2.0 * (y[:-2] / a - y[1:-1] / b + y[2:] / c)
        # boundary: curvature of the one-sided quadratic (= 2nd divided difference)
        out[0] = 2.0 * (((y[2] - y[1]) / h2 - (y[1] - y[0]) / h1) / h02)
        out[-1] = 2.0 * (((y[-1] - y[-2]) / g2 - (y[-2] - y[-3]) / g1) / g02)
    return out


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------

# Arrays derived from LogGrid node arrays (weights, stencils), by array
# identity.  The node arrays are read-only, so an entry is never stale; it is
# registered when the grid is built and dropped with its array.  An entry is
# shared, so it is read-only too: a hit returns what a fresh computation would.
_GRID_CACHE: dict[int, dict[str, object]] = {}


def grid_memo(nodes: np.ndarray, name: str, make: Callable[[np.ndarray], object]):
    """make(nodes), an array or a tuple of arrays, cached read-only under
    ``name`` if nodes is a LogGrid's node array."""
    entry = _GRID_CACHE.get(id(nodes))
    if entry is None:
        return make(nodes)
    if name not in entry:
        entry[name] = made = make(nodes)
        for a in made if isinstance(made, tuple) else (made,):
            a.flags.writeable = False
    return entry[name]


def exp_weight(nodes: np.ndarray, k: int) -> np.ndarray:
    """e^{-k s} on the nodes, cached read-only if nodes is a LogGrid's."""
    return grid_memo(nodes, f"exp(-{k}s)", lambda s: np.exp(-float(k) * s))


def _spline_weights(x: np.ndarray) -> np.ndarray:
    """Weights w with w @ y = integral of the not-a-knot cubic spline
    through (x, y) over [x_0, x_{n-1}], for n >= 4 strictly increasing nodes.

    The spline's nodal slopes k solve the tridiagonal system A k = C D y of
    CubicSpline (D: divided differences, C: the slope rows with the
    not-a-knot ends).  Each cubic Hermite piece integrates to
    h (y_i + y_{i+1}) / 2 + h^2 (k_i - k_{i+1}) / 12, so the integral is
    t @ y + g @ k and w = t + D^T C^T z with A^T z = g: one O(n) solve.
    """
    h = np.diff(x)
    n = x.size
    t = np.zeros(n)
    t[:-1] += 0.5 * h
    t[1:] += 0.5 * h
    g = np.zeros(n)
    g[:-1] += h * h / 12.0
    g[1:] -= h * h / 12.0
    # A^T in banded form: rows are the super-, main and sub-diagonal of A^T
    d0, d1 = h[0] + h[1], h[-1] + h[-2]
    at = np.zeros((3, n))
    at[1, 0], at[1, -1] = h[1], h[-2]
    at[1, 1:-1] = 2.0 * (h[:-1] + h[1:])
    at[0, 1:-1] = h[1:]            # A[i, i-1] for the interior rows
    at[0, -1] = d1                 # A[n-1, n-2]
    at[2, 1:-1] = h[:-1]           # A[i, i+1] for the interior rows
    at[2, 0] = d0                  # A[0, 1]
    z = solve_banded((1, 1), at, g, check_finite=False)
    # q = C^T z
    q = np.zeros(n - 1)
    q[:-1] += 3.0 * h[1:] * z[1:-1]
    q[1:] += 3.0 * h[:-1] * z[1:-1]
    q[0] += (h[0] + 2.0 * d0) * h[1] / d0 * z[0]
    q[1] += h[0] ** 2 / d0 * z[0]
    q[-2] += h[-1] ** 2 / d1 * z[-1]
    q[-1] += (2.0 * d1 + h[-1]) * h[-2] / d1 * z[-1]
    # w = t + D^T q
    r = q / h
    t[1:] += r
    t[:-1] -= r
    return t


def integrate_samples(nodes: np.ndarray, samples: np.ndarray) -> float:
    """Integral over the node span of the cubic spline through the samples.

    The spline segments are integrated exactly, so the rule reproduces any
    single polynomial of degree <= 3 to rounding; this is the composite rule
    every norm and functional in the package uses.  The spline integral is a
    fixed linear functional of the samples, evaluated as a dot product with
    weights that are cached for the node array of a LogGrid.
    """
    nodes = np.asarray(nodes, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if nodes.size != samples.size:
        raise ValueError("nodes/samples length mismatch")
    if nodes.size < 4:
        raise ValueError("cubic spline needs at least 4 nodes")
    return float(grid_memo(nodes, "weights", _spline_weights) @ samples)


_GL_X, _GL_W = leggauss(24)


def _gauss_legendre(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * _GL_X).ravel(), (half[:, None] * _GL_W).ravel()


def _graded_rule(points: tuple[float, ...], h0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and a (2, len(x)) weight matrix: row 0 is the composite 24-point
    rule on panels of width h0 at every point, doubling towards the middle of
    each piece; row 1 the rule on those panels halved (zero weight on each
    other's nodes)."""
    edges = [points[0]]
    for lo, hi in zip(points[:-1], points[1:]):
        d = h0 * (2.0 ** np.arange(1, 64) - 1.0)
        d = d[d < 0.5 * (hi - lo)]
        edges.extend([*(lo + d), 0.5 * (lo + hi), *(hi - d[::-1]), hi])
    # offsets below the rounding unit of lo or hi repeat an edge: keep each once
    edges = np.unique(edges)
    x0, w0 = _gauss_legendre(edges)
    x1, w1 = _gauss_legendre(np.unique(np.r_[edges, 0.5 * (edges[1:] + edges[:-1])]))
    weights = np.zeros((2, x0.size + x1.size))
    weights[0, :x0.size], weights[1, x0.size:] = w0, w1
    nodes = np.r_[x0, x1]
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _integrate(weights: np.ndarray, *integrands: np.ndarray) -> list[tuple[float, float]]:
    """(value, estimated error) of each integrand sampled on a _graded_rule: the error
    is |rule - halved rule| plus the rounding bound n eps sum |w f| of the n-node sum."""
    f = np.stack(integrands)
    q = f @ weights.T
    rounding = np.count_nonzero(weights[0]) * np.finfo(float).eps * (np.abs(f) @ weights[0])
    return [(float(v), float(abs(v - h) + e)) for (v, h), e in zip(q, rounding)]


# --------------------------------------------------------------------------
# import from radius samples
# --------------------------------------------------------------------------

def from_radius_samples(r_points, u_values, name: str = "") -> LogRadialFunction:
    """Build v(s) on s_i = -log r_i from radius samples (inverse substitution).

    Radii must be strictly positive and strictly monotone; the result is
    sorted ascending in s (which reverses increasing-r input).
    """
    r = np.asarray(r_points, dtype=float)
    u = np.asarray(u_values, dtype=float)
    if r.ndim != 1 or r.size == 0 or r.shape != u.shape:
        raise ValueError("need matching 1D radius/value arrays")
    if np.any(r <= 0):
        raise ValueError("radii must be strictly positive")
    if r.size > 1:
        dr = np.diff(r)
        if np.any(dr == 0):
            raise ValueError("duplicate radii")
        if not (np.all(dr > 0) or np.all(dr < 0)):
            raise ValueError("radii must be strictly monotone")
    s = -np.log(r)
    order = np.argsort(s)
    return LogRadialFunction(LogGrid(s[order]), u[order], name=name)


def sample_radial(u_of_r: Callable[[np.ndarray], np.ndarray], grid: LogGrid,
                  name: str = "") -> LogRadialFunction:
    """Sample u(r) on a log grid."""
    return LogRadialFunction(grid, np.asarray(u_of_r(np.exp(-grid.nodes)), dtype=float),
                             name=name)
