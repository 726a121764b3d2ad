import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from orlicz4d import gridfn
from orlicz4d.gridfn import (MIN_NORM_NODES, GridDomainError, LogGrid,
                             LogRadialFunction, compose_segments, from_radius_samples,
                             integrate_samples, uniform_grid)


# ---------------------------------------------------------------- imports --

def test_from_radius_single_node():
    f = from_radius_samples([1.0], [3.0])
    assert f.grid.size == 1
    assert f.grid.nodes[0] == 0.0  # -log 1
    assert f.values[0] == 3.0


def test_from_radius_order_reversal():
    r = [np.exp(-2.0), np.exp(-1.0), 1.0]
    f = from_radius_samples(r, [10.0, 20.0, 30.0])
    np.testing.assert_allclose(f.grid.nodes, [0.0, 1.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(f.values, [30.0, 20.0, 10.0])


def test_from_radius_gaussian_interpolation():
    # u(x) = e^{-|x|^2} sampled on a log grid: v(s) = e^{-e^{-2s}}
    s = np.linspace(-1.0, 6.0, 512)
    f = from_radius_samples(np.exp(-s), np.exp(-np.exp(-2.0 * s)))
    probe = np.linspace(-0.9, 5.9, 1777)
    exact = np.exp(-np.exp(-2.0 * probe))
    assert np.max(np.abs(f.eval(probe) - exact)) <= 1e-8


@pytest.mark.parametrize("r,u", [
    ([0.0, 1.0], [1.0, 1.0]),
    ([-1.0], [1.0]),
])
def test_from_radius_rejects_nonpositive(r, u):
    with pytest.raises(ValueError):
        from_radius_samples(r, u)


def test_from_radius_rejects_duplicates_and_nonmonotone():
    with pytest.raises(ValueError):
        from_radius_samples([1.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        from_radius_samples([1.0, 3.0, 2.0], [0.0, 0.0, 0.0])


# ------------------------------------------------------------- evaluation --

def test_eval_reproduces_nodes_exactly():
    g = uniform_grid(-1.0, 4.0, 37)
    vals = np.sin(g.nodes) + 0.3 * g.nodes
    f = LogRadialFunction(g, vals)
    assert np.all(np.asarray(f.eval(g.nodes)) == vals)


def test_eval_exact_on_cubic():
    g = uniform_grid(0.0, 2.0, 64)
    f = LogRadialFunction(g, g.nodes ** 3)
    mid = 0.5 * (g.nodes[:-1] + g.nodes[1:])
    np.testing.assert_allclose(f.eval(mid), mid ** 3, rtol=0, atol=2e-14)


def test_eval_exponential_midpoint_error():
    # sup error tracks (5/384) h^4 max|f''''|: 3.8e-7 at 256 nodes, below
    # 1e-9 from ~1200 nodes (the quadrature oracle fixes the constants)
    errs = {}
    for n in (256, 1200):
        g = uniform_grid(0.0, 4.0, n)
        f = LogRadialFunction(g, np.exp(-4.0 * g.nodes))
        mid = 0.5 * (g.nodes[:-1] + g.nodes[1:])
        errs[n] = np.max(np.abs(f.eval(mid) - np.exp(-4.0 * mid)))
    assert errs[256] <= 5e-7
    assert errs[1200] <= 1e-9


def test_eval_needs_four_nodes_without_generator():
    # sampled data is interpolated by the not-a-knot spline only
    f = from_radius_samples([np.exp(-2.0), np.exp(-1.0), 1.0], [10.0, 20.0, 30.0])
    with pytest.raises(ValueError, match="at least 4 nodes"):
        f.eval(0.5)
    with pytest.raises(ValueError, match="at least 4 nodes"):
        from_radius_samples([1.0], [3.0]).eval(0.0)


def test_eval_outside_span_raises():
    g = uniform_grid(-1.0, 1.0, 16)
    f = LogRadialFunction(g, np.zeros(16))
    with pytest.raises(GridDomainError):
        f.eval(1.5)


@st.composite
def spline_data(draw):
    """4-300 nodes with cells log-uniform over [1e-4, 10], values at any scale,
    a third of them set to signed zeros in some draws; either end condition."""
    n = draw(st.integers(4, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = np.exp(rng.uniform(np.log(1e-4), np.log(10.0), n - 1))
    x = rng.uniform(-5.0, 5.0) + np.concatenate([[0.0], np.cumsum(h)])
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    if draw(st.booleans()):
        y[rng.random(n) < 0.3] = rng.choice([0.0, -0.0])
    return x, y, draw(st.sampled_from(["not-a-knot", "clamped"])), rng


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=spline_data())
def test_cubic_spline_bit_identical_to_scipy(data):
    # scipy's CubicSpline is the oracle: same coefficients and values, bit for
    # bit, between nodes, at them, at the last node and past both ends
    x, y, bc, rng = data
    got, want = gridfn.CubicSpline(x, y, bc), CubicSpline(x, y, bc_type=bc)
    assert got.c.shape == want.c.shape and got.c.tobytes() == want.c.tobytes()
    span = x[-1] - x[0]
    pts = np.concatenate([rng.uniform(x[0], x[-1], 400), x, [x[-1]],
                          [x[0] - 0.1 * span, x[-1] + 0.1 * span]])
    assert got(pts).tobytes() == want(pts).tobytes()


def test_cubic_spline_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 4 nodes"):
        gridfn.CubicSpline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    for x, y in (([0.0, 1.0, 1.0, 2.0], [0.0] * 4), ([0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 0, 0])):
        with pytest.raises(ValueError, match="increasing nodes and finite values"):
            gridfn.CubicSpline(x, y)


# -------------------------------------------------------- differentiation --

def test_derivative_of_constant_is_zero():
    g = compose_segments([(-1.0, 0.5, 20), (0.5, 3.0, 40)])
    f = LogRadialFunction(g, np.full(g.size, 4.2))
    # rounding only: stencil weights scale like 1/h and 1/h^2
    assert np.max(np.abs(f.derivative(1).values)) <= 1e-12
    assert np.max(np.abs(f.derivative(2).values)) <= 1e-12


def test_first_derivative_exact_on_quadratic():
    g = uniform_grid(-2.0, 2.0, 41)
    f = LogRadialFunction(g, g.nodes ** 2)
    np.testing.assert_allclose(f.derivative(1).values, 2.0 * g.nodes, atol=1e-12)
    np.testing.assert_allclose(f.derivative(2).values, 2.0, atol=1e-11)


def test_derivative_convergence_order():
    errs = []
    for n in (512, 1024):
        g = uniform_grid(0.0, 2.0 * np.pi, n)
        f = LogRadialFunction(g, np.sin(g.nodes))
        errs.append(np.max(np.abs(f.derivative(1).values - np.cos(g.nodes))))
    assert errs[0] <= 1e-4
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def _interior_fd_formula(x, y, order):
    # the interior stencils as first written: the reference for the stencils
    # cached per grid
    hm, hp = x[1:-1] - x[:-2], x[2:] - x[1:-1]
    if order == 1:
        return (-hp / (hm * (hm + hp)) * y[:-2] + (hp - hm) / (hm * hp) * y[1:-1]
                + hm / (hp * (hm + hp)) * y[2:])
    return 2.0 * (y[:-2] / (hm * (hm + hp)) - y[1:-1] / (hm * hp) + y[2:] / (hp * (hm + hp)))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(n=st.integers(5, 5000), seed=st.integers(0, 2 ** 32 - 1))
def test_fd_stencils_match_formula(n, seed):
    rng = np.random.default_rng(seed)
    x = random_graded_nodes(rng, n)
    y = rng.normal(size=n)
    f = LogRadialFunction(LogGrid(x), y)
    for order in (1, 2):
        want = _interior_fd_formula(f.grid.nodes, y, order)
        for _ in range(2):   # computing, then reusing the grid's stencils
            np.testing.assert_array_equal(f.derivative(order).values[1:-1], want)
        np.testing.assert_array_equal(gridfn._fd_derivative(x, y, order)[1:-1], want)


# _fd_derivative as it was before the end weights were cached with the
# stencils: the reference every cached derivative must reproduce bit for bit
def uncached_fd_derivative(x, y, order):
    out = np.empty(x.size)
    hm, hp = x[1:-1] - x[:-2], x[2:] - x[1:-1]
    if order == 1:
        a, b, c = -hp / (hm * (hm + hp)), (hp - hm) / (hm * hp), hm / (hp * (hm + hp))
        out[1:-1] = a * y[:-2] + b * y[1:-1] + c * y[2:]
        h1, h2 = x[1] - x[0], x[2] - x[1]
        out[0] = (-(2 * h1 + h2) / (h1 * (h1 + h2)) * y[0]
                  + (h1 + h2) / (h1 * h2) * y[1]
                  - h1 / (h2 * (h1 + h2)) * y[2])
        g1, g2 = x[-1] - x[-2], x[-2] - x[-3]
        out[-1] = ((2 * g1 + g2) / (g1 * (g1 + g2)) * y[-1]
                   - (g1 + g2) / (g1 * g2) * y[-2]
                   + g1 / (g2 * (g1 + g2)) * y[-3])
    else:
        a, b, c = hm * (hm + hp), hm * hp, hp * (hm + hp)
        out[1:-1] = 2.0 * (y[:-2] / a - y[1:-1] / b + y[2:] / c)
        for i, sl in ((0, slice(0, 3)), (-1, slice(-3, None))):
            xs, ys = x[sl], y[sl]
            d01 = (ys[1] - ys[0]) / (xs[1] - xs[0])
            d12 = (ys[2] - ys[1]) / (xs[2] - xs[1])
            out[i] = 2.0 * ((d12 - d01) / (xs[2] - xs[0]))
    return out


@st.composite
def nonuniform_functions(draw):
    """Functions on norm-grade grids of 8-300 nodes with cell widths spread
    log-uniformly over [1e-4, 1]: smooth bumps or rough noise, any scale
    (test_norms draws the same)."""
    n = draw(st.integers(MIN_NORM_NODES, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = np.exp(rng.uniform(np.log(1e-4), 0.0, n - 1))
    x = rng.uniform(-3.0, 0.5) + np.concatenate([[0.0], np.cumsum(h)])
    if draw(st.booleans()):
        y = np.cos(rng.uniform(0.1, 5.0) * x) * np.exp(-0.1 * (x - x.mean()) ** 2)
    else:
        y = rng.normal(size=n)
    return LogRadialFunction(LogGrid(x), y * 10.0 ** rng.uniform(-3.0, 3.0))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(f=nonuniform_functions())
def test_fd_derivative_bit_identical_to_uncached_formula(f):
    x, y = f.grid.nodes, f.values
    for order in (1, 2):
        want = uncached_fd_derivative(x, y, order).tolist()
        # computing, then reusing the grid's stencils; an ad-hoc node array
        for got in (f.derivative(order).values, f.derivative(order).values,
                    gridfn._fd_derivative(np.array(x), y, order)):
            assert got.tolist() == want
    # the stencils are shared, so read-only, and computed once per grid
    entry = gridfn._GRID_CACHE[id(x)]
    assert set(entry) == {"fd1", "fd2"}
    for a in (a for made in entry.values() for a in made):
        with pytest.raises(ValueError):
            a.flat[0] = 1.0
    before = dict(entry)
    f.derivative(1), f.derivative(2)
    assert all(entry[k] is made for k, made in before.items())


def test_derivative_needs_enough_nodes():
    g = LogGrid(np.array([0.0, 1.0, 2.0]))
    f = LogRadialFunction(g, np.zeros(3))
    with pytest.raises(ValueError):
        f.derivative(1)


# ------------------------------------------------------------- quadrature --

def test_quadrature_exact_on_global_cubics():
    g = compose_segments([(-1.0, 0.3, 33), (0.3, 5.0, 72)])
    s = g.nodes
    for coeffs in ((0.0, 0.0, 0.0, 1.0), (1.0, -2.0, 3.0, -4.0)):
        p = np.polynomial.Polynomial(coeffs)
        val = integrate_samples(s, p(s))
        exact = p.integ()(s[-1]) - p.integ()(s[0])
        assert abs(val - exact) <= 1e-12 * max(abs(exact), 1.0)


def random_graded_nodes(rng: np.random.Generator, n: int) -> np.ndarray:
    """n nodes in up to five segments whose cell widths differ by up to e^4."""
    k = int(rng.integers(1, 6))
    widths = np.exp(rng.uniform(-4.0, 0.0, k))
    h = np.concatenate([w * rng.uniform(0.9, 1.1, part.size)
                        for w, part in zip(widths, np.array_split(np.arange(n - 1), k))])
    return rng.uniform(-2.0, 0.0) + np.concatenate([[0.0], np.cumsum(h)])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(4, 20_000), seed=st.integers(0, 2 ** 32 - 1))
def test_quad_weights_match_spline_integral(n, seed):
    rng = np.random.default_rng(seed)
    x = random_graded_nodes(rng, n)
    y = rng.uniform(0.5, 2.0, n)
    want = CubicSpline(x, y, bc_type="not-a-knot").integrate(x[0], x[-1])
    # a grid's node array (cached weights) and an ad-hoc array (uncached)
    for nodes in (LogGrid(x).nodes, x):
        assert abs(integrate_samples(nodes, y) - want) <= 1e-12 * abs(want)


def test_quadrature_needs_four_nodes():
    # one rule everywhere: no other rule stands in on 1-3 nodes
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="cubic spline needs at least 4 nodes"):
            integrate_samples(np.arange(float(n)), np.ones(n))


def test_quad_weights_cached_per_grid(monkeypatch):
    builds = []
    real = gridfn._spline_weights
    monkeypatch.setattr(gridfn, "_spline_weights",
                        lambda x: builds.append(x.size) or real(x))
    g = uniform_grid(-1.0, 3.0, 50)
    x = np.array(g.nodes)
    y = np.cos(x)
    vals = [integrate_samples(nodes, y) for nodes in (g.nodes, g.nodes, x, x)]
    assert vals == [vals[0]] * 4
    assert builds == [50, 50, 50]   # one for the grid, one per ad-hoc call
    # the grid keeps a private read-only copy, so a cached entry is never stale
    with pytest.raises(ValueError):
        g.nodes[3] = 0.0
    assert x.flags.writeable and LogGrid(x).nodes is not x


def test_grid_memo_hands_out_read_only_arrays():
    # every caller shares a cached array, so none may write to it
    g = uniform_grid(-1.0, 3.0, 50)
    w = gridfn.grid_memo(g.nodes, "weights", gridfn._spline_weights)
    stencils = gridfn.grid_memo(g.nodes, "fd1", lambda x: gridfn._fd_stencil(x, 1))
    for a in (w, *stencils):
        with pytest.raises(ValueError):
            a[0] = 1.0
    assert gridfn.grid_memo(g.nodes, "weights", gridfn._spline_weights) is w
    # an ad-hoc array is not cached, so its result stays the caller's own
    assert gridfn.grid_memo(np.array(g.nodes), "weights", gridfn._spline_weights).flags.writeable


def test_grid_invariants():
    with pytest.raises(ValueError):
        LogGrid(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        LogGrid(np.array([[0.0, 1.0]]))
    g = uniform_grid(-1.0, 2.0, 12)
    assert g.s_min < 0 < g.s_max


@pytest.mark.parametrize("alpha", [1e10, 1e100, 1e300])
def test_graded_rule_every_node_carries_weight(alpha):
    # panel offsets below the rounding unit of alpha used to repeat edges, so
    # most nodes of a huge-alpha rule sat on zero-width panels
    for points in ((0.0, 2.0, alpha / 4, alpha / 2),       # concentration's annulus
                   (0.0, alpha / 4, alpha / 2, 3 * alpha / 4, alpha),   # lemma-add1 r^4
                   (0.0, alpha / 4, alpha / 2)):           # lemma-add1 r^3
        x, w = gridfn._graded_rule(points, 0.25)
        assert np.all(np.count_nonzero(w, axis=0) == 1)
        for row in w:
            assert np.all(np.diff(x[row != 0]) > 0)
