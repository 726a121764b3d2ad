import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz4d.corpus import corpus_functions
from orlicz4d import gridfn
from orlicz4d.gridfn import (MIN_NORM_NODES, IntegrandOverflowError, LogGrid,
                             LogRadialFunction, integrate_samples, sample_radial,
                             uniform_grid)
from orlicz4d.norms import (InequalityReport, NormKind, check_radial_inequalities,
                            discretization_slack, norm, norms_squared)
from orlicz4d import bubbles as bb

GRID = uniform_grid(-1.6, 12.0, 2200)


def gaussian_half():
    return sample_radial(lambda r: np.exp(-r * r / 2.0), GRID)


def test_zero_function_all_norms_zero():
    f = LogRadialFunction(GRID, np.zeros(GRID.size))
    for kind in NormKind:
        assert norm(f, kind) == 0.0


def test_gaussian_l2_closed_form():
    # ||e^{-|x|^2/2}||_{L^2(R^4)}^2 = 2 pi^2 int_0^inf e^{-r^2} r^3 dr = pi^2
    assert abs(norm(gaussian_half(), NormKind.L2) - np.pi) <= 1e-6


def test_gaussian_derivative_norms_closed_forms():
    # grad: 2 pi^2 int r^5 e^{-r^2} = 2 pi^2;  lap: (r^2-4) e^{-r^2/2} gives 6 pi^2
    # schroedinger: (5 - r^2) e^{-r^2/2} gives 11 pi^2
    f = gaussian_half()
    np.testing.assert_allclose(norm(f, NormKind.GRAD), np.pi * np.sqrt(2.0), rtol=1e-4)
    np.testing.assert_allclose(norm(f, NormKind.LAP), np.pi * np.sqrt(6.0), rtol=1e-4)
    np.testing.assert_allclose(norm(f, NormKind.SCHROEDINGER),
                               np.pi * np.sqrt(11.0), rtol=1e-4)
    h2 = norm(f, NormKind.H2_SUM)
    np.testing.assert_allclose(h2, np.pi * 3.0, rtol=1e-4)  # sqrt(1+2+6) pi


def test_norm_absolute_homogeneity():
    rng = np.random.default_rng(3)
    f = corpus_functions(3, 1)[0]
    for kind in NormKind:
        base = norm(f, kind)
        for c in (-2.5, 0.5, 7.0):
            assert abs(norm(f.scaled(c), kind) - abs(c) * base) <= 1e-12 * max(base, 1.0)


def test_falpha_laplacian_decomposition():
    # ||Lap f_10||^2 = 1 + 1/10 + ||Lap eta_10||^2 to 1e-4 relative
    f = bb.make_falpha(10.0)
    want = 1.0 + 0.1 + bb.ETA_LAP_COEF / 10.0
    got = norms_squared(f)["lap"]
    assert abs(got - want) <= 1e-4 * want


def test_inequalities_gaussian_passes():
    f = sample_radial(lambda r: np.exp(-r * r), GRID)
    rep = check_radial_inequalities(f)
    assert rep.all_pass
    assert rep.invr_grad <= rep.half_lap  # report fields are consistent


def test_inequalities_zero_passes():
    f = LogRadialFunction(GRID, np.zeros(GRID.size))
    rep = check_radial_inequalities(f)
    assert rep.all_pass
    assert rep.pointwise_max == 0.0


def test_inequalities_random_corpus():
    for f in corpus_functions(seed=5, count=40):
        rep = check_radial_inequalities(f, r_floor=0.1, slack=1e-6)
        assert rep.all_pass


def test_pointwise_bound_constant():
    # the bound reads u(r)^2 <= ||u|| ||grad u|| / (pi^2 r^3)
    f = sample_radial(lambda r: np.exp(-r * r), GRID)
    sq = norms_squared(f)
    r = 0.5
    u_r = float(f.eval(-np.log(r)))
    bound = np.sqrt(sq["l2"] * sq["grad"]) / (np.pi ** 2 * r ** 3)
    assert u_r ** 2 <= bound


def test_norm_requires_norm_grade_grid():
    g = uniform_grid(-1.0, 1.0, 5)
    f = LogRadialFunction(g, np.ones(5))
    with pytest.raises(ValueError):
        norm(f, NormKind.L2)


def test_overflow_raises_in_every_entry_point():
    # v^2 leaves floating range: numpy warns, and no norm may come back as
    # inf (nor may an inequality report pass on inf norms)
    f = gaussian_half().scaled(1e200)
    for kind in NormKind:
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(IntegrandOverflowError) as info:
            norm(f, kind)
        assert info.value.s_offender in GRID.nodes
    for check in (norms_squared, check_radial_inequalities):
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(IntegrandOverflowError):
            check(f)


def test_overflowing_derivative_raises_in_every_entry_point():
    # v stays in floating range, its finite differences do not: a numerical
    # failure in every norm, not a complaint about the input
    g = uniform_grid(-1.0, 1.0, 64)
    f = LogRadialFunction(g, np.where(np.arange(64) % 2 == 0, 1e307, -1e307))
    entry_points = [lambda f, k=kind: norm(f, k) for kind in NormKind]
    for check in (*entry_points, norms_squared, check_radial_inequalities):
        with np.errstate(all="ignore"), pytest.raises(IntegrandOverflowError) as info:
            check(f)
        assert info.value.s_offender in g.nodes


# _squared's integrands and the pointwise bound as they were before e^{-ks}
# and r^3 were cached per grid and the derivatives taken bare: the reference
# the cached versions must reproduce bit for bit.  Its derivatives go through
# LogRadialFunction.derivative, which test_gridfn pins to the uncached formula.
_UNCACHED_INTEGRANDS = {
    "l2": (0, lambda s, v, dv, lap: np.exp(-4.0 * s) * v * v),
    "grad": (1, lambda s, v, dv, lap: np.exp(-2.0 * s) * dv * dv),
    "invr_grad": (1, lambda s, v, dv, lap: dv * dv),
    "lap": (2, lambda s, v, dv, lap: lap * lap),
    "schroedinger": (2, lambda s, v, dv, lap: (v * np.exp(-2.0 * s) - lap) ** 2),
}


def uncached_squared(f):
    s, v = f.grid.nodes, f.values
    dv = f.derivative(1).values
    lap = f.derivative(2).values - 2.0 * dv
    return {k: max(2.0 * np.pi ** 2 * integrate_samples(s, fn(s, v, dv, lap)), 0.0)
            for k, (_, fn) in _UNCACHED_INTEGRANDS.items()}


def uncached_report(f, sq, r_floor, slack):
    if slack is None:
        slack = 1e-6 + discretization_slack(f)
    lhs, rhs = float(np.sqrt(sq["invr_grad"])), 0.5 * float(np.sqrt(sq["lap"]))
    denom = float(np.sqrt(sq["l2"])) * float(np.sqrt(sq["grad"]))
    r = np.exp(-f.grid.nodes)
    mask = r >= r_floor
    if denom == 0.0 or not np.any(mask):
        ratio = 0.0
    else:
        ratio = float(np.max(f.values[mask] ** 2 * np.pi ** 2 * r[mask] ** 3) / denom)
    return InequalityReport(lhs, rhs, lhs <= rhs * (1.0 + slack) + 1e-300, ratio,
                            ratio <= 1.0 + slack, float(slack), float(r_floor))


@st.composite
def nonuniform_functions(draw):
    """As in test_gridfn: 8-300 nodes, cell widths log-uniform in [1e-4, 1],
    smooth bumps or rough noise, any scale."""
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
def test_norms_bit_identical_to_uncached_formulas(f):
    sq = uncached_squared(f)
    want = {kind: math.sqrt(sq[kind.value]) for kind in NormKind if kind.value in sq}
    want[NormKind.H2_SUM] = math.sqrt(sq["l2"] + sq["grad"] + sq["lap"])
    assert {kind: norm(f, kind) for kind in NormKind} == want
    assert norms_squared(f) == {k: sq[k] for k in ("l2", "grad", "invr_grad", "lap")}
    n, r = f.grid.size, np.exp(-f.grid.nodes)
    # r_floor above every node's r, at the middle node's (inclusive), below all
    floors = {2.0 * r[0]: 0, r[n // 2]: n // 2 + 1, 0.5 * r[-1]: n, 0.1: None}
    entry = gridfn._GRID_CACHE[id(f.grid.nodes)]
    for r_floor, hits in floors.items():
        for slack in (None, 1e-6):
            assert check_radial_inequalities(f, r_floor, slack) == \
                uncached_report(f, sq, r_floor, slack)
        if hits is not None:
            assert entry[f"r^3 on r >= {float(r_floor)!r}"].size == hits
    # every cache entry is shared, so read-only, and made once per grid
    for made in entry.values():
        for a in made if isinstance(made, tuple) else (made,):
            with pytest.raises(ValueError):
                a.flat[0] = 1.0
    before = dict(entry)
    for r_floor in floors:
        check_radial_inequalities(f, r_floor)
    for kind in NormKind:
        norm(f, kind)
    assert set(entry) == set(before)
    assert all(entry[k] is made for k, made in before.items())
