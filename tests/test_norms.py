import numpy as np
import pytest

from orlicz4d.corpus import corpus_functions
from orlicz4d.gridfn import (IntegrandOverflowError, LogRadialFunction,
                             sample_radial, uniform_grid)
from orlicz4d.norms import (NormKind, check_radial_inequalities, norm,
                            norms_squared)
from orlicz4d import bubbles as bb

GRID = uniform_grid(-1.6, 12.0, 2200)


def gaussian_half():
    return sample_radial(lambda r: np.exp(-r * r / 2.0), GRID, keep_generator=False)


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
    f = sample_radial(lambda r: np.exp(-r * r), GRID, keep_generator=False)
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
    f = sample_radial(lambda r: np.exp(-r * r), GRID, keep_generator=False)
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
