import numpy as np
import pytest

from orlicz4d import bubbles as bb
from orlicz4d import orlicz
from orlicz4d.gridfn import (IntegrandOverflowError, LogRadialFunction,
                             compose_segments, sample_radial, uniform_grid)
from orlicz4d.norms import NormKind, norm
from orlicz4d.orlicz import (BracketExpansionError, OrliczConfig,
                             orlicz_functional, orlicz_norm, tm_functional)
from orlicz4d.verify import two_bubble_family

PI2 = np.pi ** 2

# the indicator's jump sits on an exact node with MATCHED spacing on both
# sides: a spacing jump at a discontinuity makes the spline overshoot wildly
STEP_GRID = compose_segments([(-1.2, 0.0, 1200), (0.0, 0.5, 500), (0.5, 10.0, 950)])


def step_function(c=1.0, R=1.0):
    return sample_radial(lambda r: np.where(r <= R, c, 0.0), STEP_GRID,
                         keep_generator=False)


def test_zero_function():
    g = uniform_grid(-1.0, 8.0, 64)
    f = LogRadialFunction(g, np.zeros(64))
    assert orlicz_functional(f, 1.0) == 0.0
    assert orlicz_norm(f) == 0.0


def test_step_functional_closed_form():
    # int over the unit ball of (e^{1/lambda^2}-1): volume pi^2/2
    f = step_function()
    want = PI2 / 2.0 * (np.e - 1.0)
    got = orlicz_functional(f, 1.0)
    assert abs(got - want) <= 5e-3 * want


def test_step_orlicz_norm_closed_form():
    # lambda* = c / sqrt(log(1 + 2 kappa / (pi^2 R^4)))
    f = step_function()
    want = 1.0 / np.sqrt(np.log(1.0 + 2.0 / PI2))  # = 2.3279678...
    got = orlicz_norm(f, OrliczConfig(lambda_tol=1e-5))
    assert abs(got - want) <= 2e-3 * want
    assert abs(want - 2.3279678) <= 1e-6


def test_falpha_lower_bracket_forces_large_functional():
    # lambda below the ball bracket cannot satisfy J <= kappa
    a, kappa = 30.0, 1.0
    f = bb.make_falpha(a)
    lam_bracket = 1.0 / np.sqrt(32 * PI2 + (8 * PI2 / a)
                                * np.log(2 * kappa / PI2 + np.exp(-4 * a)))
    lam = 0.995 * lam_bracket
    try:
        assert orlicz_functional(f, lam) > kappa
    except IntegrandOverflowError:
        pass  # overflow also certifies J > kappa


def test_functional_nonincreasing_in_lambda():
    f = bb.make_falpha(12.0)
    lams = np.array([0.06, 0.08, 0.12, 0.2, 0.5, 1.0])
    vals = [orlicz_functional(f, l) for l in lams]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_norm_homogeneity():
    # the extreme amplitudes underflow 1/lambda^2 or overflow v^2 unless the
    # search runs on v / max|v|
    cfg = OrliczConfig(lambda_tol=1e-4)
    f = bb.make_falpha(15.0)
    base = orlicz_norm(f, cfg)
    for c in (0.25, 3.0, 1e-200, 1e-160, 1e160, 1e200):
        got = orlicz_norm(f.scaled(c), cfg)
        assert abs(got - c * base) <= 2 * cfg.lambda_tol * c * base


def test_norm_nonincreasing_in_kappa():
    f = bb.make_falpha(15.0)
    vals = [orlicz_norm(f, OrliczConfig(kappa=k, lambda_tol=1e-5))
            for k in (0.5, 1.0, 2.0, 8.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def _J(f, lam):
    try:
        return orlicz_functional(f, lam)
    except IntegrandOverflowError:
        return np.inf


def test_bracketing_certificate():
    # the returned lambda is the midpoint of a certified bracket of relative
    # width lambda_tol / 4, so J crosses kappa within lambda * lambda_tol / 8
    from orlicz4d.corpus import corpus_functions
    for tol in (1e-4, 2e-4):
        cfg = OrliczConfig(lambda_tol=tol)
        for f in ([bb.make_falpha(a) for a in (20.0, 80.0)] + corpus_functions(seed=4, count=3)
                  + two_bubble_family().members[-2:]):
            lam = orlicz_norm(f, cfg)
            assert _J(f, lam * (1 + tol / 2)) <= cfg.kappa <= _J(f, lam * (1 - tol / 2))


def test_j_budget(monkeypatch):
    # the seeded secant search needs a median of at most 5 evaluations of J
    calls = []
    real = orlicz.orlicz_functional

    def counted(f, lam):
        calls[-1] += 1
        return real(f, lam)

    monkeypatch.setattr(orlicz, "orlicz_functional", counted)
    for functions, tol in (([bb.make_falpha(a) for a in np.geomspace(20.0, 200.0, 9)], 1e-4),
                           (two_bubble_family().members, 2e-4)):
        calls.clear()
        for f in functions:
            calls.append(0)
            orlicz_norm(f, OrliczConfig(lambda_tol=tol))
        assert np.median(calls) <= 5


def test_root_find_fallbacks(monkeypatch):
    # a J that is finite on one side only: beyond the crossing it is a
    # nonpositive quadrature value, so the search doubles outward from the
    # seed and then bisects until the bracket is certified
    monkeypatch.setattr(orlicz, "orlicz_functional",
                        lambda f, lam: 0.0 if lam >= 3.0 else 2.0)
    f = bb.make_falpha(20.0)
    lam = orlicz_norm(f, OrliczConfig(lambda_tol=1e-4))
    vmax = float(np.max(np.abs(f.values)))
    assert abs(lam - 3.0 * vmax) <= 1e-4 * 3.0 * vmax


def test_root_find_gives_up_after_max_iter(monkeypatch):
    monkeypatch.setattr(orlicz, "orlicz_functional", lambda f, lam: 2.0)
    with pytest.raises(BracketExpansionError):
        orlicz_norm(bb.make_falpha(20.0), OrliczConfig(max_iter=8))


def test_overflow_signals_small_lambda():
    f = bb.make_falpha(100.0)
    with pytest.raises(IntegrandOverflowError):
        orlicz_functional(f, 1e-3)


# ------------------------------------------------- exponential functional --

def test_tm_zero_beta():
    f = step_function()
    assert tm_functional(f, 0.0).value == 0.0


def test_tm_step_closed_form():
    f = step_function()
    res = tm_functional(f, 1.0)
    want = PI2 / 2.0 * (np.e - 1.0)
    assert abs(res.value - want) <= 5e-3 * want
    l2sq = norm(f, NormKind.L2) ** 2
    assert abs(res.l2_ratio - res.value / l2sq) <= 1e-9 * res.l2_ratio


def test_tm_normalized_falpha_ratio_bounded():
    # beta = 16 pi^2 < 32 pi^2: the ratio against ||u||_L2^2 stays bounded
    # along the alpha ladder (the uniform-bound claim, spot-checked)
    ratios = []
    for a in (10.0, 20.0, 40.0):
        f = bb.make_falpha(a)
        fh = f.scaled(1.0 / np.sqrt(norm(f, NormKind.LAP) ** 2))
        res = tm_functional(fh, 16.0 * PI2)
        assert np.isfinite(res.value)
        ratios.append(res.l2_ratio)
    assert max(ratios) <= 1.1 * min(ratios)
    assert 100 <= min(ratios) <= 200  # frozen from the quadrature oracle (~159)


def test_soft_embedding_diagnostic_reported():
    # ||u||_orlicz <= ||u||_{H^2}/sqrt(32 pi^2) is convention-dependent;
    # report the worst ratio over a few functions without asserting it.
    from orlicz4d.corpus import corpus_functions
    cfg = OrliczConfig(lambda_tol=1e-3)
    worst = 0.0
    for f in corpus_functions(seed=2, count=5):
        lam = orlicz_norm(f, cfg)
        h2 = norm(f, NormKind.H2_SUM)
        if h2 > 0:
            worst = max(worst, lam / (h2 / np.sqrt(32 * PI2)))
    print(f"soft embedding diagnostic: max ratio = {worst:.4f}")
    assert np.isfinite(worst)
