import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz4d import bubbles as bb
from orlicz4d import orlicz
from orlicz4d.corpus import corpus_functions
from orlicz4d.gridfn import (IntegrandOverflowError, LogRadialFunction,
                             compose_segments, sample_radial, uniform_grid)
from orlicz4d.norms import NormKind, norm
from orlicz4d.orlicz import (BracketExpansionError, OrliczConfig,
                             orlicz_functional, orlicz_norm, orlicz_norm_report,
                             tm_functional)
from orlicz4d.verify import two_bubble_family

PI2 = np.pi ** 2

# the indicator's jump sits on an exact node with MATCHED spacing on both
# sides: a spacing jump at a discontinuity makes the spline overshoot wildly
STEP_GRID = compose_segments([(-1.2, 0.0, 1200), (0.0, 0.5, 500), (0.5, 10.0, 950)])


def step_function(c=1.0, R=1.0):
    return sample_radial(lambda r: np.where(r <= R, c, 0.0), STEP_GRID)


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


MONOTONE_INPUTS = (corpus_functions(seed=5, count=6)
                   + [bb.make_falpha(a) for a in (3.0, 20.0, 150.0)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(0, len(MONOTONE_INPUTS) - 1),
       t1=st.floats(-0.7, 1.5), t2=st.floats(-0.7, 1.5))
def test_functional_nonincreasing_property(k, t1, t2):
    # every J is a fixed-weight dot product, and not-a-knot spline weights can
    # be negative, so monotonicity in lambda is not automatic; lambdas range
    # around the norm, where overflow stands for J = inf
    f = MONOTONE_INPUTS[k]
    lam = orlicz_norm(f)
    lo, hi = sorted((lam * math.exp(t1), lam * math.exp(t2)))
    assert _J(f, lo) >= _J(f, hi)


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
    monkeypatch.setattr(orlicz, "_MAX_ITER", 8)
    with pytest.raises(BracketExpansionError, match="within 8 evaluations"):
        orlicz_norm(bb.make_falpha(20.0), OrliczConfig())


def test_root_find_overflow_and_stray_secant(monkeypatch):
    # log J convex in log lambda with slope <= -2 (as for a true J), crossing
    # kappa = 1 at lambda = 3 on the unit-amplitude function; below about
    # lambda = 2.8 it leaves floating range, which the search reads as J > kappa.
    # Right of it the slope flattens towards -2, so a secant through two
    # points there extrapolates past the crossing and out of the bracket.
    x_star, tol = math.log(3.0), 1e-4
    overflows, strays = [], []

    def fake_J(f, lam):
        d = math.log(lam) - x_star
        try:
            return math.exp(-2.0 * d + math.exp(-d / 0.01) - 1.0)
        except OverflowError:
            overflows.append(lam)
            raise IntegrandOverflowError("exponent beyond the floating cap")

    real_next = orlicz._next_point

    def next_point(lo, hi, last, slope, width):
        out = real_next(lo, hi, last, slope, width)
        if last is not None and slope is not None \
                and not lo < last[0] - last[1] / slope < hi:
            strays.append(out)
        return out

    monkeypatch.setattr(orlicz, "orlicz_functional", fake_J)
    monkeypatch.setattr(orlicz, "_next_point", next_point)
    f = bb.make_falpha(20.0)
    lam = orlicz_norm(f, OrliczConfig(lambda_tol=tol)) / float(np.max(np.abs(f.values)))
    assert overflows and strays
    assert strays == [None] * len(strays)
    assert abs(lam - 3.0) <= tol * 3.0
    assert fake_J(f, lam * (1 - tol / 2)) > 1.0 >= fake_J(f, lam * (1 + tol / 2))


def test_estimate_flags_overshoot_between_nodes():
    # a unit step on 16 nodes: the spline overshoots past the jump, between
    # the nodes the rule reads; the halved cells see it, and the estimate
    # flags the input.  A smooth ramp on the same nodes halves 100x quieter.
    g = uniform_grid(0.0, 3.0, 16)
    f = LogRadialFunction(g, np.where(g.nodes < 1.0, 0.0, 1.0))
    rep = orlicz_norm_report(f)
    assert rep.lam == orlicz_norm(f)
    assert rep.flagged and not rep.open_tail
    assert rep.halving > 10 * rep.tail
    smooth = orlicz_norm_report(LogRadialFunction(g, np.sin(np.pi * g.nodes / 6) ** 2))
    assert rep.halving > 100 * smooth.halving


def test_estimate_coarse_falpha_grids():
    # f_20 on uniform grids over [-1.5, 44]: at 40 nodes the grid misses the
    # concentration and the halved rule moves J by more than a factor 2; at
    # 60 and 100 nodes the estimate is within 3x of the true error of lambda
    cfg = OrliczConfig(lambda_tol=1e-6)
    true = orlicz_norm(bb.make_falpha(20.0), cfg)
    reports = {n: orlicz_norm_report(bb.make_falpha(20.0, grid=uniform_grid(-1.5, 44.0, n)),
                                     cfg) for n in (40, 60, 100)}
    assert reports[40].halving == math.inf and reports[40].flagged
    for n in (60, 100):
        err = abs(reports[n].lam - true) / true
        assert err / 3 <= reports[n].error <= 3 * err


def test_estimate_tail_past_s_max():
    # the unit ball's step cut at s_max = 1 misses the ball |x| < e^{-1}
    # (J grows by 2 pi^2 (e^{1/lambda^2} - 1) e^{-4} / 4): the tail term
    # accounts for the gap to the closed-form norm
    grid = compose_segments([(-1.2, 0.0, 1200), (0.0, 1.0, 1000)])
    f = sample_radial(lambda r: np.where(r <= 1.0, 1.0, 0.0), grid)
    rep = orlicz_norm_report(f, OrliczConfig(lambda_tol=1e-6))
    gap = 1.0 / np.sqrt(np.log(1.0 + 2.0 / PI2)) / rep.lam - 1.0
    assert rep.halving < 0.01 * rep.tail
    assert gap <= rep.error <= 1.5 * gap


def test_estimate_open_tail_and_zero():
    # a Gaussian does not vanish at s_min: the tail past it is not estimated
    g = uniform_grid(-1.0, 8.0, 64)
    f = sample_radial(lambda r: np.exp(-r * r), g)
    rep = orlicz_norm_report(f)
    assert rep.open_tail and rep.error == math.inf and rep.flagged
    zero = orlicz_norm_report(LogRadialFunction(g, np.zeros(64)))
    assert zero == (0.0, 0.0, 0.0, False, 1e-4) and not zero.flagged


def test_overflow_signals_small_lambda():
    f = bb.make_falpha(100.0)
    with pytest.raises(IntegrandOverflowError):
        orlicz_functional(f, 1e-3)


# ------------------------------------------------- exponential functional --

def _masked_integrand(nodes, v, coef):
    # the integrand as first written: the reference for orlicz._integrand
    x = coef * v * v
    g = x - 4.0 * nodes
    if np.any(g > orlicz.EXP_CAP):
        raise IntegrandOverflowError("overflow", s_offender=float(nodes[int(np.argmax(g))]))
    e4 = np.exp(-4.0 * nodes)
    out = np.exp(g) - e4
    small = x < 45.0
    out[small] = np.expm1(x[small]) * e4[small]
    return out


def test_integrand_matches_masked_formula():
    cases = []
    for a in (20.0, 64.0, 200.0):
        f = bb.make_falpha(a)   # a grid's nodes: e^{-4s} comes from the cache
        cases += [(f.grid.nodes, f.values, c) for c in (1.0, 30.0, 300.0, 3000.0)]
    for m in two_bubble_family().members:
        v = m.values / np.max(np.abs(m.values))
        cases += [(m.grid.nodes, v, c) for c in (10.0, 300.0, 3000.0, 1e5)]
    up, down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    s = np.array([-1.0, 0.0, 0.5, 10.0, 186.5 * down, 186.5, 186.5 * up, 197.75, 300.0])
    one = np.ones_like(s)
    for x in (45.0 * down, 45.0, 45.0 * up, 700.0 * down, 700.0, 700.0 * up):
        cases += [(s, one, x), (s[2:], one[2:], x)]
    # g at -746 and one ulp either side, by v = 0 (186.5) and by x = 45 (197.75)
    cases += [(s, np.zeros_like(s), 1.0), (s, np.full_like(s, 3.0), 5.0)]
    raised = 0
    for nodes, v, coef in cases:
        try:
            want = _masked_integrand(nodes, v, coef)
        except IntegrandOverflowError as exc:
            with pytest.raises(IntegrandOverflowError) as got:
                orlicz._integrand(nodes, v, coef)
            assert got.value.s_offender == exc.s_offender
            raised += 1
            continue
        np.testing.assert_array_equal(orlicz._integrand(nodes, v, coef), want)
    assert 0 < raised < len(cases)


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
    cfg = OrliczConfig(lambda_tol=1e-3)
    worst = 0.0
    for f in corpus_functions(seed=2, count=5):
        lam = orlicz_norm(f, cfg)
        h2 = norm(f, NormKind.H2_SUM)
        if h2 > 0:
            worst = max(worst, lam / (h2 / np.sqrt(32 * PI2)))
    print(f"soft embedding diagnostic: max ratio = {worst:.4f}")
    assert np.isfinite(worst)
