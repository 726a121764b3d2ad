import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from orlicz4d import bubbles as bb
from orlicz4d import concentration as conc
from orlicz4d.gridfn import compose_segments
from orlicz4d.norms import NormKind, norm
from orlicz4d.orlicz import OrliczConfig, orlicz_norm

PI2 = np.pi ** 2


# ---------------------------------------------------------------- profiles --

def test_profile_L_values():
    L = bb.profile_L()
    assert float(L.eval(0.5)) == 0.5
    assert float(L.eval(2.0)) == 1.0
    assert float(L.eval(-1.0)) == 0.0
    assert abs(L.deriv_l2 - 1.0) <= 1e-9


def test_profile_l2_exp_norm_closed_form():
    # int_0^1 t^2 e^{-4t} dt + int_1^10 e^{-4t} dt; the kink of L at s = 1
    # holds the spline rule to second order (1.3e-6 relative at 2049 nodes)
    want = np.sqrt((1.0 - 13.0 * np.exp(-4.0)) / 32.0
                   + (np.exp(-4.0) - np.exp(-40.0)) / 4.0)
    assert abs(bb.profile_L().l2_exp_norm - want) <= 1e-5 * want


def test_profile_orlicz_limit_of_L():
    L = bb.profile_L()
    want = 1.0 / np.sqrt(32.0 * PI2)
    got = bb.profile_orlicz_limit(L)
    assert abs(got - want) <= 1e-6
    assert abs(want - 0.0562698) <= 1e-7


def test_profile_orlicz_limit_homogeneity():
    s = np.linspace(0.0, 10.0, 2049)
    two_L = bb.Profile(s, 2.0 * np.clip(s, 0, 1), tag="2L",
                       fn=lambda y: 2.0 * np.clip(y, 0, 1))
    got = bb.profile_orlicz_limit(two_L)
    assert abs(got - 2.0 / np.sqrt(32.0 * PI2)) <= 2e-6


def test_profile_orlicz_limit_sqrt_ramp():
    # psi = sqrt(s) min(s,1): psi/sqrt(s) = min(s,1) peaks (first) at s = 1
    s = np.linspace(0.0, 10.0, 4097)
    psi = bb.Profile(s, np.sqrt(s) * np.minimum(s, 1.0), tag="sqrt-ramp")
    got = bb.profile_orlicz_limit(psi)
    assert abs(got - 1.0 / np.sqrt(32.0 * PI2)) <= 1e-4


def test_profile_invariants():
    rng = np.random.default_rng(0)
    # dfn is integrated on the profile's own cells, whose nodes hold the kinks
    for prof, dl2 in ((bb.profile_L(), 1.0), (bb.profile_tent(), np.sqrt(2.0)),
                      (bb.profile_cusp(), np.sqrt(9 / 8))):
        assert float(prof.eval(-2.0)) == 0.0
        assert float(prof.eval(0.0)) == 0.0
        assert abs(prof.deriv_l2 - dl2) <= 1e-15 * dl2
        assert prof.holder_max_ratio(rng) <= 1.0 + 1e-6
    zero = bb.Profile(np.linspace(0.0, 10.0, 64), np.zeros(64), tag="zero")
    assert zero.deriv_l2 == 0.0 and zero.holder_max_ratio(rng) == 0.0


def test_profile_validation():
    with pytest.raises(ValueError, match="s >= 0"):
        bb.Profile(np.array([-1.0, 0.0, 1.0, 2.0]), np.zeros(4))
    with pytest.raises(ValueError, match="strictly increasing"):
        bb.Profile(np.array([0.0, 0.0, 1.0, 2.0]), np.zeros(4))


def test_profile_needs_four_nodes():
    # the cubic spline's floor: fewer nodes used to pass validation and then
    # fail inside deriv_l2 with a bare IndexError
    for n in (2, 3):
        with pytest.raises(ValueError, match="at least 4 nodes"):
            bb.Profile(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n))
    psi = bb.Profile(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 4))
    assert abs(psi.deriv_l2 - 1.0) <= 1e-12
    assert abs(float(psi.eval(0.5)) - 0.5) <= 1e-15


# -------------------------------------------------------------- mollifiers --

def test_mollifier_invariants():
    for spec in (bb.default_mollifier(), bb.alternative_mollifier(),
                 bb.narrow_mollifier()):
        t = np.linspace(-1.0, 1.0, 1001)
        vals = spec.values(t)
        assert np.all(vals >= 0.0)
        assert np.all(vals[np.abs(t) >= 1.0] == 0.0)
        # scipy's quad as an oracle independent of the package's own rules
        mass = quad(lambda x: float(spec.values(np.array([x]))[0]), *spec.support, limit=400)[0]
        assert abs(mass - 1.0) <= 1e-12
        # the normalization is the convolution rule's own sum: its weights sum to 1
        _, w, moments = spec.conv_rule
        assert abs(w.sum() - 1.0) <= 1e-15 and abs(moments[0, 0, w.size] - 1.0) <= 1e-15


def _reference_bump(u_of_t):
    # reference: the bump written out per mollifier, u(t) given as a formula
    def raw(t):
        t = np.asarray(t, dtype=float)
        u = u_of_t(t)
        out = np.zeros_like(t)
        m = np.abs(u) < 1
        out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
        return out
    return raw


@pytest.mark.parametrize("spec, ref_raw, ref_support", [
    (bb.default_mollifier(), _reference_bump(lambda t: t), (-1.0, 1.0)),
    (bb.alternative_mollifier(), _reference_bump(lambda t: (2.0 * t + 0.2) / 1.2),
     (-0.7, 0.5)),
    (bb.narrow_mollifier(), _reference_bump(lambda t: t / 0.3), (-0.3, 0.3)),
], ids=["standard", "shifted", "narrow"])
def test_mollifier_matches_closure_formulas(spec, ref_raw, ref_support):
    # the (center, half_width) bump reproduces the closure-built bumps bit
    # for bit: raw values, normalization, values and convolution nodes
    assert spec.support == ref_support
    lo, hi = ref_support
    t = np.concatenate([np.linspace(-1.2, 1.2, 2401),
                        np.nextafter([lo, lo, hi, hi], [-2, 2, -2, 2])])
    np.testing.assert_array_equal(spec.raw(t), ref_raw(t))
    # the normalization is the 96-point convolution rule's own sum
    gl_t, gl_w = np.polynomial.legendre.leggauss(96)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid + half * gl_t
    z = float(half * gl_w @ ref_raw(nodes))
    assert spec.mass_constant == z
    ref_values = np.where((t > lo) & (t < hi), ref_raw(t), 0.0) / z
    np.testing.assert_array_equal(spec.values(t), ref_values)
    weights = half * gl_w * (np.where((nodes > lo) & (nodes < hi), ref_raw(nodes), 0.0) / z)
    got_nodes, got_weights, _ = spec.conv_rule
    np.testing.assert_array_equal(got_nodes, nodes)
    np.testing.assert_array_equal(got_weights, weights)


def test_mollifier_support_must_fit():
    with pytest.raises(ValueError):
        bb.MollifierSpec(0.5, 0.6)


def test_mollify_plateau_and_support():
    L = bb.profile_L()
    alpha = 25.0
    rho = bb.default_mollifier()
    plateau, below = bb.mollified_profile_values(
        L, alpha, rho, [1.0 + 1.0 / alpha + 1e-9, -1.0 / alpha - 1e-9])
    assert abs(plateau - 1.0) <= 1e-10
    assert below == 0.0


def test_mollify_sup_distance_hoelder_bound():
    L = bb.profile_L()
    alpha = 100.0
    y = np.linspace(-0.2, 3.0, 4001)
    moll = bb.mollified_profile_values(L, alpha, bb.default_mollifier(), y)
    sup = np.max(np.abs(moll - L.eval(y)))
    assert sup <= 0.1  # Hoelder budget ||L'|| alpha^{-1/2} int rho sqrt|t|
    assert sup <= 0.01  # L is Lipschitz so the true rate is 1/alpha


def _rule_sum(psi, alpha, rho, y):
    # the 96-point rule summed point by point: the reference
    t, w, _ = rho.conv_rule
    return psi.eval(y[:, None] - t / alpha) @ w


def _moment_test_profiles():
    rng = np.random.default_rng(11)
    uniform = np.linspace(0.0, 1.5, 1537)
    # cells log-uniform in [1e-8, 1e-2]: tiny cells beside wide ones
    random_from_0 = np.cumsum(np.r_[0.0, 10.0 ** rng.uniform(-8, -2, 400)])
    random_from_pos = 0.02 + np.cumsum(np.r_[0.0, 10.0 ** rng.uniform(-8, -2, 400)])
    for s in (uniform, random_from_0, random_from_pos):
        yield bb.Profile(s, np.sin(3.0 * s) + s, tag="smooth")
        yield bb.Profile(s, rng.normal(size=s.size), tag="rough")


def _row_classes(psi, alpha, rho, y):
    # the kernel's row classes, from the rows' windows and the profile's
    # pieces alone: zero (window at or below 0), tail (past the span), and
    # windows on one piece or across a knot
    t, _, _ = rho.conv_rule
    lo, hi = y - t[-1] / alpha, y - t[0] / alpha
    brk = np.r_[0.0, psi.s[1:]]
    zero, tail = hi <= 0.0, lo > psi.span
    split = np.any((brk >= lo[:, None]) & (brk < hi[:, None]), axis=1)
    live = ~zero & ~tail
    return {"zero": zero, "tail": tail, "one piece": live & ~split,
            "several pieces": live & split}


def test_convolution_tables_are_read_only():
    # every bubble of a profile and every row of a mollifier shares them
    psi = next(_moment_test_profiles())
    for a in (*psi.pieces, *bb.default_mollifier().conv_rule):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_piece_lookup_matches_searchsorted():
    # both sides of the merge's size test, with rows on and between knots
    rng = np.random.default_rng(11)
    knots = np.sort(rng.uniform(0.0, 10.0, 200))
    for m in (1, 50, 200, 201, 5000):
        x = np.sort(np.r_[rng.choice(knots, m // 2), rng.uniform(-1.0, 11.0, m - m // 2)])
        np.testing.assert_array_equal(bb._pieces(knots, x), np.searchsorted(knots, x))


def test_mollified_moments_match_rule():
    # windows from a fraction of a cell to the whole profile: at alpha 2, 16
    # and 256 the standard bump spans about 1000, 130 and 8 cells of the
    # 1537-node profile
    rng = np.random.default_rng(5)
    mollifiers = (bb.default_mollifier(), bb.narrow_mollifier(),
                  bb.alternative_mollifier(), bb.MollifierSpec(0.0, 0.01))
    hits = dict.fromkeys(("zero", "tail", "one piece", "several pieces"), 0)
    for psi in _moment_test_profiles():
        s = psi.s
        scale = np.max(np.abs(psi.eval(np.r_[s, 0.5 * (s[1:] + s[:-1]), 0.5 * s[0]])))
        for alpha in (1.0, 2.0, 8.0, 16.0, 64.0, 256.0, 1024.0, 2e4):
            for rho in mollifiers:
                t, _, _ = rho.conv_rule
                # rows whose rule arguments land exactly on a knot, on 0 and
                # on the span, besides random points in and beyond the span
                on_knots = rng.choice(s, 40) + rng.choice(t, 40) / alpha
                y = np.r_[rng.uniform(-0.05, psi.span + 0.05, 400), s[::7], on_knots,
                          t / alpha, psi.span + t / alpha, 0.0, psi.span,
                          -1.0, psi.span + 1.0]
                got = bb.mollified_profile_values(psi, alpha, rho, y)
                want = _rule_sum(psi, alpha, rho, y)
                np.testing.assert_allclose(got, want, rtol=0, atol=2e-12 * scale)
                classes = _row_classes(psi, alpha, rho, y)
                assert np.all(got[classes["zero"]] == 0.0)
                for name, rows in classes.items():
                    hits[name] += int(np.count_nonzero(rows))
    assert all(hits.values()), hits


def test_mollified_row_wider_than_a_block():
    # at alpha 1 the standard bump's window covers all 10,002 pieces of a
    # 10,001-node profile, more than one block of (row, piece) pairs holds
    s = np.linspace(0.0, 1.5, 10001)
    psi = bb.Profile(s, np.sin(3.0 * s) + s, tag="smooth")
    rho = bb.default_mollifier()
    y = np.array([0.75, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(bb.mollified_profile_values(psi, 1.0, rho, y),
                               _rule_sum(psi, 1.0, rho, y), rtol=0, atol=1e-14)


def test_mollified_closed_form_profile_keeps_rule():
    # a profile with a closed form sums the rule itself, bit for bit
    L = bb.profile_L()
    y = np.linspace(-0.2, 12.0, 1001)
    for rho in (bb.default_mollifier(), bb.narrow_mollifier()):
        np.testing.assert_array_equal(bb.mollified_profile_values(L, 7.0, rho, y),
                                      _rule_sum(L, 7.0, rho, y))


# --------------------------------------------------------------- eta piece --

def test_eta_boundary_data():
    for a in (10.0, 50.0):
        jet = bb.eta_jet(a)
        eta, deta = (lambda r: jet(r)[0]), (lambda r: jet(r)[1])
        assert abs(float(eta(np.array([1.0]))[0])) == 0.0
        assert float(eta(np.array([2.0]))[0]) == 0.0
        assert float(eta(np.array([2.5]))[0]) == 0.0
        want_slope = -1.0 / np.sqrt(8.0 * PI2 * a)
        assert abs(float(deta(np.array([1.0]))[0]) - want_slope) <= 1e-14
    assert abs(-1.0 / np.sqrt(8.0 * PI2 * 10.0) - (-0.035588)) <= 1e-6


# one function per derivative, as the step and the ramp were once written:
# the reference their jets reproduce bit for bit

def _ref_bump_exp(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    m = v > 0
    out[m] = np.exp(-1.0 / v[m])
    return out


def _ref_step_down(u):
    u = np.asarray(u, dtype=float)
    out = np.ones_like(u)
    out[u >= 1.0] = 0.0
    m = (u > 0.0) & (u < 1.0)
    bm = _ref_bump_exp(1.0 - u[m])
    bp = _ref_bump_exp(u[m])
    out[m] = bm / (bp + bm)
    return out


def _ref_step_down_d1(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = (u > 0.0) & (u < 1.0)
    um = u[m]
    bm = _ref_bump_exp(1.0 - um)
    bp = _ref_bump_exp(um)
    d = bp + bm
    q = um ** -2 + (1.0 - um) ** -2
    out[m] = -bm * bp * q / d ** 2
    return out


def _ref_step_down_d2(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = (u > 0.0) & (u < 1.0)
    um = u[m]
    bm = _ref_bump_exp(1.0 - um)
    bp = _ref_bump_exp(um)
    d = bp + bm
    dprime = bp / um ** 2 - bm / (1.0 - um) ** 2
    q = um ** -2 + (1.0 - um) ** -2
    p = um ** -2 - (1.0 - um) ** -2
    qprime = -2.0 * um ** -3 + 2.0 * (1.0 - um) ** -3
    out[m] = (-bm * bp * (p * q + qprime) / d ** 2
              + 2.0 * bm * bp * q * dprime / d ** 3)
    return out


def _ref_eta_ramp(t):
    t, c = np.asarray(t, dtype=float), bb.ETA_CUT_START
    base = 0.5 * (1.0 - (1.0 + t) ** -2)
    return np.where((t > 0) & (t < 1), base * _ref_step_down((t - c) / (1.0 - c)), 0.0)


def _ref_eta_ramp_d1(t):
    t, c = np.asarray(t, dtype=float), bb.ETA_CUT_START
    u = (t - c) / (1.0 - c)
    base = 0.5 * (1.0 - (1.0 + t) ** -2)
    d = (1.0 + t) ** -3 * _ref_step_down(u) + base * _ref_step_down_d1(u) / (1.0 - c)
    return np.where((t > 0) & (t < 1), d, np.where(t == 0.0, 1.0, 0.0))


def _ref_eta_ramp_d2(t):
    t, c = np.asarray(t, dtype=float), bb.ETA_CUT_START
    u = (t - c) / (1.0 - c)
    base = 0.5 * (1.0 - (1.0 + t) ** -2)
    d = (-3.0 * (1.0 + t) ** -4 * _ref_step_down(u)
         + 2.0 * (1.0 + t) ** -3 * _ref_step_down_d1(u) / (1.0 - c)
         + base * _ref_step_down_d2(u) / (1.0 - c) ** 2)
    return np.where((t > 0) & (t < 1), d, np.where(t == 0.0, -3.0, 0.0))


def _ref_eta_callables(alpha):
    amp = -1.0 / np.sqrt(8.0 * PI2 * alpha)

    def eta(r):
        return amp * _ref_eta_ramp(np.asarray(r, dtype=float) - 1.0)

    def deta(r):
        return amp * _ref_eta_ramp_d1(np.asarray(r, dtype=float) - 1.0)

    def d2eta(r):
        return amp * _ref_eta_ramp_d2(np.asarray(r, dtype=float) - 1.0)

    def lap_eta(r):
        r = np.asarray(r, dtype=float)
        return d2eta(r) + 3.0 * deta(r) / r

    return eta, deta, d2eta, lap_eta


def _with_neighbours(*points):
    p = np.array(points)
    return np.concatenate([p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf)])


def test_jets_equal_the_per_derivative_forms():
    # elementwise on the bit patterns: signed zeros and NaNs count too
    def same_bits(got, want):
        np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                      np.asarray(want, dtype=float).view(np.uint64))

    c = bb.ETA_CUT_START
    dense = np.linspace(-0.25, 1.25, 200_001)
    t = np.concatenate([dense, _with_neighbours(0.0, c, 1.0), [-0.0]])
    r = np.concatenate([1.0 + dense, _with_neighbours(1.0, 1.0 + c, 2.0)])
    with np.errstate(all="ignore"):
        want = np.array([f(t) for f in (_ref_step_down, _ref_step_down_d1,
                                        _ref_step_down_d2)])
        # the per-derivative forms give S' and S'' NaN at u = nextafter(0, 1),
        # where u^-2 overflows; the jet gives their limit, -0, as at u = 1e-10
        tiny = t == np.nextafter(0.0, 1.0)
        assert tiny.sum() == 1 and np.isnan(want[1:, tiny]).all()
        want[1:, tiny] = -0.0
        same_bits(bb._step_down(t), want)
        same_bits(bb._eta_ramp(t), [f(t) for f in (_ref_eta_ramp, _ref_eta_ramp_d1,
                                                    _ref_eta_ramp_d2)])
        for a in (2.0, 20.0, 1e300):
            same_bits(bb.eta_jet(a)(r), [f(r) for f in _ref_eta_callables(a)])


def test_step_down_flat_where_its_bump_underflows():
    # exp(-1/u) is 0 below u of about 1/745: S = 1 and S', S'' are -0 there,
    # also where u^-2 (u < 1e-154) or u^-4 (u < 1e-77) overflows
    u = np.array([np.nextafter(0.0, 1.0), 1e-200, 1e-120])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = bb._step_down(u)
    np.testing.assert_array_equal(jet[0], 1.0)
    np.testing.assert_array_equal(jet[1:].view(np.uint64),
                                  np.full((2, 3), -0.0).view(np.uint64))
    for x in u:   # one point at a time, and as a 0-d input
        np.testing.assert_array_equal(bb._step_down(x).view(np.uint64),
                                      np.array([1.0, -0.0, -0.0]).view(np.uint64))


def test_eta_norm_coefficients_frozen():
    co = bb.eta_norm_coefficients()
    assert abs(co["l2"] - bb.ETA_L2_COEF) <= 1e-9 * bb.ETA_L2_COEF
    assert abs(co["grad"] - bb.ETA_GRAD_COEF) <= 1e-9 * bb.ETA_GRAD_COEF
    assert abs(co["lap"] - bb.ETA_LAP_COEF) <= 1e-9 * bb.ETA_LAP_COEF


# ------------------------------------------------------------ f_alpha ------

def test_falpha_center_piece_matching():
    a = 8.0
    v = bb.falpha_values(np.array([a]), a)[0]
    want = np.sqrt(a / (8.0 * PI2))
    assert abs(v - want) <= 1e-14
    assert abs(want - 0.3183099) <= 1e-7


def test_falpha_interfaces_continuous():
    for a in (5.0, 25.0, 80.0):
        gaps = bb.falpha_interface_gaps(a)
        assert max(gaps.values()) <= 1e-10


def test_falpha_gradient_identity_fine_grid():
    # grad^2 = e^{-2a}/(24a) + (1-e^{-2a})/(8a) + ||grad eta||^2 at 1e-6 rel
    a = 10.0
    from orlicz4d.norms import norms_squared
    # a plain fine grid (65,599 nodes) with both kinks on nodes
    grid = compose_segments([(-0.75, 0.0, 5600), (0.0, a, 40001), (a, a + 14.0, 20000)])
    f = bb.make_falpha(a, grid=grid)
    rec = bb.appendix_closed_forms(a)
    got = norms_squared(f)["grad"]
    assert abs(got - rec.grad_total) <= 1e-6 * rec.grad_total


def test_falpha_l2_identity():
    a = 25.0
    from orlicz4d.norms import norms_squared
    f = bb.make_falpha(a)
    rec = bb.appendix_closed_forms(a)
    got = norms_squared(f)["l2"]
    assert abs(got - rec.l2_total) <= 1e-6 * rec.l2_total


def test_falpha_rejects_small_alpha():
    with pytest.raises(ValueError):
        bb.make_falpha(1.0)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [
    bb.eta_jet, bb.falpha_grid, bb.appendix_closed_forms, bb.lemma_add1_integrals,
    bb.bubble_grid, lambda a: bb.make_falpha(a, grid=bb.falpha_grid(10.0)),
    lambda a: bb.BubbleSpec(alpha=a, profile=bb.profile_L()),
    lambda a: conc.pair_concentration(a, conc.gaussian_test)],
    ids=["eta", "falpha_grid", "appendix", "lemma_add1", "bubble_grid", "make_falpha",
         "BubbleSpec", "pair_concentration"])
def test_alpha_guards_reject_non_finite(build, alpha):
    # NaN fails every comparison, so each guard is written to pass only a
    # finite alpha in range
    with pytest.raises(ValueError, match="finite"):
        build(alpha)


# ----------------------------------------------------- appendix closed forms

def test_appendix_record_values():
    rec = bb.appendix_closed_forms(10.0)
    want_II = (1.0 / 40.0) * (-25.0 * np.exp(-40.0) - 1.25 * np.exp(-40.0)
                              + (1.0 - np.exp(-40.0)) / 32.0)
    assert abs(rec.l2_annulus - want_II) <= 1e-12
    assert abs(want_II - 7.8125e-4) <= 1e-8
    assert rec.lap_inner + rec.lap_annulus == 1.0 + 1.0 / 10.0
    assert abs(rec.grad_annulus - (1.0 - np.exp(-20.0)) / 80.0) <= 1e-15
    assert abs(rec.grad_annulus - 0.0125) <= 1e-6
    assert rec.l2_inner <= rec.l2_inner_bound


# ----------------------------------------------------------------- bubbles --

def test_pure_bubble_peak_value():
    L = bb.profile_L()
    h = bb.make_bubble(bb.BubbleSpec(alpha=100.0, profile=L, mollifier=None))
    got = float(h.eval(100.0))
    assert abs(got - np.sqrt(100.0 / (8.0 * PI2))) <= 1e-12
    assert abs(got - 1.1253954) <= 1e-6
    # same closed form at alpha = 50
    h50 = bb.make_bubble(bb.BubbleSpec(alpha=50.0, profile=L, mollifier=None))
    assert abs(float(h50.eval(50.0)) - np.sqrt(50.0 / (8.0 * PI2))) <= 1e-12


def test_mollified_bubble_invr_grad_limit():
    # ||(1/r) d_r g||^2 -> ||L'||^2/4 = 0.25
    L = bb.profile_L()
    g = bb.make_bubble(bb.BubbleSpec(alpha=100.0, profile=L))
    got = norm(g, NormKind.INVR_GRAD) ** 2
    assert abs(got - 0.25) <= 0.02 * 0.25


def test_bubble_orlicz_g_vs_h():
    cfg = OrliczConfig(lambda_tol=1e-4)
    L = bb.profile_L()
    g = bb.make_bubble(bb.BubbleSpec(alpha=100.0, profile=L))
    h = bb.make_bubble(bb.BubbleSpec(alpha=100.0, profile=L, mollifier=None))
    lg, lh = orlicz_norm(g, cfg), orlicz_norm(h, cfg)
    assert abs(lg - lh) <= 0.01 * lg


# ------------------------------------------------------ log-weight integrals

def test_lemma_add1_values_at_100():
    (i4, _), (i3, _) = bb.lemma_add1_integrals(100.0)
    assert abs(i4 - 0.200646) <= 2e-5
    assert abs(i3 - 0.502538) <= 2e-5


def test_lemma_add1_trend_to_limits():
    errs4, errs3 = [], []
    for a in (25.0, 50.0, 100.0, 200.0):
        (i4, _), (i3, _) = bb.lemma_add1_integrals(a)
        errs4.append(abs(i4 - 0.2))
        errs3.append(abs(i3 - 0.5))
    assert all(x > y for x, y in zip(errs4, errs4[1:]))
    assert all(x > y for x, y in zip(errs3, errs3[1:]))


def test_lemma_add1_endpoint_degeneracy():
    # the r^4 weight kills the deep endpoint: the limit is 1/5, not 2/5
    (i4, _), _ = bb.lemma_add1_integrals(400.0)
    assert abs(i4 - 0.2) <= 5e-4
    assert i4 < 0.3


@pytest.mark.parametrize("alpha", [1e4, 1e6, 1e100])
def test_lemma_add1_large_alpha_expansions(alpha):
    # e^{4u^2/a} = 1 + 4u^2/a + 8u^4/a^2 + O(u^6/a^3) under e^{-5u} and (twice,
    # by the u <-> alpha - u symmetry) under e^{-4u}; the next terms are below
    # 1e-12 from alpha = 1e4 on
    (i4, _), (i3, _) = bb.lemma_add1_integrals(alpha)
    assert abs(i4 - (0.2 + 0.064 / alpha + 0.06144 / alpha ** 2)) <= 1e-11
    assert abs(i3 - (0.5 + 0.25 / alpha + 0.375 / alpha ** 2)) <= 1e-11
