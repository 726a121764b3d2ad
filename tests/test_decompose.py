import numpy as np
import pytest

from orlicz4d import bubbles as bb
from orlicz4d.corpus import corpus_functions
from orlicz4d.decompose import (ScaleDetectionError, ScaleSeq, SequenceFamily,
                                decompose, detect_scale, energy_ledger,
                                estimate_A0, extract_profile,
                                orthogonality_check, subtract_bubble,
                                synthesize_family)
from orlicz4d.gridfn import LogRadialFunction, uniform_grid
from orlicz4d.norms import NormKind, norm
from orlicz4d.orlicz import OrliczConfig

CFG = OrliczConfig(lambda_tol=2e-4)
RHO = bb.default_mollifier()
L = bb.profile_L()
CUSP = bb.profile_cusp()
INDICES = [8, 16, 32, 64]


def pure_L_family(indices=INDICES):
    return synthesize_family(list(indices), lambda n: [
        bb.BubbleSpec(alpha=float(n), profile=L, mollifier=RHO, mollified=False)])


def mollified_L_family(indices=INDICES):
    return synthesize_family(list(indices), lambda n: [
        bb.BubbleSpec(alpha=float(n), profile=L, mollifier=RHO)])


def two_bubble_family(indices=INDICES):
    return synthesize_family(list(indices), lambda n: [
        bb.BubbleSpec(alpha=float(n), profile=L, mollifier=RHO, mollified=False),
        bb.BubbleSpec(alpha=float(n * n), profile=CUSP, mollifier=RHO,
                      mollified=False)])


def zero_family():
    g = uniform_grid(-1.0, 10.0, 64)
    return SequenceFamily([1, 2, 3],
                          [LogRadialFunction(g, np.zeros(64)) for _ in range(3)])


# ------------------------------------------------------------- estimate_A0 --

def test_estimate_zero_family():
    assert estimate_A0(zero_family(), CFG) == 0.0


def test_estimate_pure_L_family():
    A0 = estimate_A0(pure_L_family(), CFG)
    want = bb.ORLICZ_LIMIT_CONST
    assert abs(A0 - want) <= 0.05 * want


def test_estimate_scaling_homogeneity():
    fam = pure_L_family([8, 16, 32])
    A0 = estimate_A0(fam, CFG)
    scaled = SequenceFamily(fam.indices, [m.scaled(3.0) for m in fam.members])
    A3 = estimate_A0(scaled, CFG)
    assert abs(A3 - 3.0 * A0) <= 2 * CFG.lambda_tol * 3.0 * A0


# ------------------------------------------------------------ detect_scale --

def test_detect_pure_bubble_at_corner():
    for a in (16.0, 48.0):
        h = bb.make_bubble(bb.BubbleSpec(alpha=a, profile=L, mollified=False))
        got = detect_scale(h, bb.ORLICZ_LIMIT_CONST)
        cell = np.max(np.diff(h.grid.nodes[(h.grid.nodes >= a - 2)
                                           & (h.grid.nodes <= a + 2)]))
        assert abs(got - a) <= cell


def test_detect_scaling_invariance_exact():
    h = bb.make_bubble(bb.BubbleSpec(alpha=30.0, profile=L, mollified=False))
    base = detect_scale(h, 0.05)
    for c in (0.1, 3.0, 10.0):
        assert detect_scale(h.scaled(c), c * 0.05) == base


def test_detect_two_bubble_deep_first_with_brute_force():
    fam = two_bubble_family([8, 16, 32])
    m = fam.members[-1]  # scales 32 and 1024
    A0 = estimate_A0(fam, CFG)
    got = detect_scale(m, A0)
    # exhaustive scan of the same interpolant the detector sees
    s = np.linspace(0.0, m.grid.s_max, 400001)
    W = 4.0 * (m.spline()(s) / A0) ** 2 - 3.0 * s
    brute = s[np.argmax(W)]
    assert abs(got - brute) <= 0.02
    cell = np.max(np.diff(m.grid.nodes[(m.grid.nodes >= 1020)
                                       & (m.grid.nodes <= 1028)]))
    assert abs(got - 1024.0) <= cell  # the deeper, larger-W scale wins


def test_detect_no_concentration_raises():
    g = uniform_grid(-1.0, 10.0, 256)
    f = LogRadialFunction(g, np.full(256, 1e-8))
    with pytest.raises(ScaleDetectionError):
        detect_scale(f, 1.0)


# --------------------------------------------------------- extract_profile --

def test_extract_pure_L_exact():
    fam = pure_L_family()
    scales = ScaleSeq(np.array([8.0, 16.0, 32.0, 64.0]))
    psi = extract_profile(fam, scales)
    y = psi.s
    assert np.max(np.abs(psi.values - np.clip(y, 0.0, 1.0))) <= 1e-6
    assert psi.stabilization <= 1e-9


def test_extract_mollified_L_close():
    fam = mollified_L_family()
    scales = ScaleSeq(np.array([8.0, 16.0, 32.0, 64.0]))
    psi = extract_profile(fam, scales)
    sup = np.max(np.abs(psi.values - np.clip(psi.s, 0.0, 1.0)))
    assert sup <= 0.15  # Hoelder budget ~ ||L'||/sqrt(n_N)


def test_extract_derivative_mass_bound():
    fam = mollified_L_family()
    A0 = estimate_A0(fam, CFG)
    scales = ScaleSeq(np.array([8.0, 16.0, 32.0, 64.0]))
    psi = extract_profile(fam, scales)
    assert psi.deriv_l2 >= 0.9 * np.sqrt(6.0 * np.pi ** 2) * A0


# ---------------------------------------------------------- subtract_bubble

def test_subtract_self_annihilates():
    fam = mollified_L_family([8, 16, 32])
    scales = ScaleSeq(np.array([8.0, 16.0, 32.0]))
    rem = subtract_bubble(fam, scales, L, RHO, mollified=True)
    for m in rem.members:
        assert norm(m, NormKind.H2_SUM) <= 1e-8


def test_subtract_reveals_second_scale():
    fam = two_bubble_family([8, 16, 32])
    scales = ScaleSeq(np.array([64.0, 256.0, 1024.0]))
    rem = subtract_bubble(fam, scales, CUSP, RHO, mollified=True)
    A1 = estimate_A0(rem, CFG)
    got = detect_scale(rem.members[-1], A1)
    assert abs(got - 32.0) <= 0.5


def test_subtract_preserves_exterior_tail():
    # members carry mass on |x| > e; the mollified bubble does not reach there
    members = corpus_functions(seed=9, count=3)
    fam = SequenceFamily([4, 8, 16], members)
    scales = ScaleSeq(np.array([4.0, 8.0, 16.0]))
    rem = subtract_bubble(fam, scales, L, RHO, mollified=True)
    R = np.e * 1.0001
    before = fam.tail_mass(R)
    after = rem.tail_mass(R)
    np.testing.assert_allclose(after, before, rtol=1e-12)
    assert max(before) > 0  # the check is not vacuous


# ------------------------------------------------------------ energy ledger

def test_ledger_single_bubble_family():
    fam = pure_L_family()
    scales = ScaleSeq(np.array([8.0, 16.0, 32.0, 64.0]))
    rem = subtract_bubble(fam, scales, L, RHO, mollified=True)
    resid = energy_ledger(fam, rem, L)
    assert resid <= 0.05
    # the removed energy is ||L'||^2/4 = 1/4
    assert abs(norm(fam.members[-1], NormKind.INVR_GRAD) ** 2 - 0.25) <= 0.02


def test_ledger_zero_family():
    fam = zero_family()
    scales = ScaleSeq(np.array([1.0, 2.0, 3.0]))
    zero_profile = bb.Profile(np.linspace(0, 5, 64), np.zeros(64), tag="zero")
    rem = subtract_bubble(fam, scales, zero_profile, RHO)
    assert energy_ledger(fam, rem, zero_profile) == 0.0


# ------------------------------------------------------------ orthogonality

def test_orthogonality_powers():
    n = np.array([8.0, 16.0, 32.0, 64.0])
    rep = orthogonality_check(ScaleSeq(n), ScaleSeq(n * n))
    np.testing.assert_allclose(rep.d, np.log(n))
    assert rep.orthogonal


def test_orthogonality_constant_ratio_flat():
    n = np.array([8.0, 16.0, 32.0])
    rep = orthogonality_check(ScaleSeq(2.0 * n), ScaleSeq(n))
    assert np.allclose(rep.d, np.log(2.0))
    assert not rep.orthogonal


def test_orthogonality_equal_scales():
    n = np.array([8.0, 16.0, 32.0])
    rep = orthogonality_check(ScaleSeq(n), ScaleSeq(n))
    assert np.all(rep.d == 0.0)
    assert not rep.orthogonal


# ----------------------------------------------------------------- decompose

def test_decompose_single_bubble():
    res = decompose(mollified_L_family(), CFG)
    # the standard bump wins the mollifier pick clearly (0.001883 vs 0.004329)
    assert res.diagnostics["events"][0].startswith("subtraction mollifier: standard-bump")
    assert len(res.components) == 1
    assert res.A_history[-1] <= 0.1 * res.A_history[0]
    assert all(l <= 0.05 for l in res.ledger)


def test_decompose_two_bubbles():
    fam = two_bubble_family()
    res = decompose(fam, CFG)
    # the two scores tie to 4 digits: the first candidate is kept
    assert res.diagnostics["events"][0].startswith("subtraction mollifier: narrow-bump-0.3")
    assert len(res.components) == 2
    lasts = sorted(sc.last() for sc, _ in res.components)
    assert abs(lasts[0] - 64.0) <= 0.1
    assert abs(lasts[1] - 4096.0) <= 0.35
    assert res.orthogonality_matrix[0, 1] >= np.log(8.0)
    assert res.A_history[-1] <= 0.1 * res.A_history[0]
    tol = 1.0 + 2.0 * CFG.lambda_tol
    assert all(b <= a * tol for a, b in zip(res.A_history, res.A_history[1:]))
    rng = np.random.default_rng(0)
    for sc, psi in res.components:
        assert np.all(np.diff(sc.alpha) >= 0)
        assert float(psi.eval(-1.0)) == 0.0
        assert np.isfinite(psi.deriv_l2)
        assert psi.holder_max_ratio(rng, 1000) <= 1.0 + 1e-6
    # ledger telescoping: extracted energies fit the (1/r) d_r budget
    tele = sum(0.25 * psi.deriv_l2 ** 2 for _, psi in res.components)
    budget = norm(fam.members[-1], NormKind.INVR_GRAD) ** 2
    assert tele <= budget * 1.05


def test_decompose_zero_family():
    res = decompose(zero_family(), CFG)
    assert res.components == []
    assert res.A_history == []


def test_decompose_rejects_non_contracting_step():
    # the second step re-detects a flat scale sequence whose bubble raises A;
    # it must be dropped, not kept with a broken ledger
    res = decompose(mollified_L_family(), CFG, rho=bb.alternative_mollifier(),
                    stop_frac=1e-3)
    assert len(res.components) == 1
    events = res.diagnostics["events"]
    assert events[-1] == "pursuit not contracting"
    assert "scale sequence monotonized" in events
    assert all(l <= 0.05 for l in res.ledger)
    assert len(res.A_history) == len(res.components) + 1
    assert all(b <= a for a, b in zip(res.A_history, res.A_history[1:]))


def test_decompose_imputes_failed_detection():
    fam = pure_L_family()
    m0 = fam.members[0]
    blank = LogRadialFunction(m0.grid, np.zeros_like(m0.values))
    res = decompose(SequenceFamily(fam.indices, [blank] + fam.members[1:]), CFG)
    assert res.diagnostics["detect_failures"] == [[8]]
    assert len(res.components) == 1
    alpha = res.components[0][0].alpha
    assert abs(alpha[0] - 8.05) <= 0.01  # log-log extrapolation from 16, 32, 64
    assert np.all(np.diff(alpha) >= 0)


def test_decompose_detection_exhausted():
    res = decompose(pure_L_family(), CFG, stop_frac=1e-4)
    assert len(res.components) == 1
    assert res.diagnostics["events"][-1] == "detection exhausted"
    assert res.diagnostics["detect_failures"][-1] == INDICES


def test_decompose_max_profiles_reached():
    res = decompose(mollified_L_family(), CFG, stop_frac=1e-4, max_profiles=1)
    assert len(res.components) == 1
    assert res.diagnostics["events"][-1] == "max_profiles reached"
    assert res.A_history[-1] > 1e-4 * res.A_history[0]


def test_decompose_scale_min_stop():
    # the same shallow bubble at every index: no scale beyond scale_min
    fam = synthesize_family([8, 16, 32], lambda n: [
        bb.BubbleSpec(alpha=1.5, profile=L, mollifier=RHO, mollified=False)])
    res = decompose(fam, CFG)
    assert res.components == []
    assert len(res.A_history) == 1
    assert res.diagnostics["events"] == ["detected scale 1.51 below scale_min=2"]


def test_decompose_reports_tail_gate():
    res = decompose(mollified_L_family(), CFG)
    gates = res.diagnostics["tail_mass"]
    assert set(gates) == {"R=e^1", "R=e^2", "R=e^3"}
    assert all(len(v) == 4 for v in gates.values())


def test_family_validation():
    g = uniform_grid(-1.0, 5.0, 32)
    members = [LogRadialFunction(g, np.zeros(32)) for _ in range(2)]
    with pytest.raises(ValueError):
        SequenceFamily([1, 2], members)
    with pytest.raises(ValueError):
        SequenceFamily([1, 2, 2], members + members[:1])
