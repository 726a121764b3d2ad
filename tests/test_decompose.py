import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from orlicz4d import bubbles as bb
from orlicz4d import verify
from orlicz4d.corpus import corpus_functions
from orlicz4d.decompose import (ScaleDetectionError, ScaleSeq, SequenceFamily,
                                _extract_pair, _impute_scales, a0_window,
                                _stabilized_snapshot, decompose, detect_scale,
                                energy_ledger, estimate_A0, orthogonality_check,
                                subtract_bubble, synthesize_family)
from orlicz4d.gridfn import LogGrid, LogRadialFunction, uniform_grid
from orlicz4d.norms import NormKind, norm
from orlicz4d.orlicz import OrliczConfig

DEC = sys.modules[decompose.__module__]
CFG = OrliczConfig(lambda_tol=2e-4)
RHO = bb.default_mollifier()
L = bb.profile_L()
CUSP = bb.profile_cusp()
INDICES = [8, 16, 32, 64]


def pure_L_family(indices=INDICES):
    return synthesize_family(list(indices), lambda n: [
        bb.BubbleSpec(alpha=float(n), profile=L, mollifier=None)])


def mollified_L_family(indices=INDICES):
    return synthesize_family(list(indices), lambda n: [
        bb.BubbleSpec(alpha=float(n), profile=L, mollifier=RHO)])


def two_bubble_family(indices=INDICES):
    return synthesize_family(list(indices), lambda n: [
        bb.BubbleSpec(alpha=float(n), profile=L, mollifier=None),
        bb.BubbleSpec(alpha=float(n * n), profile=CUSP, mollifier=None)])


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


def test_estimate_reads_the_a0_window(monkeypatch):
    # decompose scores the losing mollifier candidate only on a0_window, so
    # estimate_A0 must read exactly those members: the last ceil(N/2)
    g = uniform_grid(-1.0, 10.0, 64)
    for size, want in ((3, [1, 2]), (4, [2, 3]), (5, [2, 3, 4])):
        fam = SequenceFamily(list(range(1, size + 1)),
                             [LogRadialFunction(g, np.full(64, i + 1.0)) for i in range(size)])
        assert list(a0_window(fam)) == want
        read = []
        monkeypatch.setattr(DEC, "orlicz_norm",
                            lambda m, cfg: read.append(int(m.values[0]) - 1) or 0.0)
        estimate_A0(fam, CFG)
        assert read == want


def test_estimate_scaling_homogeneity():
    fam = pure_L_family([8, 16, 32])
    A0 = estimate_A0(fam, CFG)
    scaled = SequenceFamily(fam.indices, [m.scaled(3.0) for m in fam.members])
    A3 = estimate_A0(scaled, CFG)
    assert abs(A3 - 3.0 * A0) <= 2 * CFG.lambda_tol * 3.0 * A0


# ------------------------------------------------------------ detect_scale --

def test_detect_pure_bubble_at_corner():
    for a in (16.0, 48.0):
        h = bb.make_bubble(bb.BubbleSpec(alpha=a, profile=L, mollifier=None))
        got = detect_scale(h, bb.ORLICZ_LIMIT_CONST)
        cell = np.max(np.diff(h.grid.nodes[(h.grid.nodes >= a - 2)
                                           & (h.grid.nodes <= a + 2)]))
        assert abs(got - a) <= cell


def test_detect_scaling_invariance_exact():
    h = bb.make_bubble(bb.BubbleSpec(alpha=30.0, profile=L, mollifier=None))
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


def _detect_scale_whole_spline(member, A0):
    # detect_scale as first written, polishing on the spline through every
    # node of the member: the reference for the local polish and tie-break
    def _argmax_largest(W, tie):
        return int(np.nonzero(W >= float(np.max(W)) - tie)[0][-1])

    s = member.grid.nodes
    w = member.values / A0
    sel = s >= 0.0
    if np.count_nonzero(sel) < 3:
        raise ScaleDetectionError("grid carries no s >= 0 region")
    s0 = s[sel]
    W = 4.0 * w[sel] ** 2 - 3.0 * s0
    tie = 128.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(W))))
    k = _argmax_largest(W, tie)
    if W[k] <= W[0] + tie:
        raise ScaleDetectionError("W(s) <= W(0) everywhere")
    ratio_spline = CubicSpline(s, w, bc_type="not-a-knot")
    lo = s0[max(k - 1, 0)]
    hi = s0[min(k + 1, s0.size - 1)]
    best = s0[k]
    for _ in range(2):
        lattice = np.linspace(lo, hi, 129)
        Wl = 4.0 * ratio_spline(lattice) ** 2 - 3.0 * lattice
        j = _argmax_largest(Wl, tie)
        best = lattice[j]
        step = lattice[1] - lattice[0]
        lo, hi = max(best - step, s0[0]), best + step
    return float(best)


def _same_detection(member, A0):
    try:
        want = _detect_scale_whole_spline(member, A0)
    except ScaleDetectionError:
        with pytest.raises(ScaleDetectionError):
            detect_scale(member, A0)
        return None
    got = detect_scale(member, A0)
    assert got == want
    return got


def test_detect_local_polish_matches_whole_spline_on_families():
    # A_0 scaled up makes some members fail detection, on both sides alike
    found = []
    for fam in (verify.two_bubble_family(), mollified_L_family(), two_bubble_family([8, 16, 32])):
        A0 = estimate_A0(fam, CFG)
        found += [_same_detection(m, c * A0) for m in fam.members for c in (0.5, 1.0, 4.0)]
    assert 0 < found.count(None) < len(found) // 2


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(4, 3000), seed=st.integers(0, 2 ** 32 - 1),
       peak=st.sampled_from(["random", "first", "second", "last", "tie"]))
def test_detect_local_polish_matches_whole_spline(n, seed, peak):
    # random graded grids, some without s < 0 nodes; the nodal argmax
    # anywhere, at the first or second node of s >= 0 (a window cut at the
    # grid's start), at the last node (cut at its end), or tied between two
    # nodes to rounding (the later one wins)
    rng = np.random.default_rng(seed)
    h = np.exp(rng.uniform(-4.0, 0.0, n - 1))
    s = rng.choice([0.0, rng.uniform(-2.0, 0.0)]) + np.concatenate([[0.0], np.cumsum(h)])
    v = rng.uniform(0.0, 1.0, n) * np.sqrt(3.0 * np.maximum(s, 0.0) + 1.0)
    pos = np.flatnonzero(s >= 0.0)
    top = 10.0 * np.sqrt(s[-1] + 1.0)
    if peak == "tie" and pos.size >= 4:
        j, k = np.sort(rng.choice(pos[1:], 2, replace=False))
        v[j], v[k] = top, np.sqrt(top ** 2 + 0.75 * (s[k] - s[j]))
    elif peak != "random" and pos.size >= 3:
        v[pos[{"first": 0, "second": 1, "last": -1, "tie": 1}[peak]]] = top
    _same_detection(LogRadialFunction(LogGrid(s), v), 1.0)


def test_detect_no_concentration_raises():
    g = uniform_grid(-1.0, 10.0, 256)
    f = LogRadialFunction(g, np.full(256, 1e-8))
    with pytest.raises(ScaleDetectionError):
        detect_scale(f, 1.0)


# --------------------------------------------------------- extract_profile --

def test_extract_pure_L_exact():
    fam = pure_L_family()
    scales = ScaleSeq(np.array([8.0, 16.0, 32.0, 64.0]))
    psi, stabilization = _extract_pair(fam, scales, -1, -2)
    y = psi.s
    assert np.max(np.abs(psi.values - np.clip(y, 0.0, 1.0))) <= 1e-6
    assert stabilization <= 1e-9


def test_extract_mollified_L_close():
    fam = mollified_L_family()
    scales = ScaleSeq(np.array([8.0, 16.0, 32.0, 64.0]))
    psi, _ = _extract_pair(fam, scales, -1, -2)
    sup = np.max(np.abs(psi.values - np.clip(psi.s, 0.0, 1.0)))
    assert sup <= 0.15  # Hoelder budget ~ ||L'||/sqrt(n_N)


def test_extract_derivative_mass_bound():
    fam = mollified_L_family()
    A0 = estimate_A0(fam, CFG)
    scales = ScaleSeq(np.array([8.0, 16.0, 32.0, 64.0]))
    psi, _ = _extract_pair(fam, scales, -1, -2)
    assert psi.deriv_l2 >= 0.9 * np.sqrt(6.0 * np.pi ** 2) * A0


# ---------------------------------------------------------- subtract_bubble

def test_subtract_self_annihilates():
    fam = mollified_L_family([8, 16, 32])
    scales = ScaleSeq(np.array([8.0, 16.0, 32.0]))
    rem = subtract_bubble(fam, scales, L, RHO)
    for m in rem.members:
        assert norm(m, NormKind.H2_SUM) <= 1e-8


def test_subtract_reveals_second_scale():
    fam = two_bubble_family([8, 16, 32])
    scales = ScaleSeq(np.array([64.0, 256.0, 1024.0]))
    rem = subtract_bubble(fam, scales, CUSP, RHO)
    A1 = estimate_A0(rem, CFG)
    got = detect_scale(rem.members[-1], A1)
    assert abs(got - 32.0) <= 0.5


def test_subtract_preserves_exterior_tail():
    # members carry mass on |x| > e; the mollified bubble does not reach there
    members = corpus_functions(seed=9, count=3)
    fam = SequenceFamily([4, 8, 16], members)
    scales = ScaleSeq(np.array([4.0, 8.0, 16.0]))
    rem = subtract_bubble(fam, scales, L, RHO)
    for before, after in zip(fam.members, rem.members):
        outside = before.grid.nodes <= -1.0001
        np.testing.assert_array_equal(after.values[outside], before.values[outside])
        assert np.any(before.values[outside] != 0.0)  # the check is not vacuous


# ------------------------------------------------------------ energy ledger

def test_ledger_single_bubble_family():
    fam = pure_L_family()
    scales = ScaleSeq(np.array([8.0, 16.0, 32.0, 64.0]))
    rem = subtract_bubble(fam, scales, L, RHO)
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
    # the standard bump wins the mollifier pick clearly (0.001883 vs 0.007064)
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
        assert psi.holder_max_ratio(rng) <= 1.0 + 1e-6
    # ledger telescoping: extracted energies fit the (1/r) d_r budget
    tele = sum(0.25 * psi.deriv_l2 ** 2 for _, psi in res.components)
    budget = norm(fam.members[-1], NormKind.INVR_GRAD) ** 2
    assert tele <= budget * 1.05


def test_decompose_needs_both_mollifiers(monkeypatch):
    # either bump alone misses the stopping rule on one family: the narrow
    # bump leaves A = 0.00706 > 0.1 A_0 = 0.00567 on the mollified L family,
    # the standard bump A = 0.00886 > 0.00662 on the two-bubble family
    candidates = ["narrow-bump-0.3", "standard-bump"]   # the event's score order
    for fam, forced, kept in ((mollified_L_family(), bb.narrow_mollifier(), "standard-bump"),
                              (two_bubble_family(), RHO, "narrow-bump-0.3")):
        with monkeypatch.context() as mp:
            mp.setattr(DEC, "_RHO_CANDIDATES", (forced,))
            A = decompose(fam, CFG).A_history
        assert A[-1] > 0.1 * A[0]
        res = decompose(fam, CFG)
        assert res.A_history[-1] <= 0.1 * res.A_history[0]
        event = res.diagnostics["events"][0]
        assert event.startswith(f"subtraction mollifier: {kept} (scores ")
        scores = event[event.index("(scores ") + 8:-1].split(", ")
        # the kept score is the mass of the remainder the step keeps
        assert scores[candidates.index(kept)] == f"{res.A_history[1]:.4g}"


def test_decompose_same_numbers_as_rule(monkeypatch):
    # the moment form of the mollified convolution changes no decision and
    # moves the numbers only by rounding, against the 96-point rule summed
    # point by point
    def rule_sum(psi, alpha, rho, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        t, w, _ = rho.conv_rule
        return psi.eval(y[:, None] - t / alpha) @ w

    for make in (two_bubble_family, mollified_L_family):
        got = decompose(make(), CFG)
        with monkeypatch.context() as mp:
            mp.setattr(bb, "mollified_profile_values", rule_sum)
            want = decompose(make(), CFG)
        assert len(got.components) == len(want.components) > 0
        for (sg, _), (sw, _) in zip(got.components, want.components):
            np.testing.assert_array_equal(sg.alpha, sw.alpha)
        assert got.diagnostics["events"] == want.diagnostics["events"]
        np.testing.assert_allclose(got.A_history, want.A_history, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.ledger, want.ledger, rtol=1e-10, atol=0)


# decompose's numbers on the shipped families, recorded at commit 592f720
# (regenerate with: PYTHONPATH=src python tests/test_decompose.py)
PINNED = Path(__file__).with_name("decompose_pinned.json")
PINNED_AMPLITUDES = [0.5 * 4.0 ** (k / 9) for k in range(10)]


def _pinned_runs() -> dict:
    fam = verify.two_bubble_family()
    families = {f"two_bubble x {c!r}": SequenceFamily(
        list(fam.indices), [m.scaled(c) for m in fam.members]) for c in PINNED_AMPLITUDES}
    families["mollified_L"] = mollified_L_family()
    runs = {}
    for name, family in families.items():
        res = decompose(family, CFG)
        runs[name] = {"scales": [sc.alpha.tolist() for sc, _ in res.components],
                      "events": res.diagnostics["events"],
                      "A_history": res.A_history, "ledger": res.ledger}
    return runs


def test_decompose_pinned_numbers():
    # a lattice flip moves a scale by about 1e-4, far outside 1e-12
    want = json.loads(PINNED.read_text())
    got = _pinned_runs()
    assert got.keys() == want.keys()
    for name, w in want.items():
        g = got[name]
        assert g["events"] == w["events"], name
        assert len(g["scales"]) == len(w["scales"]) > 0, name
        for sg, sw in zip(g["scales"], w["scales"]):
            np.testing.assert_allclose(sg, sw, rtol=1e-12, atol=0, err_msg=name)
        np.testing.assert_allclose(g["A_history"], w["A_history"], rtol=1e-12, atol=0,
                                   err_msg=name)
        np.testing.assert_allclose(g["ledger"], w["ledger"], rtol=1e-10, atol=0, err_msg=name)


def test_decompose_zero_family():
    res = decompose(zero_family(), CFG)
    assert res.components == []
    assert res.A_history == []


def test_decompose_rejects_non_contracting_step(monkeypatch):
    # the second step re-detects a flat scale sequence whose bubble raises A;
    # it must be dropped, not kept with a broken ledger
    monkeypatch.setattr(DEC, "_RHO_CANDIDATES", (bb.alternative_mollifier(),))
    res = decompose(mollified_L_family(), CFG, stop_frac=1e-3)
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


def test_decompose_interpolates_failed_detection():
    fam = pure_L_family()
    m1 = fam.members[1]
    blank = LogRadialFunction(m1.grid, np.zeros_like(m1.values))
    members = fam.members[:1] + [blank] + fam.members[2:]
    res = decompose(SequenceFamily(fam.indices, members), CFG)
    assert res.diagnostics["detect_failures"] == [[16]]
    alpha = res.components[0][0].alpha
    # log-log interpolation between 8 and 32 at 16, their midpoint in log n
    assert abs(alpha[1] - np.sqrt(alpha[0] * alpha[2])) <= 1e-12 * alpha[1]
    assert abs(alpha[1] - 16.0) <= 0.1


def test_impute_scales_branches():
    # detections at n = 8, 16, 32 with alpha = 8, 16, 64: log-log slope 1
    # below 16 and 2 above; n = 4 extrapolates on slope 1, n = 12 and 24
    # interpolate, n = 64 and 128 extrapolate on slope 2
    indices = [4, 8, 12, 16, 24, 32, 64, 128]
    found = {1: 8.0, 3: 16.0, 5: 64.0}
    out = _impute_scales(indices, found)
    np.testing.assert_allclose(out, [4.0, 8.0, 12.0, 16.0, 36.0, 64.0, 256.0, 1024.0],
                               rtol=1e-12)
    assert [out[k] for k in found] == list(found.values())


def _impute_scales_loop(indices, found):
    # reference: the per-index loop the vectorized imputation replaces
    li = np.log(np.asarray(indices, dtype=float))
    ks = sorted(found)
    lx = np.log(np.asarray([indices[k] for k in ks], dtype=float))
    ly = np.log(np.asarray([found[k] for k in ks], dtype=float))
    out = np.empty(len(indices))
    for j in range(len(indices)):
        if j in found:
            out[j] = found[j]
        elif li[j] <= lx[0]:
            out[j] = np.exp(ly[0] + (ly[1] - ly[0]) / (lx[1] - lx[0]) * (li[j] - lx[0]))
        elif li[j] >= lx[-1]:
            out[j] = np.exp(ly[-1] + (ly[-1] - ly[-2]) / (lx[-1] - lx[-2]) * (li[j] - lx[-1]))
        else:
            out[j] = np.exp(np.interp(li[j], lx, ly))
    return out


def test_impute_scales_matches_loop():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(3, 10))
        indices = np.sort(rng.choice(np.arange(1, 500), n, replace=False)).tolist()
        ks = rng.choice(n, int(rng.integers(2, n + 1)), replace=False).tolist()
        found = {k: float(np.exp(rng.uniform(0.0, 6.0))) for k in ks}
        np.testing.assert_array_equal(_impute_scales(indices, found),
                                      _impute_scales_loop(indices, found))


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
        bb.BubbleSpec(alpha=1.5, profile=L, mollifier=None)])
    res = decompose(fam, CFG)
    assert res.components == []
    assert len(res.A_history) == 1
    assert res.diagnostics["events"] == ["detected scale 1.51 below scale_min=2"]


def shallow_early_family():
    # the profile's early peak puts the detected scales at 0.70, 1.35, 2.71
    # and 5.40: only the last clears scale_min, and bubbles need alpha >= 1
    s = np.linspace(0.0, 10.0, 2049)
    psi = bb.Profile(s, np.interp(s, [0.0, 0.084, 0.3, 1.0, 10.0], [0.0, 1.2, 0.5, 1.0, 1.0]))
    return synthesize_family(INDICES, lambda n: [
        bb.BubbleSpec(alpha=float(n), profile=psi, mollifier=None)])


def test_decompose_scale_min_checks_every_index():
    res = decompose(shallow_early_family(), CFG)
    assert res.components == []
    assert len(res.A_history) == 1
    assert res.diagnostics["events"] == ["detected scale 0.703 below scale_min=2"]


def test_decompose_falpha_family():
    # the paper's own sequence f_{alpha_n}, alpha_n = n: the profile snapshot
    # samples s up to s_max / alpha * alpha, which rounds one ulp past the
    # span of the n = 64 member (78 / 65.17... * 65.17... > 78)
    fam = SequenceFamily(INDICES, [bb.make_falpha(float(n)) for n in INDICES])
    res = decompose(fam, CFG)
    assert len(res.components) == 1
    assert abs(res.components[0][0].last() / 64.0 - 1.0) <= 0.05
    assert res.diagnostics["events"][-1] == "detection exhausted"
    assert res.A_history[-1] < res.A_history[0]


def test_stabilized_snapshot_zero_profile():
    y = np.linspace(0.0, 1.5, 65)
    zero = np.zeros_like(y)
    assert _stabilized_snapshot(y, zero, np.sin(y), 64, 32) is zero


def test_stabilized_snapshot_linear_bridge_fallback():
    # a localized disagreement near y = 0.05 fires the cleanup and the bump
    # zone is spliced to a power law anchored just above it; the snapshot
    # flips sign every 4 nodes there (period 8 nodes), so no log-slope can be
    # read off and the bridge falls back to p = 1: linear through the origin
    y = np.linspace(0.0, 1.5, 1537)
    h = y[1] - y[0]
    psi_last = np.where(y < 0.2, 0.3 * np.sin(np.pi * (y + 0.5 * h) / (4 * h)), 0.3)
    bump = 0.15 * np.exp(-((y - 0.05) / 0.01) ** 2)
    out = _stabilized_snapshot(y, psi_last, psi_last - bump, 64, 32)
    below = (y > 0) & (y < 0.078)       # below the anchor at about 1.25 * 0.072
    slope = out[below] / y[below]
    np.testing.assert_allclose(slope, slope[0], rtol=1e-12)
    assert slope[0] != 0.0
    np.testing.assert_array_equal(out[y > 0.2], 0.3)


def test_family_validation():
    g = uniform_grid(-1.0, 5.0, 32)
    members = [LogRadialFunction(g, np.zeros(32)) for _ in range(2)]
    with pytest.raises(ValueError):
        SequenceFamily([1, 2], members)
    with pytest.raises(ValueError):
        SequenceFamily([1, 2, 2], members + members[:1])


def test_family_rejects_non_integral_indices():
    # truncating 8.7 to 8 would move the scales _impute_scales and the
    # stabilization extrapolation read off the indices
    g = uniform_grid(-1.0, 5.0, 32)
    members = [LogRadialFunction(g, np.zeros(32)) for _ in range(3)]
    for bad in ([8.7, 16, 32], [8, 16, np.inf], [np.nan, 16, 32]):
        with pytest.raises(ValueError, match="indices must be integers"):
            SequenceFamily(bad, members)
    fam = SequenceFamily([8.0, np.int64(16), 32], members)
    assert fam.indices == [8, 16, 32] and all(type(i) is int for i in fam.indices)


if __name__ == "__main__":
    PINNED.write_text(json.dumps(_pinned_runs(), indent=1) + "\n")
