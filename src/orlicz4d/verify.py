"""Bundled verification suites: every quantitative claim that can be checked
numerically at desk scale, as machine-readable pass/fail rows.

Each row carries the measured value, its target, the tolerance at which it
is judged, and the provenance of the target (closed-form oracle, quadrature
oracle, asymptotic limit, or property).  Rows whose value is an Orlicz norm,
a concentration pairing, a log-weight integral or a mollifier's mass also
carry its estimated quadrature error, in the value's units.  A suite passes
iff all rows do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import bubbles as bb
from . import concentration as conc
from .corpus import corpus_functions
from .decompose import (BubbleSpec, a0_window, decompose, detect_scale, orthogonality_check,
                        synthesize_family)
from .gridfn import LogRadialFunction, _graded_rule, _integrate
from .norms import NormKind, check_radial_inequalities, norm, norms_squared
from .orlicz import OrliczConfig, orlicz_norm_report, tm_functional

PI2 = np.pi ** 2
SQRT_6PI2 = np.sqrt(6.0 * PI2)      # 7.6952989...
TARGET_LIMIT = bb.ORLICZ_LIMIT_CONST  # 1/sqrt(32 pi^2) = 0.0562697...


@dataclass
class CheckRow:
    name: str
    value: float
    target: float
    tolerance: float
    provenance: str
    passed: bool
    estimate: float | None = None

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        est = "" if self.estimate is None else f" est={self.estimate:.3g}"
        return (f"[{flag}] {self.name}: value={self.value:.8g} "
                f"target={self.target:.8g} tol={self.tolerance:.3g}{est} ({self.provenance})")


@dataclass
class SuiteReport:
    suite: str
    seed: int
    rows: list[CheckRow] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def add(self, name: str, value: float, target: float, tolerance: float,
            provenance: str, passed: bool | None = None,
            estimate: float | None = None) -> None:
        """By default a row passes if |value - target| plus the value's
        estimated error is within the tolerance."""
        if passed is None:
            passed = abs(value - target) + (estimate or 0.0) <= tolerance
        self.rows.append(CheckRow(name, float(value), float(target), float(tolerance),
                                  provenance, bool(passed),
                                  None if estimate is None else float(estimate)))

    def to_dict(self) -> dict:
        # elapsed time stays out of artifacts: identical runs, identical bytes
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [vars(r) for r in self.rows],
        }


def _norm(f: LogRadialFunction, cfg: OrliczConfig) -> tuple[float, float]:
    """The Orlicz norm and its estimated absolute quadrature error."""
    r = orlicz_norm_report(f, cfg)
    return r.lam, r.lam * r.error


# --------------------------------------------------------------------------
# suite: randomized radial inequalities
# --------------------------------------------------------------------------

def suite_inequalities(seed: int = 7) -> SuiteReport:
    """200 seeded smooth radial functions against both radial inequalities."""
    rep = SuiteReport("inequalities", seed)
    for k, f in enumerate(corpus_functions(seed, 200)):
        r = check_radial_inequalities(f, r_floor=0.1, slack=1e-6)
        rep.add(f"half-laplacian bound #{k}", r.invr_grad, r.half_lap,
                1e-6 * max(r.half_lap, 1e-300), "quadrature oracle",
                passed=r.half_lap_pass)
        rep.add(f"pointwise decay bound #{k}", r.pointwise_max, 1.0, 1e-6,
                "closed-form constant", passed=r.pointwise_pass)
    return rep


# --------------------------------------------------------------------------
# suite: the concentration family f_alpha
# --------------------------------------------------------------------------

def suite_falpha(seed: int = 7) -> SuiteReport:
    rep = SuiteReport("falpha", seed)
    cfg = OrliczConfig(lambda_tol=1e-4)

    errs = []
    for a in (25, 50, 100):
        lam, est = _norm(bb.make_falpha(a), cfg)
        errs.append(abs(lam - TARGET_LIMIT))
        bracket = 1.0 / np.sqrt(32 * PI2 + (8 * PI2 / a)
                                * np.log(2 * cfg.kappa / PI2 + np.exp(-4 * a)))
        tol = 0.002 if a == 100 else 0.01
        rep.add(f"orlicz norm alpha={a}", lam, TARGET_LIMIT, tol, "asymptotic limit",
                passed=(abs(lam - TARGET_LIMIT) + est <= tol if a == 100 else est <= tol),
                estimate=est)
        # one-sided: the low end of lam's error interval must clear the bracket
        rep.add(f"orlicz bracket alpha={a}", lam ** 2, bracket ** 2, 0.0,
                "closed-form bracket", estimate=2.0 * lam * est,
                passed=max(lam - est, 0.0) ** 2 >= bracket ** 2 * (1 - 1e-12))
    rep.add("orlicz error decreasing in alpha", errs[-1], errs[0], 0.0,
            "asymptotic limit", passed=errs[0] > errs[1] > errs[2])

    for a in (5, 10, 25, 50):
        sq = norms_squared(bb.make_falpha(a))
        rec = bb.appendix_closed_forms(a)
        for kind, got, want in (("l2", sq["l2"], rec.l2_total),
                                ("grad", sq["grad"], rec.grad_total),
                                ("lap", sq["lap"], rec.lap_total)):
            rep.add(f"{kind} norm^2 vs closed forms alpha={a}", got, want,
                    1e-4 * want, "closed-form oracle")
        lo = 1 + 1 / a
        hi = 1 + 1 / a + bb.ETA_LAP_COEF / a * 1.01
        rep.add(f"lap norm^2 band alpha={a}", sq["lap"], 0.5 * (lo + hi),
                0.5 * (hi - lo), "closed-form band",
                passed=lo <= sq["lap"] <= hi)
        gaps = bb.falpha_interface_gaps(a)
        rep.add(f"interface continuity alpha={a}", max(gaps.values()), 0.0,
                1e-10, "construction")
    return rep


# --------------------------------------------------------------------------
# suite: concentration pairings and the log-weight integrals
# --------------------------------------------------------------------------

def suite_concentration(seed: int = 7) -> SuiteReport:
    rep = SuiteReport("concentration", seed)
    # per quantity and alpha: (relative error to the limit, its quadrature estimate)
    errs = {k: [] for k in ("lap", "exp", "inner", "annulus")}
    rows80 = {"lap": ("lap pairing", 0.03), "exp": ("exp pairing", 0.10),
              "inner": ("exp inner split", 0.10), "annulus": ("exp annulus split", 0.10)}
    for a in (20, 40, 80):
        r = conc.pair_concentration(a, conc.gaussian_test)
        # the phi = 1 totals against f_alpha's grid functionals: a second
        # discretization, which also sees the eta region's share
        one, f = conc.pair_concentration(a, np.ones_like), bb.make_falpha(a)
        for name, value, target, tol in (
                ("exp", one.pairing_exp, tm_functional(f, 32.0 * PI2).value, 1e-5),
                ("lap", one.pairing_lap, norm(f, NormKind.LAP) ** 2, 5e-4)):
            rep.add(f"{name} pairing phi=1 vs grid total alpha={a}", value, target,
                    tol * target, "independent discretization",
                    estimate=sum(one.split_error[name].values()))
        phi0, est = r.phi_at_zero, r.split_error
        for name, value, limit, e in (
                ("lap", r.pairing_lap, phi0, sum(est["lap"].values())),
                ("exp", r.pairing_exp, conc.EXP_TOTAL_LIMIT * phi0, sum(est["exp"].values())),
                ("inner", r.split["exp"]["inner"], conc.EXP_INNER_LIMIT * phi0,
                 est["exp"]["inner"]),
                ("annulus", r.split["exp"]["annulus"], conc.EXP_ANNULUS_LIMIT * phi0,
                 est["exp"]["annulus"])):
            errs[name].append((abs(value - limit) / limit, e / limit))
            if a == 80:
                label, tol = rows80[name]
                rep.add(f"{label} alpha=80", value, limit, tol * limit, "asymptotic limit",
                        estimate=e)
    for name, es in errs.items():
        # each step down must exceed both estimates
        rep.add(f"{name} error decreasing over alpha ladder", es[-1][0], es[0][0], 0.0,
                "asymptotic limit", estimate=es[-1][1],
                passed=all(e0 - d0 > e1 + d1 for (e0, d0), (e1, d1) in zip(es, es[1:])))

    prev = None
    for a in (25, 50, 100, 200):
        pairs = bb.lemma_add1_integrals(a)
        # (|value - limit|, estimate) of the r^4 and r^3 integrals
        errs = [(abs(v - lim), e) for (v, e), lim in zip(pairs, (0.2, 0.5))]
        if a == 100:
            for k, (v, e), lim in zip(("r^4", "r^3"), pairs, (0.2, 0.5)):
                rep.add(f"log-weight {k} integral alpha=100", v, lim, 0.02,
                        "asymptotic limit", estimate=e)
        if prev is not None:
            # each step down must exceed both estimates
            for k, (d0, e0), (d1, e1) in zip(("r^4", "r^3"), prev, errs):
                rep.add(f"{k} error decreasing at alpha={a}", d1, d0, 0.0,
                        "asymptotic limit", estimate=e1, passed=d0 - d1 > e0 + e1)
        prev = errs
    return rep


# --------------------------------------------------------------------------
# suite: bubbles
# --------------------------------------------------------------------------

def suite_bubbles(seed: int = 7) -> SuiteReport:
    rep = SuiteReport("bubbles", seed)
    cfg = OrliczConfig(lambda_tol=1e-4)
    rho = bb.default_mollifier()
    L = bb.profile_L()

    errs = []
    for a in (50, 100, 200):
        g = bb.make_bubble(BubbleSpec(alpha=a, profile=L, mollifier=rho))
        h = bb.make_bubble(BubbleSpec(alpha=a, profile=L, mollifier=None))
        (lam_g, est_g), (lam_h, est_h) = _norm(g, cfg), _norm(h, cfg)
        errs.append(abs(lam_g - TARGET_LIMIT) / TARGET_LIMIT)
        if a == 200:
            rep.add("bubble orlicz limit alpha=200", lam_g, TARGET_LIMIT,
                    0.02 * TARGET_LIMIT, "asymptotic limit", estimate=est_g)
            rep.add("pure vs mollified orlicz gap alpha=200",
                    abs(lam_g - lam_h), 0.0, 0.01 * lam_g, "asymptotic limit",
                    estimate=est_g + est_h)
    rep.add("bubble orlicz error decreasing", errs[-1], errs[0], 0.0,
            "asymptotic limit", passed=errs[0] > errs[1] > errs[2])
    g_alt = bb.make_bubble(BubbleSpec(alpha=200.0, profile=L,
                                      mollifier=bb.alternative_mollifier()))
    lam_alt, est_alt = _norm(g_alt, cfg)
    rep.add("mollifier independence alpha=200", abs(lam_alt - lam_g), 0.0,
            0.01 * lam_g, "asymptotic limit", estimate=est_alt + est_g)

    # profile and mollifier structural invariants
    rng = np.random.default_rng(seed)
    for prof in (L, bb.profile_tent(), bb.profile_cusp()):
        # the sample at s = 0: eval masks y <= 0 to 0 whatever the samples
        rep.add(f"profile[{prof.tag}] vanishes at 0", abs(float(prof.values[0])),
                0.0, 1e-12, "construction")
        ratio = prof.holder_max_ratio(rng)
        rep.add(f"profile[{prof.tag}] Hoelder certificate", ratio, 1.0, 1e-6,
                "property", passed=ratio <= 1 + 1e-6)
    for spec in (rho, bb.alternative_mollifier(), bb.narrow_mollifier()):
        t, w = _graded_rule(spec.support, 0.02)
        (mass, est), = _integrate(w, spec.values(t))
        rep.add(f"mollifier[{spec.name}] unit mass", mass, 1.0, 1e-12, "quadrature oracle",
                estimate=est)

    # sum of two orthogonally-scaled bubbles stays near the larger one
    tent, cusp = bb.profile_tent(), bb.profile_cusp()
    n = 32
    fam = synthesize_family([n // 4, n // 2, n],
                            lambda m: [BubbleSpec(alpha=float(m), profile=tent,
                                                  mollifier=rho),
                                       BubbleSpec(alpha=float(m * m), profile=cusp,
                                                  mollifier=rho)])
    lam_sum, est_sum = _norm(fam.members[-1], cfg)
    mx, est_mx = max(_norm(bb.make_bubble(spec), cfg) for spec in (
        BubbleSpec(alpha=float(n), profile=tent, mollifier=rho),
        BubbleSpec(alpha=float(n * n), profile=cusp, mollifier=rho)))
    rep.add("two-bubble sum orlicz vs max part (n=32)", lam_sum, mx, 0.05 * mx,
            "asymptotic limit", estimate=est_sum + est_mx)
    return rep


# --------------------------------------------------------------------------
# suite: decomposition
# --------------------------------------------------------------------------

def two_bubble_family():
    """The synthesized two-orthogonal-bubble family at n = 8, 16, 32, 64:
    plateau profile at scale n, cusp profile at scale n^2, both pure bubbles
    (``mollifier=None``)."""
    L, cusp = bb.profile_L(), bb.profile_cusp()
    return synthesize_family([8, 16, 32, 64], lambda n: [
        BubbleSpec(alpha=float(n), profile=L, mollifier=None),
        BubbleSpec(alpha=float(n * n), profile=cusp, mollifier=None),
    ])


def _local_cell(member: LogRadialFunction, s: float) -> float:
    nodes = member.grid.nodes
    k = int(np.clip(np.searchsorted(nodes, s), 1, nodes.size - 1))
    return float(nodes[k] - nodes[k - 1])


def suite_decomposition(seed: int = 7) -> SuiteReport:
    rep = SuiteReport("decomposition", seed)
    cfg = OrliczConfig(lambda_tol=2e-4)

    fam = two_bubble_family()
    res = decompose(fam, cfg)
    A0 = res.A_history[0] if res.A_history else 0.0
    rep.add("component count", len(res.components), 2, 0.0, "construction",
            passed=len(res.components) == 2)
    if len(res.components) == 2:
        lasts = sorted(sc.last() for sc, _ in res.components)
        for got, want in zip(lasts, (64.0, 4096.0)):
            cell = _local_cell(fam.members[-1], want)
            rep.add(f"last-index scale near {want:g}", got, want, cell,
                    "closed-form argmax")
        rep.add("scale orthogonality metric", res.orthogonality_matrix[0, 1],
                np.log(8), 0.0, "construction",
                passed=res.orthogonality_matrix[0, 1] >= np.log(8))
        orth = orthogonality_check(*(sc for sc, _ in res.components))
        rep.add("scale orthogonality |log(a_n/b_n)| increasing", orth.d[-1], orth.d_min,
                0.0, "construction", passed=orth.orthogonal)
        for j, (sc, psi) in enumerate(res.components):
            bound = 0.9 * SQRT_6PI2 * res.A_history[j]
            rep.add(f"extracted derivative mass, component {j}", psi.deriv_l2,
                    bound, 0.0, "extraction bound",
                    passed=psi.deriv_l2 >= bound)
        for j, resid in enumerate(res.ledger):
            rep.add(f"energy ledger residual, iteration {j}", resid, 0.0, 0.05,
                    "energy identity")
        # A is the largest norm over the members estimate_A0 reads
        est = max(_norm(res.remainder.members[i], cfg)[1] for i in a0_window(res.remainder))
        rep.add("final orlicz mass", res.A_history[-1], 0.0, 0.1 * A0,
                "stopping rule", estimate=est)
        tol = 1.0 + 2.0 * cfg.lambda_tol
        noninc = all(b <= a * tol for a, b in zip(res.A_history, res.A_history[1:]))
        rep.add("A history nonincreasing", float(noninc), 1.0, 0.0,
                "algorithm invariant", passed=noninc)

    # scale-detection invariance under joint rescaling
    rng = np.random.default_rng(seed)
    rho = bb.default_mollifier()
    L = bb.profile_L()
    mismatches = 0
    for _ in range(20):
        a = float(rng.uniform(10.0, 60.0))
        g = bb.make_bubble(BubbleSpec(alpha=a, profile=L, mollifier=rho))
        A_ref = float(0.05 + 0.02 * rng.random())
        base = detect_scale(g, A_ref)
        for c in (0.1, 3.0, 10.0):
            if detect_scale(g.scaled(c), c * A_ref) != base:
                mismatches += 1
    rep.add("detection invariance under scaling (20 members x 3 factors)",
            mismatches, 0, 0.0, "exact invariance", passed=mismatches == 0)
    return rep


SUITES = {
    "inequalities": suite_inequalities,
    "falpha": suite_falpha,
    "concentration": suite_concentration,
    "bubbles": suite_bubbles,
    "decomposition": suite_decomposition,
}


def run_suite(name: str, seed: int = 7) -> list[SuiteReport]:
    """The named suite's report, or every suite's in SUITES order, each timed."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from "
                         f"{sorted(SUITES)} or 'all'")
    reports = []
    for suite in SUITES.values() if name == "all" else [SUITES[name]]:
        t0 = time.time()
        reports.append(suite(seed))
        reports[-1].elapsed_s = time.time() - t0
    return reports
