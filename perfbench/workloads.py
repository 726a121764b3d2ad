"""The three benchmark workloads: seeded inputs, one op, and its output check.

Each workload turns the seed into a fixed list of op inputs (one "pass");
the runner repeats whole passes, so every run sees the same input mix.  The
package only ever receives the generated inputs.  ``prepare`` hands each op
fresh input objects, so no per-object cache filled by an earlier pass is hit
by a later one; objects a real caller would share (grids) stay shared.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from orlicz4d import cli, corpus, norms, orlicz, verify
from orlicz4d.concentration import EXP_TOTAL_LIMIT

import reference

# the package re-exports the decompose() function under the module's name
dec = importlib.import_module("orlicz4d.decompose")

HERE = Path(__file__).resolve().parent

# ---------------------------------------------------------------------------
# input draws
# ---------------------------------------------------------------------------


def stratified_log_uniform(rng: np.random.Generator, lo: float, hi: float,
                           count: int) -> list[float]:
    """``count`` log-uniform draws on [lo, hi], one in each of ``count`` equal
    log-strata, in ascending order.  Stratifying keeps the share of costly
    inputs nearly the same from seed to seed."""
    u = (np.arange(count) + rng.random(count)) / count
    return [float(lo * (hi / lo) ** x) for x in u]


# f_alpha's alpha comes from a log-uniform lattice so that every possible
# draw has a recorded reference norm (reference_lambda.json).
ALPHA_LO, ALPHA_HI, ALPHA_STEPS = 20.0, 200.0, 200
ALPHAS = [ALPHA_LO * (ALPHA_HI / ALPHA_LO) ** (k / ALPHA_STEPS)
          for k in range(ALPHA_STEPS + 1)]


def alpha_index(a: float) -> int:
    return int(round(ALPHA_STEPS * math.log(a / ALPHA_LO) / math.log(ALPHA_HI / ALPHA_LO)))


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()


@dataclass
class Workload:
    name: str
    setup: Callable[[int], Any]             # seed -> context (timed as setup_s)
    inputs: Callable[[Any], list]           # context -> op inputs of one pass
    prepare: Callable[[Any, Any], Any]      # fresh op argument (untimed)
    op: Callable[[Any, Any], Any]           # the timed op
    check: Callable[[Any, Any, Any], list[str]]  # problems found (empty = pass)
    digest: Callable[[Any, Any, Any], str]  # output fingerprint (traced == untraced)
    close: Callable[[Any], None] = lambda ctx: None


# ---------------------------------------------------------------------------
# two_bubble_decompose
# ---------------------------------------------------------------------------

DECOMPOSE_OPS = 10
DECOMPOSE_CFG = dict(lambda_tol=2e-4)


@dataclass
class DecomposeContext:
    family: Any
    amplitudes: list[float]


def _decompose_setup(seed: int) -> DecomposeContext:
    rng = np.random.default_rng(seed)
    return DecomposeContext(verify.two_bubble_family(),
                            stratified_log_uniform(rng, 0.5, 2.0, DECOMPOSE_OPS))


def _decompose_prepare(ctx: DecomposeContext, c: float):
    fam = ctx.family
    return dec.SequenceFamily(list(fam.indices), [m.scaled(c) for m in fam.members],
                              meta=dict(fam.meta))


def _decompose_op(ctx: DecomposeContext, family):
    return dec.decompose(family, orlicz.OrliczConfig(**DECOMPOSE_CFG))


def _decompose_check(ctx: DecomposeContext, c: float, res) -> list[str]:
    problems = []
    if len(res.components) != 2:
        return [f"c={c:.4g}: {len(res.components)} components, expected 2"]
    last_member = ctx.family.members[-1]
    n = ctx.family.indices[-1]
    for got, want in zip(sorted(sc.last() for sc, _ in res.components), (n, n * n)):
        if abs(got - want) > verify._local_cell(last_member, want):
            problems.append(f"c={c:.4g}: last-index scale {got:.6g} not within a cell of {want}")
    for j, resid in enumerate(res.ledger):
        if not resid < 0.05:
            problems.append(f"c={c:.4g}: ledger residual {resid:.3g} at iteration {j}")
    A = res.A_history
    if not A[-1] <= 0.1 * A[0]:
        problems.append(f"c={c:.4g}: final A {A[-1]:.4g} > 0.1 A0 = {0.1 * A[0]:.4g}")
    tol = 1.0 + 2.0 * DECOMPOSE_CFG["lambda_tol"]
    if not all(b <= a * tol for a, b in zip(A, A[1:])):
        problems.append(f"c={c:.4g}: A history {A} not nonincreasing")
    return problems


def _decompose_digest(ctx: DecomposeContext, c: float, res) -> str:
    return _digest(res.A_history, res.ledger,
                   [sc.alpha.tolist() for sc, _ in res.components],
                   [psi.values.tobytes() for _, psi in res.components])


TWO_BUBBLE_DECOMPOSE = Workload(
    name="two_bubble_decompose",
    setup=_decompose_setup,
    inputs=lambda ctx: ctx.amplitudes,
    prepare=_decompose_prepare,
    op=_decompose_op,
    check=_decompose_check,
    digest=_decompose_digest,
)

# ---------------------------------------------------------------------------
# falpha_cli
# ---------------------------------------------------------------------------

FALPHA_OPS = 16
BETA = repr(32.0 * math.pi ** 2)
CLI_LAMBDA_TOL = 1e-4   # the CLI's default --lambda-tol
FILES = ("f.json", "orlicz.json", "tm.json", "conc.json")


@dataclass
class FalphaContext:
    alphas: list[int]     # indices into ALPHAS
    workdir: tempfile.TemporaryDirectory

    def path(self, name: str) -> str:
        return os.path.join(self.workdir.name, name)


def _falpha_setup(seed: int) -> FalphaContext:
    rng = np.random.default_rng(seed)
    draws = stratified_log_uniform(rng, ALPHA_LO, ALPHA_HI, FALPHA_OPS)
    scratch = HERE.parent / ".bench_out"
    scratch.mkdir(exist_ok=True)
    return FalphaContext([alpha_index(a) for a in draws],
                         tempfile.TemporaryDirectory(dir=scratch, prefix="falpha-"))


def _falpha_op(ctx: FalphaContext, k: int) -> list[int]:
    a = repr(ALPHAS[k])
    f, o, t, c = (ctx.path(n) for n in FILES)
    return [cli.main(["gen-falpha", "--alpha", a, "--out", f]),
            cli.main(["orlicz", "--in", f, "--out", o]),
            cli.main(["tm", "--in", f, "--beta", BETA, "--out", t]),
            cli.main(["concentration", "--alpha", a, "--out", c])]


@functools.cache
def reference_lambdas() -> list[float]:
    """lambda per ALPHAS entry as the CLI computed it at commit 3a6260b."""
    with open(HERE / "reference_lambda.json") as fh:
        table = json.load(fh)
    if table["alphas"] != [repr(a) for a in ALPHAS]:
        raise RuntimeError("reference_lambda.json was made for another alpha lattice")
    return table["lambda"]


def _read(ctx: FalphaContext, name: str) -> dict:
    with open(ctx.path(name)) as fh:
        return json.load(fh)


def _falpha_check(ctx: FalphaContext, k: int, codes: list[int]) -> list[str]:
    a = ALPHAS[k]
    if any(codes):
        return [f"alpha={a:.6g}: exit codes {codes}"]
    problems = []
    lam = _read(ctx, "orlicz.json")["orlicz_norm"]
    bracket2 = 1.0 / (32 * math.pi ** 2 + (8 * math.pi ** 2 / a)
                      * math.log(2 / math.pi ** 2 + math.exp(-4 * a)))
    if not lam ** 2 >= bracket2 * (1 - 1e-12):
        problems.append(f"alpha={a:.6g}: lambda^2 {lam ** 2:.8g} below bracket {bracket2:.8g}")
    ref = reference_lambdas()[k]
    if not abs(lam - ref) <= CLI_LAMBDA_TOL * ref:
        problems.append(f"alpha={a:.6g}: lambda {lam!r} vs reference {ref!r}")
    ratio = _read(ctx, "tm.json")["value"] / EXP_TOTAL_LIMIT
    if not 1.0 <= ratio <= 1.05:
        problems.append(f"alpha={a:.6g}: tm / limit = {ratio:.6g} outside [1, 1.05]")
    conc = _read(ctx, "conc.json")
    if not (math.isfinite(conc["pairing_lap"]) and math.isfinite(conc["pairing_exp"])):
        problems.append(f"alpha={a:.6g}: non-finite concentration pairing")
    return problems


def _falpha_digest(ctx: FalphaContext, k: int, codes: list[int]) -> str:
    h = hashlib.sha256(repr(codes).encode())
    for n in FILES:
        with open(ctx.path(n), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


FALPHA_CLI = Workload(
    name="falpha_cli",
    setup=_falpha_setup,
    inputs=lambda ctx: ctx.alphas,
    prepare=lambda ctx, k: k,
    op=_falpha_op,
    check=_falpha_check,
    digest=_falpha_digest,
    close=lambda ctx: ctx.workdir.cleanup(),
)

# ---------------------------------------------------------------------------
# corpus_inequalities
# ---------------------------------------------------------------------------

CORPUS_SIZE = 200
NORM_RTOL = 1e-9


@dataclass
class CorpusContext:
    functions: list
    references: dict = field(default_factory=dict)   # function index -> norms^2


def _corpus_setup(seed: int) -> CorpusContext:
    return CorpusContext(corpus.corpus_functions(seed, CORPUS_SIZE))


def _corpus_op(ctx: CorpusContext, f):
    rep = norms.check_radial_inequalities(f, r_floor=0.1, slack=1e-6)
    return rep, norms.norms_squared(f)


def _corpus_check(ctx: CorpusContext, i: int, out) -> list[str]:
    rep, sq = out
    problems = []
    if not rep.all_pass:
        problems.append(f"function {i}: radial inequality failed ({rep})")
    if i not in ctx.references:
        f = ctx.functions[i]
        ctx.references[i] = reference.norms_squared(f.grid.nodes, f.values)
    for key, want in ctx.references[i].items():
        if not abs(sq[key] - want) <= NORM_RTOL * abs(want):
            problems.append(f"function {i}: {key} norm^2 {sq[key]!r} vs reference {want!r}")
    return problems


CORPUS_INEQUALITIES = Workload(
    name="corpus_inequalities",
    setup=_corpus_setup,
    inputs=lambda ctx: list(range(len(ctx.functions))),
    prepare=lambda ctx, i: replace(ctx.functions[i], _spline=None),
    op=_corpus_op,
    check=_corpus_check,
    digest=lambda ctx, i, out: _digest(out[0], sorted(out[1].items())),
)

WORKLOADS = {w.name: w for w in (TWO_BUBBLE_DECOMPOSE, FALPHA_CLI, CORPUS_INEQUALITIES)}
