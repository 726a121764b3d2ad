"""Acceptance gate: every verify suite at seed 7, one line per check.

Each criterion test names the verify rows that carry it and asserts that
every one of them exists and passed; `test_verify_suite_passes` asserts
every row of every suite. Each suite runs once per session.

Run with `pytest tests/test_acceptance.py -v -s` to see each row with its
measured value, target and tolerance.
"""

import functools

import pytest

from orlicz4d.verify import SUITES, run_suite


@functools.cache
def _rows(suite: str) -> dict:
    (rep,) = run_suite(suite, 7)
    return {row.name: row for row in rep.rows}


def _assert_rows_pass(suite: str, names: list[str]) -> None:
    rows = _rows(suite)
    missing = [n for n in names if n not in rows]
    assert not missing, f"{suite} suite has no rows {missing}"
    for n in names:
        print(rows[n].line())
    failed = [rows[n].line() for n in names if not rows[n].passed]
    assert not failed, "\n".join(failed)


@pytest.mark.parametrize("name", SUITES)
def test_verify_suite_passes(name):
    rows = _rows(name).values()
    for row in rows:
        print(row.line())
    failed = [row.line() for row in rows if not row.passed]
    assert not failed, "\n".join(failed)


def test_criterion_1_falpha_orlicz_norm():
    _assert_rows_pass("falpha", [
        *(f"orlicz {kind} alpha={a}" for a in (25, 50, 100)
          for kind in ("norm", "bracket")),
        "orlicz error decreasing in alpha"])


def test_criterion_2_appendix_norms():
    _assert_rows_pass("falpha", [
        *(f"{k} norm^2 vs closed forms alpha={a}" for a in (5, 10, 25, 50)
          for k in ("l2", "grad", "lap")),
        *(f"lap norm^2 band alpha={a}" for a in (5, 10, 25, 50))])


def test_criterion_3_concentration():
    _assert_rows_pass("concentration", [
        "lap pairing alpha=80", "exp pairing alpha=80",
        "exp inner split alpha=80", "exp annulus split alpha=80",
        *(f"{k} error decreasing over alpha ladder"
          for k in ("lap", "exp", "inner", "annulus"))])


def test_criterion_4_log_weight_integrals():
    _assert_rows_pass("concentration", [
        "log-weight r^4 integral alpha=100", "log-weight r^3 integral alpha=100",
        *(f"r^{p} error decreasing at alpha={a}" for a in (50, 100, 200)
          for p in (4, 3))])


def test_criterion_5_inequality_suites():
    _assert_rows_pass("inequalities", [
        f"{kind} bound #{i}" for i in range(200)
        for kind in ("half-laplacian", "pointwise decay")])


def test_criterion_6_bubble_orlicz():
    _assert_rows_pass("bubbles", [
        "bubble orlicz limit alpha=200", "pure vs mollified orlicz gap alpha=200",
        "bubble orlicz error decreasing", "mollifier independence alpha=200"])


def test_criterion_7_sum_of_orthogonal_bubbles():
    _assert_rows_pass("bubbles", ["two-bubble sum orlicz vs max part (n=32)"])


def test_criterion_8_decomposition_recovery():
    _assert_rows_pass("decomposition", [
        "component count", "last-index scale near 64",
        "last-index scale near 4096", "scale orthogonality metric",
        "extracted derivative mass, component 0",
        "extracted derivative mass, component 1",
        "energy ledger residual, iteration 0",
        "energy ledger residual, iteration 1",
        "final orlicz mass", "A history nonincreasing"])


def test_criterion_9_detection_invariance():
    _assert_rows_pass("decomposition", [
        "detection invariance under scaling (20 members x 3 factors)"])
