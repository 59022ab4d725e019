"""The check helpers: one timed entry per (relation, indices) residual."""

import pytest

from racahverify.report import check, run_checks
from racahverify.weyl import AlgebraSignature, Operator

SIG = AlgebraSignature(1)


def residual_of(t):
    if t == (2, 1):
        raise ZeroDivisionError("boom")
    return Operator.x(SIG, 1, t[0]) - Operator.x(SIG, 1, t[1])


def test_check_records_residual_terms():
    ok = check("demo", (1, 1), residual_of, "note")
    assert (ok.relation, ok.indices, ok.passed, ok.residual_terms, ok.note) == ("demo", (1, 1), True, 0, "note")
    bad = check("demo", (3, 1), residual_of)
    assert (bad.passed, bad.residual_terms) == (False, 2)
    assert bad.ms >= 0


def test_run_checks_keeps_tuple_order(fork_at_once):
    tuples = [(1, 1), (3, 1), (2, 2), (1, 3)]
    serial = run_checks("demo", tuples, residual_of)
    parallel = run_checks("demo", tuples, residual_of, jobs=2)
    for report in (serial, parallel):
        assert [e.indices for e in report.entries] == tuples
        assert [e.residual_terms for e in report.entries] == [0, 2, 0, 2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_check_names_relation_and_tuple(jobs, fork_at_once):
    with pytest.raises(RuntimeError, match=r"demo \(2, 1\).*ZeroDivisionError\('boom'\)"):
        run_checks("demo", [(1, 1), (2, 1), (3, 3)], residual_of, jobs=jobs)
