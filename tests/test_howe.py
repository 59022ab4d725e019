"""Coupled-triple Casimirs: closed forms, decomposition, correspondence."""

from fractions import Fraction

import pytest

from racahverify import howe
from racahverify.howe import (
    all_pair_unions,
    casimir_table,
    check_casimir_forms,
    check_decompositions,
    check_intermediate_centrality,
    covariant_table,
    decomposition_residual,
    verify_commutant_correspondence,
)
from racahverify.liealg import (
    PairUnion,
    SO2nContext,
    casimir_CA,
    casimir_closed_form,
    make_JA,
    make_L,
    make_metaplectic,
)
from racahverify.racah import make_G, make_K
from racahverify.weyl import Operator, commutator

CTX3 = SO2nContext(3)


def test_pair_union_validation():
    assert PairUnion((2, 1)).variables() == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        PairUnion(())
    with pytest.raises(ValueError):
        PairUnion((1, 1))
    with pytest.raises(ValueError):
        PairUnion((0, 2))
    with pytest.raises(ValueError):
        casimir_CA(CTX3, PairUnion((4,)))


def test_all_pair_unions_count():
    assert len(all_pair_unions(CTX3)) == 7
    assert len(all_pair_unions(CTX3, min_pairs=2)) == 4


def test_coupled_triple_is_sum_of_copies():
    union = PairUnion((1, 2))
    triple = make_JA(CTX3, union)
    parts = [make_metaplectic(CTX3, mu) for mu in (1, 2, 3, 4)]
    assert triple.Jp == sum((p.Jp for p in parts[1:]), parts[0].Jp)
    assert triple.Jm == sum((p.Jm for p in parts[1:]), parts[0].Jm)
    assert triple.J0 == sum((p.J0 for p in parts[1:]), parts[0].J0)


def test_single_pair_j0_value():
    sig = CTX3.signature
    triple = make_JA(CTX3, PairUnion((1,)))
    expected = (
        Operator.constant(sig, 1)
        + Operator.x(sig, 1) * Operator.d(sig, 1)
        + Operator.x(sig, 2) * Operator.d(sig, 2)
    ) * Fraction(1, 2)
    assert triple.J0 == expected


def test_casimir_single_pair_closed_form():
    c = casimir_CA(CTX3, PairUnion((1,)))
    l = make_L(CTX3, 1, 2)
    one = Operator.constant(CTX3.signature, 1)
    assert c == (l * l + one) * Fraction(-1, 4)


def test_casimir_two_pairs_has_no_constant():
    c = casimir_CA(CTX3, PairUnion((1, 2)))
    total = Operator.zero(CTX3.signature)
    for a, b in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        l = make_L(CTX3, a, b)
        total = total + l * l
    assert c == total * Fraction(-1, 4)


def test_casimir_order_independent():
    assert casimir_CA(CTX3, PairUnion((1, 3))) == casimir_CA(CTX3, PairUnion((3, 1)))


def test_closed_form_sweep():
    report = check_casimir_forms(CTX3)
    assert report.all_passed()
    assert len(report.entries) == 7


def test_casimir_commutes_with_its_triple():
    union = PairUnion((1, 2, 3))
    c = casimir_CA(CTX3, union)
    t = make_JA(CTX3, union)
    assert commutator(c, t.J0).is_zero()
    assert commutator(c, t.Jp).is_zero()


def test_decomposition():
    assert decomposition_residual(CTX3, PairUnion((1, 2))).is_zero()
    assert decomposition_residual(CTX3, PairUnion((1, 2, 3))).is_zero()
    with pytest.raises(ValueError):
        decomposition_residual(CTX3, PairUnion((1,)))
    report = check_decompositions(CTX3)
    assert report.all_passed()
    assert len(report.entries) == 4


def test_decomposition_rank_two():
    ctx = SO2nContext(4)
    assert decomposition_residual(ctx, PairUnion((1, 2, 3, 4))).is_zero()


def test_correspondence_with_invariants():
    one = Operator.constant(CTX3.signature, 1)
    c1 = casimir_CA(CTX3, PairUnion((1,)))
    assert (c1 + (make_G(CTX3, 1) + one) * Fraction(1, 4)).is_zero()
    c12 = casimir_CA(CTX3, PairUnion((1, 2)))
    assert (c12 + make_K(CTX3, 1, 2) * Fraction(1, 4)).is_zero()
    report = verify_commutant_correspondence(CTX3)
    assert report.all_passed()
    assert len(report.entries) == 6


def test_intermediate_casimirs_commute_with_total():
    report = check_intermediate_centrality(CTX3)
    assert report.all_passed()
    assert len(report.entries) == 7


def _entries(report):
    return [(e.relation, e.indices, e.passed, e.residual_terms) for e in report.entries]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_intermediate_centrality_by_orbit_equals_the_direct_path(n, monkeypatch):
    ctx = SO2nContext(n)
    assert covariant_table(ctx, casimir_table(ctx, all_pair_unions(ctx)))
    orbit = {jobs: _entries(check_intermediate_centrality(ctx, jobs)) for jobs in (1, 2, 3)}
    monkeypatch.setattr(howe, "covariant_table", lambda ctx, table: False)
    direct = {jobs: _entries(check_intermediate_centrality(ctx, jobs)) for jobs in (1, 2, 3)}
    expected = [("intermediate-central", u.pairs, True, 0) for u in all_pair_unions(ctx)]
    assert orbit[1] == orbit[2] == orbit[3] == direct[1] == direct[2] == direct[3] == expected


@pytest.fixture
def bracket_calls(monkeypatch):
    """The left operand of every commutator the howe module takes, in order."""
    calls = []

    def counted(a, b):
        calls.append(a)
        return commutator(a, b)

    monkeypatch.setattr(howe, "commutator", counted)
    return calls


def test_intermediate_centrality_brackets_once_per_subset_size(bracket_calls):
    ctx = SO2nContext(4)
    report = check_intermediate_centrality(ctx)
    # the representatives (1..k); at k = n the bracket is [C^{[n]}, C^{[n]}]
    assert bracket_calls == [casimir_CA(ctx, PairUnion(range(1, k + 1))) for k in range(1, 5)]
    assert len(report.entries) == 15 and report.all_passed()
    # each size's entries share their representative's time evenly
    times = {}
    for e in report.entries:
        times.setdefault(len(e.indices), set()).add(e.ms)
    assert all(len(ms) == 1 for ms in times.values())


def test_non_central_term_fails_the_table_certificate_and_its_union_only(bracket_calls):
    ctx = SO2nContext(4)
    sig = ctx.signature
    table = casimir_table(ctx, all_pair_unions(ctx))
    ctx.casimir_memo[(1, 2)] = table[(1, 2)] + Operator.x(sig, 1) * Operator.d(sig, 3)
    assert not covariant_table(ctx, casimir_table(ctx, all_pair_unions(ctx)))
    report = check_intermediate_centrality(ctx)
    # the direct path: one bracket per union
    assert len(bracket_calls) == len(report.entries) == 15
    assert [e.indices for e in report.entries if not e.passed] == [(1, 2)]


def test_covariant_table_needs_every_image():
    ctx = SO2nContext(3)
    table = casimir_table(ctx, all_pair_unions(ctx))
    del table[(2, 3)]
    assert not covariant_table(ctx, table)
    assert covariant_table(ctx, {pairs: op for pairs, op in table.items() if len(pairs) != 2})


def test_closed_form_constant_term():
    union = PairUnion((1, 2, 3))
    closed = casimir_closed_form(CTX3, union.variables())
    ident = (0,) * 12
    assert closed.coefficients()[ident].constant_value() == Fraction(6 * 2, 16)
