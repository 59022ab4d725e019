"""Coupled-triple Casimirs: closed forms, decomposition, correspondence."""

from fractions import Fraction

import pytest

from racahverify.howe import (
    all_pair_unions,
    check_casimir_forms,
    check_decompositions,
    check_intermediate_centrality,
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


def test_closed_form_constant_term():
    union = PairUnion((1, 2, 3))
    closed = casimir_closed_form(CTX3, union.variables())
    ident = (0,) * 12
    assert closed.coefficients()[ident].constant_value() == Fraction(6 * 2, 16)
