"""Commutant invariants and the five quadratic relations."""

from fractions import Fraction

import pytest

from racahverify.liealg import SO2nContext, make_L
from racahverify.racah import (
    RELATION_ARITY,
    CommutantBasis,
    check_commutant_property,
    dependency_residual,
    direct_subset_casimir,
    make_G,
    make_K,
    relation_residual,
    verify_dependency,
    verify_racah_relations,
)
from racahverify.weyl import Operator, commutator

CTX3 = SO2nContext(3)
BASIS3 = CommutantBasis(CTX3)


def test_make_G():
    l12 = make_L(CTX3, 1, 2)
    assert make_G(CTX3, 1) == l12 * l12
    assert commutator(make_G(CTX3, 1), l12).is_zero()
    assert commutator(make_G(CTX3, 1), make_L(CTX3, 3, 4)).is_zero()
    with pytest.raises(ValueError):
        make_G(CTX3, 0)
    with pytest.raises(ValueError):
        make_G(CTX3, 4)


def test_make_K():
    k12 = make_K(CTX3, 1, 2)
    total = Operator.zero(CTX3.signature)
    for a, b in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)):
        l = make_L(CTX3, a, b)
        total = total + l * l
    assert k12 == total
    assert make_K(CTX3, 2, 1) == k12
    assert commutator(k12, make_L(CTX3, 1, 2)).is_zero()
    assert commutator(k12, make_L(CTX3, 5, 6)).is_zero()
    with pytest.raises(ValueError):
        make_K(CTX3, 1, 1)


def test_commutant_property_sweep():
    report = check_commutant_property(CTX3, basis=BASIS3)
    assert report.all_passed()
    # 3 G's and 3 K's, each against 3 rotations
    assert len(report.entries) == 18


def test_rescaled_invariants():
    one = Operator.constant(CTX3.signature, 1)
    assert BASIS3.C1[1] == (BASIS3.G[1] + one) * Fraction(-1, 4)
    assert BASIS3.C2[(1, 2)] == BASIS3.K[(1, 2)] * Fraction(-1, 4)
    combo = (
        BASIS3.K[(1, 2)] * Fraction(-1, 4)
        + (BASIS3.G[1] + BASIS3.G[2]) * Fraction(1, 4)
        + Operator.constant(CTX3.signature, Fraction(1, 2))
    )
    assert BASIS3.P[(1, 2)] == combo


def test_single_casimir_constant_forced_by_relation_b():
    # the shift in C1 is not a convention: replacing -(G+1)/4 by
    # -G/4 + 1/4 changes the C-terms of relation (b) and leaves a
    # nonzero residual equal to P^{ij} - P^{ik}
    half_up = {
        i: BASIS3.G[i] * Fraction(-1, 4) + Operator.constant(CTX3.signature, Fraction(1, 4))
        for i in (1, 2, 3)
    }
    residual = relation_residual(
        "b", (1, 2, 3), BASIS3.p, BASIS3.f, lambda i: half_up[i]
    )
    assert not residual.is_zero()
    assert residual == BASIS3.p(1, 2) - BASIS3.p(1, 3)
    # while the actual pair Casimir value leaves none
    assert relation_residual("b", (1, 2, 3), BASIS3.p, BASIS3.f, BASIS3.c).is_zero()


def test_p_symmetric_access():
    assert BASIS3.p(2, 1) == BASIS3.p(1, 2)
    assert BASIS3.k(3, 1) == BASIS3.K[(1, 3)]


def test_f_antisymmetric_under_reversal():
    f123 = BASIS3.f(1, 2, 3)
    assert BASIS3.f(3, 2, 1) == -f123
    # direct expansion agrees with the bracket of P's
    assert f123 == commutator(BASIS3.p(1, 2), BASIS3.p(2, 3)) * Fraction(1, 2)


def test_single_casimirs_are_central():
    for j, k in ((1, 2), (2, 3), (1, 3)):
        assert commutator(BASIS3.C1[1], BASIS3.p(j, k)).is_zero()


def test_relation_sweep_rank_one():
    report = verify_racah_relations(CTX3, basis=BASIS3)
    assert report.all_passed()
    by_rel = {}
    for e in report.entries:
        by_rel.setdefault(e.relation, []).append(e)
    # 6 ordered triples for each 3-index relation
    assert len(by_rel["a"]) == 6
    assert len(by_rel["b"]) == 6
    # 4- and 5-index relations have no admissible tuples at n=3
    for rel in ("c", "d", "e"):
        (entry,) = by_rel[rel]
        assert entry.note.startswith("skipped")


def test_relation_arity_table():
    assert RELATION_ARITY == {"a": 3, "b": 3, "c": 4, "d": 4, "e": 5}
    with pytest.raises(ValueError):
        relation_residual("z", (1, 2, 3), BASIS3.p, BASIS3.f, BASIS3.c)


def test_relation_sweep_rank_two():
    ctx = SO2nContext(4)
    report = verify_racah_relations(ctx)
    assert report.all_passed()
    counts = {}
    for e in report.entries:
        counts[e.relation] = counts.get(e.relation, 0) + 1
    assert counts == {"a": 24, "b": 24, "c": 24, "d": 24, "e": 1}


def test_dependency_identity():
    assert verify_dependency(CTX3, (1, 2), basis=BASIS3)
    assert verify_dependency(CTX3, (1, 2, 3), basis=BASIS3)
    with pytest.raises(ValueError):
        verify_dependency(CTX3, (1,), basis=BASIS3)
    with pytest.raises(ValueError):
        verify_dependency(CTX3, (1, 4), basis=BASIS3)


def test_dependency_residual_counts_wrong_shift():
    # C1 = -G/4 + 1/4 sits 1/2 above -(G + 1)/4; the weight-one C1 sum
    # of a three-factor subset then leaves exactly the constant 3/2
    basis = CommutantBasis(CTX3)
    quarter = Operator.constant(CTX3.signature, Fraction(1, 4))
    basis.C1 = {i: g * Fraction(-1, 4) + quarter for i, g in basis.G.items()}
    residual = dependency_residual(CTX3, (1, 2, 3), basis)
    assert residual == Operator.constant(CTX3.signature, Fraction(3, 2))
    assert residual.term_count() == 1
    assert dependency_residual(CTX3, (1, 2, 3), BASIS3).is_zero()


def test_dependency_expands_to_pair_sums():
    lhs = direct_subset_casimir(CTX3, (1, 2, 3))
    rhs = (
        BASIS3.C2[(1, 2)]
        + BASIS3.C2[(1, 3)]
        + BASIS3.C2[(2, 3)]
        - BASIS3.C1[1]
        - BASIS3.C1[2]
        - BASIS3.C1[3]
    )
    assert lhs == rhs


def test_dependency_cross_checks_coupled_casimir():
    from racahverify.howe import PairUnion, casimir_CA

    ctx = SO2nContext(4)
    full = (1, 2, 3, 4)
    assert verify_dependency(ctx, full)
    direct = direct_subset_casimir(ctx, full)
    assert direct == casimir_CA(ctx, PairUnion(full))
