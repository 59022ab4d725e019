"""Commutant invariants and the five quadratic relations."""

from fractions import Fraction

import pytest

from racahverify.liealg import PairUnion, SO2nContext, casimir_CA, make_L
from racahverify.racah import (
    RELATION_ARITY,
    Basis,
    CommutantBasis,
    check_commutant_property,
    dependency_residual,
    make_G,
    make_K,
    relation_residual,
    verify_dependency,
    verify_racah_relations,
)
from racahverify.reduction import ReducedBasis, ReducedContext
from racahverify.weyl import Operator, commutator

CTX3 = SO2nContext(3)
BASIS3 = CommutantBasis(CTX3)
BASES3 = {"commutant": BASIS3, "reduced": ReducedBasis(ReducedContext(3))}


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


def test_commutant_f_is_the_bracket_of_k():
    # computed first at a descending tuple, so K is read at swapped keys
    basis = CommutantBasis(CTX3)
    k12, k23 = basis.K[(1, 2)], basis.K[(2, 3)]
    assert basis.f(3, 2, 1) == commutator(k23, k12) * Fraction(1, 32)
    # F from the K's agrees with the bracket of P's
    assert basis.f(1, 2, 3) == commutator(basis.p(1, 2), basis.p(2, 3)) * Fraction(1, 2)


@pytest.mark.parametrize("kind", list(BASES3))
def test_f_antisymmetric_under_reversal(kind):
    basis = BASES3[kind]
    f123 = basis.f(1, 2, 3)
    assert basis.f(3, 2, 1) == -f123
    # also when F^{321} is computed by its own bracket, not read from the memo
    assert type(basis)(basis.ctx).f(3, 2, 1) == -f123


def test_both_bases_share_one_f_in_their_own_namespace():
    # perfbench/spans.py wraps cls.__dict__["f"] on each basis class
    for cls in (CommutantBasis, ReducedBasis):
        assert issubclass(cls, Basis)
        assert vars(cls)["f"] is Basis.f


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
    lhs = casimir_CA(CTX3, PairUnion((1, 2, 3)))
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
    # the coupled Casimir over all four pairs, given in any factor order
    ctx = SO2nContext(4)
    assert verify_dependency(ctx, (1, 2, 3, 4))
    assert verify_dependency(ctx, (3, 1, 4, 2))


def test_dependency_rejects_repeated_factors():
    # (1, 1, 2) must not be read as {1, 2}
    for subset in ((1, 1, 2), (2, 1, 2)):
        with pytest.raises(ValueError):
            dependency_residual(CTX3, subset, BASIS3)
        with pytest.raises(ValueError):
            verify_dependency(CTX3, subset, basis=BASIS3)
