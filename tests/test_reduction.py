"""Radial realization: triples, closed forms, conserved quantities."""

from fractions import Fraction

import pytest

from racahverify.liealg import PairUnion, casimir_CA, casimir_of, make_JA, rotation
from racahverify.reduction import (
    ReducedBasis,
    ReducedContext,
    check_q_symmetry,
    make_Q,
    make_reduced_J,
    pair_invariant,
    radial_closed_form,
    reduced_casimir_pair,
    reduced_casimir_single,
    total_casimir,
    total_casimir_identity,
    verify_reduced_racah,
)
from racahverify.weyl import Operator, commutator

CTX2 = ReducedContext(2)
CTX3 = ReducedContext(3)


def test_context_validation():
    assert CTX3.signature.num_vars == 3
    assert CTX3.signature.localized == frozenset({1, 2, 3})
    assert CTX3.signature.nparams == 3
    with pytest.raises(ValueError):
        ReducedContext(1)


def test_triple_members():
    sig = CTX2.signature
    t = make_reduced_J(CTX2, 1)
    assert t.Jp == Operator.x(sig, 1, 2) * Fraction(1, 2)
    half = Fraction(1, 2)
    expected_jm = (Operator.d(sig, 1, 2) + Operator.x(sig, 1, -2) * CTX2.param(1)) * half
    assert t.Jm == expected_jm
    for i in (3, 0, -1):
        with pytest.raises(ValueError, match=rf"^variable index {i} out of range 1\.\.2$"):
            make_reduced_J(CTX2, i)


def test_triple_relations_hold_with_parameters():
    t = make_reduced_J(CTX3, 2)
    for _, residual in t.relation_residuals():
        assert residual.is_zero()


def test_parameter_zero_is_plain_oscillator():
    t = make_reduced_J(CTX2, 1)
    jm = t.Jm.specialize_params((0, 0))
    sig0 = jm.sig
    assert jm == Operator.d(sig0, 1, 2) * Fraction(1, 2)


def test_coproduct_validation():
    with pytest.raises(ValueError):
        make_JA(CTX3, PairUnion((1, 1)))
    with pytest.raises(ValueError):
        make_JA(CTX3, PairUnion((1, 4)))
    full = make_JA(CTX3, PairUnion((1, 2, 3)))
    pair = make_JA(CTX3, PairUnion((1, 2)))
    third = make_reduced_J(CTX3, 3)
    assert full.Jp == pair.Jp + third.Jp


def test_single_casimir_is_constant():
    c = reduced_casimir_single(CTX3, 2)
    expected = (CTX3.param(2) + Fraction(3, 4)) * Fraction(-1, 4)
    assert c == Operator.constant(CTX3.signature, expected)


def test_rotation_preserves_radius_but_not_potential():
    r = rotation(CTX3.signature, 1, 2)
    sig = CTX3.signature
    radius = Operator.x(sig, 1, 2) + Operator.x(sig, 2, 2)
    pot = Operator.x(sig, 1, -2) * CTX3.param(1) + Operator.x(sig, 2, -2) * CTX3.param(2)
    assert commutator(r, radius).is_zero()
    assert not commutator(r, pot).is_zero()
    with pytest.raises(ValueError, match="^rotation generator needs two distinct indices$"):
        rotation(CTX3.signature, 2, 2)
    for mu, nu, bad in ((1, 4, 4), (0, 1, 0), (1, -1, -1)):
        with pytest.raises(ValueError, match=rf"^variable index {bad} out of range 1\.\.3$"):
            rotation(CTX3.signature, mu, nu)


def test_pair_casimir_closed_form_checked_on_build():
    c = reduced_casimir_pair(CTX2, 1, 2)
    shift = CTX2.param(1) + CTX2.param(2) + 1
    closed = (pair_invariant(CTX2, 1, 2) + Operator.constant(CTX2.signature, shift)) * Fraction(-1, 4)
    assert c == closed == radial_closed_form(CTX2, (1, 2))
    with pytest.raises(ValueError):
        reduced_casimir_pair(CTX2, 1, 1)


def test_pair_casimir_at_zero_parameters():
    c = reduced_casimir_pair(CTX3, 1, 2).specialize_params((0, 0, 0))
    r = rotation(CTX3.signature, 1, 2).specialize_params((0, 0, 0))
    one = Operator.constant(r.sig, 1)
    assert c == (r * r + one) * Fraction(-1, 4)


def test_total_casimir_identity_small_ranks():
    assert total_casimir_identity(CTX2)
    assert total_casimir_identity(CTX3)


def test_total_casimir_is_pair_casimir_at_rank_two():
    assert total_casimir(CTX2) == reduced_casimir_pair(CTX2, 1, 2)


def test_conserved_quantity_examples():
    q = make_Q(CTX3, 1, 2)
    assert q == pair_invariant(CTX3, 1, 2)
    r = rotation(CTX3.signature, 1, 2).specialize_params((0, 0, 0))
    assert q.specialize_params((0, 0, 0)) == r * r
    with pytest.raises(ValueError):
        make_Q(CTX3, 2, 2)
    with pytest.raises(ValueError):
        make_Q(CTX3, 1, 4)


def test_q_commutes_with_total_casimir():
    q = make_Q(CTX3, 1, 2)
    assert commutator(q, total_casimir(CTX3)).is_zero()
    report = check_q_symmetry(CTX3)
    assert report.all_passed()
    assert len(report.entries) == 3


def test_q_symmetry_parallel_matches_serial():
    def key(report):
        return [(e.relation, e.indices, e.passed, e.residual_terms) for e in report.entries]

    assert key(check_q_symmetry(CTX3, jobs=1)) == key(check_q_symmetry(CTX3, jobs=2))


def test_reduced_basis_bracket_structure():
    basis = ReducedBasis(CTX3)
    assert basis.f(1, 2, 3) == commutator(basis.p(1, 2), basis.p(2, 3)) * Fraction(1, 2)
    assert basis.c(1) == Operator.constant(CTX3.signature, (CTX3.param(1) + Fraction(3, 4)) * Fraction(-1, 4))


def test_reduced_relation_sweep():
    report = verify_reduced_racah(CTX3, ReducedBasis(CTX3))
    assert report.all_passed()
    counts = {}
    for e in report.entries:
        counts[e.relation] = counts.get(e.relation, 0) + 1
    assert counts == {"a": 6, "b": 6, "c": 1, "d": 1, "e": 1}
    skipped = [e for e in report.entries if e.note.startswith("skipped")]
    assert sorted(e.relation for e in skipped) == ["c", "d", "e"]
    with pytest.raises(ValueError):
        verify_reduced_racah(CTX2, ReducedBasis(CTX2))


def test_reduced_triples_share_casimir_with_direct_computation():
    pair = make_JA(CTX3, PairUnion((2, 3)))
    assert casimir_of(pair) == reduced_casimir_pair(CTX3, 2, 3)


def test_casimir_built_once_per_context():
    ctx = ReducedContext(3)
    assert reduced_casimir_pair(ctx, 1, 2) is casimir_CA(ctx, PairUnion((1, 2)))
    assert total_casimir(ctx) is total_casimir(ctx)
    assert set(ctx.casimir_memo) == {(1, 2), (1, 2, 3)}
    assert ctx == ReducedContext(3)


def test_radial_squares_built_once_per_context():
    ctx = ReducedContext(3)
    assert ctx.square_memo == {}
    closed = radial_closed_form(ctx, (1, 2, 3))
    sig = ctx.signature
    r21 = rotation(sig, 2, 1)
    ratio12 = Operator.x(sig, 1, 2) * Operator.x(sig, 2, -2)
    ratio21 = Operator.x(sig, 2, 2) * Operator.x(sig, 1, -2)
    assert make_Q(ctx, 2, 1) == r21 * r21 + ratio12 * ctx.param(2) + ratio21 * ctx.param(1)
    # the closed form stored every R_{ij}^2 under its sorted pair, and Q_{21} read R_{12}^2
    assert set(ctx.square_memo) == {(1, 2), (1, 3), (2, 3)}
    assert ctx.square_memo[1, 2] == r21 * r21 and radial_closed_form(ctx, (1, 2, 3)) == closed
    assert ctx == ReducedContext(3)
