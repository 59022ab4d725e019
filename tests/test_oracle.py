"""Random-evaluation oracle: determinism, sensitivity, concordance."""

import random
from fractions import Fraction

import pytest

from racahverify import oracle, weyl
from racahverify.liealg import SO2nContext, casimir_sum, make_L
from racahverify.oracle import (
    oracle_apply_check,
    oracle_equiv,
    random_point,
    random_polynomial,
)
from racahverify.racah import make_K
from racahverify.reduction import ReducedContext, make_reduced_J
from racahverify.weyl import AlgebraSignature, Operator, commutator

SIG2 = AlgebraSignature(2)
LOC = AlgebraSignature(2, localized=frozenset({1}), nparams=1)


def test_random_point_respects_signature():
    rng = random.Random(7)
    for _ in range(50):
        pt = random_point(LOC, rng)
        assert len(pt.coords) == 2
        assert len(pt.params) == 1
        assert all(c != 0 for c in pt.coords)


def test_random_polynomial_respects_localization():
    rng = random.Random(11)
    for _ in range(50):
        f = random_polynomial(LOC, rng)
        for xe in f.coefficients():
            assert xe[0] >= -2
            assert xe[1] >= 0


def test_oracle_accepts_true_identity():
    x1 = Operator.x(SIG2, 1)
    d1 = Operator.d(SIG2, 1)
    one = Operator.constant(SIG2, 1)
    assert oracle_equiv(commutator(d1, x1), one)
    assert oracle_equiv(d1 * x1, x1 * d1 + one)


def test_oracle_rejects_false_identity():
    x1 = Operator.x(SIG2, 1)
    d1 = Operator.d(SIG2, 1)
    assert not oracle_equiv(x1 * d1, d1 * x1)


def test_oracle_rejects_truncated_casimir_centrality():
    ctx = SO2nContext(3)
    truncated = casimir_sum(ctx, ctx.n)
    bracket = commutator(truncated, make_L(ctx, 1, 4))
    zero = Operator.zero(ctx.signature)
    assert not oracle_equiv(bracket, zero, trials=20)
    full = casimir_sum(ctx, 2 * ctx.n)
    assert oracle_equiv(commutator(full, make_L(ctx, 1, 4)), zero, trials=20)


def test_oracle_is_deterministic():
    x1 = Operator.x(SIG2, 1)
    d1 = Operator.d(SIG2, 1)
    runs = [oracle_equiv(d1 * x1, x1 * d1 + Operator.constant(SIG2, 1), seed=3) for _ in range(3)]
    assert runs == [True, True, True]


def test_oracle_signature_mismatch():
    with pytest.raises(ValueError):
        oracle_equiv(Operator.x(SIG2, 1), Operator.x(LOC, 1))
    with pytest.raises(ValueError):
        oracle_apply_check(Operator.x(SIG2, 1), Operator.x(LOC, 1))


def test_oracle_with_localized_parameters():
    a1 = LOC.param(1)
    inv = Operator.x(LOC, 1, -2) * a1
    d1 = Operator.d(LOC, 1)
    lhs = commutator(d1, inv)
    rhs = Operator.x(LOC, 1, -3) * (a1 * Fraction(-2))
    assert oracle_equiv(lhs, rhs, trials=30)


def test_composition_oracle_plain_and_localized():
    ctx = SO2nContext(3)
    assert oracle_apply_check(make_L(ctx, 1, 2), make_L(ctx, 2, 3), trials=30)
    red = ReducedContext(2)
    t = make_reduced_J(red, 1)
    assert oracle_apply_check(t.Jm, t.Jp, trials=30)


def test_composition_oracle_is_order_sensitive():
    x1 = Operator.x(SIG2, 1)
    d1 = Operator.d(SIG2, 1)
    # the kernel's product passes the composition check both ways round
    assert oracle_apply_check(d1, x1, trials=30)
    assert oracle_apply_check(x1, d1, trials=30)
    # but the two products themselves differ, and the evaluation pipeline
    # the check is built on can tell them apart
    assert not oracle_equiv(d1 * x1, x1 * d1, trials=30)


def test_a_check_with_no_trial_is_refused():
    x1 = Operator.x(SIG2, 1)
    d1 = Operator.d(SIG2, 1)
    for trials in (0, -5):
        with pytest.raises(ValueError):
            oracle_equiv(x1 * d1, d1 * x1, trials=trials)
        with pytest.raises(ValueError):
            oracle_apply_check(x1, d1, trials=trials)
    assert not oracle_equiv(x1 * d1, d1 * x1, trials=1)


def test_composition_catches_a_broken_evaluator(monkeypatch):
    """The nested side stays on apply + evaluate, so a fault in the
    evaluator cannot hide behind itself."""
    ctx = SO2nContext(3)
    k12, k23 = make_K(ctx, 1, 2), make_K(ctx, 2, 3)
    product = k12 * k23
    m = ctx.signature.num_vars
    assert any(sum(mono[m:]) == 1 for mono, _ in product.terms)

    def first_order_dropped(op):
        kept = {key: q for key, q in op.terms.items() if sum(key[0][m:]) != 1}
        return weyl.evaluator(Operator._make(op.sig, kept, op.den))

    assert oracle_apply_check(k12, k23, trials=30)
    monkeypatch.setattr(oracle, "evaluator", first_order_dropped)
    # both sides of an equivalence share the fault and still agree ...
    assert oracle_equiv(product, k12 * k23, trials=30)
    # ... but the composition check compares against the reference route
    assert not oracle_apply_check(k12, k23, trials=30)


def _trial_fails(A, B, seed, trial):
    """Whether trial `trial` of `seed` tells A from B, drawn as the oracle
    draws it and evaluated on apply + evaluate."""
    rng = oracle._trial_rng(seed, trial)
    bound = max(4, A.derivative_degree() + 1, B.derivative_degree() + 1)
    f, p = random_polynomial(A.sig, rng, max_exp=bound), random_point(A.sig, rng)
    return A.apply(f).evaluate(p.coords, p.params) != B.apply(f).evaluate(p.coords, p.params)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_oracle_verdicts_do_not_depend_on_jobs(jobs):
    x1 = Operator.x(SIG2, 1)
    d1 = Operator.d(SIG2, 1)
    assert oracle_equiv(d1 * x1, x1 * d1 + Operator.constant(SIG2, 1), trials=30, jobs=jobs)
    assert not oracle_equiv(x1 * d1, d1 * x1, trials=30, jobs=jobs)
    ctx = SO2nContext(3)
    zero = Operator.zero(ctx.signature)
    assert not oracle_equiv(commutator(casimir_sum(ctx, ctx.n), make_L(ctx, 1, 4)), zero, trials=20, jobs=jobs)
    assert oracle_apply_check(make_L(ctx, 1, 2), make_L(ctx, 2, 3), trials=20, jobs=jobs)


@pytest.mark.parametrize("jobs", [2, 3])
def test_a_failure_in_a_child_slice_rejects(jobs):
    """x1 d1^5 and d1^5 x1 differ by 5 d1^4, which kills every term of
    x1-degree below 4, so some trials pass.  At seed 43 only trial 1 of
    the first three fails; with two or three workers it is in worker
    1's slice, which a child checks."""
    x1 = Operator.x(SIG2, 1)
    d1 = Operator.d(SIG2, 1)
    d15 = d1 * d1 * d1 * d1 * d1
    lhs, rhs = x1 * d15, d15 * x1
    assert [_trial_fails(lhs, rhs, 43, t) for t in range(3)] == [False, True, False]
    assert oracle_equiv(lhs, rhs, trials=1, seed=43, jobs=jobs)
    assert not oracle_equiv(lhs, rhs, trials=3, seed=43, jobs=jobs)


def test_oracle_refuses_zero_jobs():
    x1 = Operator.x(SIG2, 1)
    d1 = Operator.d(SIG2, 1)
    with pytest.raises(ValueError):
        oracle_equiv(x1 * d1, d1 * x1, jobs=0)
    with pytest.raises(ValueError):
        oracle_apply_check(x1, d1, jobs=0)


def test_composition_catches_a_broken_apply(monkeypatch):
    """The mirror of the broken evaluator: the reference route is still
    an independent witness, so a fault in apply fails the composition
    check, while an equivalence, which runs on the evaluator only, does
    not see it."""
    ctx = SO2nContext(3)
    k12, k23 = make_K(ctx, 1, 2), make_K(ctx, 2, 3)
    m = ctx.signature.num_vars
    assert any(sum(mono[m:]) == 1 for op in (k12, k23) for mono, _ in op.terms)
    apply = Operator.apply

    def first_order_dropped(op, f):
        kept = {key: q for key, q in op.terms.items() if sum(key[0][m:]) != 1}
        return apply(Operator._make(op.sig, kept, op.den), f)

    assert oracle_apply_check(k12, k23, trials=30)
    monkeypatch.setattr(Operator, "apply", first_order_dropped)
    assert oracle_equiv(commutator(k12, k23), k12 * k23 - k23 * k12, trials=30)
    assert not oracle_apply_check(k12, k23, trials=30)
