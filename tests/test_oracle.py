"""Random-evaluation oracle: determinism, sensitivity, concordance."""

import multiprocessing
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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

from test_weyl import ops2, opsL, opsP

SIG2 = AlgebraSignature(2)
LOC = AlgebraSignature(2, localized=frozenset({1}), nparams=1)


def test_random_point_respects_signature():
    rng = random.Random(7)
    for _ in range(50):
        coords, params = random_point(LOC, rng)
        assert len(coords) == 2
        assert len(params) == 1
        assert all(c != 0 for c in coords)


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
    evaluator cannot hide behind itself.  The exact residual
    (A * B) f - A (B f) is zero there, so the check names the route
    disagreement instead of passing."""
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
    # an equivalence evaluates only its residual, here zero, and still holds ...
    assert oracle_equiv(product, k12 * k23, trials=30)
    # ... but the composition check compares against the reference route
    with pytest.raises(RuntimeError, match=r"weyl\.evaluator and apply \+ evaluate disagree on A \* B"):
        oracle.composition_residual(k12, k23, trials=30)


def _trial_fails(A, B, seed, trial):
    """Whether trial `trial` of `seed` tells A from B, drawn as the oracle
    draws it and evaluated on apply + evaluate."""
    rng = oracle._trial_rng(seed, trial)
    bound = max(4, A.derivative_degree() + 1, B.derivative_degree() + 1)
    f, (coords, params) = random_polynomial(A.sig, rng, max_exp=bound), random_point(A.sig, rng)
    return A.apply(f).evaluate(coords, params) != B.apply(f).evaluate(coords, params)


def _two_evaluator_verdict(A, B, trials, seed):
    """oracle_equiv's verdict by comparing (A f)(p) with (B f)(p) on two
    evaluators, over the oracle's trial stream.  Each trial also checks
    that the residual's value is the difference of the two values."""
    value_a, value_b, residual = weyl.evaluator(A), weyl.evaluator(B), weyl.evaluator(A - B)
    bound = max(4, A.derivative_degree() + 1, B.derivative_degree() + 1)
    verdict = True
    for t in range(trials):
        rng = oracle._trial_rng(seed, t)
        f, p = random_polynomial(A.sig, rng, max_exp=bound), random_point(A.sig, rng)
        a, b = value_a(f, *p), value_b(f, *p)
        assert residual(f, *p) == a - b
        verdict = verdict and a == b
    return verdict


@pytest.mark.parametrize("ops", [ops2, opsL, opsP], ids=["plain", "localized", "params"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_residual_gives_the_two_evaluator_verdict(ops, data):
    x, y, z = data.draw(ops), data.draw(ops), data.draw(ops)
    pairs = [
        (commutator(x, y), x * y - y * x),  # equal, built two ways
        (x * (y + z), x * y + x * z),  # equal, built two ways
        (x * y, y * x),  # unequal unless x and y commute
        (x, y),  # unequal unless drawn equal
    ]
    lhs, rhs = data.draw(st.sampled_from(pairs))
    seed = data.draw(st.integers(0, 10**6))
    assert oracle_equiv(lhs, rhs, trials=4, seed=seed) == _two_evaluator_verdict(lhs, rhs, 4, seed)


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
    assert [_two_evaluator_verdict(lhs, rhs, trials, 43) for trials in (1, 3)] == [True, False]
    assert oracle_equiv(lhs, rhs, trials=1, seed=43, jobs=jobs)
    assert not oracle_equiv(lhs, rhs, trials=3, seed=43, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_the_earliest_failing_trial_gives_the_test_function(jobs):
    """At seed 43 trials 1, 3, 4 and 5 of the first six fail.  At two and
    three jobs worker 0 first fails at trial 4 or 3, so only the
    smallest index over all workers gives trial 1's f."""
    x1 = Operator.x(SIG2, 1)
    d1 = Operator.d(SIG2, 1)
    d15 = d1 * d1 * d1 * d1 * d1
    lhs, rhs = x1 * d15, d15 * x1
    assert [_trial_fails(lhs, rhs, 43, t) for t in range(6)] == [False, True, False, True, True, True]
    first = oracle._first_failure(weyl.evaluator(lhs - rhs), 6, 43, (lhs, rhs), jobs)
    assert first == random_polynomial(SIG2, oracle._trial_rng(43, 1), max_exp=6)


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


def test_a_passing_composition_never_evaluates_a_polynomial(monkeypatch):
    """The nested side reads A (B f) at the point from A's apply plan, so
    no trial of a passing check builds A (B f) or calls Polynomial.evaluate."""
    ctx = SO2nContext(3)
    k12, k23 = make_K(ctx, 1, 2), make_K(ctx, 2, 3)
    r1 = make_reduced_J(ReducedContext(2), 1)

    def refuse(*args, **kwargs):
        raise AssertionError("a composition trial evaluated a polynomial")

    monkeypatch.setattr(weyl.Polynomial, "evaluate", refuse)
    for a, b in ((k12, k23), (r1.Jm, r1.Jp)):
        assert oracle.composition_residual(a, b, trials=30).is_zero()


def test_composition_catches_a_broken_apply_at(monkeypatch):
    """The mirror of the broken evaluator: a fault in apply_at fails the
    trials, and the exact residual, built by apply alone, is zero, so the
    check names the route disagreement instead of passing."""
    ctx = SO2nContext(3)
    k12, k23 = make_K(ctx, 1, 2), make_K(ctx, 2, 3)
    m = ctx.signature.num_vars
    assert any(sum(mono[m:]) == 1 for mono, _ in k12.terms)
    apply_at = Operator.apply_at

    def first_order_dropped(op, f, coords, params=()):
        kept = {key: q for key, q in op.terms.items() if sum(key[0][m:]) != 1}
        return apply_at(Operator._make(op.sig, kept, op.den), f, coords, params)

    assert oracle_apply_check(k12, k23, trials=30)
    monkeypatch.setattr(Operator, "apply_at", first_order_dropped)
    assert oracle_equiv(commutator(k12, k23), k12 * k23 - k23 * k12, trials=30)
    with pytest.raises(RuntimeError, match=r"weyl\.evaluator and apply \+ evaluate disagree on A \* B"):
        oracle.composition_residual(k12, k23, trials=30)


@pytest.mark.parametrize("jobs", [1, 2])
def test_apply_plans_are_built_before_the_fork(jobs, monkeypatch):
    """A and B get their apply plans in this process, so no forked worker
    builds them again: two plans at any jobs for a passing check."""
    original = weyl._apply_plan
    # Shared memory, so plans built in forked workers are counted too.
    calls = multiprocessing.Value("i", 0)

    def counted(op):
        with calls.get_lock():
            calls.value += 1
        return original(op)

    monkeypatch.setattr(weyl, "_apply_plan", counted)
    ctx = SO2nContext(3)
    assert oracle.composition_residual(make_K(ctx, 1, 2), make_K(ctx, 2, 3), trials=4, jobs=jobs).is_zero()
    assert calls.value == 2
