"""Random-evaluation cross-check of symbolic operator identities.

Symbolic equality lives entirely in the normal-ordering kernel, so it
deserves an independent witness: apply both operators to random
(Laurent) polynomial test functions and compare exact values at random
rational points.  Application goes through direct differentiation,
which never invokes the multiplication kernel, so agreement here is
evidence the kernel's reordering rule is right and not a
self-consistent artifact.  Test functions are built directly in the
integer-numerator form polynomials store, and every value is computed
on integers with one Fraction at the end.

There are two routes to (A f)(p), both direct differentiation:

- ``weyl.evaluator(A)`` groups A's monomials by derivative exponent
  once per check and sums alpha_b(p) * (d^b f)(p) without building A f.
  ``oracle_equiv`` uses it on both sides, and ``oracle_apply_check`` on
  the product side.
- ``A.apply(f).evaluate(p)`` builds A f and evaluates it.
  ``oracle_apply_check`` keeps it on the nested side, A (B f), so every
  composition trial compares two different evaluation routes and a
  fault in the evaluator cannot hide by cancelling against itself.

Trial streams are deterministic: trial t of seed s uses its own
random.Random(s * 1000003 + t), so serial and parallel runs, and
repeated runs, see identical test functions and points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .weyl import Operator, Polynomial, evaluator

_STRIDE = 1_000_003


@dataclass(frozen=True)
class TestPoint:
    """Rational evaluation data: one coordinate per variable, one value
    per coefficient parameter.  All coordinates are nonzero, which keeps
    Laurent terms over localized variables finite."""

    coords: tuple[Fraction, ...]
    params: tuple[Fraction, ...]


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(seed * _STRIDE + trial)


def _nonzero_rational(rng: random.Random) -> Fraction:
    num = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    return Fraction(num, rng.randint(1, 4))


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def random_point(sig, rng: random.Random) -> TestPoint:
    """Nonzero rational coordinates plus rational parameter values."""
    coords = tuple(_nonzero_rational(rng) for _ in range(sig.num_vars))
    params = tuple(_small_rational(rng) for _ in range(sig.nparams))
    return TestPoint(coords, params)


def random_polynomial(sig, rng: random.Random, max_exp: int = 4, max_terms: int = 8) -> Polynomial:
    """A random test function: up to max_terms monomials with exponents in
    [-2, max_exp] on localized variables and [0, max_exp] otherwise."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        xe = tuple(
            rng.randint(-2 if (i + 1) in sig.localized else 0, max_exp)
            for i in range(sig.num_vars)
        )
        c = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
        acc[xe] = acc.get(xe, Fraction(0)) + c
    acc = {xe: c for xe, c in acc.items() if c} or {(0,) * sig.num_vars: Fraction(1)}
    den = lcm(*(c.denominator for c in acc.values()))
    pe = (0,) * sig.nparams
    return Polynomial._make(sig, {(xe, pe): c.numerator * (den // c.denominator) for xe, c in acc.items()}, den)


def _draws(trials: int, seed: int, *ops: Operator):
    """The (test function, point) of every trial of a check on ops.

    Refuses operators in different signatures, and a check with no
    trial, which has tested nothing and so must not pass.  Test
    functions have degree one more than the largest derivative order of
    ops, but never below the default 4; trial t draws f, then p, from
    its own random.Random(seed * 1000003 + t).
    """
    sig = ops[0].sig
    if any(op.sig != sig for op in ops):
        raise ValueError("operators live in different algebra signatures")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    bound = max(4, max(op.derivative_degree() for op in ops) + 1)
    rngs = (_trial_rng(seed, trial) for trial in range(trials))
    return ((random_polynomial(sig, rng, max_exp=bound), random_point(sig, rng)) for rng in rngs)


def oracle_equiv(A: Operator, B: Operator, trials: int = 100, seed: int = 0) -> bool:
    """True iff (A f)(p) = (B f)(p) for every random trial (f, p).

    Both sides run on ``weyl.evaluator``; trials < 1 raises ValueError.
    """
    draws = _draws(trials, seed, A, B)
    value_a, value_b = evaluator(A), evaluator(B)
    return all(value_a(f, p.coords, p.params) == value_b(f, p.coords, p.params) for f, p in draws)


def oracle_apply_check(A: Operator, B: Operator, trials: int = 100, seed: int = 0) -> bool:
    """Composition check on the product kernel: for random f and p,

        ((A * B) f)(p)  ==  (A (B f))(p).

    The left side exercises the normal-ordering product, the right side
    only direct differentiation; pointwise agreement on every trial is
    the independent semantic validation of the reordering rule.  The
    left side is evaluated by ``weyl.evaluator``, the right side by
    ``apply`` and ``evaluate``, which build B f and A (B f).  The two
    routes share only the power tables and the falling factorials, so
    each trial also checks the evaluator against the reference route;
    with the evaluator on both sides, a fault in it could cancel.
    """
    product = A * B
    value = evaluator(product)
    return all(
        value(f, p.coords, p.params) == A.apply(B.apply(f)).evaluate(p.coords, p.params)
        for f, p in _draws(trials, seed, A, B, product)
    )
