"""Random-evaluation cross-check of symbolic operator identities.

Symbolic equality lives entirely in the normal-ordering kernel, so it
deserves an independent witness: apply both operators to random
(Laurent) polynomial test functions and compare exact values at random
rational points.  Application goes through direct differentiation
(Operator.apply), which never invokes the multiplication kernel, so
agreement here is evidence the kernel's reordering rule is right and
not a self-consistent artifact.  Test functions are built directly in
the integer-numerator form polynomials store; apply and evaluate run on
integers and build a Fraction only for each final value.

Trial streams are deterministic: trial t of seed s uses its own
random.Random(s * 1000003 + t), so serial and parallel runs, and
repeated runs, see identical test functions and points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .weyl import Operator, Polynomial

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


def _exponent_bound(*ops: Operator) -> int:
    """Test-function degree: one more than the largest derivative order
    involved, but never below the default 4."""
    return max(4, max(op.derivative_degree() for op in ops) + 1)


def oracle_equiv(A: Operator, B: Operator, trials: int = 100, seed: int = 0) -> bool:
    """True iff (A f)(p) = (B f)(p) for every random trial (f, p)."""
    if A.sig != B.sig:
        raise ValueError("operators live in different algebra signatures")
    sig = A.sig
    bound = _exponent_bound(A, B)
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        f = random_polynomial(sig, rng, max_exp=bound)
        pt = random_point(sig, rng)
        va = A.apply(f).evaluate(pt.coords, pt.params)
        vb = B.apply(f).evaluate(pt.coords, pt.params)
        if va != vb:
            return False
    return True


def oracle_apply_check(A: Operator, B: Operator, trials: int = 100, seed: int = 0) -> bool:
    """Composition check on the product kernel: for random f and p,

        ((A * B) f)(p)  ==  (A (B f))(p).

    The left side exercises the normal-ordering product, the right side
    only direct differentiation; pointwise agreement on every trial is
    the independent semantic validation of the reordering rule.
    """
    if A.sig != B.sig:
        raise ValueError("operators live in different algebra signatures")
    sig = A.sig
    product = A * B
    bound = _exponent_bound(A, B, product)
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        f = random_polynomial(sig, rng, max_exp=bound)
        pt = random_point(sig, rng)
        lhs = product.apply(f).evaluate(pt.coords, pt.params)
        rhs = A.apply(B.apply(f)).evaluate(pt.coords, pt.params)
        if lhs != rhs:
            return False
    return True
