"""Random-evaluation cross-check of symbolic operator identities.

Symbolic equality lives entirely in the normal-ordering kernel.  The
checks here apply operators to random (Laurent) polynomial test
functions and evaluate exactly at random rational points; application
goes through direct differentiation, which never invokes the
multiplication kernel.  Each trial gives one residual value, and a
check holds when every trial's residual is 0.  What that witnesses
depends on where the two sides come from:

- ``composition_residual`` is independent of the kernel: its nested
  side A (B f) is never multiplied out, so agreement with (A * B) f is
  evidence that the kernel's reordering rule is right and not a
  self-consistent artifact.  When a trial fails it returns the exact
  polynomial (A * B) f - A (B f) at that trial's f, so the oracle
  suite reports a term count like every other check.
- ``oracle_equiv(A, B)`` evaluates the one residual A - B, which is
  exact: evaluation is linear, so ((A - B) f)(p) = 0 exactly when
  (A f)(p) = (B f)(p).  When A and B were both built by the kernel,
  random trials add nothing to the residual itself: A - B is the zero
  operator exactly when the identity holds as stored terms.  So the
  oracle suite reports each entry of its identity catalog by that
  exact residual, counted like every symbolic check, and no run of
  racah-verify calls ``oracle_equiv``; perfbench's oracle workload
  does, as it does ``oracle_apply_check``, the bool form of
  ``composition_residual``.

Test functions are built directly in the integer-numerator form
polynomials store, and every value is computed on integers with one
Fraction at the end.

There are two routes to (A f)(p), both direct differentiation, and
neither builds A f:

- ``weyl.evaluator(A)`` groups A's monomials by derivative exponent
  once per check and sums alpha_b(p) * (d^b f)(p), walking two prefix
  tries it builds from A alone: one over the entries' exponents, for
  the alpha_b(p), and one over the derivative exponents b, once per
  term of f.  ``oracle_equiv`` uses it on the residual, and
  ``composition_residual`` on the product side.
- ``A.apply_at(g, p)`` reads A's apply plan, the one ``Operator.apply``
  builds, and sums the plan's falling-factorial columns over g's terms
  at p.  ``composition_residual`` uses it on the nested side,
  A.apply_at(B.apply(f), p), so B f is built but A (B f) is not, and
  no trial calls ``Polynomial.evaluate``.  The composition check is
  the only one that compares two routes: each of its residuals is the
  difference of two different evaluation routes, which share only the
  power tables, so a fault in either cannot hide by cancelling against
  itself.

Trial streams are deterministic: trial t of seed s uses its own
random.Random(s * 1000003 + t), so serial and parallel runs, and
repeated runs, see identical test functions and points.  Every check
takes ``jobs``: with k = min(jobs, trials) > 1, every trial is its own
item of ``_parallel.run_tasks``, which checks trials in order in the
parent until its budget is spent and then splits the rest over k
workers; the earliest failing trial over all of them is the serial
loop's first failure, so verdicts and residuals are the same for any
jobs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Sequence

from ._parallel import run_tasks
from .weyl import Operator, Polynomial, evaluator

_STRIDE = 1_000_003


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(seed * _STRIDE + trial)


def _nonzero_rational(rng: random.Random) -> Fraction:
    num = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    return Fraction(num, rng.randint(1, 4))


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def random_point(sig, rng: random.Random) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(coords, params): one rational coordinate per variable and one
    rational value per coefficient parameter.  Every coordinate is
    nonzero, which keeps Laurent terms over localized variables finite."""
    coords = tuple(_nonzero_rational(rng) for _ in range(sig.num_vars))
    params = tuple(_small_rational(rng) for _ in range(sig.nparams))
    return coords, params


_MAX_TERMS = 8
_DEN = 6  # the lcm of the coefficient denominators 1, 2 and 3


def random_polynomial(sig, rng: random.Random, max_exp: int = 4) -> Polynomial:
    """A random test function: up to _MAX_TERMS monomials with exponents in
    [-2, max_exp] on localized variables and [0, max_exp] otherwise.

    Coefficients are summed as integer numerators over 6, and
    ``Polynomial._make`` reduces them to lowest terms, so no Fraction is
    built; an f whose terms all cancel is the constant 1."""
    acc: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1, _MAX_TERMS)):
        xe = tuple(
            rng.randint(-2 if (i + 1) in sig.localized else 0, max_exp)
            for i in range(sig.num_vars)
        )
        # The coefficient num / d, d in 1..3, as a numerator over 6.
        num = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        acc[xe] = acc.get(xe, 0) + num * (_DEN // rng.randint(1, 3))
    pe = (0,) * sig.nparams
    terms = {(xe, pe): q for xe, q in acc.items() if q} or {((0,) * sig.num_vars, pe): _DEN}
    return Polynomial._make(sig, terms, _DEN)


def _first_failure(
    residual: Callable[..., Fraction], trials: int, seed: int, ops: Sequence[Operator], jobs: int
) -> Polynomial | None:
    """The test function f of the earliest trial whose residual(f, coords, params) is nonzero, or None.

    Refuses a check with no trial, which has tested nothing and so must
    not pass; operators in different signatures never get here, as
    ``A - B`` and ``A * B`` refuse them.  Each variable's exponent in a
    test function is capped at bound = max(4, d + 1), d the largest
    total derivative degree of ops (``derivative_degree``); trial t
    draws f, then (coords, params), from its own
    random.Random(seed * 1000003 + t).  The trials go to
    ``_parallel.run_tasks`` in c strided chunks, chunk i checking
    range(i, trials, c) in order up to its first failure: at
    k = min(jobs, trials) = 1 one chunk, the serial loop that stops at
    the first failing trial; at k > 1 one chunk per trial, so the
    serial head that ``run_tasks`` runs before it forks ends within a
    trial of its budget and the rest splits evenly over the k workers,
    at the price that a failing check there runs every trial.  The
    parent takes the smallest failing index and draws that trial's
    f again, so the result does not depend on jobs.  ``run_tasks``
    refuses jobs < 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    bound = max(4, max(op.derivative_degree() for op in ops) + 1)

    def draw(t: int) -> tuple:
        rng = _trial_rng(seed, t)
        return random_polynomial(ops[0].sig, rng, max_exp=bound), *random_point(ops[0].sig, rng)

    def first(ts: range) -> int | None:
        return next((t for t in ts if residual(*draw(t)) != 0), None)

    k = min(jobs, trials)
    c = 1 if k == 1 else trials
    failures = [t for t in run_tasks(lambda i: first(range(i, trials, c)), range(c), k) if t is not None]
    return draw(min(failures))[0] if failures else None


def oracle_equiv(A: Operator, B: Operator, trials: int = 100, seed: int = 0, jobs: int = 1) -> bool:
    """True iff (A f)(p) = (B f)(p) for every random trial (f, p).

    Evaluation is exact and linear, so that is ((A - B) f)(p) = 0, and
    the residual A - B runs on one ``weyl.evaluator``.  A and B in
    different signatures raise ValueError (from A - B), as do trials
    < 1, and jobs splits the trials over that many workers through
    ``_parallel.run_tasks``, which refuses jobs < 1.
    """
    return _first_failure(evaluator(A - B), trials, seed, (A, B), jobs) is None


def composition_residual(A: Operator, B: Operator, trials: int = 100, seed: int = 0, jobs: int = 1) -> Polynomial:
    """Composition check on the product kernel: zero when, for every random trial (f, p),

        ((A * B) f)(p)  ==  (A (B f))(p),

    and otherwise the exact residual (A * B) f - A (B f) at the test
    function f of the earliest failing trial.

    The left side exercises the normal-ordering product, the right side
    only direct differentiation; pointwise agreement on every trial is
    the independent semantic validation of the reordering rule.  The
    left side is evaluated by ``weyl.evaluator``, the right side by
    ``B.apply(f)`` and then ``A.apply_at``, which reads A (B f) at the
    point from A's apply plan without building it; each trial's
    residual is their difference.  The two routes share only the power
    tables, so each trial also checks the evaluator against the apply
    plans; with the evaluator on both sides, a fault in it could
    cancel.  Both plans are built here, before ``_first_failure`` forks,
    so no worker builds them again.  The exact residual of a failing
    trial is built by ``apply`` alone.  A failing trial whose exact
    residual is zero is a fault of one route, the evaluator and the
    apply plans disagreeing on A * B, and raises RuntimeError rather
    than pass.  trials and jobs are read as in ``oracle_equiv``.
    """
    product = A * B
    value = evaluator(product)
    A.apply_plan()
    B.apply_plan()
    f = _first_failure(
        lambda f, coords, params: value(f, coords, params) - A.apply_at(B.apply(f), coords, params),
        trials, seed, (A, B, product), jobs,
    )
    residual = Polynomial.zero(A.sig) if f is None else product.apply(f) - A.apply(B.apply(f))
    if f is not None and residual.is_zero():
        raise RuntimeError("weyl.evaluator and apply + evaluate disagree on A * B: a trial failed, but (A * B) f = A (B f)")
    return residual


def oracle_apply_check(A: Operator, B: Operator, trials: int = 100, seed: int = 0, jobs: int = 1) -> bool:
    """True iff ``composition_residual`` is zero; a route disagreement raises as there."""
    return composition_residual(A, B, trials, seed, jobs).is_zero()
