"""Invariants commuting with the n planar rotations, and their quadratic algebra.

Inside the oscillator realization of o(2n), the operators

    G^i    = L_{2i-1,2i}^2
    K^{ij} = sum of the six L_{mu,nu}^2 with mu < nu drawn from
             {2i-1, 2i, 2j-1, 2j}

commute with every planar rotation L_{2s-1,2s}, so they generate the
commutant of the n-fold rotation subalgebra.  Rescaled and shifted as

    C1^i   = -(G^i + 1)/4          (the su(1,1) Casimir of one coupled pair)
    C2^{ij} = -K^{ij}/4            (the Casimir of two coupled pairs)
    P^{ij}  = C2^{ij} - C1^i - C1^j
    F^{ijk} = (1/2)[C2^{ij}, C2^{jk}]  (= [K^{ij}, K^{jk}]/32)

they close into a quadratic algebra presented by five families of
relations (labelled a..e below), all of which this module verifies by
exact expansion.  Note the constant in C1: the Casimir of a coupled
pair is -(G^i + 1)/4, not -G^i/4 + 1/4; using the latter shift breaks
relation (b) by the offset it induces in the C-terms (demonstrated in
the test suite).

Both realizations share one memoized basis type, Basis: given the
one- and two-factor Casimirs C1^i and C2^{ij}, it derives P and
computes F^{ijk} = (1/2)[C2^{ij}, C2^{jk}] on first access.
CommutantBasis and reduction.ReducedBasis differ only in how they build
C1 and C2.  The relation templates read P, F and C through the basis
accessors p(i,j), f(i,j,k), c(i), so one sweep verifies this
realization and the dimensionally reduced one.

The five relations, all indices pairwise distinct:

    a: [P^{ij}, P^{jk}] = 2 F^{ijk}
    b: [P^{jk}, F^{ijk}] = P^{ik} P^{jk} - P^{jk} P^{ij}
                           + 2 P^{ik} C^j - 2 P^{ij} C^k
    c: [P^{kl}, F^{ijk}] = P^{ik} P^{jl} - P^{il} P^{jk}
    d: [F^{ijk}, F^{jkl}] = F^{jkl} P^{ij} - F^{ikl} (P^{jk} + 2 C^j)
                            - F^{ijk} P^{jl}
    e: [F^{ijk}, F^{klm}] = F^{ilm} P^{jk} - P^{ik} F^{jlm}

Products on the right-hand sides are taken exactly in the order
written; the algebra is noncommutative and the identities are
order-sensitive.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from ._parallel import run_tasks
from .liealg import PairUnion, SO2nContext, casimir_CA, decomposition_sum, make_L, rotation_squares
from .report import RelationReport, ReportEntry, check, run_checks
from .weyl import Operator, combination, commutator

RELATION_ARITY = {"a": 3, "b": 3, "c": 4, "d": 4, "e": 5}

PAccessor = Callable[[int, int], Operator]
FAccessor = Callable[[int, int, int], Operator]
CAccessor = Callable[[int], Operator]


def make_G(ctx: SO2nContext, i: int) -> Operator:
    """L_{2i-1,2i}^2, the square of the i-th planar rotation."""
    return rotation_squares(ctx, PairUnion((i,)).variables())


def make_K(ctx: SO2nContext, i: int, j: int) -> Operator:
    """Sum of the six L^2 over index pairs inside {2i-1, 2i, 2j-1, 2j}."""
    return rotation_squares(ctx, PairUnion((i, j)).variables())


def _pair(family: Mapping[tuple[int, int], Operator], i: int, j: int) -> Operator:
    return family[(i, j) if i < j else (j, i)]


class Basis:
    """P, C and the memoized F of one realization of the relations.

    ctx is the realization's context (its n sizes the sweep); C1 maps i
    to C1^i, and C2 maps i < j to C2^{ij}.  P^{ij} = C2^{ij} - C1^i -
    C1^j is built eagerly.  F^{ijk} = (1/2)[C2^{ij}, C2^{jk}] is
    computed on first access and cached, with the reversal F^{kji} =
    -F^{ijk} resolved from the cache instead of a second commutator.
    """

    def __init__(self, ctx, C1: dict[int, Operator], C2: dict[tuple[int, int], Operator]):
        self.ctx = ctx
        self.C1 = C1
        self.C2 = C2
        self.P = {(i, j): c - C1[i] - C1[j] for (i, j), c in C2.items()}
        self._F: dict[tuple[int, int, int], Operator] = {}

    def p(self, i: int, j: int) -> Operator:
        return _pair(self.P, i, j)

    def c(self, i: int) -> Operator:
        return self.C1[i]

    def f(self, i: int, j: int, k: int) -> Operator:
        key = (i, j, k)
        memo = self._F
        if key in memo:
            return memo[key]
        reverse = (k, j, i)
        if reverse in memo:
            op = -memo[reverse]
        else:
            op = commutator(_pair(self.C2, i, j), _pair(self.C2, j, k)) * Fraction(1, 2)
        memo[key] = op
        return op


class CommutantBasis(Basis):
    """The rescaled invariants of one context: G, K, C1, C2, P eagerly,
    F^{ijk} = (1/2)[C2^{ij}, C2^{jk}] on demand.

    As C2^{ij} = -K^{ij}/4, F^{ijk} equals [K^{ij}, K^{jk}]/32.  F is
    bracketed from the C2's, not from the P's: the C2's have fewer
    terms, and relation (a) then checks that the C1 terms of the P's
    drop out of the bracket.
    """

    # Each subclass keeps f in its own namespace: the benchmark tracer
    # (perfbench/spans.py) wraps cls.__dict__["f"] once per basis class.
    f = Basis.f

    def __init__(self, ctx: SO2nContext):
        n = ctx.n
        one = Operator.constant(ctx.signature, 1)
        quarter = Fraction(-1, 4)
        self.G = {i: make_G(ctx, i) for i in range(1, n + 1)}
        self.K = {(i, j): make_K(ctx, i, j) for i, j in itertools.combinations(range(1, n + 1), 2)}
        C1 = {i: (g + one) * quarter for i, g in self.G.items()}
        C2 = {ij: k * quarter for ij, k in self.K.items()}
        super().__init__(ctx, C1, C2)


def relation_residual(
    rel: str,
    t: Sequence[int],
    p: PAccessor,
    f: FAccessor,
    c: CAccessor,
) -> Operator:
    """Left side minus right side of relation `rel` at the index tuple t.

    Each relation is a bracket [A, B] on the left and a sum of products
    r * X Y on the right (relation a's 2 F^{ijk} is 2 F^{ijk} * 1, and
    relation d's F^{ikl} (P^{jk} + 2 C^j) is distributed into two
    products).  The residual [A, B] - sum r * X Y is one
    weyl.combination: every term sweeps into one packed accumulator and
    only the sum is decoded, so the right side is never built.
    """
    if rel == "a":
        i, j, k = t
        lhs = p(i, j), p(j, k)
        rhs = [(2, f(i, j, k), Operator.constant(p(i, j).sig, 1))]
    elif rel == "b":
        i, j, k = t
        lhs = p(j, k), f(i, j, k)
        rhs = [(1, p(i, k), p(j, k)), (-1, p(j, k), p(i, j)), (2, p(i, k), c(j)), (-2, p(i, j), c(k))]
    elif rel == "c":
        i, j, k, l = t
        lhs = p(k, l), f(i, j, k)
        rhs = [(1, p(i, k), p(j, l)), (-1, p(i, l), p(j, k))]
    elif rel == "d":
        i, j, k, l = t
        lhs = f(i, j, k), f(j, k, l)
        rhs = [(1, f(j, k, l), p(i, j)), (-1, f(i, k, l), p(j, k)), (-2, f(i, k, l), c(j)), (-1, f(i, j, k), p(j, l))]
    elif rel == "e":
        i, j, k, l, m = t
        lhs = f(i, j, k), f(k, l, m)
        rhs = [(1, f(i, l, m), p(j, k)), (-1, p(i, k), f(j, l, m))]
    else:
        raise ValueError(f"unknown relation {rel!r}")
    return combination([(1, *lhs, True), *((-r, x, y, False) for r, x, y in rhs)])


def sweep_relations(basis: Basis, jobs: int = 1) -> RelationReport:
    """Check all five relations over every tuple of pairwise distinct indices.

    Every (relation, tuple) of the five relations goes to workers in one
    dispatch, so the long relation-d checks interleave with the short
    ones across workers; entries come back in relation order, tuples in
    permutation order.  Relations whose arity exceeds n get a single
    'skipped' entry after them: they have no admissible tuples at that
    rank, and arities ascend, so those entries come last.  F is warmed
    over all ordered triples before dispatch so parallel workers share
    the memoized operators instead of recomputing them.
    """
    n = basis.ctx.n
    if n < 3:
        raise ValueError("the relation sweep needs at least three factors")
    p, f, c = basis.p, basis.f, basis.c
    for t in itertools.permutations(range(1, n + 1), 3):
        f(*t)

    def check_item(item: tuple[str, tuple[int, ...]]) -> ReportEntry:
        rel, t = item
        return check(rel, t, lambda indices: relation_residual(rel, indices, p, f, c))

    items = [(rel, t) for rel, arity in RELATION_ARITY.items() for t in itertools.permutations(range(1, n + 1), arity)]
    report = RelationReport(run_tasks(check_item, items, jobs))
    for rel, arity in RELATION_ARITY.items():
        if arity > n:
            report.add(ReportEntry(rel, (), True, 0, 0.0, "skipped: no admissible index tuples at this rank"))
    return report


def verify_racah_relations(
    ctx: SO2nContext, jobs: int = 1, basis: CommutantBasis | None = None
) -> RelationReport:
    """Full relation sweep in the commutant realization."""
    return sweep_relations(basis or CommutantBasis(ctx), jobs)


def check_commutant_property(
    ctx: SO2nContext,
    jobs: int = 1,
    basis: CommutantBasis | None = None,
) -> RelationReport:
    """[G^i, L_{2s-1,2s}] = 0 and [K^{ij}, L_{2s-1,2s}] = 0 for every i, j, s.

    G entries carry the index tuple (i, s), K entries (i, j, s).
    """
    if basis is None:
        basis = CommutantBasis(ctx)
    rotations = {s: make_L(ctx, *PairUnion((s,)).variables()) for s in range(1, ctx.n + 1)}
    invariants = {(i,): g for i, g in basis.G.items()} | basis.K
    return run_checks(
        "commutant",
        [ij + (s,) for ij in invariants for s in rotations],
        lambda t: commutator(invariants[t[:-1]], rotations[t[-1]]),
        jobs,
    )


def dependency_residual(
    ctx: SO2nContext,
    subset: Sequence[int],
    basis: CommutantBasis | None = None,
) -> Operator:
    """The subset Casimir minus its decomposition (liealg.decomposition_sum)
    through the basis's C2^{ij} and C1^i.

    The left side is the coupled triple's Casimir (casimir_CA), computed
    independently of C1 and C2.  Repeated or out-of-range factors raise
    ValueError, as does a subset of fewer than two factors.
    """
    union = PairUnion(subset)
    basis = basis or CommutantBasis(ctx)
    return casimir_CA(ctx, union) - decomposition_sum(union.pairs, lambda i, j: basis.C2[(i, j)], basis.c)


def verify_dependency(ctx: SO2nContext, subset: Sequence[int], basis: CommutantBasis | None = None) -> bool:
    """Whether the dependency identity holds (its residual is zero)."""
    return dependency_residual(ctx, subset, basis).is_zero()
