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
    F^{ijk} = [K^{ij}, K^{jk}]/32

they close into a quadratic algebra presented by five families of
relations (labelled a..e below), all of which this module verifies by
exact expansion.  Note the constant in C1: the Casimir of a coupled
pair is -(G^i + 1)/4, not -G^i/4 + 1/4; using the latter shift breaks
relation (b) by the offset it induces in the C-terms (demonstrated in
the test suite).

The relation templates are written against accessor callables p(i,j),
f(i,j,k), c(i), so the same sweep verifies both this realization and
the dimensionally reduced one.

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
from typing import Callable, Sequence

from .liealg import SO2nContext, casimir_of, make_L, make_metaplectic, sum_triples
from .report import RelationReport, ReportEntry, run_checks
from .weyl import Operator, commutator

RELATION_ARITY = {"a": 3, "b": 3, "c": 4, "d": 4, "e": 5}

PAccessor = Callable[[int, int], Operator]
FAccessor = Callable[[int, int, int], Operator]
CAccessor = Callable[[int], Operator]


def _pair_vars(i: int) -> tuple[int, int]:
    return 2 * i - 1, 2 * i


def make_G(ctx: SO2nContext, i: int) -> Operator:
    """L_{2i-1,2i}^2, the square of the i-th planar rotation."""
    if not 1 <= i <= ctx.n:
        raise ValueError(f"factor index {i} out of range 1..{ctx.n}")
    l = make_L(ctx, *_pair_vars(i))
    return l * l


def make_K(ctx: SO2nContext, i: int, j: int) -> Operator:
    """Sum of the six L^2 over index pairs inside {2i-1, 2i, 2j-1, 2j}."""
    if i == j:
        raise ValueError("pair invariant needs two distinct factors")
    if not (1 <= i <= ctx.n and 1 <= j <= ctx.n):
        raise ValueError(f"factor indices ({i}, {j}) out of range 1..{ctx.n}")
    variables = sorted(_pair_vars(i) + _pair_vars(j))
    total = Operator.zero(ctx.signature)
    for a, b in itertools.combinations(variables, 2):
        l = make_L(ctx, a, b)
        total = total + l * l
    return total


class CommutantBasis:
    """All the rescaled invariants of one context, memoized.

    G, K, C1, C2, P are built eagerly (they are cheap); F^{ijk} is
    computed on first access and cached, with the reversal
    F^{kji} = -F^{ijk} resolved from the cache instead of a second
    commutator.
    """

    def __init__(self, ctx: SO2nContext):
        self.ctx = ctx
        n = ctx.n
        one = Operator.constant(ctx.signature, 1)
        quarter = Fraction(-1, 4)
        self.G = {i: make_G(ctx, i) for i in range(1, n + 1)}
        self.K = {
            (i, j): make_K(ctx, i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        }
        self.C1 = {i: (self.G[i] + one) * quarter for i in range(1, n + 1)}
        self.C2 = {ij: k * quarter for ij, k in self.K.items()}
        self.P = {
            (i, j): self.C2[(i, j)] - self.C1[i] - self.C1[j]
            for (i, j) in self.K
        }
        self._F: dict[tuple[int, int, int], Operator] = {}

    def k(self, i: int, j: int) -> Operator:
        return self.K[(i, j) if i < j else (j, i)]

    def p(self, i: int, j: int) -> Operator:
        return self.P[(i, j) if i < j else (j, i)]

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
            op = commutator(self.k(i, j), self.k(j, k)) * Fraction(1, 32)
        memo[key] = op
        return op


def relation_residual(
    rel: str,
    t: Sequence[int],
    p: PAccessor,
    f: FAccessor,
    c: CAccessor,
) -> Operator:
    """Left side minus right side of relation `rel` at the index tuple t."""
    if rel == "a":
        i, j, k = t
        return commutator(p(i, j), p(j, k)) - 2 * f(i, j, k)
    if rel == "b":
        i, j, k = t
        rhs = (
            p(i, k) * p(j, k)
            - p(j, k) * p(i, j)
            + 2 * (p(i, k) * c(j))
            - 2 * (p(i, j) * c(k))
        )
        return commutator(p(j, k), f(i, j, k)) - rhs
    if rel == "c":
        i, j, k, l = t
        rhs = p(i, k) * p(j, l) - p(i, l) * p(j, k)
        return commutator(p(k, l), f(i, j, k)) - rhs
    if rel == "d":
        i, j, k, l = t
        rhs = (
            f(j, k, l) * p(i, j)
            - f(i, k, l) * (p(j, k) + 2 * c(j))
            - f(i, j, k) * p(j, l)
        )
        return commutator(f(i, j, k), f(j, k, l)) - rhs
    if rel == "e":
        i, j, k, l, m = t
        rhs = f(i, l, m) * p(j, k) - p(i, k) * f(j, l, m)
        return commutator(f(i, j, k), f(k, l, m)) - rhs
    raise ValueError(f"unknown relation {rel!r}")


def sweep_relations(
    n: int,
    p: PAccessor,
    f: FAccessor,
    c: CAccessor,
    jobs: int = 1,
) -> RelationReport:
    """Check all five relations over every tuple of pairwise distinct indices.

    Relations whose arity exceeds n get a single 'skipped' entry: they
    have no admissible tuples at that rank.  The F accessor is warmed
    over all ordered triples before dispatch so parallel workers share
    the memoized operators instead of recomputing them.
    """
    for t in itertools.permutations(range(1, n + 1), 3):
        f(*t)

    report = RelationReport()
    for rel, arity in RELATION_ARITY.items():
        tuples = list(itertools.permutations(range(1, n + 1), arity))
        if tuples:
            report.merge(run_checks(rel, tuples, lambda t, rel=rel: relation_residual(rel, t, p, f, c), jobs))
        else:
            report.add(ReportEntry(rel, (), True, 0, 0.0, "skipped: no admissible index tuples at this rank"))
    return report


def verify_racah_relations(
    ctx: SO2nContext, jobs: int = 1, basis: CommutantBasis | None = None
) -> RelationReport:
    """Full relation sweep in the commutant realization."""
    if basis is None:
        basis = CommutantBasis(ctx)
    return sweep_relations(ctx.n, basis.p, basis.f, basis.c, jobs=jobs)


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
    rotations = {s: make_L(ctx, *_pair_vars(s)) for s in range(1, ctx.n + 1)}
    invariants = {(i,): g for i, g in basis.G.items()} | basis.K
    return run_checks(
        "commutant",
        [ij + (s,) for ij in invariants for s in rotations],
        lambda t: commutator(invariants[t[:-1]], rotations[t[-1]]),
        jobs,
    )


def direct_subset_casimir(ctx: SO2nContext, subset: Sequence[int]) -> Operator:
    """Casimir of the coproduct su(1,1) triple over the given factors.

    Built from first principles: sum the one-variable metaplectic
    triples over both variables of every factor in the subset, then
    take J0^2 - J+ J- - J0 of the summed triple.
    """
    factors = sorted(set(subset))
    if not factors:
        raise ValueError("subset must be nonempty")
    if not all(1 <= i <= ctx.n for i in factors):
        raise ValueError(f"subset {factors} out of range 1..{ctx.n}")
    triples = []
    for i in factors:
        for mu in _pair_vars(i):
            triples.append(make_metaplectic(ctx, mu))
    return casimir_of(sum_triples(triples))


def dependency_residual(
    ctx: SO2nContext,
    subset: Sequence[int],
    basis: CommutantBasis | None = None,
) -> Operator:
    """The subset Casimir is a linear combination of one- and two-factor ones:

        C^A = sum_{{i,j} in A} C2^{ij} - (|A| - 2) * sum_{i in A} C1^i

    returns left side minus right side, with the left side computed
    independently through the coproduct triple (not through C1/C2).
    """
    factors = sorted(set(subset))
    if len(factors) < 2:
        raise ValueError("dependency needs at least two factors")
    if not all(1 <= i <= ctx.n for i in factors):
        raise ValueError(f"subset {factors} out of range 1..{ctx.n}")
    if basis is None:
        basis = CommutantBasis(ctx)
    lhs = direct_subset_casimir(ctx, factors)
    rhs = Operator.zero(ctx.signature)
    for i, j in itertools.combinations(factors, 2):
        rhs = rhs + basis.C2[(i, j)]
    weight = len(factors) - 2
    if weight:
        for i in factors:
            rhs = rhs - weight * basis.C1[i]
    return lhs - rhs


def verify_dependency(ctx: SO2nContext, subset: Sequence[int], basis: CommutantBasis | None = None) -> bool:
    """Whether the dependency identity holds (its residual is zero)."""
    return dependency_residual(ctx, subset, basis).is_zero()
