"""Rotation generators, their quadratic invariant, and su(1,1) triples.

The orthogonal algebra o(2n) acts on 2n oscillator variables through

    L_{mu,nu} = x_mu d_nu - x_nu d_mu,

with bracket [L_{mu,nu}, L_{rho,sigma}] = delta_{nu,rho} L_{mu,sigma}
- delta_{nu,sigma} L_{mu,rho} - delta_{mu,rho} L_{nu,sigma}
+ delta_{mu,sigma} L_{nu,rho}.  This module builds those generators,
sweeps the bracket relations over one table that holds each generator
under both index orders (L_{nu,mu} = -L_{mu,nu}, as the formula gives),
constructs the quadratic invariant sum_{mu<nu} L_{mu,nu}^2
(casimir_sum at bound 2n; rotation_squares sums the L^2 over any set
of variables), and houses the su(1,1) triples: one single-variable copy
per variable, and their coproducts J^A over unions A of factors
(PairUnion), whose Casimirs C^A drive everything downstream, and the
one decomposition of a C^A into one- and two-pair Casimirs
(decomposition_sum).

The coproducts serve both realizations.  Each context supplies the
one-variable triples of a factor (factor_triples): here the metaplectic
triples in the variables 2i-1, 2i, in reduction.ReducedContext the
radial triple in x_i.  make_JA sums them over a union, casimir_CA builds
each C^A once per context (its casimir_memo), and casimir_closed_form is
the one closed form of C^A over any set of variables, which the radial
model extends by its potential term (reduction.radial_closed_form).
Triples and their Casimirs are built without being checked: the su11
and reduction suites report each triple's relations once, and
centrality of the Casimir follows from those relations (see casimir_of).

A pitfall worth stating once: the quadratic invariant is central only
when the sum runs over ALL coordinate pairs, 1 <= mu < nu <= 2n.
Truncating the sum at n produces the invariant of an o(n) subalgebra,
which fails to commute with the generators that mix the two index
ranges; check_casimir_centrality takes an explicit bound so the failure
is demonstrable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable

from .report import RelationReport, run_checks
from .weyl import AlgebraSignature, Operator, commutator

if TYPE_CHECKING:
    from .reduction import ReducedContext


@dataclass(frozen=True)
class SO2nContext:
    """n commuting planar-rotation factors inside o(2n); 2n variables."""

    n: int
    signature: AlgebraSignature = field(init=False)
    # C^A per union.pairs, filled by casimir_CA.  Held by the context, not
    # a module-level cache, so it lives exactly as long as one run's
    # context and stays out of equality and hashing.  ReducedContext holds
    # its own the same way.
    casimir_memo: dict[tuple[int, ...], Operator] = field(init=False, default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least three factors")
        object.__setattr__(self, "signature", AlgebraSignature(2 * self.n))

    @property
    def num_vars(self) -> int:
        return 2 * self.n

    def factor_triples(self, i: int) -> list[SU11Triple]:
        """The metaplectic triples in the variables 2i-1 and 2i of factor i."""
        return [make_metaplectic(self, mu) for mu in (2 * i - 1, 2 * i)]


def rotation(sig: AlgebraSignature, mu: int, nu: int) -> Operator:
    """The rotation x_mu d_nu - x_nu d_mu (1-based indices), in either realization.

    The formula is antisymmetric in (mu, nu), so swapped indices return
    the negated rotation; equal indices raise ValueError, and so do
    indices outside 1..sig.num_vars (from Operator.x and Operator.d).
    """
    if mu == nu:
        raise ValueError("rotation generator needs two distinct indices")
    return Operator.x(sig, mu) * Operator.d(sig, nu) - Operator.x(sig, nu) * Operator.d(sig, mu)


def make_L(ctx: SO2nContext, mu: int, nu: int) -> Operator:
    """The o(2n) generator L_{mu,nu}: the rotation in the oscillator variables."""
    return rotation(ctx.signature, mu, nu)


def _bracket_rhs(ctx: SO2nContext, L: dict, mu: int, nu: int, rho: int, sigma: int) -> Operator:
    """The expansion of [L_{mu,nu}, L_{rho,sigma}] over the table L, which holds both index orders.

    Since L_{nu,mu} = -L_{mu,nu}, the four delta terms are one term,
    delta_{p,q} L_{a,b}, summed over the orders (a, p) of (mu, nu) and
    (q, b) of (rho, sigma), negated once per reversed pair.  For two
    distinct generators no term that survives has a == b.
    """
    out = Operator.zero(ctx.signature)
    for (a, p), s in (((mu, nu), 1), ((nu, mu), -1)):
        for (q, b), t in (((rho, sigma), 1), ((sigma, rho), -1)):
            if p == q:
                out = out + L[a, b] if s == t else out - L[a, b]
    return out


def check_o2n_relations(ctx: SO2nContext, jobs: int = 1) -> RelationReport:
    """Verify the bracket of every unordered pair of distinct generators.

    For m = 2n variables there are m(m-1)/2 generators and
    C(m(m-1)/2, 2) pairs; each entry records the residual of
    [L_{mu,nu}, L_{rho,sigma}] minus its structure-constant expansion.
    The generator table is built once per mu < nu and holds each
    generator under both index orders, L[nu, mu] = -L[mu, nu], so every
    delta term of the expansion is one signed lookup in any order.  The
    pairs swept here have (mu, nu) < (rho, sigma), so they read only
    ascending entries.
    """
    m = ctx.num_vars
    gens = [(mu, nu) for mu in range(1, m + 1) for nu in range(mu + 1, m + 1)]
    L = {pair: make_L(ctx, *pair) for pair in gens}
    L |= {(nu, mu): -op for (mu, nu), op in L.items()}
    quads = [g + h for g, h in itertools.combinations(gens, 2)]
    return run_checks("o2n", quads, lambda t: commutator(L[t[:2]], L[t[2:]]) - _bracket_rhs(ctx, L, *t), jobs)


def rotation_squares(ctx: SO2nContext | ReducedContext, variables: Iterable[int]) -> Operator:
    """sum of rotation(mu, nu)^2 over mu < nu drawn from the given variables."""
    total = Operator.zero(ctx.signature)
    for mu, nu in itertools.combinations(variables, 2):
        l = rotation(ctx.signature, mu, nu)
        total = total + l * l
    return total


def casimir_closed_form(ctx: SO2nContext | ReducedContext, variables: Iterable[int]) -> Operator:
    """|A|(|A|-4)/16 - (1/4) sum of rotation(mu, nu)^2 over mu < nu in A,
    for A the given variables: C^A of the metaplectic coproduct over A.

    At one variable it is the constant -3/16 of each metaplectic triple.
    """
    variables = tuple(variables)
    size = len(variables)
    constant = Operator.constant(ctx.signature, Fraction(size * (size - 4), 16))
    return constant - rotation_squares(ctx, variables) * Fraction(1, 4)


def casimir_sum(ctx: SO2nContext, bound: int) -> Operator:
    """sum of L_{mu,nu}^2 over 1 <= mu < nu <= bound.

    Only bound = 2n gives the central invariant of the full algebra; a
    smaller bound gives the invariant of the o(bound) subalgebra, which
    is not central in o(2n).
    """
    if not 2 <= bound <= ctx.num_vars:
        raise ValueError(f"bound must lie in 2..{ctx.num_vars}")
    return rotation_squares(ctx, range(1, bound + 1))


def check_casimir_centrality(
    ctx: SO2nContext, bound: int | None = None, jobs: int = 1
) -> RelationReport:
    """Commute the (possibly truncated) invariant with every generator.

    With the default bound 2n every entry passes.  With bound = n the
    report shows the failures that prove the truncated sum is not the
    invariant of the full algebra.
    """
    m = ctx.num_vars
    if bound is None:
        bound = m
    cas = casimir_sum(ctx, bound)
    gens = [(mu, nu) for mu in range(1, m + 1) for nu in range(mu + 1, m + 1)]
    note = "" if bound == m else f"sum bound {bound}"
    return run_checks("casimir-central", gens, lambda t: commutator(cas, make_L(ctx, *t)), jobs, note)


@dataclass(frozen=True)
class SU11Triple:
    """A raising/lowering/Cartan triple obeying

        [J0, Jp] = Jp,   [J0, Jm] = -Jm,   [Jp, Jm] = -2 J0.

    Construction checks nothing; relation_checks gives the three
    left-minus-right operators, unbuilt, all zero exactly when the triple
    closes, and relation_residuals builds them.
    """

    Jp: Operator
    Jm: Operator
    J0: Operator

    def relation_checks(self) -> list[tuple[str, Callable[[], Operator]]]:
        """(note, residual function) per relation, for the caller to build and time."""
        return [
            ("[J0, J+] - J+", lambda: commutator(self.J0, self.Jp) - self.Jp),
            ("[J0, J-] + J-", lambda: commutator(self.J0, self.Jm) + self.Jm),
            ("[J+, J-] + 2*J0", lambda: commutator(self.Jp, self.Jm) + 2 * self.J0),
        ]

    def relation_residuals(self) -> list[tuple[str, Operator]]:
        return [(note, residual()) for note, residual in self.relation_checks()]


def sum_triples(triples: list[SU11Triple]) -> SU11Triple:
    """Coproduct sum of triples over pairwise disjoint variables.

    Triples in disjoint variables commute, so the sum of closing triples
    closes; the sum itself is not checked here.
    """
    if not triples:
        raise ValueError("need at least one triple")
    first, *rest = triples
    return SU11Triple(
        sum((t.Jp for t in rest), first.Jp),
        sum((t.Jm for t in rest), first.Jm),
        sum((t.J0 for t in rest), first.J0),
    )


def make_metaplectic(ctx: SO2nContext | ReducedContext, mu: int) -> SU11Triple:
    """The one-variable realization in x_mu:

        J+ = x_mu^2 / 2,  J- = d_mu^2 / 2,  J0 = (1/2)(1/2 + x_mu d_mu).

    Only ctx.signature is read, so the radial triple builds on it too
    (reduction.make_reduced_J).  An index outside 1..num_vars raises
    ValueError, from Operator.x.
    """
    sig = ctx.signature
    half = Fraction(1, 2)
    jp = Operator.x(sig, mu, 2) * half
    jm = Operator.d(sig, mu, 2) * half
    j0 = (Operator.constant(sig, half) + Operator.x(sig, mu) * Operator.d(sig, mu)) * half
    return SU11Triple(jp, jm, j0)


def casimir_of(t: SU11Triple) -> Operator:
    """C = J0^2 - J+ J- - J0, central whenever the triple closes.

    Only the triple's relations [J0,J+] = J+, [J0,J-] = -J- and
    [J+,J-] = -2 J0 are needed:

        [J0, C] = -[J0,J+] J- - J+ [J0,J-] = -J+ J- + J+ J- = 0,
        [J+, C] = -(J+ J0 + J0 J+) + 2 J+ J0 + J+ = -[J0,J+] + J+ = 0,
        [J-, C] = (J- J0 + J0 J-) - 2 J0 J- - J- = -[J0,J-] - J- = 0.

    So centrality is not re-checked here; the relations are reported
    once per triple, and the Casimir's value by the closed-form entries.
    """
    return t.J0 * t.J0 - t.Jp * t.Jm - t.J0


@dataclass(frozen=True)
class PairUnion:
    """A union of factors: the variable pair (2i-1, 2i) per factor index i in
    the oscillator picture, the one radial variable x_i in the radial model."""

    pairs: tuple[int, ...]

    def __init__(self, pairs: Iterable[int]):
        object.__setattr__(self, "pairs", tuple(pairs))
        if not self.pairs:
            raise ValueError("a pair union needs at least one factor")
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError(f"factor indices must be distinct: {self.pairs}")
        if any(i < 1 for i in self.pairs):
            raise ValueError(f"factor indices must be positive: {self.pairs}")

    def variables(self) -> tuple[int, ...]:
        """The oscillator variables of the union, 2i-1 and 2i per factor i, ascending."""
        return tuple(sorted(v for i in self.pairs for v in (2 * i - 1, 2 * i)))


def make_JA(ctx: SO2nContext | ReducedContext, union: PairUnion) -> SU11Triple:
    """The coproduct of the context's one-variable triples over the union's factors."""
    if any(i > ctx.n for i in union.pairs):
        raise ValueError(f"factor indices {union.pairs} out of range 1..{ctx.n}")
    return sum_triples([t for i in union.pairs for t in ctx.factor_triples(i)])


def casimir_CA(ctx: SO2nContext | ReducedContext, union: PairUnion) -> Operator:
    """Casimir of the coupled triple, built once per context and union.pairs
    (the howe and reduction suites check its closed form)."""
    memo = ctx.casimir_memo
    op = memo.get(union.pairs)
    if op is None:
        op = memo[union.pairs] = casimir_of(make_JA(ctx, union))
    return op


def decomposition_sum(
    factors: Iterable[int], pair: Callable[[int, int], Operator], single: Callable[[int], Operator]
) -> Operator:
    """sum_{a<b} pair(a, b) - (k - 2) sum_a single(a) over k >= 2 distinct factors.

    With pair = C^{(a)(b)} and single = C^{(a)} this is the right side of
    the decomposition of a coupled Casimir,

        C^A = sum_{a<b in A} C^{(a)(b)} - (k - 2) sum_{a in A} C^{(a)},

    where k = |A|/2, so k - 2 = (|A| - 4)/2.  Factors are taken in
    ascending order, so pair always gets a < b.
    """
    factors = sorted(factors)
    if len(factors) < 2:
        raise ValueError("the decomposition needs at least two factors")
    terms = [pair(a, b) for a, b in itertools.combinations(factors, 2)]
    total = sum(terms[1:], terms[0])
    weight = len(factors) - 2
    if weight:
        for a in factors:
            total = total - weight * single(a)
    return total
