"""Coupled su(1,1) realizations over unions of variable pairs.

Each factor index i labels the variable pair (2i-1, 2i).  Summing the
one-variable triples over every variable in a union A of such pairs
gives the coproduct realization

    J+^A = (1/2) sum x_mu^2,  J-^A = (1/2) sum d_mu^2,
    J0^A = (1/2)(|A|/2 + sum x_mu d_mu),

whose Casimir C^A turns out to be expressible through rotation
generators alone:

    C^A = |A|(|A| - 4)/16 - (1/4) sum_{mu < nu in A} L_{mu,nu}^2.

That closed form is what ties the coupled triples to the commutant
invariants: at one pair it gives C^{(2i-1;2i)} = -(G^i + 1)/4 and at
two pairs C = -K^{ij}/4.  This module builds the triples, verifies the
closed form, the decomposition of any C^A into one- and two-pair
Casimirs, and the correspondence with the commutant generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .liealg import SO2nContext, SU11Triple, casimir_of, make_L, make_metaplectic, sum_triples
from .racah import make_G, make_K
from .report import RelationReport, run_checks
from .weyl import Operator, commutator


@dataclass(frozen=True)
class PairUnion:
    """A union of variable pairs, one pair (2i-1, 2i) per factor index i."""

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
        return tuple(sorted(v for i in self.pairs for v in (2 * i - 1, 2 * i)))

    @property
    def size(self) -> int:
        """|A|: the number of variables covered."""
        return 2 * len(self.pairs)


def _check_union(ctx: SO2nContext, union: PairUnion) -> None:
    if any(i > ctx.n for i in union.pairs):
        raise ValueError(f"factor indices {union.pairs} out of range 1..{ctx.n}")


def all_pair_unions(ctx: SO2nContext, min_pairs: int = 1) -> list[PairUnion]:
    """Every union of at least min_pairs factors, in subset order."""
    out = []
    for count in range(min_pairs, ctx.n + 1):
        for combo in itertools.combinations(range(1, ctx.n + 1), count):
            out.append(PairUnion(combo))
    return out


def make_JA(ctx: SO2nContext, union: PairUnion) -> SU11Triple:
    """The coproduct triple over all variables of the union."""
    _check_union(ctx, union)
    return sum_triples([make_metaplectic(ctx, mu) for mu in union.variables()])


def casimir_closed_form(ctx: SO2nContext, union: PairUnion) -> Operator:
    """|A|(|A|-4)/16 - (1/4) sum of L_{mu,nu}^2 over mu < nu in A."""
    _check_union(ctx, union)
    sz = union.size
    total = Operator.constant(ctx.signature, Fraction(sz * (sz - 4), 16))
    for mu, nu in itertools.combinations(union.variables(), 2):
        l = make_L(ctx, mu, nu)
        total = total - (l * l) * Fraction(1, 4)
    return total


def casimir_CA(ctx: SO2nContext, union: PairUnion) -> Operator:
    """Casimir of the coupled triple (check_casimir_forms checks its closed form)."""
    return casimir_of(make_JA(ctx, union))


def decomposition_residual(ctx: SO2nContext, union: PairUnion) -> Operator:
    """Any coupled Casimir decomposes through one- and two-pair ones:

        C^A = sum_{pairs a<b in A} C^{(a)(b)} - ((|A|-4)/2) sum_{a in A} C^{(a)}

    returns left side minus right side; needs at least two pairs.
    """
    if len(union.pairs) < 2:
        raise ValueError("decomposition needs at least two pairs")
    lhs = casimir_CA(ctx, union)
    rhs = Operator.zero(ctx.signature)
    for a, b in itertools.combinations(union.pairs, 2):
        rhs = rhs + casimir_CA(ctx, PairUnion((a, b)))
    weight = Fraction(union.size - 4, 2)
    if weight:
        for a in union.pairs:
            rhs = rhs - casimir_CA(ctx, PairUnion((a,))) * weight
    return lhs - rhs


def check_casimir_forms(ctx: SO2nContext, jobs: int = 1) -> RelationReport:
    """Closed form against the directly computed Casimir, every pair union."""
    return run_checks(
        "casimir-closed-form",
        [u.pairs for u in all_pair_unions(ctx)],
        lambda t: casimir_CA(ctx, PairUnion(t)) - casimir_closed_form(ctx, PairUnion(t)),
        jobs,
    )


def check_decompositions(ctx: SO2nContext, jobs: int = 1) -> RelationReport:
    """Decomposition identity for every union of two or more pairs."""
    return run_checks(
        "casimir-decomposition",
        [u.pairs for u in all_pair_unions(ctx, min_pairs=2)],
        lambda t: decomposition_residual(ctx, PairUnion(t)),
        jobs,
    )


def verify_commutant_correspondence(ctx: SO2nContext, jobs: int = 1) -> RelationReport:
    """Coupled Casimirs match the rescaled commutant invariants exactly:

        C^{(2i-1;2i)}            = -(G^i + 1)/4       for every factor i,
        C^{(2i-1;2i)(2j-1;2j)}   = -K^{ij}/4          for every i < j.
    """
    one = Operator.constant(ctx.signature, 1)
    quarter = Fraction(1, 4)
    report = run_checks(
        "correspondence-single",
        [(i,) for i in range(1, ctx.n + 1)],
        lambda t: casimir_CA(ctx, PairUnion(t)) + (make_G(ctx, *t) + one) * quarter,
        jobs,
    )
    report.merge(
        run_checks(
            "correspondence-pair",
            list(itertools.combinations(range(1, ctx.n + 1), 2)),
            lambda t: casimir_CA(ctx, PairUnion(t)) + make_K(ctx, *t) * quarter,
            jobs,
        )
    )
    return report


def check_intermediate_centrality(ctx: SO2nContext, jobs: int = 1) -> RelationReport:
    """[C^A, C^{[n]}] = 0 for every pair union A."""
    total = casimir_CA(ctx, PairUnion(range(1, ctx.n + 1)))
    return run_checks(
        "intermediate-central",
        [u.pairs for u in all_pair_unions(ctx)],
        lambda t: commutator(casimir_CA(ctx, PairUnion(t)), total),
        jobs,
    )
