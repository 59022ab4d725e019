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
two pairs C = -K^{ij}/4.  The triples, their Casimirs and the closed
form are built in liealg (PairUnion, make_JA, casimir_CA,
casimir_closed_form); this module verifies the closed form, the
decomposition of any C^A into one- and two-pair Casimirs, and the
correspondence with the commutant generators.

Each C^A is built once per context: casimir_CA memoizes it in
SO2nContext.casimir_memo, and every check here first builds its table
{A.pairs: C^A} in the calling process (casimir_table), so forked
workers read the operators instead of rebuilding them.  The memo serves
only the coupled-triple side of the closed-form and correspondence
checks; their other side is built independently and never reads it.
liealg.casimir_closed_form sums the squared rotations through
rotation_squares, and the correspondence compares with the C1 and C2
that racah.CommutantBasis builds from G and K.  Two kinds of entry do
compare an operator with itself, so they hold whatever C^A is:
casimir-decomposition at a two-pair union (a, b), whose decomposition
has weight 0 and the one pair term C^{(ab)}, the memoized C^A itself;
and intermediate-central at A = [n], the bracket [C^{[n]}, C^{[n]}].
That is C(n, 2) + 1 entries per run: 6 + 1 at n=4, 10 + 1 at n=5.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .liealg import PairUnion, SO2nContext, casimir_CA, casimir_closed_form, decomposition_sum
from .racah import CommutantBasis
from .report import RelationReport, run_checks
from .weyl import Operator, commutator


def all_pair_unions(ctx: SO2nContext, min_pairs: int = 1) -> list[PairUnion]:
    """Every union of at least min_pairs factors, in subset order."""
    factors = range(1, ctx.n + 1)
    return [PairUnion(c) for k in range(min_pairs, ctx.n + 1) for c in itertools.combinations(factors, k)]


def casimir_table(ctx: SO2nContext, unions: Iterable[PairUnion]) -> dict[tuple[int, ...], Operator]:
    """{A.pairs: C^A} for the given unions, through the context's memo.

    Built in the calling process before a sweep dispatches, as a
    relation basis builds every F at construction, so forked workers
    inherit every C^A.
    """
    return {u.pairs: casimir_CA(ctx, u) for u in unions}


def decomposition_residual(ctx: SO2nContext, union: PairUnion) -> Operator:
    """C^A minus its decomposition through one- and two-pair Casimirs
    (liealg.decomposition_sum); needs at least two pairs."""
    return casimir_CA(ctx, union) - decomposition_sum(
        union.pairs, lambda a, b: casimir_CA(ctx, PairUnion((a, b))), lambda a: casimir_CA(ctx, PairUnion((a,)))
    )


def check_casimir_forms(ctx: SO2nContext, jobs: int = 1) -> RelationReport:
    """Closed form against the directly computed Casimir, every pair union."""
    table = casimir_table(ctx, all_pair_unions(ctx))
    return run_checks(
        "casimir-closed-form",
        list(table),
        lambda t: table[t] - casimir_closed_form(ctx, PairUnion(t).variables()),
        jobs,
    )


def check_decompositions(ctx: SO2nContext, jobs: int = 1) -> RelationReport:
    """Decomposition identity for every union of two or more pairs."""
    table = casimir_table(ctx, all_pair_unions(ctx))
    return run_checks(
        "casimir-decomposition",
        [t for t in table if len(t) >= 2],
        lambda t: decomposition_residual(ctx, PairUnion(t)),
        jobs,
    )


def verify_commutant_correspondence(
    ctx: SO2nContext, jobs: int = 1, basis: CommutantBasis | None = None
) -> RelationReport:
    """Coupled Casimirs match the rescaled commutant invariants exactly:

        C^{(2i-1;2i)}            = C1^i    = -(G^i + 1)/4   for every factor i,
        C^{(2i-1;2i)(2j-1;2j)}   = C2^{ij} = -K^{ij}/4      for every i < j,

    with C1 and C2 as racah.CommutantBasis builds them from G and K.
    """
    basis = basis or CommutantBasis(ctx)
    singles = [(i,) for i in basis.C1]
    pairs = list(basis.C2)
    table = casimir_table(ctx, map(PairUnion, singles + pairs))
    report = run_checks("correspondence-single", singles, lambda t: table[t] - basis.c(*t), jobs)
    report.merge(run_checks("correspondence-pair", pairs, lambda t: table[t] - basis.C2[t], jobs))
    return report


def check_intermediate_centrality(ctx: SO2nContext, jobs: int = 1) -> RelationReport:
    """[C^A, C^{[n]}] = 0 for every pair union A."""
    table = casimir_table(ctx, all_pair_unions(ctx))
    total = table[tuple(range(1, ctx.n + 1))]
    return run_checks(
        "intermediate-central",
        list(table),
        lambda t: commutator(table[t], total),
        jobs,
    )
