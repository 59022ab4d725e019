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
liealg.casimir_closed_form adds the squared rotations that
rotation_squares stores once per context (SO2nContext.square_memo);
check_casimir_forms stores them all in the calling process before it
dispatches, so forked workers do not build them again.  The
correspondence compares with the C1 and C2 that racah.CommutantBasis
builds from the same squares as G and K.  Two
kinds of entry do compare an operator with itself, so they hold
whatever C^A is: casimir-decomposition at a two-pair union (a, b),
whose decomposition has weight 0 and the one pair term C^{(ab)}, the
memoized C^A itself; and intermediate-central at A = [n], the bracket
[C^{[n]}, C^{[n]}].  That is C(n, 2) + 1 entries per run: 6 + 1 at
n=4, 10 + 1 at n=5.

intermediate-central runs by S_n orbit, as racah.sweep_relations does.
Relabelling the factors by sigma in S_n is an algebra automorphism.
covariant_table first certifies the table it built: relabelled by the
transposition (1 2) and by the n-cycle, each C^A must equal, by
``==``, the stored C^{sigma A}.  Then sigma[C^A, C^{[n]}] =
[C^{sigma A}, C^{[n]}], since sigma fixes [n], and each size k is one
orbit: the bracket is computed at A = (1, ..., k) alone, and every
other k-subset gets its verdict, ``residual_terms`` and an even share
of its ``ms`` (report.run_orbits).  The representative of size n is
still the self-comparing [C^{[n]}, C^{[n]}], so the count of
self-comparing entries above is unchanged.  A table that is not
covariant takes the direct path, the reference the tests keep: the
bracket at every union.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from .liealg import PairUnion, SO2nContext, casimir_CA, casimir_closed_form, decomposition_sum, rotation_squares
from .racah import CommutantBasis, factor_relabelling, sn_generators
from .report import RelationReport, run_checks, run_orbits
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
    # Store every squared rotation the closed forms add before run_checks forks.
    rotation_squares(ctx, range(1, ctx.num_vars + 1))
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


def covariant_table(ctx: SO2nContext, table: dict[tuple[int, ...], Operator]) -> bool:
    """Whether relabelling the factors maps each stored C^A to the stored C^{sigma A}, exactly.

    It is checked for the transposition (1 2) and the n-cycle, which
    generate S_n, at every union in the table, as ``==`` of the
    relabelled operator and the one stored at the relabelled union.  A
    union whose image the table lacks fails it.
    """
    for s in sn_generators(ctx.n):
        move = factor_relabelling(ctx, s)
        for pairs, op in table.items():
            if move(op) != table.get(tuple(sorted(s[i - 1] for i in pairs))):
                return False
    return True


def check_intermediate_centrality(ctx: SO2nContext, jobs: int = 1) -> RelationReport:
    """[C^A, C^{[n]}] = 0 for every pair union A, one bracket per size |A|
    when the table {A: C^A} is ``covariant_table``, every A otherwise."""
    table = casimir_table(ctx, all_pair_unions(ctx))
    factors = range(1, ctx.n + 1)
    total = table[tuple(factors)]
    orbits = [("intermediate-central", list(itertools.combinations(factors, k))) for k in factors]
    return run_orbits(orbits, lambda _, t: commutator(table[t], total), lambda: covariant_table(ctx, table), jobs)
