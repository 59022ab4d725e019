"""The radial realization on n localized variables with free parameters.

Separating the angle of each variable pair and absorbing a gauge factor
turns the 2n-variable oscillator picture into n radial variables x_i,
each carrying a free parameter a_i, with the su(1,1) triple

    J+^i = x_i^2 / 2,
    J-^i = (1/2)(d_i^2 + a_i / x_i^2),
    J0^i = (1/2)(x_i d_i + 1/2).

Everything here is derived from that triple alone.  The coupled triple
over any set A of factors is the sum of these (liealg.make_JA), and its
Casimir has one closed form: the oscillator one in the variables of A,
minus a potential term,

    C^A = |A|(|A| - 4)/16 - (1/4) sum_{i<j in A} R_{ij}^2
          - (1/4) (sum_{i in A} x_i^2)(sum_{j in A} a_j / x_j^2),

with R_{ij} = x_i d_j - x_j d_i.  Its cases are the single-factor
constant C^i = -(a_i + 3/4)/4, the pair Casimir

    C^{ij} = -(1/4) [ R_{ij}^2 + a_i x_j^2/x_i^2 + a_j x_i^2/x_j^2
                      + a_i + a_j + 1 ],

and the total Casimir C^{[n]}, whose bracketed operator, restricted to
the unit sphere, is the Hamiltonian with inverse-square potentials in
every coordinate.  The conserved quantities

    Q_{ij} = R_{ij}^2 + a_i x_j^2/x_i^2 + a_j x_i^2/x_j^2
           = -4 C^{ij} - (a_i + a_j + 1)

commute with C^{[n]} as an exact operator identity, and the rescaled
Casimirs satisfy the same five quadratic relations as the commutant
invariants, with F^{ijk} = (1/2)[C^{ij}, C^{jk}] as there
(racah.Basis).  All identities are verified with the a_i as generic
polynomial coefficients, which subsumes every numeric choice.  Each C^A
is built once per context (liealg.casimir_CA), ReducedBasis's C^i and
C^{ij} included.  The relation sweep (racah.sweep_relations) reads a
ReducedBasis its caller builds once and passes in, and make_Q is
pair_invariant under the name the suites call.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .coeff import ParamPoly
from .liealg import PairUnion, SU11Triple, _key, casimir_CA, casimir_closed_form, make_metaplectic, rotation_squares
from .racah import Basis, sweep_relations
from .report import RelationReport, run_checks
from .weyl import AlgebraSignature, Operator, commutator


@dataclass(frozen=True)
class ReducedContext:
    """n localized radial variables, one free parameter a_i per variable."""

    n: int
    signature: AlgebraSignature = field(init=False)
    # C^A per union.pairs, filled by liealg.casimir_CA (see SO2nContext).
    casimir_memo: dict[tuple[int, ...], Operator] = field(init=False, default_factory=dict, compare=False, repr=False)
    # R_{ij}^2 per sorted pair, filled by liealg.rotation_squares.
    square_memo: dict[tuple[int, int], Operator] = field(init=False, default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two radial variables")
        sig = AlgebraSignature(self.n, localized=frozenset(range(1, self.n + 1)), nparams=self.n)
        object.__setattr__(self, "signature", sig)

    def param(self, i: int) -> ParamPoly:
        return self.signature.param(i)

    @staticmethod
    def factor_variables(i: int) -> tuple[int]:
        """The one radial variable x_i that factor i owns."""
        return (i,)

    @staticmethod
    def factor_params(i: int) -> tuple[int]:
        """The one parameter a_i that factor i owns."""
        return (i,)

    def factor_triples(self, i: int) -> list[SU11Triple]:
        """The radial triple in x_i, the one variable of factor i."""
        return [make_reduced_J(self, i)]


def make_reduced_J(ctx: ReducedContext, i: int) -> SU11Triple:
    """The parameter-dependent triple in the single variable x_i: the
    metaplectic triple in x_i with a_i / (2 x_i^2) added to J-.

    J- is written from its terms, d_i^2 and then x_i^-2 at parameter
    exponent e_i, each with numerator 1 over J-'s denominator 2, without
    the product kernel.  An index outside 1..n raises ValueError from
    weyl._check_index, through make_metaplectic.
    """
    t = make_metaplectic(ctx, i)
    sig = ctx.signature
    return SU11Triple(t.Jp, Operator._make(sig, {**t.Jm.terms, _key(sig, {i: -2}, {}, i): 1}, t.Jm.den), t.J0)


def _ratio(ctx: ReducedContext, num: int, den: int) -> Operator:
    """x_num^2 / x_den^2 as a Laurent monomial."""
    xe = [0] * ctx.n
    xe[num - 1] += 2
    xe[den - 1] -= 2
    return Operator.monomial(ctx.signature, xe, [0] * ctx.n)


def radial_closed_form(ctx: ReducedContext, factors: Iterable[int]) -> Operator:
    """C^A over the given factors: liealg.casimir_closed_form in their
    variables minus (1/4)(sum_A x_i^2)(sum_A a_i / x_i^2)."""
    sig, factors = ctx.signature, tuple(factors)
    radius = sum((Operator.x(sig, i, 2) for i in factors), Operator.zero(sig))
    potential = sum((Operator.x(sig, i, -2) * ctx.param(i) for i in factors), Operator.zero(sig))
    return casimir_closed_form(ctx, factors) - (radius * potential) * Fraction(1, 4)


def reduced_casimir_single(ctx: ReducedContext, i: int) -> Operator:
    """Casimir of the single-variable triple, the constant -(a_i + 3/4)/4."""
    return casimir_CA(ctx, PairUnion((i,)))


def pair_invariant(ctx: ReducedContext, i: int, j: int) -> Operator:
    """R_{ij}^2 + a_i x_j^2/x_i^2 + a_j x_i^2/x_j^2 (no constant part)."""
    return rotation_squares(ctx, (i, j)) + _ratio(ctx, j, i) * ctx.param(i) + _ratio(ctx, i, j) * ctx.param(j)


def reduced_casimir_pair(ctx: ReducedContext, i: int, j: int, verify: bool = True) -> Operator:
    """Casimir of the two-variable coproduct triple; verify=True also checks its closed form."""
    c = casimir_CA(ctx, PairUnion((i, j)))
    if verify and not (c - radial_closed_form(ctx, (i, j))).is_zero():
        raise RuntimeError(f"pair Casimir closed form fails for ({i}, {j})")
    return c


def total_casimir(ctx: ReducedContext) -> Operator:
    """Casimir of the full coproduct over all n factors."""
    return casimir_CA(ctx, PairUnion(range(1, ctx.n + 1)))


def total_casimir_residual(ctx: ReducedContext) -> Operator:
    """The total Casimir minus its closed form (radial_closed_form over all factors)."""
    return total_casimir(ctx) - radial_closed_form(ctx, range(1, ctx.n + 1))


def total_casimir_identity(ctx: ReducedContext) -> bool:
    """Whether the total Casimir matches its closed form exactly."""
    return total_casimir_residual(ctx).is_zero()


# The conserved quantity Q_{ij}, affinely tied to the pair Casimir:
#
#     Q_{ij} = -4 C^{ij} - (a_i + a_j + 1),
#
# which the reduction suite reports as its ``q-affine`` entries.  Equal
# factors raise ValueError from liealg.rotation, and factors outside
# 1..n from weyl._check_index (through liealg.rotation).
make_Q = pair_invariant


def check_q_symmetry(ctx: ReducedContext, jobs: int = 1) -> RelationReport:
    """[Q_{ij}, C^{[n]}] = 0 for every i < j, as exact operators."""
    total = total_casimir(ctx)
    return run_checks(
        "q-symmetry",
        list(itertools.combinations(range(1, ctx.n + 1), 2)),
        lambda t: commutator(make_Q(ctx, *t), total),
        jobs,
    )


class ReducedBasis(Basis):
    """Rescaled Casimirs of the radial realization, built once for sweeps.

    P^{ij} = C^{ij} - C^i - C^j and F^{ijk} = (1/2)[C^{ij}, C^{jk}] for
    i < j < k, signed by permutation at other orderings, as in the
    commutant picture.  The C^i are constants, so F^{ijk} equals
    (1/2)[P^{ij}, P^{jk}] and relation (a) holds by construction at
    (i,j,k) and (k,j,i); that F is antisymmetric at the four other
    orderings is checked by the sweep's certificate (racah.covariant).
    Relations (b)..(e) remain contentful.
    """

    # See CommutantBasis.f: the tracer wraps each class's own f.
    f = Basis.f

    def __init__(self, ctx: ReducedContext):
        factors = range(1, ctx.n + 1)
        C1 = {i: casimir_CA(ctx, PairUnion((i,))) for i in factors}
        C2 = {t: casimir_CA(ctx, PairUnion(t)) for t in itertools.combinations(factors, 2)}
        super().__init__(ctx, C1, C2)


def verify_reduced_racah(ctx: ReducedContext, basis: ReducedBasis, jobs: int = 1) -> RelationReport:
    """The five quadratic relations in the radial realization, generic a_i:
    sweep_relations over basis, where relabelling the factors also
    permutes the a_i, so each relation is computed at its canonical
    tuple and the other tuples follow by covariance.  ctx is not read;
    it keeps the leading argument of the module's other entry points.
    The reduction suite calls sweep_relations itself;
    perfbench/workloads.py calls this."""
    return sweep_relations(basis, jobs)
