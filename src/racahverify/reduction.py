"""The radial realization on n localized variables with free parameters.

Separating the angle of each variable pair and absorbing a gauge factor
turns the 2n-variable oscillator picture into n radial variables x_i,
each carrying a free parameter a_i, with the su(1,1) triple

    J+^i = x_i^2 / 2,
    J-^i = (1/2)(d_i^2 + a_i / x_i^2),
    J0^i = (1/2)(x_i d_i + 1/2).

Everything here is derived from that triple alone: the single-factor
Casimir is the constant -(a_i + 3/4)/4, the pair Casimir has the
closed form

    C^{ij} = -(1/4) [ R_{ij}^2 + a_i x_j^2/x_i^2 + a_j x_i^2/x_j^2
                      + a_i + a_j + 1 ],

with R_{ij} = x_i d_j - x_j d_i, and the total Casimir obeys

    C^{[n]} = -(1/4) sum_{i<j} R_{ij}^2
              - (1/4) (sum_i x_i^2)(sum_j a_j / x_j^2) + n(n-4)/16,

whose bracketed operator, restricted to the unit sphere, is the
Hamiltonian with inverse-square potentials in every coordinate.  The
conserved quantities

    Q_{ij} = R_{ij}^2 + a_i x_j^2/x_i^2 + a_j x_i^2/x_j^2
           = -4 C^{ij} - (a_i + a_j + 1)

commute with C^{[n]} as an exact operator identity, and the rescaled
Casimirs satisfy the same five quadratic relations as the commutant
invariants, now with F defined through the bracket of the P's:
F^{ijk} = (1/2)[P^{ij}, P^{jk}].  All identities are verified with the
a_i as generic polynomial coefficients, which subsumes every numeric
choice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .coeff import ParamPoly
from .liealg import SU11Triple, casimir_of, sum_triples
from .racah import Basis, sweep_relations
from .report import RelationReport, run_checks
from .weyl import AlgebraSignature, Operator, commutator


@dataclass(frozen=True)
class ReducedContext:
    """n localized radial variables, one free parameter a_i per variable."""

    n: int
    signature: AlgebraSignature = field(init=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two radial variables")
        sig = AlgebraSignature(
            self.n,
            localized=frozenset(range(1, self.n + 1)),
            params=tuple(f"a{i}" for i in range(1, self.n + 1)),
        )
        object.__setattr__(self, "signature", sig)

    def param(self, i: int) -> ParamPoly:
        return self.signature.param(i)


def _check_factor(ctx: ReducedContext, i: int) -> None:
    if not 1 <= i <= ctx.n:
        raise ValueError(f"factor index {i} out of range 1..{ctx.n}")


def make_reduced_J(ctx: ReducedContext, i: int) -> SU11Triple:
    """The parameter-dependent triple in the single variable x_i."""
    _check_factor(ctx, i)
    sig = ctx.signature
    half = Fraction(1, 2)
    jp = Operator.x(sig, i, 2) * half
    jm = (Operator.d(sig, i, 2) + Operator.x(sig, i, -2) * ctx.param(i)) * half
    j0 = (Operator.x(sig, i) * Operator.d(sig, i) + Operator.constant(sig, half)) * half
    return SU11Triple(jp, jm, j0)


def reduced_coproduct(ctx: ReducedContext, factors: tuple[int, ...] | None = None) -> SU11Triple:
    """Sum of the single-variable triples over the given factors (default all)."""
    if factors is None:
        factors = tuple(range(1, ctx.n + 1))
    for i in factors:
        _check_factor(ctx, i)
    if len(set(factors)) != len(factors):
        raise ValueError(f"factor indices must be distinct: {factors}")
    return sum_triples([make_reduced_J(ctx, i) for i in factors])


def rotation(ctx: ReducedContext, i: int, j: int) -> Operator:
    """R_{ij} = x_i d_j - x_j d_i in the radial variables."""
    _check_factor(ctx, i)
    _check_factor(ctx, j)
    if i == j:
        raise ValueError("rotation needs two distinct indices")
    sig = ctx.signature
    return Operator.x(sig, i) * Operator.d(sig, j) - Operator.x(sig, j) * Operator.d(sig, i)


def _ratio(ctx: ReducedContext, num: int, den: int) -> Operator:
    """x_num^2 / x_den^2 as a Laurent monomial."""
    xe = [0] * ctx.n
    xe[num - 1] += 2
    xe[den - 1] -= 2
    return Operator.monomial(ctx.signature, xe, [0] * ctx.n)


def reduced_casimir_single(ctx: ReducedContext, i: int) -> Operator:
    """Casimir of the single-variable triple, the constant -(a_i + 3/4)/4.

    The value is not checked here; the reduction suite reports it as the
    ``reduced-casimir-single`` entries.
    """
    return casimir_of(make_reduced_J(ctx, i))


def pair_invariant(ctx: ReducedContext, i: int, j: int) -> Operator:
    """R_{ij}^2 + a_i x_j^2/x_i^2 + a_j x_i^2/x_j^2 (no constant part)."""
    r = rotation(ctx, i, j)
    return r * r + _ratio(ctx, j, i) * ctx.param(i) + _ratio(ctx, i, j) * ctx.param(j)


def pair_casimir_closed_form(ctx: ReducedContext, i: int, j: int) -> Operator:
    """-(1/4)(R_{ij}^2 + a_i x_j^2/x_i^2 + a_j x_i^2/x_j^2 + a_i + a_j + 1)."""
    constant = ctx.param(i) + ctx.param(j) + 1
    return (pair_invariant(ctx, i, j) + Operator.constant(ctx.signature, constant)) * Fraction(-1, 4)


def reduced_casimir_pair(ctx: ReducedContext, i: int, j: int, verify: bool = True) -> Operator:
    """Casimir of the two-variable coproduct triple; verify=True also checks its closed form."""
    if i == j:
        raise ValueError("pair Casimir needs two distinct factors")
    c = casimir_of(reduced_coproduct(ctx, (i, j)))
    if verify and not (c - pair_casimir_closed_form(ctx, i, j)).is_zero():
        raise RuntimeError(f"pair Casimir closed form fails for ({i}, {j})")
    return c


def total_casimir(ctx: ReducedContext) -> Operator:
    """Casimir of the full coproduct over all n factors."""
    return casimir_of(reduced_coproduct(ctx))


def total_casimir_residual(ctx: ReducedContext) -> Operator:
    """The total Casimir minus its closed form

        C^{[n]} = -(1/4) sum_{i<j} R_{ij}^2
                  - (1/4)(sum x_i^2)(sum a_j / x_j^2) + n(n-4)/16.
    """
    sig = ctx.signature
    lhs = total_casimir(ctx)
    rhs = Operator.constant(sig, Fraction(ctx.n * (ctx.n - 4), 16))
    for i, j in itertools.combinations(range(1, ctx.n + 1), 2):
        r = rotation(ctx, i, j)
        rhs = rhs - (r * r) * Fraction(1, 4)
    radius = Operator.zero(sig)
    potential = Operator.zero(sig)
    for i in range(1, ctx.n + 1):
        radius = radius + Operator.x(sig, i, 2)
        potential = potential + Operator.x(sig, i, -2) * ctx.param(i)
    rhs = rhs - (radius * potential) * Fraction(1, 4)
    return lhs - rhs


def total_casimir_identity(ctx: ReducedContext) -> bool:
    """Whether the total Casimir matches its closed form exactly."""
    return total_casimir_residual(ctx).is_zero()


def make_Q(ctx: ReducedContext, i: int, j: int) -> Operator:
    """The conserved quantity Q_{ij}; affinely tied to the pair Casimir:

        Q_{ij} = -4 C^{ij} - (a_i + a_j + 1),

    which the reduction suite reports as its ``q-affine`` entries.
    """
    if i == j:
        raise ValueError("conserved quantity needs two distinct factors")
    _check_factor(ctx, i)
    _check_factor(ctx, j)
    return pair_invariant(ctx, i, j)


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
    """Rescaled Casimirs of the radial realization, memoized for sweeps.

    P^{ij} = C^{ij} - C^i - C^j as in the commutant picture; here there
    is no K to commute, so F^{ijk} is defined by its bracket formula
    F^{ijk} = (1/2)[P^{ij}, P^{jk}] (which makes relation (a) hold by
    construction; relations (b)..(e) remain contentful).  The C^i are
    constants, so the bracket is taken on the pair Casimirs:
    [P^{ij}, P^{jk}] = [C^{ij}, C^{jk}] exactly.
    """

    # See CommutantBasis.f: the tracer wraps each class's own f.
    f = Basis.f

    def __init__(self, ctx: ReducedContext):
        C1 = {i: reduced_casimir_single(ctx, i) for i in range(1, ctx.n + 1)}
        C2 = {
            (i, j): reduced_casimir_pair(ctx, i, j, verify=False)
            for i, j in itertools.combinations(range(1, ctx.n + 1), 2)
        }
        super().__init__(ctx, C1, C2, C2, Fraction(1, 2))


def verify_reduced_racah(
    ctx: ReducedContext, jobs: int = 1, basis: ReducedBasis | None = None
) -> RelationReport:
    """The five quadratic relations in the radial realization, generic a_i."""
    return sweep_relations(basis or ReducedBasis(ctx), jobs)
