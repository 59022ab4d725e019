"""The suite registry: which checks each suite runs, and in what order.

A run is the engine self-checks, then the chosen suites in dependency
order (o2n, su11, howe, racah, reduction, oracle).  The registry,
_SUITE_RUNNERS, is the one list of suites and of that order:
SUITE_ORDER is its keys, and run_suites puts any selection into it.

One SO2nContext serves the o2n, su11, howe and racah suites of a run,
so each coupled Casimir C^A is built once (SO2nContext.casimir_memo)
and the racah suite's dependency entries reuse what the howe suite
built.  One
racah.CommutantBasis over it serves the howe and racah suites, so each
G^i and K^{ij} is built once.  The first suite that reads either
builds it, so a run of the reduction or oracle suite alone builds
neither.  Both are made per run, never cached here: a later run in the
same process, with a patched casimir_of for instance, starts from nothing.
The reduction suite's ReducedContext memoizes its radial C^A the same
way (liealg.casimir_CA), so each is built once there too.  Both
contexts also hold each squared rotation L_{mu,nu}^2 (R_{ij}^2 in the
radial model) once, in their square_memo (liealg.rotation_squares):
the o2n invariant, G, K and every closed form of a run add the same
stored squares.  Every expected Casimir value comes from a closed
form, liealg.casimir_closed_form or reduction.radial_closed_form, and
every entry is built and timed inside report.check.  The oracle suite reports each identity_catalog()
entry by its exact residual, each identity built inside its own check
(_IDENTITIES, over the contexts and basis of one _CatalogParts, each
built once, by the first check that reads it); only its two
composition checks draw random trials, and they too report an exact
residual.

Each runner takes the run (_Run: the context and the basis) and the
run's settings (n, jobs, trials, seed; the racah-verify options) and
returns a RelationReport.  The racah and reduction runners pass their
basis to every check that reads one, racah.sweep_relations included;
no check builds a basis of its own.
"""

from __future__ import annotations

import argparse
import itertools
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import Callable, Collection, Iterator

from . import howe, liealg, oracle, racah, reduction
from .report import RelationReport, check, run_checks
from .weyl import AlgebraSignature, Operator, Polynomial, commutator, parse_operator


class _Run:
    """What the suites of one run share: the context and its basis, each built when first read."""

    def __init__(self, n: int):
        self.n = n

    @cached_property
    def ctx(self) -> liealg.SO2nContext:
        return liealg.SO2nContext(self.n)

    @cached_property
    def basis(self) -> racah.CommutantBasis:
        return racah.CommutantBasis(self.ctx)


def _numbered(
    relation: str, residuals: list[tuple[str, Callable[[], Operator | Polynomial]]], prefix: tuple[int, ...] = ()
) -> RelationReport:
    """One entry per (note, residual function) pair, indexed prefix + (position,).

    Each residual is built inside ``check``, so it is timed and an
    exception names the relation and the index tuple.
    """
    report = RelationReport()
    for pos, (note, residual) in enumerate(residuals, start=1):
        report.add(check(relation, (*prefix, pos), lambda _, r=residual: r(), note))
    return report


def _engine_suite() -> RelationReport:
    """Fixed self-checks of the operator engine, run before everything."""
    plain = AlgebraSignature(2)
    local = AlgebraSignature(1, localized=frozenset({1}))
    x1, d1 = Operator.x(plain, 1), Operator.d(plain, 1)
    x2, d2 = Operator.x(plain, 2), Operator.d(plain, 2)

    def round_trip() -> Operator:
        composite = (x1 * d2) * (x2 * d1) - 3 * (x2 * x2) + Operator.constant(plain, Fraction(-5, 7))
        return composite - parse_operator(str(composite), plain)

    def composition() -> Polynomial:
        # The product side against A(Bg) derived by hand, not through apply, so
        # a fault in apply cannot cancel between the two sides:
        # g = x1^2 x2^2 + x2^3/2, B g = x2^2 d1 g = 2 x1 x2^4, A(B g) = x1 d1 d2 (2 x1 x2^4) = 8 x1 x2^3.
        g = Polynomial.monomial(plain, (2, 2)) + Polynomial.monomial(plain, (0, 3), Fraction(1, 2))
        a_op, b_op = x1 * d1 * d2, x2 * x2 * d1
        return (a_op * b_op).apply(g) - Polynomial.monomial(plain, (1, 3), 8)

    checks: list[tuple[str, Callable[[], Operator | Polynomial]]] = [
        ("product reorder", lambda: d1 * x1 - (x1 * d1 + Operator.constant(plain, 1))),
        ("square bracket", lambda: commutator(d1, x1 * x1) - 2 * x1),
        ("cross product", lambda: (x1 * d2) * (x2 * d1) - (x1 * x2 * d1 * d2 + x1 * d1)),
        (
            "inverse-power reorder",
            lambda: Operator.d(local, 1) * Operator.x(local, 1, -1)
            - (Operator.x(local, 1, -1) * Operator.d(local, 1) - Operator.x(local, 1, -2)),
        ),
        (
            "associativity",
            lambda: ((x1 * d2) * (x2 * d1)) * (x1 * d1) - (x1 * d2) * ((x2 * d1) * (x1 * d1)),
        ),
        (
            "euler action",
            lambda: (x1 * d1).apply(Polynomial.monomial(plain, (3, 1))) - Polynomial.monomial(plain, (3, 1), 3),
        ),
        ("text round-trip", round_trip),
        ("composition action", composition),
    ]
    return _numbered("engine", checks)


def _o2n_suite(run: _Run, config: argparse.Namespace) -> RelationReport:
    report = liealg.check_o2n_relations(run.ctx, jobs=config.jobs)
    report.merge(liealg.check_casimir_centrality(run.ctx, jobs=config.jobs))
    return report


def _su11_suite(run: _Run, config: argparse.Namespace) -> RelationReport:
    ctx = run.ctx
    report = RelationReport()
    for mu in range(1, ctx.num_vars + 1):
        triple = liealg.make_metaplectic(ctx, mu)
        report.merge(_numbered("su11", triple.relation_checks(), (mu,)))
        residual = lambda t: liealg.casimir_of(triple) - liealg.casimir_closed_form(ctx, t)  # noqa: E731
        report.add(check("su11-casimir", (mu,), residual, "value -3/16"))
    return report


def _howe_suite(run: _Run, config: argparse.Namespace) -> RelationReport:
    ctx = run.ctx
    report = howe.check_casimir_forms(ctx, jobs=config.jobs)
    report.merge(howe.check_decompositions(ctx, jobs=config.jobs))
    report.merge(howe.verify_commutant_correspondence(ctx, jobs=config.jobs, basis=run.basis))
    report.merge(howe.check_intermediate_centrality(ctx, jobs=config.jobs))
    return report


def _racah_suite(run: _Run, config: argparse.Namespace) -> RelationReport:
    ctx, basis = run.ctx, run.basis
    report = racah.check_commutant_property(ctx, basis, config.jobs)
    report.merge(racah.sweep_relations(basis, config.jobs))
    table = howe.casimir_table(ctx, howe.all_pair_unions(ctx, 2))
    report.merge(run_checks("dependency", list(table), lambda t: racah.dependency_residual(ctx, t, basis), config.jobs))
    return report


def _reduction_suite(run: _Run, config: argparse.Namespace) -> RelationReport:
    rctx = reduction.ReducedContext(config.n)
    basis = reduction.ReducedBasis(rctx)
    report = RelationReport()
    for i in range(1, rctx.n + 1):
        report.merge(_numbered("reduced-su11", reduction.make_reduced_J(rctx, i).relation_checks(), (i,)))
        report.add(check("reduced-casimir-single", (i,), lambda t: basis.c(*t) - reduction.radial_closed_form(rctx, t)))
    for i, j in itertools.combinations(range(1, rctx.n + 1), 2):
        shift = Operator.constant(rctx.signature, rctx.param(i) + rctx.param(j) + 1)
        report.add(check("reduced-casimir-pair", (i, j), lambda t: basis.C2[t] - reduction.radial_closed_form(rctx, t)))
        report.add(check("q-affine", (i, j), lambda t: reduction.make_Q(rctx, *t) + 4 * basis.C2[t] + shift))
    report.add(check("total-casimir", (rctx.n,), lambda _: reduction.total_casimir_residual(rctx)))
    report.merge(reduction.check_q_symmetry(rctx, jobs=config.jobs))
    report.merge(racah.sweep_relations(basis, config.jobs))
    return report


class _CatalogParts(_Run):
    """What the catalog's identities share, each built once, on its first use:
    a run's context and basis, and the reduced model's context and total Casimir."""

    @cached_property
    def rctx(self) -> reduction.ReducedContext:
        return reduction.ReducedContext(self.n)

    @cached_property
    def rtotal(self) -> Operator:
        return reduction.total_casimir(self.rctx)

    @property
    def sig(self) -> AlgebraSignature:
        return self.ctx.signature

    def L(self, mu: int, nu: int) -> Operator:
        return liealg.make_L(self.ctx, mu, nu)


_PAIR12 = liealg.PairUnion((1, 2))


def _reduced_triple_bracket(c: _CatalogParts) -> tuple[Operator, Operator]:
    triple = reduction.make_reduced_J(c.rctx, 1)
    return commutator(triple.J0, triple.Jp), triple.Jp


def _q_symmetry(c: _CatalogParts) -> tuple[Operator, Operator]:
    q12 = reduction.make_Q(c.rctx, 1, 2)
    return q12 * c.rtotal, c.rtotal * q12


# (name, build): build(parts) gives the identity's (lhs, rhs) operator pair.
_IDENTITIES: list[tuple[str, Callable[[_CatalogParts], tuple[Operator, Operator]]]] = [
    ("derivative-past-position", lambda c: (
        Operator.d(c.sig, 1) * Operator.x(c.sig, 1),
        Operator.x(c.sig, 1) * Operator.d(c.sig, 1) + Operator.constant(c.sig, 1))),
    ("rotation-bracket", lambda c: (commutator(c.L(1, 2), c.L(2, 3)), c.L(1, 3))),
    ("casimir-central", lambda c: (
        commutator(liealg.casimir_sum(c.ctx, c.ctx.num_vars), c.L(1, 2)), Operator.zero(c.sig))),
    ("commutant-pair-invariant", lambda c: (
        commutator(c.basis.K[(1, 2)], c.L(*c.ctx.factor_variables(3))), Operator.zero(c.sig))),
    ("relation-a", lambda c: (commutator(c.basis.p(1, 2), c.basis.p(2, 3)), 2 * c.basis.f(1, 2, 3))),
    ("relation-b", lambda c: (
        commutator(c.basis.p(2, 3), c.basis.f(1, 2, 3)),
        c.basis.p(1, 3) * c.basis.p(2, 3) - c.basis.p(2, 3) * c.basis.p(1, 2)
        + 2 * (c.basis.p(1, 3) * c.basis.c(2)) - 2 * (c.basis.p(1, 2) * c.basis.c(3)))),
    ("coupled-casimir-closed-form", lambda c: (
        liealg.casimir_CA(c.ctx, _PAIR12), liealg.casimir_closed_form(c.ctx, _PAIR12.variables()))),
    ("correspondence-pair", lambda c: (liealg.casimir_CA(c.ctx, _PAIR12), c.basis.C2[(1, 2)])),
    ("dependency", lambda c: (
        liealg.casimir_CA(c.ctx, liealg.PairUnion((1, 2, 3))),
        liealg.decomposition_sum((1, 2, 3), lambda i, j: c.basis.C2[(i, j)], c.basis.c))),
    ("reduced-triple-bracket", _reduced_triple_bracket),
    ("reduced-pair-closed-form", lambda c: (
        liealg.casimir_CA(c.rctx, _PAIR12), reduction.radial_closed_form(c.rctx, (1, 2)))),
    ("q-symmetry", _q_symmetry),
]


def identity_catalog(n: int = 3) -> list[tuple[str, Operator, Operator]]:
    """Representative named identities from every layer, as (name, lhs, rhs)
    operator pairs; the oracle suite reports each one's residual lhs - rhs."""
    parts = _CatalogParts(n)
    return [(name, *build(parts)) for name, build in _IDENTITIES]


def _oracle_suite(run: _Run, config: argparse.Namespace) -> RelationReport:
    """The catalog's exact residuals, then the two composition residuals.

    Each identity_catalog() entry reports its residual lhs - rhs, built
    and counted like any symbolic check: the identity itself is built
    inside its check, so its kernel work shows in the entry's ms.  The
    K^{12} K^{23} composition shares the catalog's SO2nContext(3).
    Only the two compositions draw random trials, 10 * config.trials
    each, split over config.jobs workers.  Each reports
    oracle.composition_residual: zero when every trial holds, otherwise
    the exact polynomial (A * B) f - A (B f) at the earliest failing
    trial's test function f, so neither the verdict nor the term count
    depends on jobs.
    """
    trials, seed, jobs = config.trials, config.seed, config.jobs
    report = RelationReport()
    parts = _CatalogParts(3)
    for idx, (name, build) in enumerate(_IDENTITIES, start=1):
        report.add(check("oracle", (idx,), lambda _, b=build: sub(*b(parts)), name))
    r1 = reduction.make_reduced_J(reduction.ReducedContext(2), 1)
    compositions = [
        (f"{10 * trials} trials", racah.make_K(parts.ctx, 1, 2), racah.make_K(parts.ctx, 2, 3)),
        ("localized with parameters", r1.Jm, r1.Jp),
    ]
    for idx, (note, a, b) in enumerate(compositions, start=1):
        residual = lambda _: oracle.composition_residual(a, b, 10 * trials, seed + idx - 1, jobs)  # noqa: E731
        report.add(check("oracle-composition", (idx,), residual, note))
    return report


_SUITE_RUNNERS: dict[str, Callable[[_Run, argparse.Namespace], RelationReport]] = {
    "o2n": _o2n_suite,
    "su11": _su11_suite,
    "howe": _howe_suite,
    "racah": _racah_suite,
    "reduction": _reduction_suite,
    "oracle": _oracle_suite,
}
SUITE_ORDER = tuple(_SUITE_RUNNERS)


def run_suites(names: Collection[str], config: argparse.Namespace) -> Iterator[RelationReport]:
    """The engine self-checks, then each named suite once, in registry order, one report at a time.

    names are registry keys in any order, repeats allowed; config
    carries n, jobs, trials and seed.
    """
    yield _engine_suite()
    run = _Run(config.n)
    for name, runner in _SUITE_RUNNERS.items():
        if name in names:
            yield runner(run, config)
