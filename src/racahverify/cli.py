"""Batch verification runner.

Selects suites, runs them in dependency order (engine self-checks
first, then o2n, su11, howe, racah, reduction, oracle), streams one
report line per checked identity instance, and finishes with a summary
line.  Exit status: 0 when every entry passed, 1 when any identity
failed, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable

from . import howe, liealg, oracle, racah, reduction
from .report import RelationReport, ReportEntry, check, run_checks
from .weyl import AlgebraSignature, Operator, Polynomial, commutator, parse_operator

SUITE_ORDER = ("o2n", "su11", "howe", "racah", "reduction", "oracle")


def _numbered(relation: str, residuals: list[tuple[str, Operator]], prefix: tuple[int, ...] = ()) -> RelationReport:
    """One entry per (note, residual) pair, indexed prefix + (position,)."""
    report = RelationReport()
    for pos, (note, residual) in enumerate(residuals, start=1):
        report.add(check(relation, (*prefix, pos), lambda _, r=residual: r, note))
    return report


def _engine_suite(config: argparse.Namespace) -> RelationReport:
    """Fixed self-checks of the operator engine, run before everything."""
    plain = AlgebraSignature(2)
    local = AlgebraSignature(1, localized=frozenset({1}))
    x1, d1 = Operator.x(plain, 1), Operator.d(plain, 1)
    x2, d2 = Operator.x(plain, 2), Operator.d(plain, 2)

    checks: list[tuple[str, Operator]] = [
        ("product reorder", d1 * x1 - (x1 * d1 + Operator.constant(plain, 1))),
        ("square bracket", commutator(d1, x1 * x1) - 2 * x1),
        ("cross product", (x1 * d2) * (x2 * d1) - (x1 * x2 * d1 * d2 + x1 * d1)),
        (
            "inverse-power reorder",
            Operator.d(local, 1) * Operator.x(local, 1, -1)
            - (Operator.x(local, 1, -1) * Operator.d(local, 1) - Operator.x(local, 1, -2)),
        ),
        (
            "associativity",
            ((x1 * d2) * (x2 * d1)) * (x1 * d1) - (x1 * d2) * ((x2 * d1) * (x1 * d1)),
        ),
    ]
    f = Polynomial.monomial(plain, (3, 1))
    euler = x1 * d1
    checks.append(("euler action", Operator.zero(plain) if euler.apply(f) == Polynomial.monomial(plain, (3, 1), 3) else Operator.constant(plain, 1)))
    composite = (x1 * d2) * (x2 * d1) - 3 * (x2 * x2) + Operator.constant(plain, Fraction(-5, 7))
    checks.append(("text round-trip", composite - parse_operator(str(composite), plain)))
    g = Polynomial.monomial(plain, (2, 2)) + Polynomial.monomial(plain, (0, 3), Fraction(1, 2))
    a_op, b_op = x1 * d1 * d2, x2 * x2 * d1
    leib = (a_op * b_op).apply(g) - a_op.apply(b_op.apply(g))
    checks.append(("composition action", Operator.zero(plain) if leib.is_zero() else Operator.constant(plain, 1)))
    return _numbered("engine", checks)


def _o2n_suite(config: argparse.Namespace) -> RelationReport:
    ctx = liealg.SO2nContext(config.n)
    report = liealg.check_o2n_relations(ctx, jobs=config.jobs)
    report.merge(liealg.check_casimir_centrality(ctx, jobs=config.jobs))
    return report


def _su11_suite(config: argparse.Namespace) -> RelationReport:
    ctx = liealg.SO2nContext(config.n)
    expected = Operator.constant(ctx.signature, Fraction(-3, 16))
    report = RelationReport()
    for mu in range(1, ctx.num_vars + 1):
        triple = liealg.make_metaplectic(ctx, mu)
        report.merge(_numbered("su11", triple.relation_residuals(), (mu,)))
        report.add(check("su11-casimir", (mu,), lambda _: liealg.casimir_of(triple) - expected, "value -3/16"))
    return report


def _howe_suite(config: argparse.Namespace) -> RelationReport:
    ctx = liealg.SO2nContext(config.n)
    report = howe.check_casimir_forms(ctx, jobs=config.jobs)
    report.merge(howe.check_decompositions(ctx, jobs=config.jobs))
    report.merge(howe.verify_commutant_correspondence(ctx, jobs=config.jobs))
    report.merge(howe.check_intermediate_centrality(ctx, jobs=config.jobs))
    return report


def _racah_suite(config: argparse.Namespace) -> RelationReport:
    ctx = liealg.SO2nContext(config.n)
    basis = racah.CommutantBasis(ctx)
    report = racah.check_commutant_property(ctx, jobs=config.jobs, basis=basis)
    report.merge(racah.verify_racah_relations(ctx, jobs=config.jobs, basis=basis))
    factors = range(1, ctx.n + 1)
    subsets = [s for size in range(2, ctx.n + 1) for s in itertools.combinations(factors, size)]
    report.merge(run_checks("dependency", subsets, lambda t: racah.dependency_residual(ctx, t, basis), config.jobs))
    return report


def _reduction_suite(config: argparse.Namespace) -> RelationReport:
    ctx = reduction.ReducedContext(config.n)
    basis = reduction.ReducedBasis(ctx)
    report = RelationReport()
    for i in range(1, ctx.n + 1):
        report.merge(_numbered("reduced-su11", reduction.make_reduced_J(ctx, i).relation_residuals(), (i,)))
        expected = Operator.constant(ctx.signature, (ctx.param(i) + Fraction(3, 4)) * Fraction(-1, 4))
        report.add(check("reduced-casimir-single", (i,), lambda t: basis.c(*t) - expected))
    for i, j in itertools.combinations(range(1, ctx.n + 1), 2):
        shift = Operator.constant(ctx.signature, ctx.param(i) + ctx.param(j) + 1)
        report.add(check("reduced-casimir-pair", (i, j), lambda t: basis.C2[t] - reduction.pair_casimir_closed_form(ctx, *t)))
        report.add(check("q-affine", (i, j), lambda t: reduction.make_Q(ctx, *t) + 4 * basis.C2[t] + shift))
    report.add(check("total-casimir", (ctx.n,), lambda _: reduction.total_casimir_residual(ctx)))
    report.merge(reduction.check_q_symmetry(ctx, jobs=config.jobs))
    report.merge(reduction.verify_reduced_racah(ctx, jobs=config.jobs, basis=basis))
    return report


def identity_catalog(n: int = 3) -> list[tuple[str, Operator, Operator]]:
    """Representative named identities from every layer, as operator pairs
    whose equality the oracle re-checks numerically."""
    ctx = liealg.SO2nContext(n)
    sig = ctx.signature
    basis = racah.CommutantBasis(ctx)
    rctx = reduction.ReducedContext(n)
    rtotal = reduction.total_casimir(rctx)

    L12 = liealg.make_L(ctx, 1, 2)
    L13 = liealg.make_L(ctx, 1, 3)
    L23 = liealg.make_L(ctx, 2, 3)
    cas = liealg.quadratic_casimir(ctx)
    union12 = howe.PairUnion((1, 2))
    rtriple = reduction.make_reduced_J(rctx, 1)
    q12 = reduction.make_Q(rctx, 1, 2)

    catalog = [
        ("derivative-past-position", Operator.d(sig, 1) * Operator.x(sig, 1),
         Operator.x(sig, 1) * Operator.d(sig, 1) + Operator.constant(sig, 1)),
        ("rotation-bracket", commutator(L12, L23), L13),
        ("casimir-central", commutator(cas, L12), Operator.zero(sig)),
        ("commutant-pair-invariant", commutator(basis.K[(1, 2)], liealg.make_L(ctx, 5, 6)),
         Operator.zero(sig)),
        ("relation-a", commutator(basis.p(1, 2), basis.p(2, 3)), 2 * basis.f(1, 2, 3)),
        ("relation-b", commutator(basis.p(2, 3), basis.f(1, 2, 3)),
         basis.p(1, 3) * basis.p(2, 3) - basis.p(2, 3) * basis.p(1, 2)
         + 2 * (basis.p(1, 3) * basis.c(2)) - 2 * (basis.p(1, 2) * basis.c(3))),
        ("coupled-casimir-closed-form", howe.casimir_CA(ctx, union12),
         howe.casimir_closed_form(ctx, union12)),
        ("correspondence-pair", howe.casimir_CA(ctx, union12),
         basis.K[(1, 2)] * Fraction(-1, 4)),
        ("dependency", racah.direct_subset_casimir(ctx, (1, 2, 3)),
         basis.C2[(1, 2)] + basis.C2[(1, 3)] + basis.C2[(2, 3)]
         - basis.C1[1] - basis.C1[2] - basis.C1[3]),
        ("reduced-triple-bracket", commutator(rtriple.J0, rtriple.Jp), rtriple.Jp),
        ("reduced-pair-closed-form", reduction.reduced_casimir_pair(rctx, 1, 2, verify=False),
         reduction.pair_casimir_closed_form(rctx, 1, 2)),
        ("q-symmetry", q12 * rtotal, rtotal * q12),
    ]
    return catalog


def _oracle_suite(config: argparse.Namespace) -> RelationReport:
    """Numeric verdicts: no symbolic residual, so a failure reports -1 terms."""
    trials, seed = config.trials, config.seed
    verdicts = [
        ("oracle", idx, name, partial(oracle.oracle_equiv, lhs, rhs, trials=trials, seed=seed + idx))
        for idx, (name, lhs, rhs) in enumerate(identity_catalog(min(config.n, 3)), start=1)
    ]
    ctx = liealg.SO2nContext(3)
    k12, k23 = racah.make_K(ctx, 1, 2), racah.make_K(ctx, 2, 3)
    r1 = reduction.make_reduced_J(reduction.ReducedContext(2), 1)
    verdicts += [
        ("oracle-composition", 1, f"{10 * trials} trials",
         partial(oracle.oracle_apply_check, k12, k23, trials=10 * trials, seed=seed)),
        ("oracle-composition", 2, "localized with parameters",
         partial(oracle.oracle_apply_check, r1.Jm, r1.Jp, trials=10 * trials, seed=seed + 1)),
    ]
    report = RelationReport()
    for relation, idx, note, verdict in verdicts:
        t0 = time.perf_counter()
        ok = verdict()
        ms = (time.perf_counter() - t0) * 1000
        report.add(ReportEntry(relation, (idx,), ok, 0 if ok else -1, ms, note))
    return report


_SUITE_RUNNERS: dict[str, Callable[[argparse.Namespace], RelationReport]] = {
    "o2n": _o2n_suite,
    "su11": _su11_suite,
    "howe": _howe_suite,
    "racah": _racah_suite,
    "reduction": _reduction_suite,
    "oracle": _oracle_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racah-verify",
        description=(
            "Exact symbolic verification of the quadratic symmetry algebra built "
            "from oscillator-realized rotation invariants, its coupled-Casimir "
            "correspondences, and the radial reduction with inverse-square terms."
        ),
    )
    parser.add_argument(
        "--suite",
        action="append",
        metavar="NAME",
        help="suite to run: one of o2n, su11, howe, racah, reduction, oracle, all; "
        "repeatable or comma-separated (default: all)",
    )
    parser.add_argument("--n", type=int, default=3, help="number of factors (default 3)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    parser.add_argument("--seed", type=int, default=0, help="oracle seed (default 0)")
    parser.add_argument(
        "--trials", type=int, default=100, help="oracle trials per identity (default 100)"
    )
    parser.add_argument("--json", action="store_true", help="emit JSON lines instead of text")
    parser.add_argument(
        "--allow-large-n",
        action="store_true",
        help="permit n above 5 (relation tuple counts grow as n^5)",
    )
    return parser


def _resolve_suites(raw: Iterable[str] | None, parser: argparse.ArgumentParser) -> list[str]:
    if not raw:
        return list(SUITE_ORDER)
    wanted: set[str] = set()
    for chunk in raw:
        for name in chunk.split(","):
            name = name.strip()
            if not name:
                continue
            if name == "all":
                wanted.update(SUITE_ORDER)
            elif name in _SUITE_RUNNERS:
                wanted.add(name)
            else:
                parser.error(f"unknown suite {name!r} (choose from {', '.join(SUITE_ORDER)}, all)")
    if not wanted:
        parser.error(f"--suite names no suite (choose from {', '.join(SUITE_ORDER)}, all)")
    return [name for name in SUITE_ORDER if name in wanted]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    config = parser.parse_args(argv)
    if config.n < 3:
        parser.error("--n must be at least 3")
    if config.n > 5 and not config.allow_large_n:
        parser.error("--n above 5 requires --allow-large-n")
    if config.jobs < 1:
        parser.error("--jobs must be at least 1")
    if config.trials < 1:
        parser.error("--trials must be at least 1")
    suites = _resolve_suites(config.suite, parser)

    out = sys.stdout
    t_start = time.perf_counter()
    total = RelationReport()

    def emit(report: RelationReport) -> None:
        total.merge(report)
        for line in (report.json_lines() if config.json else report.text_lines()):
            print(line, file=out)

    emit(_engine_suite(config))
    for name in suites:
        emit(_SUITE_RUNNERS[name](config))

    elapsed = time.perf_counter() - t_start
    counts = total.counts()
    if config.json:
        import json as _json

        print(_json.dumps({"summary": {**counts, "elapsed_s": round(elapsed, 3)}}), file=out)
    else:
        print(
            "summary: checked={checked} passed={passed} failed={failed} "
            "skipped={skipped} elapsed={elapsed:.2f}s".format(elapsed=elapsed, **counts),
            file=out,
        )
    return 0 if total.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
