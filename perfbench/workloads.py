"""The benchmark's workloads, driven through racahverify's public functions.

Each workload has a set-up (contexts, memoized bases, the F warm-up over
all ordered triples, the oracle's identity catalog) and a plan: named
suites that each return a RelationReport.  The suites produce the same
entries, in the same order, as ``racah-verify --suite NAME --json`` for
o2n, su11, howe, racah, reduction and oracle (the benchmark's own test
checks this at n=3), followed by a ``negative`` suite of controls that
must fail with recorded nonzero residuals.

Only the oracle workload uses the seed: it picks the random test
functions and points.  The symbolic workloads are seed-free.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from typing import Callable

from racahverify import howe, liealg, oracle, racah, reduction, weyl
from racahverify.cli import identity_catalog
from racahverify.report import RelationReport, ReportEntry

from metrics import Workload, pool_jobs

Plan = list[tuple[str, Callable[[], RelationReport]]]


def _entry(relation: str, indices: tuple[int, ...], residual: weyl.Operator, ms: float, note: str = "") -> ReportEntry:
    return ReportEntry(relation, indices, residual.is_zero(), residual.term_count(), ms, note)


def _verdict(relation: str, indices: tuple[int, ...], ok: bool, ms: float, note: str = "") -> ReportEntry:
    return ReportEntry(relation, indices, ok, 0 if ok else -1, ms, note)


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000


def _wrong_shift_b(n: int, basis, c_wrong: Callable[[int], weyl.Operator]) -> RelationReport:
    """Relation (b) with C shifted by +1/2 on the cyclic tuples (i, i+1, i+2);
    every residual is P^{ij} - P^{ik}."""
    report = RelationReport()
    for i in range(n):
        t = tuple((i + s) % n + 1 for s in range(3))
        t0 = time.perf_counter()
        residual = racah.relation_residual("b", t, basis.p, basis.f, c_wrong)
        report.add(_entry("neg-shift-b", t, residual, _ms_since(t0)))
    return report


# -- commutant: o2n, su11, howe, racah ----------------------------------------


def commutant_plan(n: int, jobs: int, tr) -> Plan:
    ctx = liealg.SO2nContext(n)
    with tr.span("racah.basis"):
        basis = racah.CommutantBasis(ctx)
    with tr.span("racah.f_warm"):
        for t in itertools.permutations(range(1, n + 1), 3):
            basis.f(*t)

    def o2n() -> RelationReport:
        with tr.span("liealg.o2n"):
            report = liealg.check_o2n_relations(ctx, jobs=jobs)
        with tr.span("liealg.casimir_central"):
            report.merge(liealg.check_casimir_centrality(ctx, jobs=jobs))
        return report

    def su11() -> RelationReport:
        report = RelationReport()
        for mu in range(1, ctx.num_vars + 1):
            t0 = time.perf_counter()
            triple = liealg.make_metaplectic(ctx, mu)
            for ridx, (note, residual) in enumerate(triple.relation_residuals(), start=1):
                report.add(_entry("su11", (mu, ridx), residual, 0.0, note))
            cas = liealg.casimir_of(triple)
            expected = weyl.Operator.constant(ctx.signature, Fraction(-3, 16))
            report.add(_entry("su11-casimir", (mu,), cas - expected, _ms_since(t0), "value -3/16"))
        return report

    def howe_suite() -> RelationReport:
        report = RelationReport()
        for span, check in (
            ("howe.casimir_forms", howe.check_casimir_forms),
            ("howe.decompositions", howe.check_decompositions),
            ("howe.correspondence", howe.verify_commutant_correspondence),
            ("howe.intermediate_central", howe.check_intermediate_centrality),
        ):
            with tr.span(span):
                report.merge(check(ctx, jobs=jobs))
        return report

    def racah_suite() -> RelationReport:
        with tr.span("racah.commutant"):
            report = racah.check_commutant_property(ctx, jobs=jobs, basis=basis)
        report.merge(racah.verify_racah_relations(ctx, jobs=jobs, basis=basis))
        with tr.span("racah.dependency"):
            for size in range(2, n + 1):
                for subset in itertools.combinations(range(1, n + 1), size):
                    t0 = time.perf_counter()
                    ok = racah.verify_dependency(ctx, subset, basis=basis)
                    report.add(_verdict("dependency", subset, ok, _ms_since(t0)))
        return report

    def negative() -> RelationReport:
        quarter = weyl.Operator.constant(ctx.signature, Fraction(1, 4))
        c_wrong = {i: basis.G[i] * Fraction(-1, 4) + quarter for i in range(1, n + 1)}
        report = _wrong_shift_b(n, basis, c_wrong.__getitem__)
        report.merge(liealg.check_casimir_centrality(ctx, bound=n, jobs=jobs))
        return report

    return [("o2n", o2n), ("su11", su11), ("howe", howe_suite), ("racah", racah_suite), ("negative", negative)]


# -- reduced: the radial realization with parameters a1..an -------------------


def reduced_plan(n: int, jobs: int, tr) -> Plan:
    ctx = reduction.ReducedContext(n)
    sig = ctx.signature
    with tr.span("reduction.basis"):
        basis = reduction.ReducedBasis(ctx)
    with tr.span("reduction.f_warm"):
        for t in itertools.permutations(range(1, n + 1), 3):
            basis.f(*t)

    def closed_forms() -> RelationReport:
        report = RelationReport()
        for i in range(1, n + 1):
            t0 = time.perf_counter()
            triple = reduction.make_reduced_J(ctx, i)
            for ridx, (note, residual) in enumerate(triple.relation_residuals(), start=1):
                report.add(_entry("reduced-su11", (i, ridx), residual, 0.0, note))
            cas = reduction.reduced_casimir_single(ctx, i)
            expected = weyl.Operator.constant(sig, (ctx.param(i) + Fraction(3, 4)) * Fraction(-1, 4))
            report.add(_entry("reduced-casimir-single", (i,), cas - expected, _ms_since(t0)))
        for i, j in itertools.combinations(range(1, n + 1), 2):
            t0 = time.perf_counter()
            c = reduction.reduced_casimir_pair(ctx, i, j, verify=False)
            shift = weyl.Operator.constant(sig, ctx.param(i) + ctx.param(j) + 1)
            closed = (reduction.pair_invariant(ctx, i, j) + shift) * Fraction(-1, 4)
            report.add(_entry("reduced-casimir-pair", (i, j), c - closed, _ms_since(t0)))
            t0 = time.perf_counter()
            affine = reduction.make_Q(ctx, i, j) + 4 * c + shift
            report.add(_entry("q-affine", (i, j), affine, _ms_since(t0)))
        t0 = time.perf_counter()
        ok = reduction.total_casimir_identity(ctx)
        report.add(_verdict("total-casimir", (n,), ok, _ms_since(t0)))
        return report

    def reduction_suite() -> RelationReport:
        with tr.span("reduction.closed_forms"):
            report = closed_forms()
        with tr.span("reduction.q_symmetry"):
            report.merge(reduction.check_q_symmetry(ctx, jobs=jobs))
        report.merge(reduction.verify_reduced_racah(ctx, jobs=jobs, basis=basis))
        return report

    def negative() -> RelationReport:
        half = weyl.Operator.constant(sig, Fraction(1, 2))
        c_wrong = {i: basis.c(i) + half for i in range(1, n + 1)}
        return _wrong_shift_b(n, basis, c_wrong.__getitem__)

    return [("reduction", reduction_suite), ("negative", negative)]


# -- oracle: random evaluation, seeded -----------------------------------------


def oracle_plan(n: int, trials: int, seed: int, tr) -> Plan:
    with tr.span("oracle.catalog"):
        catalog = identity_catalog(n)
        ctx = liealg.SO2nContext(3)
        k12, k23 = racah.make_K(ctx, 1, 2), racah.make_K(ctx, 2, 3)
        rctx = reduction.ReducedContext(2)
        r1 = reduction.make_reduced_J(rctx, 1)
        sig = ctx.signature
        x1, d1 = weyl.Operator.x(sig, 1), weyl.Operator.d(sig, 1)
        truncated = weyl.commutator(liealg.casimir_sum(ctx, ctx.n), liealg.make_L(ctx, ctx.n, ctx.n + 1))
        controls = [
            ("x1*d1 vs d1*x1", x1 * d1, d1 * x1),
            (f"truncated casimir bracket (bound {ctx.n}) vs 0", truncated, weyl.Operator.zero(sig)),
        ]

    def oracle_suite() -> RelationReport:
        report = RelationReport()
        with tr.span("oracle.equiv"):
            for idx, (name, lhs, rhs) in enumerate(catalog, start=1):
                t0 = time.perf_counter()
                ok = oracle.oracle_equiv(lhs, rhs, trials=trials, seed=seed + idx)
                report.add(_verdict("oracle", (idx,), ok, _ms_since(t0), name))
        for span, idx, (a, b), part_seed, note in (
            ("oracle.composition", 1, (k12, k23), seed, f"{10 * trials} trials"),
            ("oracle.composition_reduced", 2, (r1.Jm, r1.Jp), seed + 1, "localized with parameters"),
        ):
            with tr.span(span):
                t0 = time.perf_counter()
                ok = oracle.oracle_apply_check(a, b, trials=10 * trials, seed=part_seed)
                report.add(_verdict("oracle-composition", (idx,), ok, _ms_since(t0), note))
        tr.count("oracle.trials", len(catalog) * trials + 20 * trials)
        return report

    def negative() -> RelationReport:
        """The oracle must reject both; residual_terms is the symbolic lhs - rhs."""
        report = RelationReport()
        for idx, (note, lhs, rhs) in enumerate(controls, start=1):
            t0 = time.perf_counter()
            ok = oracle.oracle_equiv(lhs, rhs, trials=trials, seed=seed)
            report.add(ReportEntry("neg-oracle", (idx,), ok, (lhs - rhs).term_count(), _ms_since(t0), note))
        return report

    return [("oracle", oracle_suite), ("negative", negative)]


def build_plan(w: Workload, seed: int, tr) -> Plan:
    """Run the workload's set-up and return its suites, the negative controls last."""
    if w.kind == "commutant":
        return commutant_plan(w.n, pool_jobs(w.jobs), tr)
    if w.kind == "reduced":
        return reduced_plan(w.n, pool_jobs(w.jobs), tr)
    return oracle_plan(w.n, w.trials, seed, tr)
