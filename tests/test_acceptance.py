"""Acceptance gate: one test per required verification, exact arithmetic only.

Every check here is an operator identity over the rationals; tolerance
is zero by construction, so each criterion asserts emptiness of a
residual (or a recorded verdict) and nothing else.  Timings are
collected and shown in the terminal summary for the heavyweight sweeps.
"""

import random
import time
from fractions import Fraction

from racahverify.suites import identity_catalog
from racahverify.coeff import ParamPoly
from racahverify.howe import (
    check_casimir_forms,
    check_decompositions,
    check_intermediate_centrality,
    verify_commutant_correspondence,
)
from racahverify.liealg import (
    SO2nContext,
    casimir_sum,
    check_casimir_centrality,
    check_o2n_relations,
    make_L,
)
from racahverify.oracle import oracle_apply_check, oracle_equiv
from racahverify.racah import (
    CommutantBasis,
    check_commutant_property,
    make_K,
    verify_racah_relations,
)
from racahverify.reduction import (
    ReducedContext,
    check_q_symmetry,
    radial_closed_form,
    reduced_casimir_pair,
    reduced_casimir_single,
    total_casimir_identity,
    verify_reduced_racah,
)
from racahverify.weyl import AlgebraSignature, Operator, commutator, parse_operator


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def test_o2n_structure_relations(acceptance_record):
    details = []
    ok = True
    for n, expected_pairs in ((3, 105), (4, 378), (5, 990)):
        ctx = SO2nContext(n)
        report, dt = _timed(check_o2n_relations, ctx)
        ok = ok and report.all_passed() and len(report.entries) == expected_pairs
        details.append(f"n={n}: {len(report.entries)} pairs in {dt:.1f}s")
    acceptance_record("o(2n) structure relations (n=3,4,5)", ok, "; ".join(details))
    assert ok


def test_casimir_centrality(acceptance_record):
    details = []
    ok = True
    for n in (3, 4):
        ctx = SO2nContext(n)
        report, dt = _timed(check_casimir_centrality, ctx)
        ok = ok and report.all_passed() and len(report.entries) == n * (2 * n - 1)
        details.append(f"n={n}: {len(report.entries)} brackets in {dt:.1f}s")
    # the sum truncated at n instead of 2n is not central: it commutes
    # with rotations inside the first n variables but not across them
    ctx = SO2nContext(3)
    truncated = check_casimir_centrality(ctx, bound=ctx.n)
    ok = ok and not truncated.all_passed()
    witness = commutator(casimir_sum(ctx, ctx.n), make_L(ctx, 1, 4))
    ok = ok and not witness.is_zero()
    details.append("bound n fails as required")
    acceptance_record("quadratic Casimir centrality (n=3,4; bound 2n)", ok, "; ".join(details))
    assert ok


def test_quadratic_relations(acceptance_record):
    details = []
    ok = True
    expected = {
        3: {"a": 6, "b": 6},
        4: {"a": 24, "b": 24, "c": 24, "d": 24},
        5: {"a": 60, "b": 60, "c": 120, "d": 120, "e": 120},
    }
    for n in (3, 4, 5):
        ctx = SO2nContext(n)
        report, dt = _timed(verify_racah_relations, ctx)
        ok = ok and report.all_passed()
        counts: dict[str, int] = {}
        for e in report.entries:
            if not e.note.startswith("skipped"):
                counts[e.relation] = counts.get(e.relation, 0) + 1
        ok = ok and counts == expected[n]
        checked = sum(counts.values())
        details.append(f"n={n}: {checked} instances in {dt:.1f}s")
        if n == 5:
            ok = ok and dt < 600
    acceptance_record("five quadratic relations (a,b at n>=3; c,d at n>=4; e at n=5)", ok, "; ".join(details))
    assert ok


def test_commutant_property(acceptance_record):
    details = []
    ok = True
    for n in (3, 4, 5):
        ctx = SO2nContext(n)
        report, dt = _timed(check_commutant_property, ctx)
        expected = n * n + (n * (n - 1) // 2) * n
        ok = ok and report.all_passed() and len(report.entries) == expected
        details.append(f"n={n}: {len(report.entries)} brackets in {dt:.1f}s")
    acceptance_record("invariants commute with every o(2) rotation (n=3,4,5)", ok, "; ".join(details))
    assert ok


def test_coupled_casimir_layer(acceptance_record):
    details = []
    ok = True
    for n in (3, 4):
        ctx = SO2nContext(n)
        t0 = time.perf_counter()
        forms = check_casimir_forms(ctx)
        decomp = check_decompositions(ctx)
        corr = verify_commutant_correspondence(ctx)
        central = check_intermediate_centrality(ctx)
        dt = time.perf_counter() - t0
        parts = (forms, decomp, corr, central)
        ok = ok and all(r.all_passed() for r in parts)
        count = sum(len(r.entries) for r in parts)
        details.append(f"n={n}: {count} checks in {dt:.1f}s")
    acceptance_record(
        "coupled Casimirs: closed form, decomposition, correspondence, centrality (n=3,4)",
        ok,
        "; ".join(details),
    )
    assert ok


def test_reduction_closed_forms(acceptance_record):
    details = []
    ok = True
    for n in (2, 3, 4):
        ctx = ReducedContext(n)
        t0 = time.perf_counter()
        count = 0
        for i in range(1, n + 1):
            expected = Operator.constant(ctx.signature, (ctx.param(i) + Fraction(3, 4)) * Fraction(-1, 4))
            ok = (reduced_casimir_single(ctx, i) - expected).is_zero() and ok
            count += 1
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                c = reduced_casimir_pair(ctx, i, j, verify=False)
                ok = (c - radial_closed_form(ctx, (i, j))).is_zero() and ok
                count += 1
        total_ok = total_casimir_identity(ctx)
        ok = ok and total_ok
        count += 1
        dt = time.perf_counter() - t0
        details.append(f"n={n}: {count} closed forms in {dt:.1f}s")
    acceptance_record("radial closed forms with generic parameters (n=2,3,4)", ok, "; ".join(details))
    assert ok


def test_superintegrability(acceptance_record):
    details = []
    ok = True
    for n in (3, 4):
        ctx = ReducedContext(n)
        qrep, dt_q = _timed(check_q_symmetry, ctx)
        rrep, dt_r = _timed(verify_reduced_racah, ctx)
        ok = ok and qrep.all_passed() and rrep.all_passed()
        ok = ok and len(qrep.entries) == n * (n - 1) // 2
        details.append(f"n={n}: Q-symmetry {dt_q:.1f}s, relations {dt_r:.1f}s")
    acceptance_record(
        "conserved quantities commute with the total Casimir; reduced relations hold (n=3,4)",
        ok,
        "; ".join(details),
    )
    assert ok


def test_oracle_concordance(acceptance_record):
    t0 = time.perf_counter()
    catalog = identity_catalog()
    ok = True
    for idx, (name, lhs, rhs) in enumerate(catalog, start=1):
        if not oracle_equiv(lhs, rhs, trials=100, seed=idx):
            ok = False
    # negative controls: the oracle must reject known non-identities
    sig = AlgebraSignature(1)
    x1, d1 = Operator.x(sig, 1), Operator.d(sig, 1)
    ok = ok and not oracle_equiv(x1 * d1, d1 * x1)
    ctx = SO2nContext(3)
    bad = commutator(casimir_sum(ctx, ctx.n), make_L(ctx, 1, 4))
    ok = ok and not oracle_equiv(bad, Operator.zero(ctx.signature), trials=20)
    # composition check on the product kernel at volume
    ok = ok and oracle_apply_check(make_K(ctx, 1, 2), make_K(ctx, 2, 3), trials=1000)
    dt = time.perf_counter() - t0
    acceptance_record(
        "numeric oracle concordance (12 identities x 100 trials; 1000-trial composition)",
        ok,
        f"{dt:.1f}s incl. negative controls",
    )
    assert ok


def _random_param_poly(rng: random.Random, nparams: int) -> ParamPoly:
    terms: dict[tuple, Fraction] = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 3) for _ in range(nparams))
        terms[exps] = terms.get(exps, 0) + Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return ParamPoly(nparams, terms)


def _random_operator(rng: random.Random, sig: AlgebraSignature) -> Operator:
    op = Operator.zero(sig)
    for _ in range(rng.randint(1, 2)):
        xe = [
            rng.randint(-1 if (i + 1) in sig.localized else 0, 2)
            for i in range(sig.num_vars)
        ]
        de = [rng.randint(0, 2) for _ in range(sig.num_vars)]
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        op = op + Operator.monomial(sig, xe, de, coeff)
    return op


def test_property_suite_coefficient_ring(acceptance_record):
    rng = random.Random(20260816)
    cases = 500
    ok = True
    for _ in range(cases):
        p = _random_param_poly(rng, 2)
        q = _random_param_poly(rng, 2)
        r = _random_param_poly(rng, 2)
        ok = ok and (p + q) + r == p + (q + r)
        ok = ok and p * q == q * p
        ok = ok and (p * q) * r == p * (q * r)
        ok = ok and p * (q + r) == p * q + p * r
        ok = ok and not (p - p)
        vals = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2))
        ok = ok and (p * q + r).evaluate(vals) == p.evaluate(vals) * q.evaluate(vals) + r.evaluate(vals)
        if not ok:
            break
    acceptance_record("coefficient ring axioms (500 random cases)", ok, f"cases={cases}")
    assert ok


def test_property_suite_operator_algebra(acceptance_record):
    sig = AlgebraSignature(2, localized=frozenset({2}))
    rng = random.Random(987654321)
    cases = 500
    ok = True
    for _ in range(cases):
        a = _random_operator(rng, sig)
        b = _random_operator(rng, sig)
        c = _random_operator(rng, sig)
        ok = ok and (a * b) * c == a * (b * c)
        jac = (
            commutator(commutator(a, b), c)
            + commutator(commutator(b, c), a)
            + commutator(commutator(c, a), b)
        )
        ok = ok and jac.is_zero()
        if not ok:
            break
    acceptance_record("operator associativity and Jacobi identity (500 random cases)", ok, f"cases={cases}")
    assert ok


def test_property_suite_text_round_trip(acceptance_record):
    plain = AlgebraSignature(2)
    fancy = AlgebraSignature(2, localized=frozenset({1}), nparams=2)
    rng = random.Random(31337)
    cases = 500
    ok = True
    for i in range(cases):
        if i % 2 == 0:
            op = _random_operator(rng, plain)
        else:
            op = _random_operator(rng, fancy)
            coeff = _random_param_poly(rng, 2)
            op = op + Operator.monomial(fancy, (0, 1), (1, 0), coeff)
        ok = ok and parse_operator(str(op), op.sig) == op
        if not ok:
            break
    acceptance_record("operator text round-trip (500 random cases)", ok, f"cases={cases}")
    assert ok
