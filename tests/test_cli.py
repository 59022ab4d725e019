"""Command-line runner: argument handling, output formats, exit codes."""

import importlib
import itertools
import json
import multiprocessing
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import racahverify
import racahverify.suites as suites
from racahverify import liealg, oracle, racah
from racahverify.cli import build_parser, main
from racahverify.suites import SUITE_ORDER, identity_catalog
from racahverify.report import RelationReport, ReportEntry
from racahverify.weyl import Operator, Polynomial

GOLDEN_N3 = Path(__file__).parent / "data" / "cli_n3.jsonl"
GOLDEN_N4_SYMBOLIC = Path(__file__).parent / "data" / "cli_n4_symbolic.jsonl"
GOLDEN_N5_RELATIONS = Path(__file__).parent / "data" / "cli_n5_relations.jsonl"


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out.splitlines()


def _strip_times(rows):
    out = []
    for row in rows:
        if "summary" in row:
            s = dict(row["summary"])
            s.pop("elapsed_s", None)
            out.append({"summary": s})
        else:
            r = dict(row)
            r.pop("ms", None)
            out.append(r)
    return out


def test_usage_errors_exit_two():
    bad = (
        ["--n", "2"],
        ["--suite", "bogus"],
        ["--suite", ","],
        ["--suite", ""],
        ["--jobs", "0"],
        ["--trials", "0"],
    )
    for args in bad:
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2


def test_large_n_runs_without_a_flag(capsys):
    code, _ = run_main(["--n", "6", "--suite", "su11"], capsys)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["--n", "6", "--suite", "su11", "--allow-large-n"])
    assert exc.value.code == 2


def test_suite_resolution(monkeypatch, capsys):
    parser = build_parser()
    assert parser.parse_args([]).suite is None
    assert parser.parse_args(["--suite", "racah,su11"]).suite == ["racah", "su11"]
    assert parser.parse_args(["--suite", " o2n , reduction "]).suite == ["o2n", "reduction"]
    assert parser.parse_args(["--suite", "all", "--suite", "racah"]).suite == [*SUITE_ORDER, "racah"]
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--suite", "racah,bogus"])
    assert exc.value.code == 2
    assert f"unknown suite 'bogus' (choose from {', '.join(SUITE_ORDER)}, all)" in capsys.readouterr().err

    # main runs each chosen suite once, in registry order
    ran = []
    for name in SUITE_ORDER:
        fake = lambda run, config, name=name: ran.append(name) or RelationReport()  # noqa: E731
        monkeypatch.setitem(suites._SUITE_RUNNERS, name, fake)
    for args, expected in (
        ([], SUITE_ORDER),
        (["--suite", "racah,su11"], ("su11", "racah")),
        (["--suite", "all", "--suite", "racah"], SUITE_ORDER),
        (["--suite", "racah", "--suite", "racah"], ("racah",)),
        (["--suite", " o2n , reduction "], ("o2n", "reduction")),
    ):
        ran.clear()
        assert main(args) == 0
        assert tuple(ran) == expected, args


def test_help_names_every_suite():
    text = " ".join(build_parser().format_help().split())
    assert f"(choose from {', '.join(SUITE_ORDER)}, all)" in text
    assert SUITE_ORDER == tuple(suites._SUITE_RUNNERS)


def test_text_output_shape(capsys):
    code, lines = run_main(["--suite", "su11"], capsys)
    assert code == 0
    assert lines[-1].startswith("summary: checked=")
    assert any(" engine " in ln for ln in lines)
    for ln in lines[:-1]:
        assert ln.startswith("[  ok  ]") or ln.startswith("[ FAIL ]")


def test_json_output_parses(capsys):
    code, lines = run_main(["--suite", "su11", "--json"], capsys)
    assert code == 0
    rows = [json.loads(ln) for ln in lines]
    body, summary = rows[:-1], rows[-1]["summary"]
    # 8 engine self-checks plus 4 entries per oscillator variable
    assert summary["checked"] == len(body) == 8 + 4 * 6
    assert summary["failed"] == 0
    for row in body:
        assert set(row) >= {"relation", "tuple", "passed", "residual_terms", "ms"}
        assert row["passed"] is True
        assert row["residual_terms"] == 0


def test_parallel_runs_match_serial(capsys):
    # Rank four sends the single relation dispatch and the reduced sweep
    # through uneven strides at three workers; the oracle splits the 30
    # trials of each composition check (its catalog entries draw none).
    for args, worker_counts in (
        (["--suite", "racah"], ["2"]),
        (["--suite", "howe,racah"], ["2"]),
        (["--n", "4", "--suite", "racah,reduction"], ["2", "3"]),
        (["--suite", "oracle", "--trials", "3"], ["2", "3"]),
    ):
        code1, lines1 = run_main([*args, "--json"], capsys)
        serial = _strip_times(json.loads(ln) for ln in lines1)
        for jobs in worker_counts:
            code2, lines2 = run_main([*args, "--json", "--jobs", jobs], capsys)
            assert code1 == code2 == 0
            assert _strip_times(json.loads(ln) for ln in lines2) == serial


def test_rank_four_covers_quartic_relations(capsys):
    code, lines = run_main(["--suite", "racah", "--n", "4", "--json"], capsys)
    assert code == 0
    rows = [json.loads(ln) for ln in lines]
    counts = {}
    for row in rows[:-1]:
        counts[row["relation"]] = counts.get(row["relation"], 0) + 1
    assert counts["c"] == 24
    assert counts["d"] == 24
    skipped = [row for row in rows[:-1] if str(row.get("note", "")).startswith("skipped")]
    assert [row["relation"] for row in skipped] == ["e"]


def test_identity_catalog_entries_are_true_identities():
    catalog = identity_catalog()
    assert len(catalog) == 12
    names = [name for name, _, _ in catalog]
    assert len(set(names)) == len(names)
    for name, lhs, rhs in catalog:
        assert (lhs - rhs).is_zero(), name


def test_all_suites_match_golden_lines(capsys):
    code, lines = run_main(["--n", "3", "--json", "--trials", "3"], capsys)
    assert code == 0
    golden = [json.loads(ln) for ln in GOLDEN_N3.read_text().splitlines()]
    assert _strip_times(json.loads(ln) for ln in lines) == golden


def test_symbolic_suites_match_golden_lines_at_rank_four(capsys):
    code, lines = run_main(["--n", "4", "--suite", "o2n,su11,howe,racah,reduction", "--json"], capsys)
    assert code == 0
    golden = [json.loads(ln) for ln in GOLDEN_N4_SYMBOLIC.read_text().splitlines()]
    assert _strip_times(json.loads(ln) for ln in lines) == golden


def test_relation_suites_match_golden_lines_at_rank_five(capsys):
    # the one golden with relation (e), whose arity is 5
    code, lines = run_main(["--n", "5", "--suite", "racah,reduction", "--json"], capsys)
    assert code == 0
    golden = [json.loads(ln) for ln in GOLDEN_N5_RELATIONS.read_text().splitlines()]
    assert _strip_times(json.loads(ln) for ln in lines) == golden


def test_engine_action_failure_reports_residual_terms(monkeypatch, capsys):
    original = suites.Operator.apply

    def off_by_two_terms(self, f):
        return original(self, f) + Polynomial.monomial(f.sig, (1, 0)) + Polynomial.monomial(f.sig, (0, 1))

    monkeypatch.setattr(suites.Operator, "apply", off_by_two_terms)
    code, lines = run_main(["--suite", "su11", "--json"], capsys)
    assert code == 1
    rows = {row.get("note"): row for row in map(json.loads, lines[:-1]) if row["relation"] == "engine"}
    assert not rows["euler action"]["passed"]
    assert rows["euler action"]["residual_terms"] == 2
    assert not rows["composition action"]["passed"]
    assert rows["composition action"]["residual_terms"] == 2


def test_engine_check_that_raises_names_relation_and_tuple(monkeypatch):
    def broken(text, sig):
        raise ZeroDivisionError("parser fault")

    monkeypatch.setattr(suites, "parse_operator", broken)
    with pytest.raises(RuntimeError, match=r"check engine \(7,\) raised ZeroDivisionError\('parser fault'\)"):
        main(["--suite", "o2n", "--json"])


def test_dependency_failure_reports_residual_terms(monkeypatch, capsys):
    def two_terms(ctx, subset, basis):
        return Operator.x(ctx.signature, 1) + Operator.constant(ctx.signature, 1)

    monkeypatch.setattr(suites.racah, "dependency_residual", two_terms)
    code, lines = run_main(["--suite", "racah", "--json"], capsys)
    assert code == 1
    rows = [json.loads(ln) for ln in lines[:-1]]
    dependency = [row for row in rows if row["relation"] == "dependency"]
    assert len(dependency) == 4
    assert all(not row["passed"] and row["residual_terms"] == 2 for row in dependency)


def test_failures_set_exit_code(monkeypatch, capsys):
    def fake(run, config):
        rep = RelationReport()
        rep.add(ReportEntry("su11", (1,), False, 3, 0.0))
        return rep

    monkeypatch.setitem(suites._SUITE_RUNNERS, "su11", fake)
    code, lines = run_main(["--suite", "su11"], capsys)
    assert code == 1
    assert any(ln.startswith("[ FAIL ]") for ln in lines)
    assert "failed=1" in lines[-1]


def test_q_affine_failure_reports_residual_terms(monkeypatch, capsys):
    original = suites.reduction.make_Q

    def off_by_x1(ctx, i, j):
        return original(ctx, i, j) + Operator.x(ctx.signature, 1)

    monkeypatch.setattr(suites.reduction, "make_Q", off_by_x1)
    code, lines = run_main(["--suite", "reduction", "--json"], capsys)
    assert code == 1
    rows = [json.loads(ln) for ln in lines[:-1]]
    q_affine = [row for row in rows if row["relation"] == "q-affine"]
    assert [row["tuple"] for row in q_affine] == [[1, 2], [1, 3], [2, 3]]
    assert all(not row["passed"] and row["residual_terms"] == 1 for row in q_affine)


def test_single_casimir_failure_reports_residual_terms(monkeypatch, capsys):
    original = liealg.casimir_of

    def off_by_x1(triple):
        return original(triple) + Operator.x(triple.Jp.sig, 1)

    monkeypatch.setattr(liealg, "casimir_of", off_by_x1)
    code, lines = run_main(["--suite", "reduction", "--json"], capsys)
    assert code == 1
    rows = [json.loads(ln) for ln in lines[:-1]]
    single = [row for row in rows if row["relation"] == "reduced-casimir-single"]
    assert [row["tuple"] for row in single] == [[1], [2], [3]]
    assert all(not row["passed"] and row["residual_terms"] == 1 for row in single)


def test_bad_metaplectic_triple_reports_residual_terms(monkeypatch, capsys):
    original = suites.liealg.make_metaplectic

    def no_quarter(ctx, mu):
        t = original(ctx, mu)
        sig = ctx.signature
        return suites.liealg.SU11Triple(t.Jp, t.Jm, Operator.x(sig, mu) * Operator.d(sig, mu) * Fraction(1, 2))

    monkeypatch.setattr(suites.liealg, "make_metaplectic", no_quarter)
    code, lines = run_main(["--suite", "su11", "--json"], capsys)
    assert code == 1
    rows = {(row["relation"], tuple(row["tuple"])): row for row in map(json.loads, lines[:-1])}
    for mu in range(1, 7):
        assert rows[("su11", (mu, 1))]["passed"] and rows[("su11", (mu, 2))]["passed"]
        assert not rows[("su11", (mu, 3))]["passed"]
        assert rows[("su11", (mu, 3))]["residual_terms"] == 1


def test_reduction_suite_builds_each_casimir_once(monkeypatch, capsys):
    original = liealg.casimir_of
    calls = []

    def counted(triple):
        calls.append(triple)
        return original(triple)

    monkeypatch.setattr(liealg, "casimir_of", counted)
    code, _ = run_main(["--n", "4", "--suite", "reduction", "--json"], capsys)
    assert code == 0
    # 4 single and 6 pair Casimirs from one ReducedBasis, plus the total
    # Casimir, built once by total_casimir_residual and read from the
    # context's memo by check_q_symmetry.
    assert len(calls) == 11


def test_su11_check_that_raises_names_relation_and_tuple(monkeypatch):
    def broken(a, b):
        raise ZeroDivisionError("bracket fault")

    monkeypatch.setattr(liealg, "commutator", broken)
    with pytest.raises(RuntimeError, match=r"check su11 \(1, 1\) raised ZeroDivisionError\('bracket fault'\)"):
        main(["--suite", "su11", "--json"])


def test_oracle_check_that_raises_names_relation_and_tuple(monkeypatch):
    def broken(a, b, trials, seed, jobs):
        raise ZeroDivisionError("oracle fault")

    monkeypatch.setattr(suites.oracle, "composition_residual", broken)
    match = r"check oracle-composition \(1,\) raised ZeroDivisionError\('oracle fault'\)"
    with pytest.raises(RuntimeError, match=match):
        main(["--suite", "oracle", "--trials", "1", "--json"])


def test_false_catalog_entry_reports_its_residual_terms(monkeypatch, capsys):
    # The suite builds each identity inside its own check, from its (name, build) row.
    identities = list(suites._IDENTITIES)
    name, build = identities[1]
    lhs, rhs = build(suites._CatalogParts(3))
    identities[1] = (name, lambda parts: (lhs, rhs + rhs))
    monkeypatch.setattr(suites, "_IDENTITIES", identities)
    code, lines = run_main(["--suite", "oracle", "--trials", "1", "--json"], capsys)
    assert code == 1
    rows = [row for row in map(json.loads, lines[:-1]) if row["relation"] == "oracle"]
    assert [row["passed"] for row in rows] == [idx != 2 for idx in range(1, 13)]
    assert rows[1]["residual_terms"] == (lhs - rhs - rhs).term_count() > 0


def test_each_catalog_identity_is_built_inside_its_check(monkeypatch, capsys):
    """The catalog's kernel work shows in its entries' ms: each identity,
    and the contexts and basis they share, is built while its check runs."""
    running = []
    original_check = suites.check

    def traced_check(relation, indices, residual_fn, note=""):
        running.append((relation, indices))
        try:
            return original_check(relation, indices, residual_fn, note)
        finally:
            running.pop()

    built = []

    def traced(name, build):
        return name, lambda parts: built.append((name, list(running))) or build(parts)

    def refuse(*args):
        raise AssertionError("the oracle suite built the whole catalog at once")

    monkeypatch.setattr(suites, "check", traced_check)
    monkeypatch.setattr(suites, "_IDENTITIES", [traced(*row) for row in suites._IDENTITIES])
    monkeypatch.setattr(suites, "identity_catalog", refuse)
    contexts = []

    class TracedContext(suites.liealg.SO2nContext):
        def __init__(self, n):
            contexts.append(list(running))
            super().__init__(n)

    monkeypatch.setattr(suites.liealg, "SO2nContext", TracedContext)
    code, _ = run_main(["--suite", "oracle", "--trials", "1", "--json"], capsys)
    assert code == 0
    names = [name for name, _ in suites._IDENTITIES]
    assert built == [(name, [("oracle", (idx,))]) for idx, name in enumerate(names, start=1)]
    # one SO2nContext(3) for the catalog and the compositions, made in the
    # first entry's check; the run's own context is never read
    assert contexts == [[("oracle", (1,))]]


def test_failing_composition_reports_its_exact_residual_at_every_job_count(monkeypatch, capsys):
    """A product that loses one term fails both compositions, and each
    reports the term count of (A * B) f - A (B f) at the first trial
    whose value is nonzero, not a stand-in for a missing residual."""
    product = suites.Operator.__mul__

    def one_term_dropped(a, b):
        c = product(a, b)
        if not isinstance(c, suites.Operator) or c.term_count() < 2:
            return c
        kept = dict(c.terms)
        del kept[next(iter(kept))]
        return suites.Operator._make(c.sig, kept, c.den)

    monkeypatch.setattr(suites.Operator, "__mul__", one_term_dropped)
    ctx3 = liealg.SO2nContext(3)
    r1 = suites.reduction.make_reduced_J(suites.reduction.ReducedContext(2), 1)
    expected = []
    for seed, (a, b) in enumerate([(racah.make_K(ctx3, 1, 2), racah.make_K(ctx3, 2, 3)), (r1.Jm, r1.Jp)]):
        bound = max(4, a.derivative_degree() + 1, b.derivative_degree() + 1, (a * b).derivative_degree() + 1)
        for t in range(10):
            rng = oracle._trial_rng(seed, t)
            f, point = oracle.random_polynomial(a.sig, rng, max_exp=bound), oracle.random_point(a.sig, rng)
            residual = (a * b).apply(f) - a.apply(b.apply(f))
            if residual.evaluate(*point) != 0:
                expected.append(residual.term_count())
                break
    assert len(expected) == 2 and min(expected) > 0
    for jobs in ("1", "2", "3"):
        code, lines = run_main(["--suite", "oracle", "--trials", "1", "--json", "--jobs", jobs], capsys)
        assert code == 1
        rows = [row for row in map(json.loads, lines[:-1]) if row["relation"] == "oracle-composition"]
        assert [(row["passed"], row["residual_terms"]) for row in rows] == [(False, n) for n in expected], jobs


# perfbench/workloads.py calls these; racah-verify calls the core they wrap.
_BENCHMARK_ONLY = (
    "oracle_equiv",
    "oracle_apply_check",
    "verify_racah_relations",
    "verify_reduced_racah",
    "reduced_casimir_single",
    "reduced_casimir_pair",
    "verify_dependency",
    "total_casimir_identity",
)


def test_runs_call_no_benchmark_only_wrapper(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("racah-verify called a wrapper it does not need")

    bound = set()
    for info in pkgutil.iter_modules(racahverify.__path__):
        module = importlib.import_module(f"racahverify.{info.name}")
        for name in _BENCHMARK_ONLY:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
                bound.add(name)
    assert bound == set(_BENCHMARK_ONLY)
    monkeypatch.setattr(liealg.SU11Triple, "relation_residuals", refuse)
    code, _ = run_main(["--n", "4", "--trials", "2", "--json"], capsys)
    assert code == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_howe_and_racah_build_each_coupled_casimir_once(jobs, monkeypatch, capsys):
    original = liealg.casimir_of
    # Shared memory, so calls made in forked workers are counted too.
    calls = multiprocessing.Value("i", 0)

    def counted(triple):
        with calls.get_lock():
            calls.value += 1
        return original(triple)

    monkeypatch.setattr(liealg, "casimir_of", counted)
    code, _ = run_main(["--n", "4", "--suite", "howe,racah", "--json", "--jobs", jobs], capsys)
    assert code == 0
    # 4 single, 6 pair, 4 triple and 1 quadruple union, each built once in
    # the parent process and reused by every howe check and the dependency
    # entries.  Earlier runs in this process must not have left them
    # cached: each run builds its own context.
    assert calls.value == 15


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_each_rotation_square_is_built_once_per_run(jobs, monkeypatch, capsys):
    original = liealg.rotation_square
    # Shared memory, so squares built in forked workers are counted too.
    calls = multiprocessing.Value("i", 0)
    built = []

    def counted(sig, mu, nu):
        with calls.get_lock():
            calls.value += 1
        built.append((mu, nu))
        return original(sig, mu, nu)

    monkeypatch.setattr(liealg, "rotation_square", counted)
    assert liealg.SO2nContext(4).square_memo == {}
    code, _ = run_main(["--n", "4", "--suite", "o2n,howe,racah", "--json", "--jobs", jobs], capsys)
    assert code == 0
    # The invariant of casimir-central builds all C(8, 2) squares in this
    # process first; G, K and every closed form only add stored ones.
    assert built == list(itertools.combinations(range(1, 9), 2))
    assert calls.value == 28
    # Without o2n, check_casimir_forms stores them all before it forks, so
    # no worker builds a square its closed forms need again.
    built.clear()
    calls.value = 0
    code, _ = run_main(["--n", "4", "--suite", "howe", "--json", "--jobs", jobs], capsys)
    assert code == 0
    assert built == list(itertools.combinations(range(1, 9), 2))
    assert calls.value == 28


def test_howe_and_racah_share_one_commutant_basis(monkeypatch, capsys):
    original = racah.rotation_squares
    calls = []

    def counted(ctx, variables):
        calls.append(variables)
        return original(ctx, variables)

    monkeypatch.setattr(racah, "rotation_squares", counted)
    code, _ = run_main(["--n", "4", "--suite", "howe,racah", "--json"], capsys)
    assert code == 0
    # 4 G^i and 6 K^{ij}, built once for the correspondence checks and
    # reused by the racah suite.
    assert len(calls) == 10
