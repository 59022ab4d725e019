"""Command-line runner: argument handling, output formats, exit codes."""

import json
import multiprocessing
from fractions import Fraction
from pathlib import Path

import pytest

import racahverify.suites as suites
from racahverify import liealg, racah
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
        ["--n", "7"],
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


def test_large_n_gate(capsys):
    with pytest.raises(SystemExit):
        main(["--n", "6", "--suite", "su11"])
    code, lines = run_main(["--n", "6", "--suite", "su11", "--allow-large-n"], capsys)
    assert code == 0


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
    # through uneven strides at three workers; the oracle splits each
    # check's trials (3 per identity, 30 per composition check).
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
    def broken(lhs, rhs, trials, seed, jobs):
        raise ZeroDivisionError("oracle fault")

    monkeypatch.setattr(suites.oracle, "oracle_equiv", broken)
    with pytest.raises(RuntimeError, match=r"check oracle \(1,\) raised ZeroDivisionError\('oracle fault'\)"):
        main(["--suite", "oracle", "--trials", "1", "--json"])


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
