"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that the workloads run the same checks as ``racah-verify``,
that wrong verdicts and broken checkouts fail the benchmark, that the
negative controls fail as recorded, and that the tracer's self times
and layer table are consistent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from job import verdicts  # noqa: E402
from metrics import END_TO_END, LAYER_METRICS, WORKLOADS, Workload  # noqa: E402
from run import in_reference_units, score, start_reference, stop_reference  # noqa: E402

from racahverify import cli, racah, reduction  # noqa: E402
from racahverify.liealg import SO2nContext  # noqa: E402
from racahverify.weyl import Operator  # noqa: E402


def _strip_ms(lines):
    rows = [json.loads(line) for line in lines]
    for row in rows:
        row.pop("ms", None)
    return rows


def _plan_lines(plan) -> list[str]:
    return [line for _, run in plan for line in run().json_lines()]


MAIN_SUITE = {"commutant": "racah", "reduced": "reduction", "oracle": "oracle"}

SMALL = {
    "commutant": (Workload("c3", "commutant", 3, 1, 0, "-"), ["--suite", "o2n,su11,howe,racah"]),
    "reduced": (Workload("r3", "reduced", 3, 1, 0, "-"), ["--suite", "reduction"]),
    "oracle": (Workload("o3", "oracle", 3, 1, 3, "-"), ["--suite", "oracle", "--trials", "3"]),
}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_workload_lines_equal_cli_json(kind, capsys):
    w, suite_args = SMALL[kind]
    seed = 11
    plan = [(suite, run) for suite, run in workloads.build_plan(w, seed, spans.NullTracer()) if suite != "negative"]
    ours = _plan_lines(plan)
    capsys.readouterr()
    assert cli.main(["--n", "3", "--seed", str(seed), "--json", *suite_args]) == 0
    theirs = [
        line for line in capsys.readouterr().out.splitlines()
        if '"summary"' not in line and '"relation": "engine"' not in line
    ]
    assert _strip_ms(ours) == _strip_ms(theirs)


def test_score_counts_mismatches_and_missing_verdicts():
    lines = [
        json.dumps({"relation": "a", "tuple": [1, 2, 3], "passed": True, "residual_terms": 0, "ms": 1.0}),
        json.dumps({"relation": "e", "tuple": [], "passed": True, "residual_terms": 0, "ms": 0.0,
                    "note": "skipped: no admissible index tuples at this rank"}),
        json.dumps({"relation": "neg-shift-b", "tuple": [1, 2, 3], "passed": False, "residual_terms": 28, "ms": 1.0}),
    ]
    expected = verdicts(lines)
    assert expected == [["a", [1, 2, 3], True, 0], ["neg-shift-b", [1, 2, 3], False, 28]]
    assert score(expected, lines) == 0
    assert score(expected, lines[:1]) == 1
    assert score([["a", [1, 2, 3], True, 0], ["neg-shift-b", [1, 2, 3], False, 27]], lines) == 1
    assert score([["a", [1, 2, 3], False, -1], ["neg-shift-b", [1, 2, 3], True, 0]], lines) == 2
    assert score(expected, ["not json"]) == 2


def test_speed_factor_uses_the_window_and_averages_the_cpus():
    cpu0 = [[1.0, 0.002], [2.0, 0.002], [5.0, 0.001]]
    cpu1 = [[1.5, 0.001], [9.0, 0.004]]
    assert speed.rate(cpu0, 0.5, 2.5) == 500
    assert speed.speed_factor([cpu0, cpu1], 0.5, 2.5) == (500 + 1000) / 2 / speed.REF_RATE
    assert speed.speed_factor([cpu0, cpu1], 4.0, 10.0) == (1000 + 250) / 2 / speed.REF_RATE
    assert speed.speed_factor([cpu0, cpu1], 6.0, 8.0) is None
    assert in_reference_units("s", 2.0, 0.5) == 1.0
    assert in_reference_units("1/s", 2.0, 0.5) == 4.0
    assert in_reference_units("count", 2.0, 0.5) == 2.0


def test_reference_loop_samples_until_stopped():
    ref = start_reference(sorted(os.sched_getaffinity(0))[0])
    time.sleep(0.2)
    samples = stop_reference(ref)
    assert ref.returncode == 0
    assert samples and all(cpu > 0 for _, cpu in samples)
    assert speed.rate(samples, samples[0][0], samples[-1][0]) > 0


def _checkout(tmp_path: Path, with_src: bool = True) -> Path:
    dest = tmp_path / "checkout"
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )


def test_forced_verdict_mismatch_fails_the_run(tmp_path):
    checkout = _checkout(tmp_path)
    path = checkout / "perfbench" / "expected" / "oracle-n3.json"
    rows = json.loads(path.read_text())
    rows[0][2] = not rows[0][2]
    path.write_text(json.dumps(rows))
    proc = _run(checkout, "--workload", "oracle-n3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] * len(rows) == result["attempted"]
    error = json.loads(lines[-2])
    assert error["error_rate"] == result["failed"] / result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _, _ in END_TO_END}


def test_run_refuses_a_directory_without_sources(tmp_path):
    checkout = _checkout(tmp_path, with_src=False)
    proc = _run(checkout, "--workload", "commutant-n4", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_recorded_negative_controls_fail_with_nonzero_residuals():
    for w in WORKLOADS.values():
        rows = json.loads((HERE / "expected" / f"{w.expect}.json").read_text())
        negatives = [r for r in rows if r[0].startswith("neg-") or (r[0] == "casimir-central" and not r[2])]
        assert negatives, w.name
        assert all(not passed and terms > 0 for _, _, passed, terms in negatives)


@pytest.mark.parametrize("kind", ["commutant", "reduced"])
def test_wrong_shift_residual_is_p_ij_minus_p_ik(kind):
    n = 3
    if kind == "commutant":
        basis = racah.CommutantBasis(SO2nContext(n))
        quarter = Operator.constant(basis.ctx.signature, Fraction(1, 4))
        wrong = {i: basis.G[i] * Fraction(-1, 4) + quarter for i in range(1, n + 1)}
    else:
        basis = reduction.ReducedBasis(reduction.ReducedContext(n))
        half = Operator.constant(basis.ctx.signature, Fraction(1, 2))
        wrong = {i: basis.c(i) + half for i in range(1, n + 1)}
    for i, j, k in [(1, 2, 3), (3, 1, 2)]:
        residual = racah.relation_residual("b", (i, j, k), basis.p, basis.f, wrong.__getitem__)
        assert (residual - (basis.p(i, j) - basis.p(i, k))).is_zero()
        assert residual.term_count() > 0


def test_oracle_controls_are_rejected():
    w, _ = SMALL["oracle"]
    plan = dict(workloads.build_plan(w, 5, spans.NullTracer()))
    entries = plan["negative"]().entries
    assert [(e.passed, e.residual_terms) for e in entries] == [(False, 1), (False, 10)]


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    now = [0.0]
    tracer.clock = lambda: now[0]

    def tick(dt):
        now[0] += dt

    inner = tracer.hot_wrapper("weyl.mul", lambda: tick(2.0))

    def body():
        tick(1.0)
        inner()
        inner()
        tick(1.0)

    outer = tracer.hot_wrapper("weyl.commutator", body)
    with tracer.span("racah.relation.a"):
        outer()
        tick(0.5)
    calls, total, covered, _, _ = tracer.hot_total("weyl.commutator")
    assert (calls, total, covered) == (1, 6.0, 4.0)
    assert tracer.hot_total("weyl.mul")[:3] == [2, 4.0, 0.0]
    assert tracer.hot_total("weyl.mul", phase="racah.relation.a")[0] == 2
    assert tracer.span_durations() == {"racah.relation.a": [6.5]}
    assert tracer.stack == [[6.5, 0]]


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_run_keeps_verdicts_and_fills_the_layer_table(kind, tmp_path):
    w, _ = SMALL[kind]
    plain = verdicts(_plan_lines(workloads.build_plan(w, 2, spans.NullTracer())))
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        plan = workloads.build_plan(w, 2, tracer)
        lines = []
        for suite, run in plan:
            with tracer.span(f"cli.suite.{suite}", suite=suite):
                lines.extend(run().json_lines())
    finally:
        uninstall()
    assert verdicts(lines) == plain
    layers = tracer.layer_metrics()
    assert list(layers) == [name for name, _, _ in LAYER_METRICS if not name.startswith("trace.")]
    assert layers["weyl.mul.calls"] > 0 and layers["coeff.calls"] > 0
    assert layers[f"cli.suite.{MAIN_SUITE[kind]}.s"] > 0
    if kind == "oracle":
        assert layers["oracle.composition.apply_s"] > 0 and layers["oracle.composition.evaluate_s"] > 0
        assert layers["oracle.trials"] == 32 * w.trials
    else:
        assert layers[f"{MAIN_SUITE[kind]}.relation.b.p50_ms"] > 0
        assert 0 < layers["weyl.commutator.kept_ratio"] < 1
    tracer.dump(tmp_path / "trace.json")
    assert json.loads((tmp_path / "trace.json").read_text())["spans"]


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
