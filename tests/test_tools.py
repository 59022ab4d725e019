"""The repository's command-line tools."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAME_REPORTS = ROOT / "tools" / "same_reports.py"
TRAFFIC = ROOT / "tools" / "traffic.py"
BENCH_TREND = ROOT / "tools" / "bench_trend.py"

LINE = '{{"relation": "a", "tuple": [1, 2, 3], "passed": true, "residual_terms": {terms}, "ms": {ms}}}\n'
SUMMARY = '{{"summary": true, "passed": 1, "failed": 0, "elapsed_s": {elapsed}}}\n'


def _same_reports(tmp_path, *texts):
    paths = []
    for index, text in enumerate(texts):
        path = tmp_path / f"report{index}.jsonl"
        path.write_text(text)
        paths.append(str(path))
    return subprocess.run([sys.executable, str(SAME_REPORTS), *paths], capture_output=True, text=True).returncode


def test_same_reports_ignores_timing_and_sees_residual_terms(tmp_path):
    first = LINE.format(terms=0, ms=1.25) + SUMMARY.format(elapsed=0.5)
    timing = LINE.format(terms=0, ms=3.5e-05) + SUMMARY.format(elapsed=12.0)
    changed = LINE.format(terms=7, ms=1.25) + SUMMARY.format(elapsed=0.5)
    assert _same_reports(tmp_path, first, timing, timing) == 0
    assert _same_reports(tmp_path, first, timing, changed) == 1
    assert _same_reports(tmp_path, first) == 2


def _body_lines(module: str, function: str) -> set[int]:
    """The first lines of every statement in the body of a module-level function, its docstring left out."""
    tree = ast.parse((ROOT / "src" / "racahverify" / module).read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return {s.lineno for top in body for s in ast.walk(top) if isinstance(s, ast.stmt)}


def _listed(stdout: str) -> dict[tuple[str, str], set[int]]:
    """The statement rows traffic printed, as {(module, function): line numbers}."""
    listed: dict[tuple[str, str], set[int]] = {}
    for line in stdout.splitlines():
        place, _, rest = line.partition(" ")
        module, _, lineno = place.partition(":")
        if lineno.isdigit():  # a statement row, not a run or module header
            listed.setdefault((module, rest.split()[0]), set()).add(int(lineno))
    return listed


def test_traffic_lists_what_the_run_never_executes():
    run = subprocess.run(
        [sys.executable, str(TRAFFIC), "--n", "3", "--suite", "o2n"], capture_output=True, text=True, check=True
    )
    listed = _listed(run.stdout)
    assert run.stdout.startswith("# racah-verify --n 3 --suite o2n: exit 0\n")
    assert listed[("reduction.py", "check_q_symmetry")] == _body_lines("reduction.py", "check_q_symmetry")
    for function in ("check_o2n_relations", "_bracket_rhs"):
        assert _body_lines("liealg.py", function) and ("liealg.py", function) not in listed


def test_traffic_sees_the_parents_fork_loop_in_a_two_job_run(monkeypatch, capsys, fork_at_once):
    # in this process, with two usable CPUs, so the runner keeps --jobs 2,
    # and with no serial head (fork_at_once), so every sweep of it forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))  # traffic puts src first
    spec = importlib.util.spec_from_file_location("traffic", TRAFFIC)
    traffic = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traffic)
    tree = ast.parse((ROOT / "src" / "racahverify" / "_parallel.py").read_text())
    (run_tasks,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run_tasks"]
    (loop,) = [n for n in ast.walk(run_tasks) if isinstance(n, ast.For) and ast.unparse(n.iter) == "range(1, workers)"]
    tries = [s for s in loop.body if isinstance(s, ast.Try)]
    fork_loop = {loop.lineno} | {s.lineno for s in loop.body} | {s.lineno for t in tries for s in t.body}

    def listed(*argv):
        assert traffic.main(list(argv)) == 0
        return _listed(capsys.readouterr().out).get(("_parallel.py", "run_tasks"), set())

    serial = ["--n", "3", "--suite", "o2n"]
    assert fork_loop <= listed(*serial)
    assert fork_loop.isdisjoint(listed(*serial, "--", *serial, "--jobs", "2"))


def _bench(parent: float, change: float, workload: str = "oracle-n3") -> str:
    """A BENCH record in the shape every BENCH_*.json shares, with keys the trend ignores."""
    metric = {"parent": {"median": parent, "q1": parent, "runs": [parent]}, "change": {"median": change}, "wins": 9}
    return json.dumps({"label": "x", "workloads": {workload: {"pairs": 10, "metrics": {"total_s": metric}}}})


def _trend(directory):
    return subprocess.run([sys.executable, str(BENCH_TREND), str(directory)], capture_output=True, text=True)


def test_bench_trend_prints_each_record_in_the_order_git_added_it(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                       check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "BENCH_z.json").write_text(_bench(0.5, 0.4))
    git("add", "BENCH_z.json")
    git("commit", "-q", "-m", "first")
    (tmp_path / "BENCH_a.json").write_text(_bench(0.4, 0.42))
    git("add", "BENCH_a.json")
    git("commit", "-q", "-m", "second")
    (tmp_path / "BENCH_m.json").write_text(_bench(2.0, 1.0, "reduced-n5"))  # never added: last
    run = _trend(tmp_path)
    assert run.returncode == 0 and run.stderr == ""
    assert [line.split() for line in run.stdout.splitlines()] == [
        ["oracle-n3", "total_s"],
        ["BENCH_z.json", "0.5000", "->", "0.4000", "-20.0%"],
        ["BENCH_a.json", "0.4000", "->", "0.4200", "+5.0%"],
        ["reduced-n5", "total_s"],
        ["BENCH_m.json", "2.0000", "->", "1.0000", "-50.0%"],
    ]
    (tmp_path / "BENCH_b.json").write_text(json.dumps({"workloads": {"oracle-n3": {"metrics": {"total_s": 0.4}}}}))
    run = _trend(tmp_path)
    assert run.returncode == 1 and "BENCH_b.json" in run.stderr


def test_bench_trend_reads_every_record_of_the_repository():
    run = _trend(ROOT)
    assert run.returncode == 0, run.stderr
    for path in ROOT.glob("BENCH_*.json"):
        assert f"  {path.name} " in run.stdout
