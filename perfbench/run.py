"""Benchmark entry point: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every job is a fresh process
(perfbench/job.py) that imports racahverify from src/, sets up, checks
every identity of the workload, and streams its verdicts back.  Jobs
run one after another (a closed loop with one client): at least two,
then more while the next one would still end within S seconds.  Each verdict
is compared with the sequence recorded in perfbench/expected/, and any
mismatch, missing verdict or crashed job counts as a failed check.

A reference loop (perfbench/speed.py) runs at the lowest priority on
each CPU the job uses and samples how fast the CPU runs meanwhile;
every time a job reports is scaled by that speed into reference
seconds, so that a busy neighbour on a shared core does not show as a
regression (perfbench/README.md says why and how).

--trace 0 reports the end-to-end metrics, each the median over the
run's jobs.  --trace 1 alternates untraced and traced jobs and reports
the per-layer metrics of the traced ones (medians) plus the tracing
overhead.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from job import verdicts  # noqa: E402
from metrics import END_TO_END, HOLDOUT_SEED, LAYER_METRICS, WORKLOADS, pool_jobs  # noqa: E402
from speed import speed_factor  # noqa: E402

MIN_JOBS = 2  # with --trace 1: one untraced and one traced
RUN_LIMIT_S = 150  # a run must end well inside its 180 s limit


def start_reference(cpu: int) -> subprocess.Popen:
    ref = subprocess.Popen(
        [sys.executable, str(HERE / "speed.py"), "--cpu", str(cpu)], cwd=ROOT,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    ref.stdout.readline()
    return ref


def stop_reference(ref: subprocess.Popen) -> list[list[float]]:
    ref.send_signal(signal.SIGTERM)
    try:
        out, _ = ref.communicate(timeout=10)
        return json.loads(out) if ref.returncode == 0 else []
    except (subprocess.TimeoutExpired, ValueError):
        ref.kill()
        ref.communicate()
        return []


def run_job(workload: str, seed: int, cpus: list[int], deadline: float, trace: bool = False) -> dict:
    """Spawn one job next to a reference loop on each of its CPUs and wait for it.

    Returns the job's verdict lines and stamps, and the samples of the
    reference loops (one list per CPU).
    """
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace
    refs: list[subprocess.Popen] = []
    try:
        for cpu in cpus:
            refs.append(start_reference(cpu))
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, process_group=0,  # same session, so nice 19 of the reference applies
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
        wall = time.monotonic() - t_spawn
    finally:
        speed = [stop_reference(ref) for ref in refs]
    lines = out.splitlines()
    job = None
    if proc.returncode == 0 and lines and lines[-1].startswith('{"job"'):
        job = json.loads(lines.pop())["job"]
    else:
        sys.stderr.write(f"job {workload} exited with {proc.returncode}:\n{err[-2000:]}\n")
    return {"t_spawn": t_spawn, "wall": wall, "lines": lines, "job": job, "speed": speed}


def score(expected: list[list], lines: list[str]) -> int:
    """Checks of one job that differ from the recorded verdicts, or never arrived."""
    try:
        got = verdicts(lines)
    except (ValueError, KeyError):
        return len(expected)
    wrong = sum(1 for e, g in zip(expected, got) if e != g)
    return wrong + abs(len(expected) - len(got))


def end_to_end(result: dict, checks: int) -> dict[str, float]:
    """The job's end-to-end metrics in reference seconds, plus its raw times."""
    job, t_spawn = result["job"], result["t_spawn"]
    factor = speed_factor(result["speed"], t_spawn, job["t_done"])
    if factor is None:
        sys.stderr.write("no reference samples during the job; its times are left unscaled\n")
        factor = 1.0
    raw_total = job["t_done"] - t_spawn
    raw_setup = job["t_checks"] - t_spawn
    return {
        "total_s": raw_total * factor,
        "setup_s": raw_setup * factor,
        "checks_per_s": checks / ((raw_total - raw_setup) * factor),
        "peak_rss_mb": job["peak_rss_mb"],
        "speed_factor": factor,
        "wall_total_s": raw_total,
    }


def in_reference_units(unit: str, value: float, factor: float) -> float:
    """Scale a per-layer time or rate of a job by its speed factor; counts and ratios stay."""
    if unit in ("s", "ms"):
        return value * factor
    if unit == "1/s":
        return value / factor
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src" / "racahverify"
    if not (src / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no racahverify sources under {src.parent}; run from a source checkout\n")
        return 2
    w = WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected" / f"{w.expect}.json").read_text())
    compileall.compile_dir(str(src), quiet=1)

    # The job runs on as many CPUs as its pool uses, with a reference loop on each.
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[:pool_jobs(w.jobs)]
    os.sched_setaffinity(0, cpus)
    seed_note = (
        f"seed {args.seed} picks the oracle's test functions and points; holdout seed {HOLDOUT_SEED}"
        if w.kind == "oracle"
        else f"seed {args.seed} unused: the {w.kind} workload is symbolic and seed-free"
    )
    print(json.dumps({
        "workload": w.name, "why": w.why, "seed": seed_note, "trace": args.trace,
        "nproc": len(allowed), "cpus": cpus, "python": platform.python_version(),
        "checks_per_job": len(expected), "pool_jobs": len(cpus),
    }))

    start = time.monotonic()
    deadline = start + args.seconds
    hard_deadline = start + RUN_LIMIT_S
    kinds = (False, True) if args.trace else (False,)
    samples: dict[bool, list[dict]] = {kind: [] for kind in kinds}
    walls: dict[bool, list[float]] = {kind: [] for kind in kinds}
    attempted = failed = 0

    jobs = 0
    while True:
        traced = kinds[jobs % len(kinds)]
        r = run_job(w.name, args.seed, cpus, hard_deadline, trace=traced)
        jobs += 1
        walls[traced].append(r["wall"])
        wrong = score(expected, r["lines"]) if r["job"] is not None else len(expected)
        attempted += len(expected)
        failed += wrong
        if r["job"] is not None:
            e2e = end_to_end(r, len(expected))
            layers = {
                name: in_reference_units(unit, r["job"]["layers"][name], e2e["speed_factor"])
                for name, unit, _ in LAYER_METRICS if name in r["job"].get("layers", {})
            }
            samples[traced].append({**e2e, **layers})
            print(json.dumps({"job": jobs, "traced": traced, "failed_checks": wrong,
                              **{k: round(v, 4) for k, v in e2e.items()}}))
        upcoming = kinds[jobs % len(kinds)]
        if jobs >= MIN_JOBS and time.monotonic() + max(walls[upcoming]) > deadline:
            break

    print(json.dumps({"error_rate": failed / attempted, "failed_checks": failed, "attempted_checks": attempted}))

    def median(rows: list[dict], key: str) -> float:
        return statistics.median(row[key] for row in rows) if rows else 0.0

    metrics: dict[str, dict] = {}
    if args.trace:
        values = {name: median(samples[True], name) for name, _, _ in LAYER_METRICS if not name.startswith("trace.")}
        values["trace.total_s"] = median(samples[True], "total_s")
        values["trace.overhead_s"] = values["trace.total_s"] - median(samples[False], "total_s")
        table = LAYER_METRICS
    else:
        values = {name: median(samples[False], name) for name, _, _ in END_TO_END}
        table = END_TO_END
    for name, unit, _ in table:
        metrics[name] = {"value": values[name], "unit": unit}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
