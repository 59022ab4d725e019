"""One benchmark job: a fresh process that runs one workload once.

    python3 perfbench/job.py --workload NAME --seed N [--trace]
    python3 perfbench/job.py --workload NAME --record

The job prints one JSON line per checked identity (the same lines as
``racah-verify --json``), then a last line ``{"job": {...}}`` with
CLOCK_MONOTONIC stamps for the start of the first check and the last
verdict, the peak RSS of the process and its children, and, when
traced, the per-layer metrics.  The orchestrator (run.py) stamps the
spawn on the same clock, so set-up and total time run from process start.

``--record`` runs the workload untraced and writes its verdict sequence
to perfbench/expected/, the expectation every later run is checked
against.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from metrics import WORKLOADS  # noqa: E402


def verdicts(lines: list[str]) -> list[list]:
    """(relation, tuple, passed, residual_terms) of every check; skipped relations are not checks."""
    out = []
    for line in lines:
        row = json.loads(line)
        if not row.get("note", "").startswith("skipped"):
            out.append([row["relation"], row["tuple"], row["passed"], row["residual_terms"]])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    # Imported here: run.py imports this module for verdicts() without loading racahverify.
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        spans.install(tracer)
    plan = workloads.build_plan(w, args.seed, tracer)
    t_checks = time.monotonic()
    lines: list[str] = []
    for suite, run in plan:
        name = "negative" if suite == "negative" else f"cli.suite.{suite}"
        with tracer.span(name, suite=suite):
            report = run()
        with tracer.span("report.render"):
            rendered = list(report.json_lines())
        if not args.record:
            sys.stdout.write("\n".join(rendered) + "\n")
        lines.extend(rendered)
    t_done = time.monotonic()

    if args.record:
        path = HERE / "expected" / f"{w.expect}.json"
        path.parent.mkdir(exist_ok=True)
        rows = verdicts(lines)
        path.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
        print(f"recorded {len(rows)} verdicts to {path.relative_to(HERE.parent)}")
        return 0

    rss_kb = sum(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    job = {"t_checks": t_checks, "t_done": t_done, "peak_rss_mb": rss_kb / 1024}
    if args.trace:
        job["layers"] = tracer.layer_metrics()
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{w.name}.json")
    sys.stdout.write(json.dumps({"job": job}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
