"""Batch verification runner: argument parsing and output.

Parses the options (argparse reads --suite too: each value is a
comma-separated list of suite names, "all" standing for every suite),
runs the chosen suites through the suite registry (suites.py: engine
self-checks first, then the registry's order), streams one report line
per checked identity instance, and finishes with a summary line.  Exit
status: 0 when every entry passed, 1 when any identity failed, 2 for
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .report import RelationReport
from .suites import SUITE_ORDER, run_suites
from .suites import identity_catalog  # noqa: F401  perfbench/workloads.py imports it from here

_CHOICES = f"choose from {', '.join(SUITE_ORDER)}, all"


def _suite_names(text: str) -> list[str]:
    """The suites one --suite value names: comma-separated, spaces stripped, "all" for every suite."""
    names: list[str] = []
    for name in filter(None, (part.strip() for part in text.split(","))):
        if name not in SUITE_ORDER and name != "all":
            raise argparse.ArgumentTypeError(f"unknown suite {name!r} ({_CHOICES})")
        names += SUITE_ORDER if name == "all" else [name]
    return names


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
        action="extend",
        type=_suite_names,
        metavar="NAME",
        help=f"suite to run ({_CHOICES}); repeatable or comma-separated (default: all)",
    )
    parser.add_argument("--n", type=int, default=3, help="number of factors (default 3)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    parser.add_argument("--seed", type=int, default=0, help="oracle seed (default 0)")
    parser.add_argument(
        "--trials", type=int, default=100, help="each oracle composition check runs 10 x TRIALS trials (default 100)"
    )
    parser.add_argument("--json", action="store_true", help="emit JSON lines instead of text")
    parser.add_argument(
        "--allow-large-n",
        action="store_true",
        help="permit n above 5 (the Casimir suites check all 2^n - 1 factor subsets)",
    )
    return parser


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
    if config.suite == []:
        parser.error(f"--suite names no suite ({_CHOICES})")

    t_start = time.perf_counter()
    total = RelationReport()
    for report in run_suites(config.suite or SUITE_ORDER, config):
        total.merge(report)
        for line in report.json_lines() if config.json else report.text_lines():
            print(line)

    elapsed = time.perf_counter() - t_start
    counts = total.counts()
    if config.json:
        print(json.dumps({"summary": {**counts, "elapsed_s": round(elapsed, 3)}}))
    else:
        print(
            "summary: checked={checked} passed={passed} failed={failed} "
            "skipped={skipped} elapsed={elapsed:.2f}s".format(elapsed=elapsed, **counts)
        )
    return 0 if total.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
