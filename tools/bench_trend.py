"""Print the benchmark trajectory that the BENCH_*.json records hold.

    python3 tools/bench_trend.py [DIRECTORY, default the repository root]

reads every BENCH_*.json of DIRECTORY in the order git added it (files
git does not know come last, by name) and prints, for each workload and
metric, one row per file: the parent's median, the change's median and
the relative change.  Every file must hold

    workloads[w].metrics[m].parent.median and .change.median

(other keys are ignored); a file that does not is named on stderr and
the exit status is 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def added_order(directory: Path) -> list[Path]:
    """The BENCH_*.json files of directory, oldest git addition first, untracked ones last by name."""
    try:
        log = subprocess.run(
            ["git", "-C", str(directory), "log", "--relative", "--diff-filter=A", "--reverse",
             "--format=", "--name-only", "--", "BENCH_*.json"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        log = []
    present = sorted(p.name for p in directory.glob("BENCH_*.json"))
    ordered = [name for name in dict.fromkeys(log) if name in present]
    return [directory / name for name in ordered + [name for name in present if name not in ordered]]


def medians(record: dict) -> dict[tuple[str, str], tuple[float, float]]:
    """(workload, metric) -> (parent median, change median); KeyError or TypeError off the schema."""
    return {
        (workload, metric): (float(values["parent"]["median"]), float(values["change"]["median"]))
        for workload, body in record["workloads"].items()
        for metric, values in body["metrics"].items()
    }


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else ROOT
    rows: dict[tuple[str, str], list[tuple[str, float, float]]] = {}
    status = 0
    for path in added_order(directory):
        try:
            found = medians(json.loads(path.read_text()))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            print(f"{path.name}: not in the BENCH schema ({exc!r})", file=sys.stderr)
            status = 1
            continue
        for key, (parent, change) in found.items():
            rows.setdefault(key, []).append((path.name, parent, change))
    width = max((len(name) for series in rows.values() for name, _, _ in series), default=0)
    for (workload, metric), series in rows.items():
        print(f"{workload} {metric}")
        for name, parent, change in series:
            relative = f"{(change - parent) / parent:+7.1%}" if parent else "      -"
            print(f"  {name:<{width}}  {parent:10.4f} -> {change:10.4f}  {relative}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
