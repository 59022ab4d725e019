"""Reference loop that samples how fast one CPU runs while a job runs on it.

    python3 perfbench/speed.py --cpu K

The loop pins itself to CPU K, drops to the lowest priority (nice 19),
prints ``ready`` and then repeats a fixed piece of pure-Python work (dict
updates with tuple keys and Fraction arithmetic, the kind of work the
package's kernel does) until it receives SIGTERM.  Next to a busy job it
gets about 1.5% of the CPU, in slices spread over the whole job, so its
iterations sample the speed of the CPU at the moments the job ran.  On
SIGTERM it prints one JSON list of ``[end, cpu_s]`` per iteration: the
CLOCK_MONOTONIC time the iteration ended and the CPU time it took.

CPU time does not help on its own: when a virtual CPU shares its core
with a busy neighbour, the job's CPU time grows with its wall time.  The
orchestrator (run.py) turns the samples into a rate, iterations per CPU
second, and scales the job's times by it (see ``speed_factor``).

It imports nothing from racahverify, so a change to the program cannot
change the reference.  It exits by itself when its parent is gone.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from fractions import Fraction

# Iterations per CPU second at which one reported second is one wall second.
REF_RATE = 1000.0
MAX_LIFETIME_S = 300.0


def work() -> dict:
    acc: dict = {}
    for i in range(1, 200):
        key = (i % 31, i % 7)
        q = Fraction(i % 13 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
        acc[key] = acc.get(key, 0) + q
    return acc


def rate(samples: list[list[float]], start: float, end: float) -> float | None:
    """Iterations per CPU second among the samples that ended in [start, end]."""
    inside = [cpu for t, cpu in samples if start <= t <= end]
    return len(inside) / sum(inside) if inside else None


def speed_factor(per_cpu: list[list[list[float]]], start: float, end: float) -> float | None:
    """Mean over the CPUs of their reference rate in [start, end], relative to REF_RATE.

    Multiplying a time measured in that window by the factor gives the
    time the work would have taken on a CPU running the reference at
    REF_RATE; a CPU that ran slower than that has a factor below 1.
    """
    rates = [r for r in (rate(s, start, end) for s in per_cpu) if r is not None]
    return sum(rates) / len(rates) / REF_RATE if rates else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    os.nice(19)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    born = time.monotonic()
    samples: list[list[float]] = []
    print("ready", flush=True)
    while not stop:
        c0 = time.process_time()
        work()
        samples.append([time.monotonic(), time.process_time() - c0])
        if os.getppid() != parent or samples[-1][0] - born > MAX_LIFETIME_S:
            return 1
    sys.stdout.write(json.dumps(samples) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
