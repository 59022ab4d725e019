"""Deterministic fork map for identity sweeps, forking only when a sweep outlasts a fork.

Sweeps are embarrassingly parallel over index tuples, but a fork is not
free.  At ``racah-verify --n 4 --suite o2n,su11,howe,racah`` on a 2-CPU
host, a two-worker dispatch took 3.0-4.5 ms more than half its serial
time (the fork, 180-370 copy-on-write faults in the parent, the reap),
while the run's ten dispatches took 0.1-15 ms each serially.  So
``run_tasks`` rents before it buys, the rule of Karlin, Manasse, Rudolph
and Sleator ("Competitive snoopy caching", Algorithmica 3, 1988): with
jobs = k > 1 the parent computes the items in input order, a serial
head, until the dispatch has run for ``HEAD_S`` = 0.05 s.  A dispatch
that ends inside the budget forks nothing; one that outlasts it has
lost at most the budget to running serially.  An exception from the
head is raised before any fork.

The budget is ten or so forks' worth, not one, because a fork also
adds a child whose peak memory is about the parent's, and because a
dispatch whose serial time is near the budget forks or not by host
speed.  The largest dispatch of that n=4 run took 7-17 ms serially on
the same host, so at 0.01 s some runs forked and others did not; at
0.05 s it stays a factor of three below the budget.

Only when the budget is spent and items remain does the parent fork,
for the rest: with k' = min(k, remaining) workers it forks k' - 1
children with ``os.fork`` and is itself worker 0, so k' workers use k'
processes; every child shares the parent's operators copy-on-write and
the task function may be a closure over a large basis.  Worker w
computes the strided slice ``rest[w::k']``: the parent computes
``rest[0::k']`` while the children run, and child w writes one pickled
``(ok, results | exception)`` message to its own pipe and leaves with
``os._exit``.  The parent then reads each pipe to EOF, reaps every child
with ``waitpid``, and puts the head and the slices back in input order,
so reports come back in the same sequence for any worker count.  The
first failing slice in worker order wins, and is raised only after
every child is reaped: an exception from the parent's own slice
unchanged, one from a child's slice raised again in the parent, and a
child that ends without a readable message as a RuntimeError naming
it.  Platforms without fork, and jobs=1, run a serial loop.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

HEAD_S = 0.05  # seconds a dispatch at jobs > 1 runs serially before it may fork


def run_tasks(fn: Callable[[T], R], items: Iterable[T], jobs: int = 1) -> list[R]:
    """Apply fn to every item, preserving order; jobs = k > 1 forks up to k - 1 workers once HEAD_S is spent."""
    work = list(items)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs == 1 or not hasattr(os, "fork"):
        return [fn(item) for item in work]
    head: list = []
    deadline = time.perf_counter() + HEAD_S
    while len(head) < len(work) and time.perf_counter() < deadline:
        head.append(fn(work[len(head)]))
    rest = work[len(head):]
    workers = max(1, min(jobs, len(rest)))  # one: no child, the parent computes what is left
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe) of workers 1..k-1
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _serve(fn, rest[w::workers], write_end)
            os.close(write_end)
            children.append((pid, read_end))
        own = [fn(item) for item in rest[0::workers]]
    finally:
        replies = [_collect(w, pid, read_end) for w, (pid, read_end) in enumerate(children, 1)]
    results: list = [None] * len(rest)
    results[0::workers] = own
    for w, (ok, value) in enumerate(replies, 1):
        if not ok:
            raise value
        results[w::workers] = value
    return head + results


def _serve(fn: Callable, items: list, write_end: int) -> None:
    """Worker body: send one (ok, results | exception) message, then exit.

    os._exit skips every flush, so text the parent buffered before the
    fork is printed once, by the parent; the worker's own unflushed
    output is dropped.
    """
    code = 1
    try:
        try:
            message = pickle.dumps((True, [fn(item) for item in items]))
        except BaseException as exc:
            message = pickle.dumps((False, exc))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(message)
        code = 0
    finally:
        os._exit(code)


def _collect(w: int, pid: int, read_end: int) -> tuple[bool, object]:
    """Read worker w's message to EOF, then reap the worker."""
    with os.fdopen(read_end, "rb") as pipe:
        message = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(message)
    except Exception:  # empty or cut short by a dying worker, or not rebuildable here
        code = os.waitstatus_to_exitcode(status)
        return False, RuntimeError(f"worker {w} (pid {pid}) exited with code {code} without a readable result")
