"""Deterministic fork map for identity sweeps.

Sweeps are embarrassingly parallel over index tuples.  ``run_tasks``
forks one child per worker with ``os.fork``, so every child shares the
parent's operators copy-on-write and the task function may be a closure
over a large basis.  Child w computes the strided slice ``items[w::k]``
of the k workers, writes one pickled ``(ok, results | exception)``
message to its own pipe and leaves with ``os._exit``.  The parent reads
each pipe to EOF, reaps every child with ``waitpid``, and puts the
slices back in input order, so reports come back in the same sequence
for any worker count.  An exception raised in a worker is raised again
in the parent; a worker that ends without a readable message raises a
RuntimeError naming it.  Platforms without fork, and jobs=1, run a
serial loop.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def run_tasks(fn: Callable[[T], R], items: Iterable[T], jobs: int = 1) -> list[R]:
    """Apply fn to every item, preserving order; jobs > 1 forks workers."""
    work = list(items)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    workers = min(jobs, len(work))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in work]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _serve(fn, work[w::workers], write_end)
            os.close(write_end)
            children.append((pid, read_end))
    finally:
        replies = [_collect(w, pid, read_end) for w, (pid, read_end) in enumerate(children)]
    results: list = [None] * len(work)
    for w, (ok, value) in enumerate(replies):
        if not ok:
            raise value
        results[w::workers] = value
    return results


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
