"""The fork map: input order, every result intact, every worker reaped, errors raised here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from racahverify._parallel import run_tasks

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_python(code):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("jobs, count", [(2, 4), (3, 7), (5, 3), (8, 1), (4, 0)])
def test_results_in_input_order(jobs, count):
    items = list(range(count))
    results = run_tasks(lambda x: (x * x, os.getpid()), items, jobs)
    assert [r for r, _ in results] == [x * x for x in items]
    workers = min(jobs, count)
    if workers > 1:
        # worker w computes the strided slice items[w::workers]; the parent is worker 0
        pids = [pid for _, pid in results]
        assert all(pids[i] == pids[i % workers] for i in range(count))
        assert pids[0] == os.getpid()
        assert len(set(pids[1:workers])) == workers - 1 and os.getpid() not in pids[1:workers]
    _no_child_left()


def test_results_larger_than_a_pipe_buffer_come_back_intact():
    results = run_tasks(lambda x: bytes([x]) * 200_000, range(4), jobs=2)
    assert results == [bytes([x]) * 200_000 for x in range(4)]
    _no_child_left()


def test_worker_that_dies_without_a_result_is_named():
    def fn(x):
        if x == 3:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match=r"worker 1 \(pid \d+\) exited with code 3 without a readable result"):
        run_tasks(fn, range(6), jobs=2)
    _no_child_left()


class Unpicklable(Exception):
    def __init__(self):
        super().__init__("cannot cross a pipe")
        self.hook = lambda: None


def test_unpicklable_exception_surfaces_as_runtime_error():
    def fn(x):
        if x == 1:
            raise Unpicklable()
        return x

    with pytest.raises(RuntimeError, match=r"worker 1 .* without a readable result"):
        run_tasks(fn, range(4), jobs=2)
    _no_child_left()


def test_picklable_exception_keeps_its_type():
    def fn(x):
        if x == 5:
            raise KeyError(x)
        return x

    with pytest.raises(KeyError):
        run_tasks(fn, range(7), jobs=3)
    _no_child_left()


def test_exception_in_the_parents_slice_wins_after_every_child_is_reaped():
    def fn(x):
        if x == 2:  # items[0::2] is the parent's slice
            try:
                raise KeyError(x)
            except KeyError as exc:
                raise Unpicklable() from exc
        if x == 3:  # a later slice fails too, and loses
            raise ValueError(x)
        return x

    with pytest.raises(Unpicklable) as info:
        run_tasks(fn, range(6), jobs=2)
    assert isinstance(info.value.__cause__, KeyError)
    _no_child_left()


def test_failed_fork_reaps_the_started_child_and_closes_its_pipes(monkeypatch):
    real_fork = os.fork
    forks = []

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise OSError("no more processes")
        return real_fork()

    fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(OSError, match="no more processes"):
        run_tasks(abs, range(6), jobs=3)
    assert len(forks) == 2
    _no_child_left()
    assert len(os.listdir("/proc/self/fd")) == fds


def test_text_buffered_before_the_fork_is_printed_once():
    code = (
        "import sys\n"
        "from racahverify._parallel import run_tasks\n"
        "sys.stdout.write('before the fork\\n')\n"
        "assert run_tasks(abs, [-1, -2, -3], jobs=3) == [1, 2, 3]\n"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before the fork\n"


def test_package_does_not_import_multiprocessing():
    proc = _run_python("import sys, racahverify.suites; print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        run_tasks(abs, [1], jobs=0)
