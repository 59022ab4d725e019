"""List the statements of racahverify that racah-verify runs never execute.

    python3 tools/traffic.py ARGS... [-- ARGS...]...

runs ``racahverify.cli.main(ARGS)`` in this process once per
``--``-separated argument list, under ``sys.settrace``, with the runs'
report output discarded.  It then prints, module by module, each
statement inside a function of the package (methods and nested
functions included, docstrings left out) on none of whose lines any
run executed code.  ``--n 3 --suite o2n`` prints, among others,

    reduction.py: 33 of 33 statements never executed
    reduction.py:152 check_q_symmetry  total = total_casimir(ctx)

A compound statement counts as executed when any line of it ran, so an
``if`` whose test ran but whose body did not lists the body only.  The
package imported and traced is the one in this checkout's ``src``.
Forked workers are not traced: at more than one job, what only workers
execute is listed too, and what only the parent of a fork pool executes
is listed unless a run uses more jobs.  So ``--n 3 --trials 2 -- --n 3
--trials 10 --jobs 2`` lists neither the serial path nor the parent's
fork loop (racah-verify caps --jobs at the usable CPUs, so the second
run forks only where there are two, and then only in the dispatches
that outlast the fork map's 0.05 s serial head: under tracing, the two
oracle checks of ten trials on a 2-CPU host, where two trials would
leave at most one trial after the head and so fork nothing).
The exit status is the largest of the runs' exit statuses.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "racahverify"


def function_statements(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(qualified name of the innermost enclosing function, statement) for
    every statement inside a function, in source order, docstrings left out."""
    rows: list[tuple[str, ast.stmt]] = []

    def visit(node: ast.AST, scope: tuple[str, ...], function: str | None) -> None:
        documented = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        docstring = node.body[0] if documented and ast.get_docstring(node, clean=False) is not None else None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.excepthandler, ast.match_case)):
                visit(child, scope, function)
            if not isinstance(child, ast.stmt) or child is docstring:
                continue
            if function is not None:
                rows.append((function, child))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), ".".join(scope + (child.name,)))
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), function)
            else:
                visit(child, scope, function)

    visit(tree, (), None)
    return rows


def traced_lines(runs: list[list[str]]) -> tuple[dict[str, set[int]], int]:
    """The executed lines per package file over the runs, and their largest exit status."""
    sys.path.insert(0, str(SRC))
    from racahverify import cli

    prefix = str(PACKAGE) + os.sep
    executed: defaultdict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    status = 0
    for argv in runs:
        sys.settrace(call)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            sys.settrace(None)
        print(f"# racah-verify {' '.join(argv)}: exit {code}")
        status = max(status, code)
    return executed, status


def main(argv: list[str]) -> int:
    runs = [[]]
    for arg in argv:
        if arg == "--":
            runs.append([])
        else:
            runs[-1].append(arg)
    executed, status = traced_lines(runs)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = executed.get(str(path), set())
        rows = function_statements(ast.parse(source))
        missed = [(name, s) for name, s in rows if ran.isdisjoint(range(s.lineno, s.end_lineno + 1))]
        print(f"{path.name}: {len(missed)} of {len(rows)} statements never executed")
        for name, s in missed:
            print(f"{path.name}:{s.lineno} {name}  {lines[s.lineno - 1].strip()}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
