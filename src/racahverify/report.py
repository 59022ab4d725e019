"""Structured results for identity sweeps, and the one way to check.

A symbolic check is (relation, index tuple) -> residual operator, left
side minus right side.  ``check`` times the residual function and
records whether the residual vanished and how many terms survived;
``run_checks`` does that for every tuple of a sweep, in input order, so
parallel runs print identically to serial ones.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ._parallel import run_tasks
from .weyl import Operator, Polynomial

ResidualFn = Callable[[tuple[int, ...]], Operator | Polynomial]


@dataclass(frozen=True)
class ReportEntry:
    relation: str
    indices: tuple[int, ...]
    passed: bool
    residual_terms: int
    ms: float
    note: str = ""

    def to_json(self) -> str:
        obj = {
            "relation": self.relation,
            "tuple": list(self.indices),
            "passed": self.passed,
            "residual_terms": self.residual_terms,
            "ms": round(self.ms, 3),
        }
        if self.note:
            obj["note"] = self.note
        return json.dumps(obj)

    def to_text(self) -> str:
        status = "  ok  " if self.passed else " FAIL "
        idx = ",".join(map(str, self.indices)) if self.indices else "-"
        tail = f"  [{self.note}]" if self.note else ""
        return (
            f"[{status}] {self.relation:<16} ({idx})"
            f"  residual_terms={self.residual_terms}  {self.ms:.1f}ms{tail}"
        )


@dataclass
class RelationReport:
    entries: list[ReportEntry] = field(default_factory=list)

    def add(self, entry: ReportEntry) -> None:
        self.entries.append(entry)

    def merge(self, other: RelationReport) -> None:
        self.entries.extend(other.entries)

    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def counts(self) -> dict[str, int]:
        skipped = sum(1 for e in self.entries if e.note.startswith("skipped"))
        failed = sum(1 for e in self.entries if not e.passed)
        return {
            "checked": len(self.entries) - skipped,
            "passed": len(self.entries) - skipped - failed,
            "failed": failed,
            "skipped": skipped,
        }

    def json_lines(self) -> Iterator[str]:
        for e in self.entries:
            yield e.to_json()

    def text_lines(self) -> Iterator[str]:
        for e in self.entries:
            yield e.to_text()


def check(relation: str, indices: tuple[int, ...], residual_fn: ResidualFn, note: str = "") -> ReportEntry:
    """Time residual_fn(indices) and report the residual it returns.

    An exception from residual_fn is re-raised as a RuntimeError naming
    the relation and the index tuple, also from a forked worker.
    """
    t0 = time.perf_counter()
    try:
        residual = residual_fn(indices)
    except Exception as exc:
        raise RuntimeError(f"check {relation} {indices} raised {exc!r}") from exc
    ms = (time.perf_counter() - t0) * 1000
    return ReportEntry(relation, indices, residual.is_zero(), residual.term_count(), ms, note)


def run_checks(
    relation: str, tuples: Iterable[tuple[int, ...]], residual_of: ResidualFn, jobs: int = 1, note: str = ""
) -> RelationReport:
    """check() every index tuple in order; jobs > 1 forks workers."""
    return RelationReport(run_tasks(lambda t: check(relation, t, residual_of, note), tuples, jobs))
