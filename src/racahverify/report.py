"""Structured results for identity sweeps, and the one way to check.

A check is (relation, index tuple) -> residual, left side minus right
side: an operator, or a polynomial where the check applies operators
to a test function (the engine's action checks and the oracle's
compositions).  ``check`` times the residual function and records
whether the residual vanished and how many terms survived;
``run_checks`` does that for every tuple of a sweep, in input order, so
parallel runs print identically to serial ones.  ``check`` is the one
timed helper every sweep uses.  ``run_orbits`` serves the sweeps whose
tuples fall into S_n orbits under a certificate (the relation sweep and
intermediate-central): it checks one tuple per orbit and derives the
rest, or checks every tuple when the certificate fails.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

from ._parallel import run_tasks
from .weyl import Operator, Polynomial

Residual = Operator | Polynomial
ResidualFn = Callable[[tuple[int, ...]], Residual]


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


def run_orbits(
    orbits: list[tuple[str, list[tuple[int, ...]]]],
    residual_of: Callable[[str, tuple[int, ...]], Residual],
    certify: Callable[[], bool],
    jobs: int = 1,
) -> RelationReport:
    """check() each orbit (relation, tuples) at its first tuple only when certify() holds, else at every tuple.

    A certificate must prove that the residual at every tuple of an
    orbit is the residual at its first tuple relabelled, which keeps
    the term count, so every tuple gets the first tuple's verdict and
    ``residual_terms``.  Otherwise each tuple is checked on its own: the
    reference path.  The certificate's wall time is shared evenly over
    the checked items, and each item's time over the tuples it stands
    for, so the entries' ``ms`` add up to the certificate and every
    check.  Either way entries come in orbit order, each orbit's tuples
    in the order given, and the checked items go to workers at once.
    """
    t0 = time.perf_counter()
    certified = certify()
    certificate_ms = (time.perf_counter() - t0) * 1000
    groups = orbits if certified else [(rel, [t]) for rel, tuples in orbits for t in tuples]

    def check_first(group: tuple[str, list[tuple[int, ...]]]) -> ReportEntry:
        rel, tuples = group
        return check(rel, tuples[0], lambda t: residual_of(rel, t))

    report = RelationReport()
    for entry, (_, tuples) in zip(run_tasks(check_first, groups, jobs), groups):
        ms = (entry.ms + certificate_ms / len(groups)) / len(tuples)
        report.entries += [replace(entry, indices=t, ms=ms) for t in tuples]
    return report
