"""Names shared by the orchestrator, the job process and the tracer.

This module imports nothing from racahverify, so the orchestrator can
validate its arguments and read its metric tables without loading the
program it measures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Seed reserved for checking that a claimed gain holds on inputs not used
# while the change was written; keep it out of tuning.
HOLDOUT_SEED = 7919

END_TO_END = (
    ("total_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("checks_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int
    jobs: int
    trials: int
    why: str

    @property
    def expect(self) -> str:
        """Name of the recorded verdict file; the pool size does not change verdicts."""
        return f"{self.kind}-n{self.n}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "commutant-n4", "commutant", 4, 1, 0,
            "o2n, su11, howe and racah suites, one process: large constant-coefficient "
            "products (F has 72 terms), no oracle work",
        ),
        Workload(
            "reduced-n5", "reduced", 5, 1, 0,
            "reduction suite: many small products with multi-term parameter "
            "coefficients and negative exponents",
        ),
        Workload(
            "oracle-n3", "oracle", 3, 1, 20,
            "oracle suite, seeded: apply and evaluate, no product kernel after set-up",
        ),
        Workload(
            "commutant-n4-j2", "commutant", 4, 2, 0,
            "the commutant-n4 checks on a two-worker fork pool: fork, pickling and load imbalance",
        ),
    )
}

def pool_jobs(wanted: int) -> int:
    """Pool size of a workload: its --jobs, never above the CPUs this process may use."""
    return max(1, min(wanted, len(os.sched_getaffinity(0))))


RELATIONS = ("a", "b", "c", "d", "e")

ORACLE_PARTS = ("oracle.equiv", "oracle.composition", "oracle.composition_reduced")

SUITES = ("o2n", "su11", "howe", "racah", "reduction", "oracle")


def _layer_metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced job reports."""
    rows: list[tuple[str, str, str]] = []

    def add(name: str, unit: str, better: str = "lower") -> None:
        rows.append((name, unit, better))

    add("weyl.mul.calls", "count")
    add("weyl.mul.self_s", "s")
    add("weyl.mul.pairs", "count")
    add("weyl.mul.terms_out", "count")
    add("weyl.mul.pairs_per_s", "1/s", "higher")
    add("weyl.commutator.calls", "count")
    add("weyl.commutator.self_s", "s")
    add("weyl.commutator.kept_ratio", "ratio", "higher")
    for name in ("weyl.add", "weyl.scale", "coeff"):
        add(f"{name}.calls", "count")
        add(f"{name}.self_s", "s")
    add("weyl.apply.calls", "count")
    add("weyl.apply.self_s", "s")
    add("weyl.apply.terms_out", "count")
    add("weyl.evaluate.calls", "count")
    add("weyl.evaluate.self_s", "s")
    for name in ("racah.basis", "racah.f_warm", "reduction.basis", "reduction.f_warm", "oracle.catalog"):
        add(f"{name}.s", "s")
    for name in ("racah.f", "reduction.f"):
        add(f"{name}.calls", "count")
        add(f"{name}.computed", "count")
    for name in ("liealg.casimir_of", "liealg.sum_triples"):
        add(f"{name}.calls", "count")
        add(f"{name}.self_s", "s")
    # Relation e needs five distinct indices: it has no tuples in the
    # n=4 commutant workloads, so only the reduced sweep reports it.
    for suite, rels in (("racah", RELATIONS[:4]), ("reduction", RELATIONS)):
        for rel in rels:
            add(f"{suite}.relation.{rel}.s", "s")
            add(f"{suite}.relation.{rel}.p50_ms", "ms")
    for name in (
        "racah.commutant",
        "racah.dependency",
        "howe.casimir_forms",
        "howe.decompositions",
        "howe.correspondence",
        "howe.intermediate_central",
        "liealg.o2n",
        "liealg.casimir_central",
        "reduction.q_symmetry",
        "reduction.closed_forms",
    ):
        add(f"{name}.s", "s")
    for part in ORACLE_PARTS:
        add(f"{part}.s", "s")
        add(f"{part}.apply_s", "s")
        add(f"{part}.evaluate_s", "s")
    add("oracle.trials", "count", "higher")
    add("oracle.trials_per_s", "1/s", "higher")
    add("parallel.calls", "count")
    add("parallel.tasks", "count")
    add("parallel.wall_s", "s")
    add("parallel.busy_s", "s")
    add("parallel.efficiency", "ratio", "higher")
    add("parallel.overhead_s", "s")
    add("report.render.s", "s")
    for suite in SUITES:
        add(f"cli.suite.{suite}.s", "s")
    add("negative.s", "s")
    add("trace.total_s", "s")
    add("trace.overhead_s", "s")
    return rows


LAYER_METRICS = _layer_metric_table()
