"""In-memory span tracer for traced benchmark jobs.

A span has a name, a start, an end and the span that caused it.  Coarse
spans (suites, set-up steps, single relation checks, pool calls) are
kept one by one and written out when the job ends.  Hot layers (operator
products, additions, coefficient arithmetic, apply/evaluate) run up to a
million times per job, so their spans are folded into per-name
aggregates as they close: calls, total time and the time their child
spans cover.  Self time is total minus covered.  Every hot aggregate is
also keyed by the innermost open coarse span (the phase), which is how
the oracle split reports apply and evaluate time per part.

The tracer wraps functions from outside the package: ``install`` swaps
each patched entry point for a timing wrapper in every racahverify
module that imported it, and returns a function that puts the originals
back.  Nothing is recorded inside forked pool workers' copies, so a
parallel job's trace covers only the parent side of ``run_tasks``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from typing import Callable

from metrics import LAYER_METRICS, ORACLE_PARTS

MODULES = ("coeff", "weyl", "liealg", "howe", "racah", "reduction", "oracle", "_parallel", "report", "cli")

HOT = (
    "weyl.mul",
    "weyl.commutator",
    "weyl.add",
    "weyl.scale",
    "coeff",
    "weyl.apply",
    "weyl.evaluate",
    "racah.f",
    "reduction.f",
    "liealg.casimir_of",
    "liealg.sum_triples",
)


class NullTracer:
    """Stand-in used with tracing off: spans and counters cost nothing."""

    def span(self, name: str, suite: str | None = None):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        # One frame per open span: [time covered by children, terms produced by child products].
        self.stack: list[list] = [[0.0, 0]]
        self.open_ids: list[int] = []
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.hot: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}
        self.phase = "-"
        self.suite = "-"
        self.commutators = 0

    # -- coarse spans ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, suite: str | None = None):
        frame = [0.0, 0]
        parent = self.open_ids[-1] if self.open_ids else -1
        sid = len(self.spans)
        self.spans.append((sid, name, 0.0, 0.0, parent))
        self.open_ids.append(sid)
        saved = (self.phase, self.suite)
        self.phase = name
        if suite is not None:
            self.suite = suite
        self.stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self.stack.pop()
            self.stack[-1][0] += end - start
            self.phase, self.suite = saved
            self.open_ids.pop()
            self.spans[sid] = (sid, name, start, end, parent)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- hot spans ---------------------------------------------------------

    def hot_wrapper(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """fn timed as a hot span; after(stat, frame, args, result) adds extra counts."""
        stack, clock, table, tracer = self.stack, self.clock, self.hot, self

        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][0] += dur
                key = (tracer.phase, name)
                stat = table.get(key)
                if stat is None:
                    stat = table[key] = [0, 0.0, 0.0, 0, 0]
                stat[0] += 1
                stat[1] += dur
                stat[2] += frame[0]
            if after is not None:
                after(stat, frame, args, result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def hot_total(self, name: str, phase: str | None = None) -> list:
        """[calls, total_s, covered_s, extra1, extra2] summed over phases (or for one)."""
        out = [0, 0.0, 0.0, 0, 0]
        for (ph, nm), stat in self.hot.items():
            if nm == name and (phase is None or ph == phase):
                out = [a + b for a, b in zip(out, stat)]
        return out

    def span_durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for _, name, start, end, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric of LAYER_METRICS except the trace.* pair,
        which needs an untraced job to compare against; 0 where a layer did
        not run in this workload."""
        dur = self.span_durations()
        m: dict[str, float] = {}

        def span_s(name: str) -> float:
            return sum(dur.get(name, ()))

        for name in HOT:
            calls, total, covered, _, _ = self.hot_total(name)
            m[f"{name}.calls"] = calls
            m[f"{name}.self_s"] = total - covered
        mul = self.hot_total("weyl.mul")
        m["weyl.mul.pairs"] = mul[3]
        m["weyl.mul.terms_out"] = mul[4]
        m["weyl.mul.pairs_per_s"] = mul[3] / m["weyl.mul.self_s"] if m["weyl.mul.self_s"] else 0.0
        com = self.hot_total("weyl.commutator")
        m["weyl.commutator.kept_ratio"] = com[3] / com[4] if com[4] else 0.0
        m["weyl.apply.terms_out"] = self.hot_total("weyl.apply")[3]
        for name in ("racah.f", "reduction.f"):
            m[f"{name}.computed"] = self.hot_total(name)[3]
        for name, _, _ in LAYER_METRICS:
            if name.endswith(".s"):
                m[name] = span_s(name[:-2])
            elif name.endswith(".p50_ms"):
                samples = dur.get(name[: -len(".p50_ms")])
                m[name] = statistics.median(samples) * 1000 if samples else 0.0
        for part in ORACLE_PARTS:
            for hot, key in (("weyl.apply", "apply_s"), ("weyl.evaluate", "evaluate_s")):
                stat = self.hot_total(hot, phase=part)
                m[f"{part}.{key}"] = stat[1] - stat[2]
        trials = self.counters.get("oracle.trials", 0)
        oracle_s = sum(span_s(p) for p in ORACLE_PARTS)
        m["oracle.trials"] = trials
        m["oracle.trials_per_s"] = trials / oracle_s if oracle_s else 0.0
        for key in ("calls", "tasks", "wall_s", "busy_s", "overhead_s"):
            m[f"parallel.{key}"] = self.counters.get(f"parallel.{key}", 0)
        jobs_wall = self.counters.get("parallel.jobs_wall_s", 0)
        m["parallel.efficiency"] = m["parallel.busy_s"] / jobs_wall if jobs_wall else 0.0
        return {name: m[name] for name, _, _ in LAYER_METRICS if not name.startswith("trace.")}

    def dump(self, path) -> None:
        """Write the coarse spans and the hot aggregates as JSON."""
        data = {
            "spans": [
                {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                for sid, name, start, end, parent in self.spans
            ],
            "hot": [
                {"phase": ph, "name": nm, "calls": s[0], "total_s": s[1], "self_s": s[1] - s[2]}
                for (ph, nm), s in sorted(self.hot.items())
            ],
            "counters": self.counters,
        }
        path.write_text(json.dumps(data))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the package's entry points with tracer spans; returns the undo."""
    mods = {name: importlib.import_module(f"racahverify.{name}") for name in MODULES}
    mods["__init__"] = importlib.import_module("racahverify")
    weyl, coeff = mods["weyl"], mods["coeff"]
    Operator = weyl.Operator
    ReportEntry = mods["report"].ReportEntry
    undo: list[tuple[object, str, object]] = []

    def set_attr(owner, attr: str, value) -> None:
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(original, wrapper) -> None:
        """Replace a function in every module that bound it by name."""
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    set_attr(mod, attr, wrapper)

    # Products: scalar right factors go to the (separately timed) scale path.
    def after_mul(stat, frame, args, result):
        stat[3] += len(args[0].terms) * len(args[1].terms)
        stat[4] += len(result.terms)
        tracer.stack[-1][1] += len(result.terms)

    timed_mul = tracer.hot_wrapper("weyl.mul", Operator.__mul__, after_mul)
    plain_mul = Operator.__mul__

    def mul(self, other):
        if isinstance(other, Operator):
            return timed_mul(self, other)
        return plain_mul(self, other)

    set_attr(Operator, "__mul__", mul)
    for attr, name in (("__add__", "weyl.add"), ("__neg__", "weyl.add"), ("scale", "weyl.scale")):
        set_attr(Operator, attr, tracer.hot_wrapper(name, Operator.__dict__[attr]))

    def after_apply(stat, frame, args, result):
        stat[3] += len(result.terms)

    set_attr(Operator, "apply", tracer.hot_wrapper("weyl.apply", Operator.apply, after_apply))
    set_attr(weyl.Polynomial, "evaluate", tracer.hot_wrapper("weyl.evaluate", weyl.Polynomial.evaluate))
    for attr in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "evaluate"):
        set_attr(coeff.ParamPoly, attr, tracer.hot_wrapper("coeff", coeff.ParamPoly.__dict__[attr]))

    # Commutators: kept terms of [a,b] against the terms of ab plus ba.
    def after_commutator(stat, frame, args, result):
        tracer.commutators += 1
        stat[3] += len(result.terms)
        stat[4] += frame[1]

    patch_function(weyl.commutator, tracer.hot_wrapper("weyl.commutator", weyl.commutator, after_commutator))

    liealg = mods["liealg"]
    for fn_name in ("casimir_of", "sum_triples"):
        original = getattr(liealg, fn_name)
        patch_function(original, tracer.hot_wrapper(f"liealg.{fn_name}", original))

    # F accessors: a call that runs a commutator computed F; others hit the memo.
    for cls, name in ((mods["racah"].CommutantBasis, "racah.f"), (mods["reduction"].ReducedBasis, "reduction.f")):
        timed_f = tracer.hot_wrapper(name, cls.f)

        def f(self, i, j, k, timed_f=timed_f, name=name):
            before = tracer.commutators
            result = timed_f(self, i, j, k)
            if tracer.commutators != before:
                tracer.hot[(tracer.phase, name)][3] += 1
            return result

        set_attr(cls, "f", f)

    # One coarse span per relation check, keyed by the suite running it.
    racah = mods["racah"]
    relation_residual = racah.relation_residual

    def relation(rel, t, p, f, c):
        with tracer.span(f"{tracer.suite}.relation.{rel}"):
            return relation_residual(rel, t, p, f, c)

    patch_function(relation_residual, relation)

    # Pool calls: wall time in the parent, busy time from the entries' own ms.
    run_tasks = mods["_parallel"].run_tasks

    def traced_run_tasks(fn, items, jobs=1):
        items = list(items)
        if jobs == 1 or len(items) <= 1:
            return run_tasks(fn, items, jobs)
        start = tracer.clock()
        with tracer.span("parallel.run_tasks"):
            results = run_tasks(fn, items, jobs)
        wall = tracer.clock() - start
        busy = sum(r.ms for r in results if isinstance(r, ReportEntry)) / 1000
        for key, value in (
            ("calls", 1),
            ("tasks", len(items)),
            ("wall_s", wall),
            ("busy_s", busy),
            ("jobs_wall_s", jobs * wall),
            ("overhead_s", wall - busy / jobs),
        ):
            tracer.count(f"parallel.{key}", value)
        return results

    patch_function(run_tasks, traced_run_tasks)

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
