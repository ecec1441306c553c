"""Outside-in instrumentation of planeval, installed by the benchmark.

``install(trace, out_dir)`` rebinds public planeval functions to wrappers.
A ``from .x import f`` copies the reference, so each function is rebound in
every planeval module that holds it, not only where it is defined.

* Always: a row-boundary recorder around ``pipeline._evaluate_row_safe``
  that takes one start and one end timestamp per manifest row.
* With tracing: a span per call into each layer in ``TRACED``.  A span
  records its name, start, end, parent span and the row it belongs to, and
  whether an exception left the call.  Spans stay in memory until the batch
  ends.

Batch workers forked by ``evaluate_batch(jobs > 1)`` inherit the wrappers;
each writes what it recorded to ``out_dir/worker-<pid>.json`` when it exits.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from multiprocessing import util
from pathlib import Path

# (span name, module, function).  Calls into one layer share a span name.
TRACED = (
    ("pipeline.io", "pipeline", "load_manifest"),
    ("pipeline.io", "pipeline", "aggregate"),
    ("pipeline.io", "pipeline", "write_jsonl"),
    ("pipeline.io", "pipeline", "write_report_csv"),
    ("pipeline.instance", "pipeline", "evaluate_instance"),
    ("pddl.parse", "pddl", "parse_domain"),
    ("pddl.parse", "pddl", "parse_problem"),
    ("pddl.parse", "pddl", "parse_plan"),
    ("pddl.resolve", "pddl", "resolve_action"),
    ("planner.solve_gt", "planner", "solve_optimal"),
    ("planner.replan", "planner", "replan_from"),
    ("simulator.simulate", "simulator", "simulate"),
    ("simulator.simulate", "simulator", "is_valid"),
    ("similarity.pair", "similarity", "pair_actions"),
    ("lcs.analyze", "lcs", "lcs_analyze"),
    ("lcs.subplan", "lcs", "best_subplan"),
    ("scoring.score", "scoring", "plan_score"),
    ("transform.search", "transform", "find_best_variant"),
    ("transform.variant", "transform", "score_variant"),
    ("recovery.recover", "recovery", "recover"),
    ("recovery.stv", "recovery", "steps_to_validity"),
)
ROW_SPAN = "pipeline.row"

# A call made while a span of the listed name is innermost belongs to that
# span rather than opening its own: ``is_valid`` runs ``simulate`` and
# ``replan_from`` runs ``solve_optimal``.
ABSORBED_BY = {
    "simulator.simulate": "simulator.simulate",
    "planner.solve_gt": "planner.replan",
}

# Span fields.
NAME, START, END, PARENT, ROW, FAILED = range(6)


class Recorder:
    def __init__(self, trace: bool, out_dir: Path):
        self.trace = trace
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.rows: list[list] = []   # [instance_id, start, end]
        self.spans: list[list] = []
        self.stack: list[int] = []   # indices of open spans
        self.row: str | None = None

    def _adopt_worker(self) -> None:
        """First call in a forked batch worker: drop the parent's records and
        write this worker's own when it exits."""
        self.pid = os.getpid()
        self.rows, self.spans, self.stack = [], [], []
        util.Finalize(None, self.dump, args=(self.out_dir / f"worker-{self.pid}.json",),
                      exitpriority=10)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"rows": self.rows, "spans": self.spans}),
                        encoding="utf-8")

    def row_wrapper(self, fn):
        @functools.wraps(fn)
        def record_row(row, config):
            if os.getpid() != self.pid:
                self._adopt_worker()
            self.row = row.instance_id
            start = time.perf_counter()
            try:
                if self.trace:
                    return self._span(ROW_SPAN, fn, (row, config), {})
                return fn(row, config)
            finally:
                self.rows.append([row.instance_id, start, time.perf_counter()])
                self.row = None
        return record_row

    def _span(self, name: str, fn, args, kwargs):
        stack = self.stack
        spans = self.spans
        if stack and spans[stack[-1]][NAME] == ABSORBED_BY.get(name):
            return fn(*args, **kwargs)
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.row, False]
        stack.append(len(spans))
        spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[FAILED] = True
            raise
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    def span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return traced


def _rebind(original, wrapper) -> int:
    """Replace *original* by *wrapper* in every loaded planeval module."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module_name != "planeval" and not module_name.startswith("planeval."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    return count


def install(trace: bool, out_dir: Path) -> Recorder:
    import planeval  # noqa: F401  (loads every submodule)
    from planeval import pipeline

    recorder = Recorder(trace, out_dir)
    if trace:
        for name, module_name, function in TRACED:
            original = getattr(sys.modules[f"planeval.{module_name}"], function)
            if not _rebind(original, recorder.span_wrapper(name, original)):
                raise RuntimeError(f"planeval.{module_name}.{function} not found")
    original = pipeline._evaluate_row_safe
    _rebind(original, recorder.row_wrapper(original))
    return recorder


def layer_totals(spans: list[list]) -> dict[str, list]:
    """Per span name: [self seconds, calls, calls an exception left, seconds].

    Self time is a span's duration minus the durations of its direct
    children; the spans of one process never overlap except by nesting.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals: dict[str, list] = {}
    for span, children in zip(spans, child_time):
        entry = totals.setdefault(span[NAME], [0.0, 0, 0, 0.0])
        entry[0] += span[END] - span[START] - children
        entry[1] += 1
        entry[2] += span[FAILED]
        entry[3] += span[END] - span[START]
    return totals
