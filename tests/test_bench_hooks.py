"""The benchmark instruments planeval from outside ``src/``: ``bench/spans.py``
rebinds the functions it names, ``bench/worker.py`` checks that the
ground-truth cache is empty before a batch, and ``bench/make_pool.py`` passes
its own h_max to the planner.  A rename in ``src/`` would break ``bench/``
silently, so these names, and every name ``bench/`` imports from planeval,
are checked here."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import planeval

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS_PATH = BENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    spans = load_spans()
    assert spans.TRACED
    for _, module_name, function in spans.TRACED:
        module = importlib.import_module(f"{planeval.__name__}.{module_name}")
        assert callable(getattr(module, function, None)), f"{module_name}.{function}"


def test_pipeline_hooks_exist():
    from planeval import pipeline

    assert callable(pipeline._evaluate_row_safe)
    assert isinstance(pipeline._GT_CACHE, dict)


def test_pool_builder_planner_hooks_exist():
    # make_pool.py counts heuristic evaluations by passing a wrapper of
    # planner.hmax as heuristic= to solve_optimal and replan_from.
    from planeval import planner

    assert list(inspect.signature(planner.hmax).parameters) == ["task", "state"]
    for search in (planeval.solve_optimal, planeval.replan_from):
        parameters = inspect.signature(search).parameters
        assert parameters["heuristic"].default is planner.hmax
        assert "timeout" in parameters


def test_bench_imports_resolve():
    imported = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path, alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported += [(path, node.module, alias.name) for alias in node.names]
    imported = [entry for entry in imported if entry[1].partition(".")[0] == planeval.__name__]
    assert imported
    for path, module_name, name in imported:
        module = importlib.import_module(module_name)
        assert name is None or hasattr(module, name), f"{path.name}: {module_name}.{name}"
