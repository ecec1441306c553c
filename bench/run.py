"""planeval benchmark: seeded batch workloads through ``evaluate_batch``.

    python3 bench/run.py --workload llm-batch --seed 1 --seconds 30 --trace 0

Run from the repository root.  The inputs of the workload are generated from
the seed, outside every timed region.  Each timed batch runs in a fresh
interpreter (``bench/worker.py``).  The outputs are checked, a summary is
printed, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced batches (see ``bench/spans.py``) and the tracing overhead.
See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"

# Timed batches per 30 s of --seconds.  On the 2-core reference host a batch
# takes 11-18 s (llm-batch), 7-9 s (llm-batch-jobs2) and 6-7 s (solve-sweep).
# The count does not depend on the speed of the moment, so every run takes
# its tail percentile over the same number of rows.
BATCHES_PER_30_S = {
    "llm-batch": 3,
    "llm-batch-jobs2": 4,
    "solve-sweep": 5,
}
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170

# Per-layer metric: (span name, field) for times and counts, field 0 = self
# seconds, 1 = calls.
LAYER_METRICS = {
    "transform.search_s": ("transform.search", 0),
    "transform.variant_s": ("transform.variant", 0),
    "transform.searches": ("transform.search", 1),
    "transform.variants_scored": ("transform.variant", 1),
    "similarity.pair_s": ("similarity.pair", 0),
    "similarity.pair_calls": ("similarity.pair", 1),
    "lcs.analyze_s": ("lcs.analyze", 0),
    "lcs.analyze_calls": ("lcs.analyze", 1),
    "lcs.subplan_s": ("lcs.subplan", 0),
    "lcs.subplan_calls": ("lcs.subplan", 1),
    "scoring.score_s": ("scoring.score", 0),
    "scoring.score_calls": ("scoring.score", 1),
    "simulator.simulate_s": ("simulator.simulate", 0),
    "simulator.simulate_calls": ("simulator.simulate", 1),
    "pddl.resolve_s": ("pddl.resolve", 0),
    "pddl.resolve_calls": ("pddl.resolve", 1),
    "pddl.parse_s": ("pddl.parse", 0),
    "pddl.parse_calls": ("pddl.parse", 1),
    "planner.solve_gt_s": ("planner.solve_gt", 0),
    "planner.solve_gt_calls": ("planner.solve_gt", 1),
    "planner.replan_s": ("planner.replan", 0),
    "planner.replan_calls": ("planner.replan", 1),
    "recovery.recover_s": ("recovery.recover", 0),
    "recovery.stv_s": ("recovery.stv", 0),
    "recovery.stv_calls": ("recovery.stv", 1),
    "pipeline.instance_s": ("pipeline.instance", 0),
}
NO_SPANS = [0.0, 0, 0, 0.0]
ERROR_LAYERS = ("pddl", "planner", "simulator", "similarity", "lcs", "scoring",
                "transform", "recovery", "pipeline")


def _run(cmd: list[str]) -> str:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:  # timeout, interrupt or SIGTERM: leave nothing running
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return out


def measure_setup(manifest: Path) -> float:
    start = time.monotonic()
    ready = float(_run([sys.executable, str(WORKER), "setup", str(manifest)]))
    return ready - start


def run_batch(manifest: Path, out_dir: Path, jobs: int, trace: bool) -> dict:
    _run([sys.executable, str(WORKER), "batch", str(manifest), str(out_dir), str(jobs),
          "1" if trace else "0"])
    result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
    result["dir"] = out_dir
    return result


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def check_batch(result: dict, row_ids: list[str], expected: dict) -> tuple[list[dict], list[str]]:
    """The batch's records, and every way in which they are wrong."""
    problems = []
    text = (result["dir"] / "records.jsonl").read_text(encoding="utf-8")
    records = [json.loads(line) for line in text.splitlines()]
    if [r["instance_id"] for r in records] != row_ids:
        problems.append("records are not one per manifest row in manifest order")
    if sorted(r[0] for r in result["rows"]) != sorted(row_ids):
        problems.append("row timings are not one per manifest row")
    for record in records:
        row_id = record["instance_id"]
        if "error" in record:
            problems.append(f"{row_id}: error record {record['error']}")
            continue
        if record["pi4"]["valid"] is not True:
            problems.append(f"{row_id}: pi4 is not valid")
        want = expected["rows"].get(row_id, {}).get("gt_length")
        if record["gt_length"] != want:
            problems.append(f"{row_id}: gt_length {record['gt_length']}, optimum {want}")
    with (result["dir"] / "report.csv").open(newline="", encoding="utf-8") as handle:
        for group in csv.DictReader(handle):
            if float(group["pi1_SR"]) < float(group["pi0_SR"]):
                problems.append(f"group {group['model']}/{group['domain']}: pi1_SR < pi0_SR")
    return records, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def rows_per_s(result: dict) -> float:
    return len(result["rows"]) / result["wall_s"]


def end_to_end(results: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    latencies = [end - start for r in results for _, start, end in r["rows"]]
    percentile, tail_s = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "rows_per_s": (statistics.median(rows_per_s(r) for r in results), "1/s"),
        "row_p50_s": (statistics.median(latencies), "s"),
        "row_tail_s": (tail_s, "s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_kib"] / 1024 for r in results), "MiB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters",
        f"rows_per_s: median of {len(results)} batches of {len(results[0]['rows'])} rows",
        f"row_p50_s, row_tail_s: {len(latencies)} row latencies; "
        f"row_tail_s is p{percentile:.1f}",
    ]
    return metrics, notes


def per_layer(traced: list[dict], plain: list[dict], records: list[dict],
              jobs: int) -> tuple[dict, list[str]]:
    def layer(name: str, field: int) -> float:
        return statistics.median(r["layers"].get(name, NO_SPANS)[field]
                                 for r in traced)

    def share(*names: str) -> float:
        """Share of the traced batches' worker time spent inside *names*."""
        busy = sum(jobs * r["wall_s"] for r in traced)
        return sum(r["layers"].get(n, NO_SPANS)[3] for r in traced for n in names) / busy

    metrics = {}
    for metric, (name, field) in LAYER_METRICS.items():
        metrics[metric] = (layer(name, field), "s" if field == 0 else "count")
    searches = metrics["transform.searches"][0]
    metrics["transform.variants_per_search"] = (
        metrics["transform.variants_scored"][0] / searches if searches else 0.0, "count")
    metrics["transform.budget_exceeded"] = (
        sum(bool(r.get("flags", {}).get("transform_budget_exceeded")) for r in records),
        "count")
    metrics["pipeline.io_s"] = (layer("pipeline.io", 0) + layer("pipeline.row", 0), "s")
    metrics["pipeline.gt_cache_hit_ratio"] = (
        1.0 - metrics["planner.solve_gt_calls"][0] / len(records), "ratio")
    metrics["pipeline.worker_utilisation"] = (
        statistics.median(r["worker_cpu_s"] / (jobs * r["wall_s"]) for r in plain), "ratio")
    for prefix in ERROR_LAYERS:
        metrics[f"{prefix}.errors"] = (statistics.median(
            sum(v[2] for k, v in r["layers"].items() if k.startswith(prefix + "."))
            for r in traced), "count")
    traced_rate = statistics.median(rows_per_s(r) for r in traced)
    plain_rate = statistics.median(rows_per_s(r) for r in plain)
    metrics["trace.rows_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1.0, "ratio")
    notes = [
        f"per-layer: median of {len(traced)} traced batches, spans in "
        f"{traced[-1]['dir'].relative_to(ROOT)}/spans.jsonl",
        f"share of traced batch time: find_best_variant {share('transform.search'):.1%}, "
        f"solve-gt + replanning {share('planner.solve_gt', 'planner.replan'):.1%}",
    ]
    return metrics, notes


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BATCHES_PER_30_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "planeval" / "__init__.py").is_file():
        print(f"planeval sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    out = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    manifest = workloads.generate(args.workload, args.seed, out / "inputs")
    expected = json.loads((out / "inputs" / "expected.json").read_text(encoding="utf-8"))
    with manifest.open(newline="", encoding="utf-8") as handle:
        row_ids = [row["instance_id"] for row in csv.DictReader(handle)]
    jobs = expected["jobs"]

    batches = max(1, round(args.seconds / 30 * BATCHES_PER_30_S[args.workload]))
    modes = [False, True] * max(1, batches // 2) if args.trace else [False] * batches

    setup = [] if args.trace else [measure_setup(manifest) for _ in range(SETUP_SAMPLES)]
    results = [run_batch(manifest, out / f"batch-{i}", jobs, traced)
               for i, traced in enumerate(modes)]

    problems: list[str] = []
    failed = 0
    for result in results:
        records, batch_problems = check_batch(result, row_ids, expected)
        problems += batch_problems
        failed += sum("error" in r for r in records)
    shas = sorted({r["sha256"] for r in results})
    if len(shas) != 1:
        problems.append(f"batches disagree: JSONL sha256 {shas}")
    attempted = len(row_ids) * len(results)

    if args.trace:
        plain = [r for r, traced in zip(results, modes) if not traced]
        traced = [r for r, traced in zip(results, modes) if traced]
        metrics, notes = per_layer(traced, plain, records, jobs)
        notes.append("traced and untraced JSONL sha256 "
                     + ("match" if len(shas) == 1 else "DIFFER"))
    else:
        metrics, notes = end_to_end(results, setup)

    oracles = Counter(v["oracle"] for v in expected["rows"].values())
    print(f"workload {args.workload}, seed {args.seed}, jobs {jobs}: "
          f"{len(row_ids)} rows per batch, {len(results)} batches")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'error_rows_frac':32s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} rows)")
    for note in notes:
        print(f"  {note}")
    print("  gt_length optimum per row from: "
          + ", ".join(f"{oracle} {count}" for oracle, count in sorted(oracles.items())))
    print(f"  JSONL sha256 {shas[0]}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
