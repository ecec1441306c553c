"""One benchmark measurement in a fresh interpreter.

    python3 bench/worker.py setup MANIFEST
        Import planeval and load the manifest, then print the monotonic clock
        reading at which that was done.
    python3 bench/worker.py batch MANIFEST OUT_DIR JOBS TRACE
        Run ``evaluate_batch`` once over MANIFEST with the default
        ``PipelineConfig`` and write ``OUT_DIR/result.json``.

A fresh process per batch means every timed batch starts with an empty
ground-truth cache and its own peak-memory reading.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def setup(manifest: Path) -> None:
    from planeval.pipeline import load_manifest

    load_manifest(manifest)
    print(time.monotonic())


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def batch(manifest: Path, out_dir: Path, jobs: int, trace: bool) -> None:
    from planeval import PipelineConfig, pipeline

    from spans import install, layer_totals

    if pipeline._GT_CACHE:
        raise RuntimeError("ground-truth cache is not empty at start")
    out_dir.mkdir(parents=True)
    recorder = install(trace, out_dir)
    jsonl = out_dir / "records.jsonl"

    cpu_start = _cpu_s(resource.getrusage(resource.RUSAGE_SELF))
    start = time.perf_counter()
    pipeline.evaluate_batch(manifest, jobs=jobs, out_jsonl=jsonl,
                            out_csv=out_dir / "report.csv", config=PipelineConfig())
    wall = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)

    rows = recorder.rows
    span_sets = [recorder.spans]
    for path in sorted(out_dir.glob("worker-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        rows += data["rows"]
        span_sets.append(data["spans"])
    layers: dict[str, list] = {}
    for spans in span_sets:
        for name, totals in layer_totals(spans).items():
            entry = layers.setdefault(name, [0] * len(totals))
            layers[name] = [a + b for a, b in zip(entry, totals)]
    if trace:
        with (out_dir / "spans.jsonl").open("w", encoding="utf-8") as handle:
            for spans in span_sets:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")

    worker_cpu = _cpu_s(children) if jobs > 1 else _cpu_s(own) - cpu_start
    result = {
        "wall_s": wall,
        "rows": sorted(rows, key=lambda r: r[1]),
        "peak_rss_kib": max(own.ru_maxrss, children.ru_maxrss),
        "worker_cpu_s": worker_cpu,
        "sha256": hashlib.sha256(jsonl.read_bytes()).hexdigest(),
        "layers": layers if trace else None,
    }
    (out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        setup(Path(argv[1]))
    elif argv[0] == "batch":
        batch(Path(argv[1]), Path(argv[2]), int(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
