"""Batch driver: run the full evaluation/recovery pipeline over instances,
emit per-instance JSONL records and aggregate them into a metrics CSV.

Within one process, batch rows parse each distinct domain and problem text
once, and instances with equal domain and problem models share one cache
entry: the ground truth solved for each planner command and one table of
resolved actions, cut back to the 256 it resolved first after each row's
pi1 search or a failure before it.  The parse cache, the per-problem cache
and each entry's ground truths hold at most 256 entries each, evict the
oldest first and never keep a failed parse or solve.  With several jobs,
the rows that share a domain and problem file go to one worker together,
largest groups first, so each problem is parsed and solved once per batch
at any job count.

A missing or empty candidate plan is evaluated as the empty plan (the
defaulted record), so group means always cover every instance.  Aggregation
works on the serialized record dicts, which makes re-aggregating a JSONL
file reproduce the batch CSV byte for byte.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .config import PipelineConfig
from .errors import (
    InstanceError,
    InvalidGroundTruth,
    ManifestError,
    PlanEvalError,
    SearchBudgetExceeded,
    read_text,
)
from .lcs import best_subplan, lcs_analyze
from .pddl import (DomainModel, GroundAction, Plan, ProblemModel, parse_domain, parse_plan,
                   parse_problem)
from .planner import solve_optimal
from .recovery import recover, steps_to_validity
from .scoring import normalize_score, plan_score, potential
from .similarity import aqm_score, non_positional_aqm, pair_actions
from .simulator import SimulationResult, simulate
from .transform import find_best_variant

SCHEMA_VERSION = 3

#: Each metric column of the aggregate CSV and the record field it averages.
_METRIC_FIELDS = {
    "pi0_SR": "pi0.valid", "Score": "pi0.normalized_score", "AQM": "pi0.aqm_score",
    "StV": "pi0.stv", "LEA": "pi0.lea",
    "pi1_SR": "pi1.valid", "pi2_SR": "pi2.valid", "pi2_LEA": "pi2.lea",
    "pi3_SR": "pi3.valid", "pi3_StV": "pi3.stv", "pi3_LEA": "pi3.lea",
    "pi4_SR": "pi4.valid", "corr_len": "corr_length",
}
REPORT_COLUMNS = ["model", "prompt_type", "domain", "instances", *_METRIC_FIELDS]


# ---------------------------------------------------------------------------
# Single-instance evaluation
# ---------------------------------------------------------------------------


def _plan_metrics(plan: Plan, result: SimulationResult, stv: int | None = None) -> dict:
    """Validity, executability, length and LEA of *plan* from its simulation."""
    metrics = {
        "valid": result.valid,
        "executable": result.executable,
        "length": len(plan),
        "lea": result.lea,
    }
    if stv is not None:
        metrics["stv"] = stv
    return metrics


#: Entries each per-process cache below keeps, oldest evicted first; also
#: the ground truths each problem entry keeps, and the actions its
#: resolution table keeps between rows.
_CACHE_SIZE = 256

# Per-process cache, one entry per domain and problem model pair (compared
# by value): the ground truths solved for it, keyed on the external planner
# command, and its resolution table, each lower-cased (name, args) to its
# GroundAction, which parse_plan and the pi1 search read and fill.
_GT_CACHE: dict[tuple[DomainModel, ProblemModel],
                tuple[dict[str | None, Plan], dict[tuple, GroundAction]]] = {}


def _cached(cache: dict, key, make):
    """``cache[key]``, stored from ``make()`` first if missing, evicting the
    oldest entry once *cache* holds ``_CACHE_SIZE``.  When ``make`` raises,
    nothing is stored."""
    value = cache.get(key)
    if value is None:
        value = make()
        if len(cache) >= _CACHE_SIZE:
            del cache[next(iter(cache))]
        cache[key] = value
    return value


def evaluate_instance(domain: DomainModel, problem: ProblemModel,
                      plan_text: str | None, gt_plan_text: str | None = None,
                      config: PipelineConfig | None = None,
                      instance_id: str = "", model: str = "",
                      prompt_type: str = "") -> dict:
    """Run the whole pipeline for one candidate plan and return its record,
    the dict that ``write_jsonl`` writes.

    ``gt_plan_text`` supplies the ground truth; without it the instance is
    solved (built-in planner or ``planner.external_cmd``) and the plan is
    kept, per planner command, in the problem's ``_GT_CACHE`` entry.  That
    entry also holds the table of resolved actions that every row of the
    problem parses and searches through.  Its key is the domain and problem
    models, compared by value, so equal models parsed from different texts
    share one solve and one table.  Whatever its source, the ground truth
    must be valid (stage ``check-gt``).  A ``None`` plan text marks a failed
    generation and is evaluated as the empty plan.  Any stage failure is
    wrapped in :class:`InstanceError` naming the stage.

    The ground truth and pi0 to pi4 each get their own simulation, even when
    two of them hold the same actions.  Each distinct action sequence among
    pi0 to pi3 gets its StV once, and pi3 is pi2 when pi1 keeps pi0's
    actions, so pi0's LCS analysis and sub-plan serve both.
    """
    if config is None:
        config = PipelineConfig()
    flags = {
        "generation_missing": plan_text is None,
        "transform_budget_exceeded": False,
    }

    def stage(name: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PlanEvalError as exc:
            raise InstanceError(name, exc) from exc

    gts, resolved = _cached(_GT_CACHE, (domain, problem), lambda: ({}, {}))
    try:  # however the stages up to the pi1 search end, the table is cut back
        if gt_plan_text is not None:
            gt_plan = stage("parse-gt", parse_plan, gt_plan_text, domain, problem, resolved)
        else:
            # Keyed on what a planner reads; the timeout only bounds the search.
            gt_plan = _cached(gts, config.external_planner, lambda: stage(
                "solve-gt", solve_optimal, problem, domain, timeout=config.planner_timeout,
                external_cmd=config.external_planner))
        # Recovery completes pi4 with a ground-truth suffix, so the GT must be valid.
        sim_gt = simulate(gt_plan, problem)
        if not sim_gt.valid:
            raise InstanceError("check-gt", InvalidGroundTruth(
                f"ground-truth plan is invalid: {sim_gt.lea} of {len(gt_plan)} actions execute"))

        pi0 = stage("parse-plan", parse_plan, plan_text or "", domain, problem, resolved)
        sim0 = simulate(pi0, problem)

        pairing = stage("pairing", pair_actions, pi0, gt_plan, config.similarity)
        np_aqm = non_positional_aqm(pi0, gt_plan, pairing.labels, config.similarity)
        lcs0 = stage("lcs", lcs_analyze, pi0, gt_plan)
        breakdown0 = stage("score", plan_score, pi0, gt_plan, pairing, lcs0, sim0.valid)
        normalized0 = normalize_score(breakdown0, pi0, gt_plan)

        try:
            variant1 = find_best_variant(pi0, gt_plan, problem, domain, config, resolved=resolved)
        except SearchBudgetExceeded as exc:
            flags["transform_budget_exceeded"] = True
            variant1 = exc.best
        except PlanEvalError as exc:
            raise InstanceError("transform", exc) from exc
    finally:
        for key in list(itertools.islice(resolved, _CACHE_SIZE, None)):
            del resolved[key]  # all but the oldest resolutions
    pi1 = variant1.plan

    pi2 = stage("subplan", best_subplan, pi0, lcs0, problem)
    # pi3 is pi1's sub-plan; when pi1 keeps pi0's actions, that is pi2.
    pi3 = (pi2 if pi1.actions == pi0.actions else
           stage("subplan", best_subplan, pi1, lcs_analyze(pi1, gt_plan), problem))

    steps0 = stage("stv", steps_to_validity, pi0, pairing, gt_plan, problem)
    metrics = {"pi0": _plan_metrics(pi0, sim0, stv=len(steps0))}
    stv = {pi0.actions: len(steps0)}
    for key, plan in (("pi1", pi1), ("pi2", pi2), ("pi3", pi3)):
        if plan.actions not in stv:
            pairing_k = stage("stv", pair_actions, plan, gt_plan, config.similarity)
            stv[plan.actions] = len(stage("stv", steps_to_validity, plan, pairing_k,
                                          gt_plan, problem))
        metrics[key] = _plan_metrics(plan, simulate(plan, problem), stv=stv[plan.actions])

    # Potential per action; the empty plan is defaulted on the GT length.
    n_eff = len(pi0) if len(pi0) > 0 else len(gt_plan)
    potential0 = stage("potential", potential, breakdown0.total, variant1.penalized,
                       n_eff, sim0.valid, reward=config.validity_reward)

    outcome = recover(pi0, gt_plan, sim0, sim_gt)

    metrics["pi0"].update({
        "score": {
            "base": float(breakdown0.base),
            "similarity_sum": float(breakdown0.similarity_sum),
            "pair_bonus": float(breakdown0.pair_bonus),
            "substring_bonus": float(breakdown0.substring_bonus),
            "subsequence_bonus": float(breakdown0.subsequence_bonus),
            "length_penalty": float(breakdown0.length_penalty),
            "total": float(breakdown0.total),
        },
        "normalized_score": float(normalized0),
        "aqm": [label.value for label in pairing.labels],
        "np_aqm": [label.value for label in np_aqm],
        "aqm_score": float(aqm_score(pairing.labels)),
        "np_aqm_score": float(aqm_score(np_aqm)),
        "per_action_scores": [float(s) for s in pairing.per_action_scores],
        "steps": [step.to_json() for step in steps0],
    })
    metrics["pi1"].update({
        "shift": variant1.transformation.shift,
        "mapping": {src: dst for src, dst in variant1.transformation.mapping
                    if src != dst},
        "raw_score": float(variant1.breakdown.total),
        "transform_penalty": float(variant1.penalty),
        "penalized_score": float(variant1.penalized),
    })
    metrics["pi4"] = _plan_metrics(outcome.final, simulate(outcome.final, problem))

    return {
        "schema": SCHEMA_VERSION,
        "instance_id": instance_id,
        "model": model,
        "prompt_type": prompt_type,
        "domain": domain.name,
        "gt_length": len(gt_plan),
        "flags": flags,
        **metrics,
        "potential": float(potential0),
        "corr_length": float(len(outcome.corr)),
        "comp_length": float(len(outcome.comp)),
    }


# ---------------------------------------------------------------------------
# Manifest handling
# ---------------------------------------------------------------------------

MANIFEST_COLUMNS = ("instance_id", "domain_path", "problem_path", "plan_path",
                    "model", "prompt_type")


@dataclass(frozen=True)
class ManifestRow:
    instance_id: str
    domain_path: Path
    problem_path: Path
    plan_path: Path | None
    gt_plan_path: Path | None
    model: str
    prompt_type: str


def load_manifest(path: str | Path) -> list[ManifestRow]:
    path = Path(path)
    base = path.parent
    rows: list[ManifestRow] = []
    text = read_text(path, str(path), lambda message: ManifestError(0, message))
    with io.StringIO(text, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in MANIFEST_COLUMNS if c not in header]
        if missing:
            raise ManifestError(0, f"missing columns: {', '.join(missing)}")
        for row_number, row in enumerate(reader, start=2):
            for column in MANIFEST_COLUMNS:
                if not (row.get(column) or "").strip():
                    if column == "plan_path":
                        continue  # empty plan path = defaulted instance
                    raise ManifestError(row_number, f"empty '{column}'")
            gt_raw = (row.get("gt_plan_path") or "").strip()
            plan_raw = (row.get("plan_path") or "").strip()
            rows.append(ManifestRow(
                instance_id=row["instance_id"].strip(),
                domain_path=base / row["domain_path"].strip(),
                problem_path=base / row["problem_path"].strip(),
                plan_path=base / plan_raw if plan_raw else None,
                gt_plan_path=base / gt_raw if gt_raw else None,
                model=row["model"].strip(),
                prompt_type=row["prompt_type"].strip(),
            ))
    return rows


def _read(path: Path) -> str:
    try:
        return read_text(path, str(path))
    except (OSError, PlanEvalError) as exc:
        raise InstanceError("load", PlanEvalError(str(exc))) from exc


# Per-process cache of parsed (domain, problem) models, keyed on the two file
# texts.  The models are frozen and no stage writes to them, so one entry
# serves every row that reads the same texts, and one domain model every
# cached problem of that domain text.
_PARSE_CACHE: dict[tuple[str, str], tuple[DomainModel, ProblemModel]] = {}


def _parse_models(domain_text: str, problem_text: str) -> tuple[DomainModel, ProblemModel]:
    domain = next((cached[0] for key, cached in _PARSE_CACHE.items()
                   if key[0] == domain_text), None)
    try:
        if domain is None:
            domain = parse_domain(domain_text)
        return domain, parse_problem(problem_text, domain)
    except PlanEvalError as exc:
        raise InstanceError("load", exc) from exc


def _evaluate_row(row: ManifestRow, config: PipelineConfig) -> dict:
    texts = (_read(row.domain_path), _read(row.problem_path))
    domain, problem = _cached(_PARSE_CACHE, texts, lambda: _parse_models(*texts))

    plan_text: str | None = None
    if row.plan_path is not None and row.plan_path.is_file():
        plan_text = _read(row.plan_path)
        if not plan_text.strip():
            plan_text = None

    gt_plan_text = _read(row.gt_plan_path) if row.gt_plan_path is not None else None

    return evaluate_instance(
        domain, problem, plan_text, gt_plan_text=gt_plan_text,
        config=config, instance_id=row.instance_id, model=row.model,
        prompt_type=row.prompt_type,
    )


def _evaluate_row_safe(row: ManifestRow, config: PipelineConfig) -> dict:
    try:
        return _evaluate_row(row, config)
    except InstanceError as exc:
        return {
            "schema": SCHEMA_VERSION,
            "instance_id": row.instance_id,
            "model": row.model,
            "prompt_type": row.prompt_type,
            "error": {"stage": exc.stage, "message": str(exc.cause)},
        }


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


_GROUP_FIELDS = ("model", "prompt_type", "domain")


def _record_field(record: dict, position: int, name: str):
    """The value at the dotted *name* of the *position*-th (1-based) record:
    a string for a group field, a JSON number or boolean for a metric."""
    value = record
    for key in name.split("."):
        if not isinstance(value, dict) or key not in value:
            raise PlanEvalError(f"record {position} has no field '{name}'")
        value = value[key]
    kind, expected = ((str, "a string") if name in _GROUP_FIELDS else
                      ((int, float), "a number or boolean"))
    if not isinstance(value, kind):
        raise PlanEvalError(f"record {position} field '{name}' is {json.dumps(value)}, "
                            f"not {expected}")
    return value


def aggregate(records: list[dict]) -> list[dict]:
    """Group records by (model, prompt_type, domain) and average each metric.

    Error records are skipped; defaulted records participate fully, so SR
    denominators cover every evaluated instance.  A record that lacks a
    field read here, or holds one of the wrong type, raises
    :class:`PlanEvalError` naming it.
    """
    groups: dict[tuple[str, str, str], list[dict]] = {}
    for position, record in enumerate(records, 1):
        if "error" in record:
            continue
        values = {name: _record_field(record, position, name) for name in
                  (*_GROUP_FIELDS, *_METRIC_FIELDS.values())}
        key = tuple(values[name] for name in _GROUP_FIELDS)
        groups.setdefault(key, []).append(values)

    rows = []
    for key in sorted(groups):
        members = groups[key]
        row = {"model": key[0], "prompt_type": key[1], "domain": key[2],
               "instances": len(members)}
        for column, name in _METRIC_FIELDS.items():
            row[column] = sum(float(values[name]) for values in members) / len(members)
        rows.append(row)
    return rows


def write_report_csv(rows: list[dict], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow([row[column] for column in REPORT_COLUMNS])


def write_jsonl(records: list[dict], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path: str | Path) -> list[dict]:
    text = read_text(path, str(path))
    records = []
    for line_no, line in enumerate(text.split("\n"), 1):
        if line.strip():
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise PlanEvalError(f"{path} line {line_no} is not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise PlanEvalError(f"{path} line {line_no} is not a JSON object")
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# Batch driver
# ---------------------------------------------------------------------------


@dataclass
class BatchResult:
    records: list[dict] = field(default_factory=list)
    report_rows: list[dict] = field(default_factory=list)
    failed_rows: list[str] = field(default_factory=list)

    @property
    def had_errors(self) -> bool:
        return bool(self.failed_rows)


def _problem_tasks(rows: list[ManifestRow], jobs: int) -> list[list[int]]:
    """Split the indices of *rows* into worker tasks, largest first.

    A task holds rows that share a domain and problem file, so one worker
    parses and solves that problem for all of them.  A group of more than
    ``len(rows) // (2 * jobs)`` rows is split into consecutive chunks of that
    size, so even a one-problem manifest gives every worker work.  A task's
    work is estimated as its rows times the size of its problem file (0 for a
    missing file); ties keep manifest order.
    """
    groups: dict[tuple[Path, Path], list[int]] = {}
    for index, row in enumerate(rows):
        groups.setdefault((row.domain_path, row.problem_path), []).append(index)
    size = max(1, len(rows) // (2 * jobs))
    tasks: list[tuple[int, list[int]]] = []
    for (_, problem_path), members in groups.items():
        try:
            weight = problem_path.stat().st_size
        except OSError:
            weight = 0  # each row gets its own load error record
        tasks.extend((len(chunk) * weight, chunk) for chunk in
                     (members[start:start + size] for start in range(0, len(members), size)))
    tasks.sort(key=lambda task: -task[0])
    return [chunk for _, chunk in tasks]


def _evaluate_rows(rows: list[ManifestRow], config: PipelineConfig) -> list[dict]:
    """One worker task: the records of *rows*, evaluated in order."""
    return [_evaluate_row_safe(row, config) for row in rows]


def evaluate_batch(manifest_path: str | Path, jobs: int = 1,
                   out_jsonl: str | Path | None = None,
                   out_csv: str | Path | None = None,
                   config: PipelineConfig | None = None) -> BatchResult:
    """Evaluate every manifest row and return the records in manifest order,
    whatever *jobs*.

    With ``jobs > 1`` a pool of that many worker processes takes the tasks of
    :func:`_problem_tasks`, largest first.  Partial results are still flushed
    when some rows fail; failed rows carry an ``error`` entry in the JSONL
    output and are reported in the result.
    """
    if config is None:
        config = PipelineConfig()
    rows = load_manifest(manifest_path)

    if jobs <= 1:
        records = _evaluate_rows(rows, config)
    else:
        tasks = _problem_tasks(rows, jobs)
        placed: dict[int, dict] = {}
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = pool.map(_evaluate_rows, [[rows[i] for i in task] for task in tasks],
                            [config] * len(tasks), chunksize=1)
            for task, task_records in zip(tasks, done):
                placed.update(zip(task, task_records))
        records = [placed[index] for index in range(len(rows))]

    result = BatchResult(records=records)
    result.failed_rows = [r["instance_id"] for r in records if "error" in r]
    result.report_rows = aggregate(records)
    if out_jsonl is not None:
        write_jsonl(records, out_jsonl)
    if out_csv is not None:
        write_report_csv(result.report_rows, out_csv)
    return result
