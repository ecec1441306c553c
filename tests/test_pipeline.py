from __future__ import annotations

import csv
import json
import re
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from planeval import PipelineConfig, evaluate_batch, evaluate_instance, load_config, pipeline
from planeval.cli import main as cli_main
from planeval.config import _KEY_MAP
from planeval.errors import (
    ConfigError,
    InstanceError,
    ManifestError,
    PlanEvalError,
    ZeroLengthGroundTruth,
)
from planeval.pddl import parse_domain, parse_problem, problem_to_pddl
from planeval.pipeline import aggregate, read_jsonl, write_report_csv
from planeval.similarity import CharLcsSimilarity, SynonymTable

from conftest import FIXTURES, INSTANCE_10_CANDIDATE, INSTANCE_10_GT, make_bw_problem

BW_DOMAIN_PATH = FIXTURES / "blocksworld" / "domain.pddl"
BW_PROBLEM_PATH = FIXTURES / "blocksworld" / "instance-10.pddl"


# ---------------------------------------------------------------------------
# evaluate_instance
# ---------------------------------------------------------------------------


def test_record_running_example(bw_domain, bw_problem):
    record = evaluate_instance(bw_domain, bw_problem, INSTANCE_10_CANDIDATE,
                               gt_plan_text=INSTANCE_10_GT,
                               instance_id="10", model="m", prompt_type="p")
    assert record["schema"] == 3
    assert record["gt_length"] == 6
    assert set(record["flags"]) == {"generation_missing", "transform_budget_exceeded"}
    pi0 = record["pi0"]
    assert pi0["valid"] is False
    assert pi0["lea"] == 0
    assert pi0["stv"] == 7
    assert pi0["score"]["total"] == pytest.approx(float(Fraction(278, 15)), abs=1e-12)
    assert pi0["aqm"] == ["same_act", "same_act", "correct", "same_act",
                          "diff_act", "redundant", "same_act", "redundant"]
    assert pi0["aqm_score"] == 0.40625
    assert record["pi1"]["shift"] == 0
    assert record["pi1"]["mapping"] == {"a": "b", "b": "a"}
    assert record["pi1"]["stv"] == 2
    assert record["pi2"]["valid"] is False and record["pi2"]["length"] == 1
    assert record["pi3"]["valid"] is True and record["pi3"]["length"] == 6
    assert record["pi4"]["valid"] is True
    assert record["corr_length"] == 0.0
    assert record["comp_length"] == 6.0
    # Potential under the default transformation penalty constants.
    assert record["potential"] == pytest.approx(float(Fraction(703, 240)), abs=1e-12)


def test_record_with_solved_gt(bw_domain, bw_problem):
    record = evaluate_instance(bw_domain, bw_problem, INSTANCE_10_CANDIDATE)
    assert record["gt_length"] == 6
    assert record["pi0"]["stv"] == 7


def test_record_perfect_candidate(bw_domain, bw_problem):
    record = evaluate_instance(bw_domain, bw_problem, INSTANCE_10_GT,
                               gt_plan_text=INSTANCE_10_GT)
    for key in ("pi0", "pi1", "pi2", "pi3", "pi4"):
        assert record[key]["valid"] is True
    assert record["pi0"]["score"]["total"] == 6.0
    assert record["pi0"]["stv"] == 0
    assert record["pi1"]["shift"] == 0 and record["pi1"]["mapping"] == {}


def test_record_defaulted_empty_plan(bw_domain, bw_problem):
    record = evaluate_instance(bw_domain, bw_problem, None,
                               gt_plan_text=INSTANCE_10_GT)
    assert record["flags"]["generation_missing"] is True
    pi0 = record["pi0"]
    assert pi0["valid"] is False
    assert pi0["lea"] == 0
    assert pi0["length"] == 0
    assert pi0["stv"] == 6  # six add_action steps
    assert all(step["kind"] == "add_action" for step in pi0["steps"])
    assert pi0["score"]["total"] == -12.0  # 0 base, penalty 2*36/6
    assert pi0["score"]["length_penalty"] == 12.0
    assert pi0["normalized_score"] == pytest.approx(-12 / 27)
    assert record["pi4"]["valid"] is True  # recovery still solves the instance
    assert record["comp_length"] == 6.0


def test_instance_error_names_stage(bw_domain, bw_problem):
    with pytest.raises(InstanceError) as excinfo:
        evaluate_instance(bw_domain, bw_problem, "()\n", gt_plan_text=INSTANCE_10_GT)
    assert excinfo.value.stage == "parse-plan"


@pytest.mark.parametrize("gt_text", [
    "(pick-up a)\n",                      # executable, misses the goal
    "(stack a b)\n" + INSTANCE_10_GT,     # first action not applicable
], ids=["misses-goal", "not-executable"])
def test_invalid_gt_is_a_check_gt_error(bw_domain, bw_problem, gt_text):
    with pytest.raises(InstanceError) as excinfo:
        evaluate_instance(bw_domain, bw_problem, INSTANCE_10_CANDIDATE, gt_plan_text=gt_text)
    assert excinfo.value.stage == "check-gt"


def test_each_plan_is_analysed_and_subplanned_once(monkeypatch, bw_domain, bw_problem):
    # Calls inside the pi1 search do not count.
    from planeval import lcs

    calls = {"lcs_analyze": [], "best_subplan": []}
    for original, modules in ((lcs.lcs_analyze, (pipeline, lcs)),
                              (lcs.best_subplan, (pipeline,))):
        def counting(plan, *args, _original=original, **kwargs):
            calls[_original.__name__].append(plan.actions)
            return _original(plan, *args, **kwargs)

        for module in modules:
            if hasattr(module, original.__name__):
                monkeypatch.setattr(module, original.__name__, counting)
    for candidate, analyses in (
            # pi1 is a shift of pi0, so two LCS analyses and two sub-plans.
            (INSTANCE_10_CANDIDATE, 2),
            # pi1 keeps pi0's actions, so pi0's analysis and sub-plan serve pi3 too.
            (INSTANCE_10_GT, 1)):
        for seen in calls.values():
            seen.clear()
        evaluate_instance(bw_domain, bw_problem, candidate, gt_plan_text=INSTANCE_10_GT)
        assert len(calls["lcs_analyze"]) == analyses
        assert len(calls["best_subplan"]) == analyses


def test_empty_gt_gives_one_score_error_per_row(tmp_path, monkeypatch, bw_domain):
    # The goal holds in init, so the solved GT is empty and the length
    # penalty is undefined, with or without a candidate plan.
    monkeypatch.setattr(pipeline, "_GT_CACHE", {})
    problem = make_bw_problem(bw_domain, [["a", "b"]], [["a", "b"]], name="bw-trivial")
    (tmp_path / "trivial.pddl").write_text(problem_to_pddl(problem, bw_domain))
    (tmp_path / "candidate.plan").write_text("(unstack b a)\n(put-down b)\n")
    manifest = write_manifest(tmp_path, [
        {"instance_id": instance_id, "domain_path": str(BW_DOMAIN_PATH),
         "problem_path": "trivial.pddl", "plan_path": plan_path,
         "gt_plan_path": "", "model": "m", "prompt_type": "p"}
        for instance_id, plan_path in (("candidate", "candidate.plan"),
                                       ("missing", "absent.plan"))
    ])
    result = evaluate_batch(manifest)
    assert result.failed_rows == ["candidate", "missing"]
    for record in result.records:
        assert record["error"] == {
            "stage": "score",
            "message": "length penalty undefined for an empty ground truth"}
    with pytest.raises(InstanceError) as excinfo:
        evaluate_instance(bw_domain, problem, None)
    assert excinfo.value.stage == "score"
    assert isinstance(excinfo.value.cause, ZeroLengthGroundTruth)


def test_eight_block_tower_recovers_from_gt_file(bw_domain):
    blocks = [f"b{i}" for i in range(1, 9)]
    problem = make_bw_problem(bw_domain, [[b] for b in blocks], [blocks])
    gt_text = "".join(f"(pick-up {top})\n(stack {top} {below})\n"
                      for below, top in zip(blocks, blocks[1:]))
    record = evaluate_instance(bw_domain, problem, None, gt_plan_text=gt_text)
    assert record["gt_length"] == 14
    assert record["pi4"]["valid"] is True
    assert record["comp_length"] == 14.0


# ---------------------------------------------------------------------------
# Manifest and batch
# ---------------------------------------------------------------------------


def write_manifest(tmp_path: Path, rows: list[dict]) -> Path:
    path = tmp_path / "manifest.csv"
    columns = ["instance_id", "domain_path", "problem_path", "plan_path",
               "gt_plan_path", "model", "prompt_type"]
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path


def two_instance_manifest(tmp_path: Path) -> Path:
    (tmp_path / "good.plan").write_text(INSTANCE_10_GT)
    return write_manifest(tmp_path, [
        {"instance_id": "good", "domain_path": str(BW_DOMAIN_PATH),
         "problem_path": str(BW_PROBLEM_PATH), "plan_path": "good.plan",
         "gt_plan_path": "", "model": "m1", "prompt_type": "zero-shot"},
        {"instance_id": "missing", "domain_path": str(BW_DOMAIN_PATH),
         "problem_path": str(BW_PROBLEM_PATH), "plan_path": "absent.plan",
         "gt_plan_path": "", "model": "m1", "prompt_type": "zero-shot"},
    ])


def test_batch_missing_plan_counts_in_denominator(tmp_path):
    manifest = two_instance_manifest(tmp_path)
    result = evaluate_batch(manifest, out_jsonl=tmp_path / "out.jsonl",
                            out_csv=tmp_path / "out.csv")
    assert not result.had_errors
    assert len(result.records) == 2
    row = result.report_rows[0]
    assert row["instances"] == 2
    assert row["pi0_SR"] == 0.5  # one valid of two, missing plan included
    assert row["pi4_SR"] == 1.0
    missing = result.records[1]
    assert missing["flags"]["generation_missing"] is True
    assert missing["pi0"]["stv"] == 6


def test_reaggregation_is_byte_identical(tmp_path):
    manifest = two_instance_manifest(tmp_path)
    evaluate_batch(manifest, out_jsonl=tmp_path / "out.jsonl",
                   out_csv=tmp_path / "out.csv")
    records = read_jsonl(tmp_path / "out.jsonl")
    write_report_csv(aggregate(records), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "out.csv").read_bytes()


def test_batch_is_deterministic_across_jobs(tmp_path):
    manifest = two_instance_manifest(tmp_path)
    evaluate_batch(manifest, jobs=1, out_jsonl=tmp_path / "a.jsonl",
                   out_csv=tmp_path / "a.csv")
    evaluate_batch(manifest, jobs=2, out_jsonl=tmp_path / "b.jsonl",
                   out_csv=tmp_path / "b.csv")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _rows(problem_paths: list[Path]) -> list[pipeline.ManifestRow]:
    return [pipeline.ManifestRow(f"row-{index}", BW_DOMAIN_PATH, path, None, None, "m", "p")
            for index, path in enumerate(problem_paths)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(problems=st.lists(st.integers(0, 5), max_size=40), jobs=st.integers(2, 5))
def test_problem_tasks_cover_each_row_once_largest_first(tmp_path, problems, jobs):
    # Problem files of 0 to 4 lines; file 5 does not exist.
    paths = [tmp_path / f"problem-{index}.pddl" for index in range(6)]
    for index, path in enumerate(paths[:5]):
        path.write_text("(x)\n" * index)
    rows = _rows([paths[problem] for problem in problems])
    tasks = pipeline._problem_tasks(rows, jobs)
    assert sorted(index for task in tasks for index in task) == list(range(len(rows)))
    size = max(1, len(rows) // (2 * jobs))
    for problem in set(problems):
        members = [index for index, other in enumerate(problems) if other == problem]
        chunks = [task for task in tasks if problems[task[0]] == problem]
        # One task per group unless split, into consecutive chunks of *size*.
        assert chunks == [members[start:start + size]
                          for start in range(0, len(members), size)]
    weights = [len(task) * (paths[problems[task[0]]].stat().st_size
                            if problems[task[0]] < 5 else 0) for task in tasks]
    assert weights == sorted(weights, reverse=True)


@pytest.mark.parametrize("rows, jobs", [(1, 2), (3, 2), (4, 2), (5, 2), (7, 3),
                                        (77, 2), (77, 3)])
def test_one_problem_manifest_gives_every_worker_tasks(rows, jobs):
    tasks = pipeline._problem_tasks(_rows([BW_PROBLEM_PATH] * rows), jobs)
    assert len(tasks) >= min(rows, 2 * jobs)


def test_parallel_batch_solves_each_problem_once(tmp_path, monkeypatch, bw_domain):
    # Four problems of three rows each, interleaved in the manifest; with
    # twelve rows and two jobs no group is split.  Each call appends to a
    # file, which the forked workers share with this process.
    monkeypatch.setattr(pipeline, "_GT_CACHE", {})
    log = tmp_path / "solved.log"
    solve = pipeline.solve_optimal

    def logging_solve(problem, *args, **kwargs):
        with log.open("a") as handle:
            handle.write(problem.name + "\n")
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(pipeline, "solve_optimal", logging_solve)
    names = [f"bw-{i}" for i in range(4)]
    goals = [[["b", "a"]], [["a", "b"]], [["c", "b", "a"]], [["a", "c"], ["b"]]]
    for name, goal in zip(names, goals):
        (tmp_path / f"{name}.pddl").write_text(problem_to_pddl(
            make_bw_problem(bw_domain, [["a"], ["b"], ["c"]], goal, name=name), bw_domain))
    (tmp_path / "gt.plan").write_text(INSTANCE_10_GT)
    manifest = write_manifest(tmp_path, [
        manifest_row(f"{name}-{kind}", BW_DOMAIN_PATH, f"{name}.pddl", plan)
        for kind, plan in (("missing", ""), ("other", "gt.plan"), ("again", ""))
        for name in names])
    result = evaluate_batch(manifest, jobs=2, out_jsonl=tmp_path / "parallel.jsonl")
    assert not result.had_errors
    assert sorted(log.read_text().split()) == names
    evaluate_batch(manifest, out_jsonl=tmp_path / "serial.jsonl")
    assert ((tmp_path / "parallel.jsonl").read_bytes()
            == (tmp_path / "serial.jsonl").read_bytes())


def test_batch_flags_broken_rows_but_flushes(tmp_path):
    (tmp_path / "broken.pddl").write_text("(define (domain broken)")
    (tmp_path / "good.plan").write_text(INSTANCE_10_GT)
    manifest = write_manifest(tmp_path, [
        {"instance_id": "bad", "domain_path": "broken.pddl",
         "problem_path": str(BW_PROBLEM_PATH), "plan_path": "good.plan",
         "gt_plan_path": "", "model": "m", "prompt_type": "p"},
        {"instance_id": "good", "domain_path": str(BW_DOMAIN_PATH),
         "problem_path": str(BW_PROBLEM_PATH), "plan_path": "good.plan",
         "gt_plan_path": "", "model": "m", "prompt_type": "p"},
    ])
    result = evaluate_batch(manifest, out_jsonl=tmp_path / "out.jsonl",
                            out_csv=tmp_path / "out.csv")
    assert result.had_errors
    assert result.failed_rows == ["bad"]
    records = read_jsonl(tmp_path / "out.jsonl")
    assert "error" in records[0] and records[0]["error"]["stage"] == "load"
    assert result.report_rows[0]["instances"] == 1  # only the good row aggregates


def test_batch_records_invalid_gt_file(tmp_path):
    (tmp_path / "bad-gt.plan").write_text("(pick-up a)\n")
    (tmp_path / "good.plan").write_text(INSTANCE_10_GT)
    manifest = write_manifest(tmp_path, [
        {"instance_id": "bad-gt", "domain_path": str(BW_DOMAIN_PATH),
         "problem_path": str(BW_PROBLEM_PATH), "plan_path": "good.plan",
         "gt_plan_path": "bad-gt.plan", "model": "m", "prompt_type": "p"},
    ])
    result = evaluate_batch(manifest)
    assert result.failed_rows == ["bad-gt"]
    assert result.records[0]["error"]["stage"] == "check-gt"


def test_batch_survives_undecodable_plan(tmp_path):
    (tmp_path / "bad.plan").write_bytes(b"(pick-up a)\xff\n")
    (tmp_path / "good.plan").write_text(INSTANCE_10_GT)
    manifest = write_manifest(tmp_path, [
        {"instance_id": "bad", "domain_path": str(BW_DOMAIN_PATH),
         "problem_path": str(BW_PROBLEM_PATH), "plan_path": "bad.plan",
         "gt_plan_path": "", "model": "m", "prompt_type": "p"},
        {"instance_id": "good", "domain_path": str(BW_DOMAIN_PATH),
         "problem_path": str(BW_PROBLEM_PATH), "plan_path": "good.plan",
         "gt_plan_path": "", "model": "m", "prompt_type": "p"},
    ])
    code = cli_main(["batch", str(manifest), "--out", str(tmp_path / "results")])
    assert code == 2
    records = read_jsonl(tmp_path / "results.jsonl")
    assert [r["instance_id"] for r in records] == ["bad", "good"]
    assert records[0]["error"]["stage"] == "load"
    assert "error" not in records[1] and records[1]["pi0"]["valid"] is True


def test_byte_order_mark_is_ignored(tmp_path):
    """Files saved with a UTF-8 byte-order mark (Excel's "CSV UTF-8") read as
    if it were absent, in a batch and in ``planeval eval``."""
    files = {"domain.pddl": BW_DOMAIN_PATH.read_text(),
             "problem.pddl": BW_PROBLEM_PATH.read_text(),
             "candidate.plan": INSTANCE_10_CANDIDATE, "gt.plan": INSTANCE_10_GT}
    records = {}
    for mark in ("", "\ufeff"):
        folder = tmp_path / f"bom-{bool(mark)}"
        folder.mkdir()
        for name, text in files.items():
            (folder / name).write_text(mark + text, encoding="utf-8")
        rows = [manifest_row("solved", "domain.pddl", "problem.pddl", "candidate.plan"),
                manifest_row("gt-file", "domain.pddl", "problem.pddl", "candidate.plan",
                             "gt.plan")]
        manifest = write_manifest(folder, rows)
        manifest.write_text(mark + manifest.read_text(), encoding="utf-8")
        result = evaluate_batch(manifest)
        assert not result.had_errors
        records[mark] = result.records
        out = folder / "record.json"
        assert cli_main(["eval", "--domain", str(folder / "domain.pddl"),
                         "--problem", str(folder / "problem.pddl"),
                         "--plan", str(folder / "candidate.plan"),
                         "--gt-plan", str(folder / "gt.plan"), "--out", str(out),
                         "--instance-id", "gt-file", "--model", "m",
                         "--prompt-type", "p"]) == 0
        assert json.loads(out.read_text()) == result.records[1]
    assert records["\ufeff"] == records[""]


# ---------------------------------------------------------------------------
# Ground-truth cache
# ---------------------------------------------------------------------------


def counted(monkeypatch, name: str) -> list[tuple]:
    """Replace ``pipeline.<name>`` by a wrapper that records its arguments."""
    calls: list[tuple] = []
    original = getattr(pipeline, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counting)
    return calls


def solved_gt_manifest(tmp_path: Path) -> tuple[Path, Path]:
    """A one-row manifest without a GT file, over a copy of instance-10."""
    problem = tmp_path / "problem.pddl"
    problem.write_text(BW_PROBLEM_PATH.read_text())
    (tmp_path / "good.plan").write_text(INSTANCE_10_GT)
    manifest = write_manifest(tmp_path, [
        {"instance_id": "row", "domain_path": str(BW_DOMAIN_PATH),
         "problem_path": "problem.pddl", "plan_path": "good.plan",
         "gt_plan_path": "", "model": "m", "prompt_type": "p"},
    ])
    return manifest, problem


def test_gt_cache_sees_rewritten_problem(tmp_path):
    manifest, problem = solved_gt_manifest(tmp_path)
    assert evaluate_batch(manifest).records[0]["gt_length"] == 6
    problem.write_text(problem.read_text().replace(
        "(:goal (and (on a c) (on c b)))", "(:goal (on c b))"))
    assert evaluate_batch(manifest).records[0]["gt_length"] == 4
    # The parse cache keys on the file texts, so the edited file was parsed.
    _, model = pipeline._PARSE_CACHE[BW_DOMAIN_PATH.read_text(), problem.read_text()]
    assert model.goal == {("on", "c", "b")}


def test_gt_cache_keys_on_external_planner(tmp_path):
    manifest, _ = solved_gt_manifest(tmp_path)
    assert evaluate_batch(manifest).records[0]["gt_length"] == 6
    script = tmp_path / "detour_planner.py"
    script.write_text(
        "import sys\n"
        "domain, problem, out = sys.argv[1:4]\n"
        f"gt = {INSTANCE_10_GT!r}\n"
        "open(out, 'w').write('(pick-up a)\\n(put-down a)\\n' + gt)\n"
    )
    config = PipelineConfig(external_planner=f"python3 {script}")
    record = evaluate_batch(manifest, config=config).records[0]
    assert record["gt_length"] == 8


def fake_planner(tmp_path: Path, plan: bytes) -> PipelineConfig:
    """A config whose external planner writes *plan* as its plan file and,
    like a planner speaking another encoding, a non-UTF-8 byte on stdout."""
    script = tmp_path / "fake_planner.py"
    script.write_text(
        "import sys\n"
        f"open(sys.argv[3], 'wb').write({plan!r})\n"
        "sys.stdout.buffer.write(b'\\xff\\n')\n"
    )
    return PipelineConfig(external_planner=f"python3 {script}")


def test_undecodable_planner_output_is_one_solve_gt_error_per_row(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_GT_CACHE", {})
    (tmp_path / "candidate.plan").write_text(INSTANCE_10_CANDIDATE)
    (tmp_path / "gt.plan").write_text(INSTANCE_10_GT)
    manifest = write_manifest(tmp_path, [
        manifest_row(name, BW_DOMAIN_PATH, BW_PROBLEM_PATH, "candidate.plan")
        for name in ("first", "second")
    ] + [manifest_row("gt-file", BW_DOMAIN_PATH, BW_PROBLEM_PATH, "candidate.plan",
                      "gt.plan")])
    result = evaluate_batch(manifest, config=fake_planner(tmp_path, b"(pick-up a)\xff\n"))
    assert result.failed_rows == ["first", "second"]
    first, second, gt_file = result.records
    assert first["error"] == second["error"] == {
        "stage": "solve-gt",
        "message": "external planner output is not UTF-8: 'utf-8' codec can't decode "
                   "byte 0xff in position 11: invalid start byte"}
    assert gt_file["pi4"]["valid"] is True


def test_planner_output_with_byte_order_mark_gives_the_gt_file_record(
        tmp_path, monkeypatch, bw_domain, bw_problem):
    monkeypatch.setattr(pipeline, "_GT_CACHE", {})
    config = fake_planner(tmp_path, ("\ufeff" + INSTANCE_10_GT).encode("utf-8"))
    assert (evaluate_instance(bw_domain, bw_problem, INSTANCE_10_CANDIDATE, config=config)
            == evaluate_instance(bw_domain, bw_problem, INSTANCE_10_CANDIDATE,
                                 gt_plan_text=INSTANCE_10_GT))


def test_gt_cache_is_shared_by_evaluate_instance(monkeypatch, bw_domain, bw_problem):
    monkeypatch.setattr(pipeline, "_GT_CACHE", {})
    calls = counted(monkeypatch, "solve_optimal")
    first = evaluate_instance(bw_domain, bw_problem, INSTANCE_10_CANDIDATE)
    # The same files parsed again give other, equal models: the key is their value.
    domain = parse_domain(BW_DOMAIN_PATH.read_text())
    problem = parse_problem(BW_PROBLEM_PATH.read_text(), domain)
    assert (domain, problem) == (bw_domain, bw_problem) and problem is not bw_problem
    second = evaluate_instance(domain, problem, INSTANCE_10_CANDIDATE)
    assert first == second
    assert len(calls) == 1


def test_gt_cache_outlives_parse_cache_eviction(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_PARSE_CACHE", {})
    monkeypatch.setattr(pipeline, "_PARSE_CACHE_SIZE", 1)
    monkeypatch.setattr(pipeline, "_GT_CACHE", {})
    calls = counted(monkeypatch, "solve_optimal")
    (tmp_path / "b.pddl").write_text(BW_PROBLEM_PATH.read_text().replace(
        "(:goal (and (on a c) (on c b)))", "(:goal (on c b))"))
    result = evaluate_batch(write_manifest(tmp_path, [
        manifest_row("a", BW_DOMAIN_PATH, BW_PROBLEM_PATH),
        manifest_row("b", BW_DOMAIN_PATH, "b.pddl"),
        manifest_row("a-again", BW_DOMAIN_PATH, BW_PROBLEM_PATH),
    ]))
    assert [r["gt_length"] for r in result.records] == [6, 4, 6]
    assert len(calls) == 2


def test_gt_cache_evicts_oldest(monkeypatch, bw_domain):
    monkeypatch.setattr(pipeline, "_GT_CACHE", {})
    monkeypatch.setattr(pipeline, "_GT_CACHE_SIZE", 2)
    problems = [make_bw_problem(bw_domain, [["a", "b"]], [["b", "a"]], name=f"bw-{i}")
                for i in range(3)]
    for problem in problems:
        evaluate_instance(bw_domain, problem, None)
    assert [key[1] for key in pipeline._GT_CACHE] == problems[1:]


# ---------------------------------------------------------------------------
# Parse cache
# ---------------------------------------------------------------------------

LOG_DOMAIN_PATH = FIXTURES / "logistics" / "domain.pddl"
LOG_PROBLEM_PATH = FIXTURES / "logistics" / "log-01.pddl"
BROKEN_PDDL = "(define (domain broken)"


def manifest_row(instance_id: str, domain_path, problem_path, plan_path: str = "",
                 gt_plan_path: str = "") -> dict:
    return {"instance_id": instance_id, "domain_path": str(domain_path),
            "problem_path": str(problem_path), "plan_path": plan_path,
            "gt_plan_path": gt_plan_path, "model": "m", "prompt_type": "p"}


def shared_files_manifest(tmp_path: Path) -> Path:
    """Rows that share domain and problem files: Blocksworld candidates with
    solved and file GTs, missing plans, a Logistics plan that needs a shift,
    and a row whose domain does not parse."""
    (tmp_path / "candidate.plan").write_text(INSTANCE_10_CANDIDATE)
    (tmp_path / "gt.plan").write_text(INSTANCE_10_GT)
    (tmp_path / "log.plan").write_text(
        "(drive-truck t1 l1 l2 c1)\n(load-truck p1 t1 l1)\n(unload-truck p1 t1 l2)\n")
    (tmp_path / "broken.pddl").write_text(BROKEN_PDDL)
    return write_manifest(tmp_path, [
        manifest_row("bw-candidate", BW_DOMAIN_PATH, BW_PROBLEM_PATH, "candidate.plan"),
        manifest_row("bw-gt-file", BW_DOMAIN_PATH, BW_PROBLEM_PATH, "candidate.plan",
                     "gt.plan"),
        manifest_row("bw-valid", BW_DOMAIN_PATH, BW_PROBLEM_PATH, "gt.plan"),
        manifest_row("bw-missing", BW_DOMAIN_PATH, BW_PROBLEM_PATH),
        manifest_row("log-shifted", LOG_DOMAIN_PATH, LOG_PROBLEM_PATH, "log.plan"),
        manifest_row("log-missing", LOG_DOMAIN_PATH, LOG_PROBLEM_PATH),
        manifest_row("broken", "broken.pddl", BW_PROBLEM_PATH, "candidate.plan"),
    ])


def test_batch_parses_each_distinct_text_once(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_PARSE_CACHE", {})
    domains = counted(monkeypatch, "parse_domain")
    problems = counted(monkeypatch, "parse_problem")
    bw_text = BW_PROBLEM_PATH.read_text()
    other_text = bw_text.replace("(:goal (and (on a c) (on c b)))", "(:goal (on c b))")
    (tmp_path / "copy.pddl").write_text(bw_text)  # same text at another path
    (tmp_path / "other.pddl").write_text(other_text)
    manifest = write_manifest(tmp_path, [
        manifest_row("a", BW_DOMAIN_PATH, BW_PROBLEM_PATH),
        manifest_row("b", LOG_DOMAIN_PATH, LOG_PROBLEM_PATH),
        manifest_row("c", BW_DOMAIN_PATH, "copy.pddl"),
        manifest_row("d", BW_DOMAIN_PATH, "other.pddl"),
        manifest_row("e", BW_DOMAIN_PATH, BW_PROBLEM_PATH),
        manifest_row("f", LOG_DOMAIN_PATH, LOG_PROBLEM_PATH),
    ])
    result = evaluate_batch(manifest)
    assert not result.had_errors
    assert [r["gt_length"] for r in result.records] == [6, 3, 6, 4, 6, 3]
    assert [args[0] for args in domains] == [BW_DOMAIN_PATH.read_text(),
                                             LOG_DOMAIN_PATH.read_text()]
    assert [args[0] for args in problems] == [bw_text, LOG_PROBLEM_PATH.read_text(),
                                              other_text]
    cached = pipeline._PARSE_CACHE
    assert cached[BW_DOMAIN_PATH.read_text(), other_text][0] is cached[
        BW_DOMAIN_PATH.read_text(), bw_text][0]


@pytest.mark.parametrize("broken", ["domain", "problem"])
def test_unparsable_text_is_never_cached(tmp_path, monkeypatch, broken):
    monkeypatch.setattr(pipeline, "_PARSE_CACHE", {})
    domains = counted(monkeypatch, "parse_domain")
    (tmp_path / "broken.pddl").write_text(BROKEN_PDDL)
    paths = {"domain": BW_DOMAIN_PATH, "problem": BW_PROBLEM_PATH, broken: "broken.pddl"}
    row = manifest_row("bad", paths["domain"], paths["problem"])
    result = evaluate_batch(write_manifest(tmp_path, [row] * 3))
    assert result.failed_rows == ["bad"] * 3
    assert result.records[0]["error"]["stage"] == "load"
    assert result.records == [result.records[0]] * 3
    assert len(domains) == 3  # parsed afresh on every row
    assert pipeline._PARSE_CACHE == {}


def test_parse_cache_evicts_oldest(tmp_path, monkeypatch, bw_domain):
    monkeypatch.setattr(pipeline, "_PARSE_CACHE", {})
    monkeypatch.setattr(pipeline, "_PARSE_CACHE_SIZE", 2)
    texts = [problem_to_pddl(make_bw_problem(bw_domain, [["a", "b"]], [["b", "a"]],
                                             name=f"bw-{i}"), bw_domain)
             for i in range(3)]
    for i, text in enumerate(texts):
        (tmp_path / f"bw-{i}.pddl").write_text(text)
    evaluate_batch(write_manifest(tmp_path, [
        manifest_row(f"bw-{i}", BW_DOMAIN_PATH, f"bw-{i}.pddl") for i in range(3)]))
    assert [key[1] for key in pipeline._PARSE_CACHE] == texts[1:]


def test_rows_leave_cached_models_unchanged(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_PARSE_CACHE", {})
    evaluate_batch(shared_files_manifest(tmp_path))
    assert len(pipeline._PARSE_CACHE) == 2
    for (domain_text, problem_text), models in pipeline._PARSE_CACHE.items():
        domain = parse_domain(domain_text)
        fresh = (domain, parse_problem(problem_text, domain))
        # Equal models with equal hashes: the ground-truth cache key is unchanged too.
        assert models == fresh and hash(models) == hash(fresh)


@pytest.mark.parametrize("jobs", [1, 2])
def test_warm_caches_give_byte_identical_records(tmp_path, monkeypatch, jobs):
    manifest = shared_files_manifest(tmp_path)
    monkeypatch.setattr(pipeline, "_PARSE_CACHE", {})
    monkeypatch.setattr(pipeline, "_GT_CACHE", {})
    evaluate_batch(manifest, jobs=jobs, out_jsonl=tmp_path / "cold.jsonl")
    # Fill this process's caches; forked batch workers start with a copy.
    evaluate_batch(manifest)
    domains = counted(monkeypatch, "parse_domain")
    solves = counted(monkeypatch, "solve_optimal")
    evaluate_batch(manifest, jobs=jobs, out_jsonl=tmp_path / "warm.jsonl")
    assert (tmp_path / "warm.jsonl").read_bytes() == (tmp_path / "cold.jsonl").read_bytes()
    if jobs == 1:
        assert [args[0] for args in domains] == [BROKEN_PDDL]
        assert solves == []


def test_manifest_missing_column(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("instance_id,domain_path\nx,y\n")
    with pytest.raises(ManifestError):
        evaluate_batch(path)


def test_manifest_empty_required_field(tmp_path):
    manifest = write_manifest(tmp_path, [
        {"instance_id": "x", "domain_path": "", "problem_path": "p",
         "plan_path": "q", "gt_plan_path": "", "model": "m", "prompt_type": "t"},
    ])
    with pytest.raises(ManifestError):
        evaluate_batch(manifest)


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_defaults():
    config = load_config(None)
    assert config.c_shift == 1 and config.c_map == 1
    assert config.budget == 100_000
    assert config.validity_reward == 1


def test_config_file_overrides(tmp_path):
    path = tmp_path / "planeval.cfg"
    path.write_text(
        "transform.c_shift = 0.5\n"
        "transform.c_map = 2\n"
        "transform.budget = 1000  # comment\n"
        "scoring.validity_reward = 0.25\n"
        "similarity.provider = char_lcs\n"
        "similarity.floor = 0.6\n"
        "planner.timeout = 2.5\n"
    )
    config = load_config(path)
    assert config.c_shift == Fraction(1, 2)
    assert config.c_map == 2
    assert config.budget == 1000
    assert config.validity_reward == Fraction(1, 4)
    assert config.similarity == CharLcsSimilarity(Fraction(3, 5))
    assert config.planner_timeout == 2.5
    assert config.similarity("unstack", "stack") == Fraction(10, 12)


@pytest.mark.parametrize("lines", [
    ["similarity.floor = 0.6", "similarity.provider = char_lcs"],
    ["similarity.provider = char_lcs", "similarity.floor = 0.6"],
], ids=["floor-first", "provider-first"])
def test_config_similarity_keys_in_any_order(tmp_path, lines):
    path = tmp_path / "planeval.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert load_config(path) == PipelineConfig(similarity=CharLcsSimilarity(Fraction(3, 5)))


def test_config_unknown_similarity_provider_names_the_line(tmp_path):
    path = tmp_path / "planeval.cfg"
    path.write_text("transform.budget = 7\nsimilarity.provider = fuzzy\n")
    with pytest.raises(ConfigError, match=re.escape(
            "config line 2: unknown similarity.provider 'fuzzy'")):
        load_config(path)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_config_rejects_a_timeout_that_is_not_finite_and_positive(tmp_path, value):
    # NaN or infinity would switch the planner's wall-clock bound off.
    path = tmp_path / "planeval.cfg"
    path.write_text(f"transform.budget = 7\nplanner.timeout = {value}\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"config line 2: 'planner.timeout' must be finite and > 0, got {value}")):
        load_config(path)
    path.write_text("planner.timeout = 1e-3\n")
    assert load_config(path).planner_timeout == 0.001


def test_readme_config_example_loads(tmp_path):
    # The README's example sets every key; a renamed or dropped key fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```ini\n(.*?)```", readme.split("## Configuration", 1)[1],
                        re.S).group(1)
    assert {line.split("=")[0].strip() for line in example.splitlines()} == set(_KEY_MAP)
    table = tmp_path / "syn.txt"
    table.write_text("pick-up lift 0.9\n")
    path = tmp_path / "planeval.cfg"
    path.write_text(re.sub(r"(?m)^(similarity\.synonyms\s*=\s*)\S+",
                           lambda m: m.group(1) + str(table), example))
    assert load_config(path) == PipelineConfig(
        c_shift=Fraction(1), c_map=Fraction(1), budget=100_000, validity_reward=Fraction(1),
        similarity=SynonymTable({("pick-up", "lift"): Fraction(9, 10)}),
        planner_timeout=10.0, external_planner="...")


def test_config_hash_inside_value_is_kept(tmp_path):
    path = tmp_path / "planeval.cfg"
    path.write_text(
        "# full-line comment\n"
        "planner.external_cmd = run --tag=a#b   # trailing comment\n"
        "transform.budget = 7\t# comment after a tab\n"
    )
    config = load_config(path)
    assert config.external_planner == "run --tag=a#b"
    assert config.budget == 7


def test_config_with_byte_order_mark_loads_the_plain_values(tmp_path):
    text = "planner.timeout = 2.5\ntransform.budget = 7\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert load_config(marked) == load_config(plain) != PipelineConfig()


def test_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("transform.unknown = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_the_removed_prune_threshold(tmp_path):
    # The search is exact at every object count; the old limit is no key.
    path = tmp_path / "old.cfg"
    path.write_text("transform.budget = 7\ntransform.prune_threshold = 6\n")
    with pytest.raises(ConfigError, match=re.escape(
            "config line 2: unknown key 'transform.prune_threshold'")):
        load_config(path)


def test_config_key_map_covers_every_field():
    # Every field but the provider is set by exactly one config key; the
    # provider is built from the three similarity.* keys.
    keys_of: dict[str, list[str]] = {}
    for key, (attr, _) in _KEY_MAP.items():
        keys_of.setdefault(attr, []).append(key)
    assert sorted(keys_of) == sorted(f.name for f in fields(PipelineConfig))
    assert sorted(keys_of.pop("similarity")) == [
        "similarity.floor", "similarity.provider", "similarity.synonyms"]
    assert all(len(keys) == 1 for keys in keys_of.values())


@pytest.mark.parametrize("key", ["transform.c_shift", "transform.c_map"])
def test_config_rejects_negative_costs(tmp_path, key):
    # A negative cost would turn the transformation penalty into a reward.
    path = tmp_path / "bad.cfg"
    path.write_text(f"transform.budget = 7\n{key} = -1/2\n")
    with pytest.raises(ConfigError, match=f"config line 2: '{key}' must be >= 0"):
        load_config(path)
    path.write_text(f"{key} = 0\n")
    assert getattr(load_config(path), key.removeprefix("transform.")) == 0


@pytest.mark.parametrize("costs", [{"c_shift": Fraction(-1)}, {"c_map": Fraction(-1, 2)}],
                         ids=["c_shift", "c_map"])
def test_negative_cost_in_code_is_a_transform_error_record(tmp_path, bw_domain, bw_problem,
                                                           costs):
    config = PipelineConfig(**costs)
    with pytest.raises(InstanceError) as excinfo:
        evaluate_instance(bw_domain, bw_problem, INSTANCE_10_CANDIDATE,
                          gt_plan_text=INSTANCE_10_GT, config=config)
    assert excinfo.value.stage == "transform"
    assert isinstance(excinfo.value.cause, ConfigError)
    result = evaluate_batch(two_instance_manifest(tmp_path), config=config)
    assert result.failed_rows == ["good", "missing"]
    assert all(r["error"]["stage"] == "transform" for r in result.records)


def test_config_synonyms_provider(tmp_path):
    synonyms = tmp_path / "syn.txt"
    synonyms.write_text("pick-up lift 0.9\n")
    path = tmp_path / "planeval.cfg"
    path.write_text(f"similarity.synonyms = {synonyms}\n")
    provider = load_config(path).similarity
    assert provider("lift", "pick-up") == Fraction(9, 10)
    assert provider("unstack", "stack") == 0
    # char_lcs ignores the table.
    path.write_text(f"similarity.synonyms = {synonyms}\nsimilarity.provider = char_lcs\n")
    assert load_config(path).similarity == CharLcsSimilarity()


def _synonym_config(tmp_path, monkeypatch) -> tuple[PipelineConfig, list]:
    """A config loaded from a file naming a synonym table, and the list of
    paths that ``SynonymTable.load`` reads from then on."""
    synonyms = tmp_path / "syn.txt"
    synonyms.write_text("pick-up lift 0.9\n")
    path = tmp_path / "planeval.cfg"
    path.write_text(f"similarity.synonyms = {synonyms}\n")
    loads: list = []
    original = SynonymTable.load.__func__
    monkeypatch.setattr(SynonymTable, "load",
                        classmethod(lambda cls, path: loads.append(path) or original(cls, path)))
    config = load_config(path)
    assert loads == [str(synonyms)]
    loads.clear()
    return config, loads


def test_batch_loads_synonym_table_once(tmp_path, monkeypatch):
    # load_config reads the table; no row reads it again.
    config, loads = _synonym_config(tmp_path, monkeypatch)
    result = evaluate_batch(two_instance_manifest(tmp_path), config=config)
    assert not result.had_errors
    assert loads == []


def test_evaluate_instance_never_loads_synonym_table(tmp_path, monkeypatch,
                                                     bw_domain, bw_problem):
    config, loads = _synonym_config(tmp_path, monkeypatch)
    for _ in range(2):
        evaluate_instance(bw_domain, bw_problem, INSTANCE_10_CANDIDATE,
                          gt_plan_text=INSTANCE_10_GT, config=config)
    assert loads == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_solve(tmp_path, capsys):
    code = cli_main(["solve", "--domain", str(BW_DOMAIN_PATH),
                     "--problem", str(BW_PROBLEM_PATH)])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 6


def test_cli_validate(tmp_path, capsys):
    plan_path = tmp_path / "candidate.plan"
    plan_path.write_text(INSTANCE_10_CANDIDATE)
    trace_path = tmp_path / "trace.txt"
    code = cli_main(["validate", "--domain", str(BW_DOMAIN_PATH),
                     "--problem", str(BW_PROBLEM_PATH), "--plan", str(plan_path),
                     "--trace-out", str(trace_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out == ('{"executable": false, "failure": {"action": "(unstack a c)", "index": 1, '
                   '"unmet": ["(on a c)"], "unresolvable": false}, "lea": 0, "length": 8, '
                   '"valid": false}\n')
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["lea"] == 0
    assert payload["failure"]["index"] == 1
    assert trace_path.read_text().count("\n") == 1  # only the initial state


def test_cli_eval(tmp_path):
    plan_path = tmp_path / "candidate.plan"
    plan_path.write_text(INSTANCE_10_CANDIDATE)
    gt_path = tmp_path / "gt.plan"
    gt_path.write_text(INSTANCE_10_GT)
    out_path = tmp_path / "record.json"
    code = cli_main(["eval", "--domain", str(BW_DOMAIN_PATH),
                     "--problem", str(BW_PROBLEM_PATH), "--plan", str(plan_path),
                     "--gt-plan", str(gt_path), "--out", str(out_path),
                     "--instance-id", "10"])
    assert code == 0
    record = json.loads(out_path.read_text())
    assert record["instance_id"] == "10"
    assert record["pi0"]["stv"] == 7


def test_cli_batch_and_report(tmp_path, capsys):
    manifest = two_instance_manifest(tmp_path)
    code = cli_main(["batch", str(manifest), "--out", str(tmp_path / "results")])
    assert code == 0
    assert (tmp_path / "results.jsonl").is_file()
    assert (tmp_path / "results.csv").is_file()
    code = cli_main(["report", str(tmp_path / "results.jsonl"),
                     "--out", str(tmp_path / "report.csv")])
    assert code == 0
    assert (tmp_path / "report.csv").read_bytes() == (tmp_path / "results.csv").read_bytes()


def test_cli_batch_exit_code_on_errors(tmp_path):
    (tmp_path / "broken.pddl").write_text("(define (domain broken)")
    (tmp_path / "p.plan").write_text(INSTANCE_10_GT)
    manifest = write_manifest(tmp_path, [
        {"instance_id": "bad", "domain_path": "broken.pddl",
         "problem_path": str(BW_PROBLEM_PATH), "plan_path": "p.plan",
         "gt_plan_path": "", "model": "m", "prompt_type": "p"},
    ])
    code = cli_main(["batch", str(manifest), "--out", str(tmp_path / "results")])
    assert code == 2


@pytest.mark.parametrize("command, bad", [
    ("eval", "--plan"), ("validate", "--plan"), ("solve", "--domain"),
    ("eval", "--gt-plan"), ("eval", "--config"),
])
def test_cli_undecodable_input_is_an_error_line(tmp_path, capsys, command, bad):
    undecodable = tmp_path / "undecodable.txt"
    undecodable.write_bytes(b"(pick-up a)\xff\n")
    candidate = tmp_path / "candidate.plan"
    candidate.write_text(INSTANCE_10_CANDIDATE)
    paths = {"--domain": str(BW_DOMAIN_PATH), "--problem": str(BW_PROBLEM_PATH)}
    if command != "solve":
        paths["--plan"] = str(candidate)
    paths[bad] = str(undecodable)
    argv = [command] + [part for item in paths.items() for part in item]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # The message names the flag (for --config: the config file) and the path.
    name = {"--config": "config file"}.get(bad, bad)
    assert f"{name} {undecodable} is not UTF-8" in err


@pytest.mark.parametrize("command", ["batch", "report", "synonyms"])
def test_cli_undecodable_file_is_named(tmp_path, capsys, command):
    undecodable = tmp_path / "undecodable.txt"
    undecodable.write_bytes(b"(pick-up a)\xff\n")
    if command == "synonyms":
        config = tmp_path / "planeval.cfg"
        config.write_text(f"similarity.synonyms = {undecodable}\n")
        argv = ["eval", "--domain", str(BW_DOMAIN_PATH), "--problem", str(BW_PROBLEM_PATH),
                "--plan", str(tmp_path / "absent.plan"), "--config", str(config)]
    else:
        argv = [command, str(undecodable), "--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    assert f"{undecodable} is not UTF-8" in capsys.readouterr().err


def test_cli_unsolvable_exit_code(tmp_path):
    problem = tmp_path / "impossible.pddl"
    problem.write_text(
        "(define (problem impossible) (:domain blocksworld-4ops)\n"
        "  (:objects a b c)\n"
        "  (:init (handempty) (clear a) (ontable a) (clear b) (ontable b)"
        " (clear c) (ontable c))\n"
        "  (:goal (and (on a b) (on b a))))\n"
    )
    code = cli_main(["solve", "--domain", str(BW_DOMAIN_PATH),
                     "--problem", str(problem)])
    assert code == 1


def test_cli_batch_bad_synonym_table_fails_before_any_row(tmp_path, capsys):
    synonyms = tmp_path / "syn.txt"
    synonyms.write_text("pick-up lift\n")
    config = tmp_path / "planeval.cfg"
    config.write_text(f"similarity.synonyms = {synonyms}\n")
    (tmp_path / "good.plan").write_text(INSTANCE_10_GT)
    manifest = write_manifest(tmp_path, [
        {"instance_id": "good", "domain_path": str(BW_DOMAIN_PATH),
         "problem_path": str(BW_PROBLEM_PATH), "plan_path": "good.plan",
         "gt_plan_path": "", "model": "m", "prompt_type": "p"},
    ])
    code = cli_main(["batch", str(manifest), "--out", str(tmp_path / "results"),
                     "--config", str(config)])
    assert code == 1
    assert (f"error: synonym table {synonyms} line 1: expected 'name1 name2 score'"
            in capsys.readouterr().err)
    assert not (tmp_path / "results.jsonl").exists()


@pytest.mark.parametrize("line, message", [
    ('{"a": 1}', "record 1 has no field 'model'"),
    ("[1, 2]", "line 1 is not a JSON object"),
], ids=["not-a-record", "not-an-object"])
def test_cli_report_line_that_is_no_record_is_an_error_line(tmp_path, capsys, line, message):
    records = tmp_path / "records.jsonl"
    records.write_text(line + "\n")
    code = cli_main(["report", str(records), "--out", str(tmp_path / "report.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "report.csv").exists()


def test_aggregate_names_the_record_and_the_missing_field():
    record = {"model": "m", "prompt_type": "p", "domain": "d", "pi0": {"valid": True}}
    with pytest.raises(PlanEvalError, match=re.escape(
            "record 2 has no field 'pi0.normalized_score'")):
        aggregate([{"error": {"stage": "load"}}, record])


def test_cli_report_non_json_line_is_an_error_line(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    records.write_text('{"a": 1}\nnot json\n')
    code = cli_main(["report", str(records), "--out", str(tmp_path / "report.csv")])
    assert code == 1
    assert f"error: {records} line 2 is not JSON: " in capsys.readouterr().err
