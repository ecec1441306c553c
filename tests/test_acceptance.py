"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import csv
import hashlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from planeval import (
    PipelineConfig,
    circular_shift,
    evaluate_batch,
    evaluate_instance,
    find_best_variant,
    is_valid,
    lcs_analyze,
    pair_actions,
    plan_score,
    potential,
    remap_params,
    simulate,
    solve_optimal,
)
from planeval.pddl import GroundAction, Plan, plan_to_text
from planeval.pipeline import aggregate, read_jsonl, write_report_csv
from planeval.planner import ground_all_actions
from planeval.recovery import steps_to_validity
from planeval.similarity import QualityLabel, non_positional_aqm

from conftest import (FIXTURES, INSTANCE_10_CANDIDATE, INSTANCE_10_GT, hash_seed_env,
                      make_bw_problem)
from oracles import (
    bfs_optimal_cost,
    brute_force_subsequence_length,
    brute_force_substring_length,
    bw_table_problem,
    config_atoms,
    rank_variants_oracle,
    tower_configs,
)

BW_DOMAIN_PATH = FIXTURES / "blocksworld" / "domain.pddl"
BW_PROBLEM_PATH = FIXTURES / "blocksworld" / "instance-10.pddl"


def _report(number: int, elapsed: float, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {message}")


# ---------------------------------------------------------------------------
# Criterion 1: running-example golden chain
# ---------------------------------------------------------------------------


def test_criterion_1_golden_chain(bw_domain, bw_problem, pi0_plan, gt_plan):
    start = time.monotonic()

    pairing = pair_actions(pi0_plan, gt_plan)
    assert pairing.per_action_scores == (
        Fraction(5, 4), Fraction(1), Fraction(1), Fraction(5, 4),
        Fraction(1, 5), Fraction(0), Fraction(1), Fraction(0),
    )
    assert sum(pairing.per_action_scores) == Fraction(57, 10)

    assert tuple(map(str, pairing.labels)) == ("same_act", "same_act", "correct", "same_act",
                                               "diff_act", "redundant", "same_act", "redundant")
    np_aqm = non_positional_aqm(pi0_plan, gt_plan, pairing.labels)
    assert tuple(map(str, np_aqm)) == ("same_act", "same_act", "correct", "same_act",
                                       "diff_act", "same_act", "same_act", "same_act")

    breakdown = plan_score(pi0_plan, gt_plan, pairing, lcs_analyze(pi0_plan, gt_plan),
                           is_valid(pi0_plan, bw_problem))
    with_pair_bonus = breakdown.base + breakdown.similarity_sum + breakdown.pair_bonus
    assert with_pair_bonus == Fraction(81, 5)  # 16.2
    with_lcs = with_pair_bonus + breakdown.substring_bonus + breakdown.subsequence_bonus
    assert with_lcs == Fraction(96, 5)  # 19.2
    assert breakdown.total == Fraction(278, 15)
    assert abs(float(breakdown.total) - 18.5333333333) < 1e-9

    assert simulate(pi0_plan, bw_problem).lea == 0

    steps0 = steps_to_validity(pi0_plan, pairing, gt_plan, bw_problem)
    assert len(steps0) == 7

    variant = find_best_variant(pi0_plan, gt_plan, bw_problem, bw_domain)
    assert variant.transformation.shift == 0
    assert dict(variant.transformation.mapping) == {"a": "b", "b": "a", "c": "c"}

    steps1 = steps_to_validity(variant.plan, pair_actions(variant.plan, gt_plan), gt_plan,
                               bw_problem)
    assert len(steps1) == 2

    record = evaluate_instance(bw_domain, bw_problem, INSTANCE_10_CANDIDATE,
                               gt_plan_text=INSTANCE_10_GT, instance_id="10")
    assert record["pi3"]["valid"] is True
    assert record["comp_length"] == 6.0

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, elapsed, "running-example golden chain reproduced with exact rationals")


# ---------------------------------------------------------------------------
# Criterion 2: potential score
# ---------------------------------------------------------------------------


def test_criterion_2_potential():
    start = time.monotonic()
    result = potential(Fraction(278, 15), Fraction(77, 3), 8, False)
    assert abs(float(result) - 2.7625) < 1e-9
    # The mean formula gives exactly 2.7625, within 0.01 of 2.766...
    assert abs(float(result) - (2 + Fraction(23, 30))) < 0.01
    _report(2, time.monotonic() - start, "potential 2.7625 within 0.01 of 2.766...")


# ---------------------------------------------------------------------------
# Criterion 3: planner optimality vs breadth-first oracle
# ---------------------------------------------------------------------------


def test_criterion_3_planner_optimality(bw_domain, logistics_domain, logistics_problems):
    start = time.monotonic()
    checked = 0
    for n in (2, 3, 4, 5):
        blocks = tuple(f"b{i}" for i in range(1, n + 1))
        base = bw_table_problem(bw_domain, blocks, frozenset())
        actions = ground_all_actions(bw_domain, base)
        from oracles import bfs_distances
        dist = bfs_distances(base.init, actions)
        for cfg in sorted(tower_configs(blocks)):
            goal = config_atoms(cfg)
            problem = bw_table_problem(bw_domain, blocks, goal)
            plan = solve_optimal(problem, bw_domain)
            assert len(plan) == dist[goal], f"suboptimal on {cfg}"
            assert is_valid(plan, problem)
            checked += 1
    for name, problem in logistics_problems.items():
        plan = solve_optimal(problem, logistics_domain)
        assert len(plan) == bfs_optimal_cost(problem, logistics_domain), name
        assert is_valid(plan, problem)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(3, elapsed, f"optimal cost equals BFS oracle on {checked} instances")


# ---------------------------------------------------------------------------
# Criterion 4: recovery success rate on a mixed-quality batch
# ---------------------------------------------------------------------------

BW_BATCH_SPECS = [
    ("bw-01", [["a"], ["b"], ["c"]], [["a", "b", "c"]]),
    ("bw-02", [["a", "b", "c"]], [["c", "b", "a"]]),
    ("bw-03", [["a", "b"], ["c"]], [["b", "c"], ["a"]]),
    ("bw-04", [["a"], ["b"], ["c"], ["d"]], [["a", "b"], ["c", "d"]]),
    ("bw-05", [["a", "b", "c", "d"]], [["d", "c", "b", "a"]]),
    ("bw-06", [["a", "b"], ["c", "d"]], [["d", "a"], ["b", "c"]]),
    ("bw-07", [["a"], ["b"], ["c"], ["d"], ["e"]], [["a", "b", "c", "d", "e"]]),
    ("bw-08", [["e", "d"], ["c", "b", "a"]], [["a", "b", "c", "d", "e"]]),
    ("bw-09", [["a", "b", "c", "d", "e"]], [["a"], ["b"], ["c"], ["d"], ["e"]]),
]


def _swap_two_plan_objects(gt, domain, problem):
    objs = sorted(gt.objects())
    swap = {objs[0]: objs[1], objs[1]: objs[0]}
    return remap_params(gt, swap, domain, problem)


def _build_batch(tmp_path: Path, bw_domain, logistics_domain, logistics_problems,
                 bw_problem) -> Path:
    from planeval.pddl import problem_to_pddl

    instance_dir = tmp_path / "instances"
    instance_dir.mkdir()
    (instance_dir / "bw-domain.pddl").write_text(BW_DOMAIN_PATH.read_text())
    (instance_dir / "logistics-domain.pddl").write_text(
        (FIXTURES / "logistics" / "domain.pddl").read_text())

    instances = []  # (instance_id, domain_file, problem_file, domain, problem)
    for name, init_towers, goal_towers in BW_BATCH_SPECS:
        problem = make_bw_problem(bw_domain, init_towers, goal_towers, name=name)
        path = instance_dir / f"{name}.pddl"
        path.write_text(problem_to_pddl(problem, bw_domain))
        instances.append((name, "bw-domain.pddl", path.name, bw_domain, problem))
    (instance_dir / "bw-10.pddl").write_text(BW_PROBLEM_PATH.read_text())
    instances.append(("bw-10", "bw-domain.pddl", "bw-10.pddl", bw_domain, bw_problem))
    for name, problem in logistics_problems.items():
        path = instance_dir / f"{name}.pddl"
        path.write_text((FIXTURES / "logistics" / f"{name}.pddl").read_text())
        instances.append((name, "logistics-domain.pddl", path.name,
                          logistics_domain, problem))

    rows = []

    def add_row(instance, kind, plan_text):
        instance_id, domain_file, problem_file, _, _ = instance
        plan_name = f"{instance_id}-{kind}.plan"
        if plan_text is not None:
            (instance_dir / plan_name).write_text(plan_text)
        rows.append({
            "instance_id": f"{instance_id}-{kind}",
            "domain_path": f"instances/{domain_file}",
            "problem_path": f"instances/{problem_file}",
            "plan_path": f"instances/{plan_name}",
            "gt_plan_path": "",
            "model": kind,
            "prompt_type": "synthetic",
        })

    for instance in instances:
        instance_id, _, _, domain, problem = instance
        gt = solve_optimal(problem, domain)
        add_row(instance, "valid", plan_to_text(gt))
        add_row(instance, "shuffled", plan_to_text(circular_shift(gt, max(1, len(gt) // 2))))
        truncated = gt[:-2] if len(gt) > 2 else Plan()
        add_row(instance, "truncated", plan_to_text(truncated))
        lines = plan_to_text(gt).splitlines()
        lines.insert(1, "(teleport x9 y9)")
        lines.append("(warp z9)")
        add_row(instance, "hallucinated", "\n".join(lines) + "\n")
        if instance_id in ("bw-03", "bw-05", "bw-10", "log-01", "log-04"):
            add_row(instance, "remapped",
                    plan_to_text(_swap_two_plan_objects(gt, domain, problem)))
    # Two failed generations: plan files that simply do not exist.
    add_row(instances[0], "missing", None)
    add_row(instances[-1], "missing", None)

    manifest = tmp_path / "manifest.csv"
    columns = ["instance_id", "domain_path", "problem_path", "plan_path",
               "gt_plan_path", "model", "prompt_type"]
    with manifest.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return manifest


def test_criterion_4_recovery_success_rate(tmp_path, bw_domain, bw_problem,
                                           logistics_domain, logistics_problems):
    start = time.monotonic()
    manifest = _build_batch(tmp_path, bw_domain, logistics_domain,
                            logistics_problems, bw_problem)
    result = evaluate_batch(manifest, out_jsonl=tmp_path / "batch.jsonl",
                            out_csv=tmp_path / "batch.csv")
    assert not result.had_errors
    assert len(result.records) >= 50

    for record in result.records:
        assert record["pi4"]["valid"] is True, record["instance_id"]

    by_model = {row["model"]: row for row in result.report_rows}
    assert all(row["pi4_SR"] == 1.0 for row in result.report_rows)
    # The identity variant is always a candidate, so pi1 never loses validity.
    assert all(row["pi1_SR"] >= row["pi0_SR"] for row in result.report_rows)
    # Pipeline-level improvement on constructed groups:
    assert by_model["shuffled"]["pi3_SR"] > by_model["shuffled"]["pi0_SR"]
    assert by_model["remapped"]["pi3_SR"] > by_model["remapped"]["pi0_SR"]

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, elapsed,
            f"pi4 SR = 1.0 on {len(result.records)} mixed-quality instances; "
            f"shuffled group pi3 SR {by_model['shuffled']['pi3_SR']:.2f} "
            f"> pi0 SR {by_model['shuffled']['pi0_SR']:.2f}")


def test_criterion_4_batch_scores_few_variants(tmp_path, monkeypatch, bw_domain, bw_problem,
                                              logistics_domain, logistics_problems):
    # The pi1 search simulates every variant but scores only those that can
    # still win; a fallback to scoring every variant fails here.
    import math

    from planeval import pipeline, transform

    counts = {"enumerated": 0, "scored": 0}
    score_variant = transform.score_variant
    search = pipeline.find_best_variant

    def counting_score(*args, **kwargs):
        counts["scored"] += 1
        return score_variant(*args, **kwargs)

    def counting_search(plan, gt, problem, domain, config, **kwargs):
        counts["enumerated"] += math.factorial(len(plan.objects())) * (len(plan) or 1)
        return search(plan, gt, problem, domain, config, **kwargs)

    monkeypatch.setattr(transform, "score_variant", counting_score)
    monkeypatch.setattr(pipeline, "find_best_variant", counting_search)
    manifest = _build_batch(tmp_path, bw_domain, logistics_domain,
                            logistics_problems, bw_problem)
    result = evaluate_batch(manifest)
    assert not result.had_errors
    assert not any(r["flags"]["transform_budget_exceeded"] for r in result.records)
    assert counts["enumerated"] > 10_000
    assert counts["scored"] <= 0.05 * counts["enumerated"], counts


#: sha256 of the criterion-4 batch JSONL (67 rows, default configuration).
CRITERION_4_JSONL_SHA256 = "3dd0e08fd461fbfda695424954bd4d6baca5334946c331dfd8bd129f8363a761"


def test_criterion_4_batch_records_are_byte_identical(tmp_path, bw_domain, bw_problem,
                                                      logistics_domain, logistics_problems):
    """A refactor must leave every record of the criterion-4 batch byte for
    byte as it was, so the JSONL digest is pinned here.  A change that alters
    records on purpose updates the digest and gives the reason in CHANGES.md.
    The number of batch workers changes neither the JSONL nor the CSV."""
    manifest = _build_batch(tmp_path, bw_domain, logistics_domain,
                            logistics_problems, bw_problem)
    for jobs in (1, 2, 3):
        out = tmp_path / f"batch-{jobs}.jsonl"
        result = evaluate_batch(manifest, jobs=jobs, out_jsonl=out,
                                out_csv=tmp_path / f"batch-{jobs}.csv")
        assert len(result.records) == 67
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CRITERION_4_JSONL_SHA256
        assert (tmp_path / f"batch-{jobs}.csv").read_bytes() == (
            tmp_path / "batch-1.csv").read_bytes()


def test_criterion_4_records_do_not_depend_on_the_hash_seed(tmp_path, bw_domain, bw_problem,
                                                            logistics_domain,
                                                            logistics_problems):
    """Batches with more than one job fork from this process and share its
    hash seed, so the CLI runs the batch here in two fresh interpreters
    whose ``PYTHONHASHSEED`` differs: no record may follow set order."""
    manifest = _build_batch(tmp_path, bw_domain, logistics_domain,
                            logistics_problems, bw_problem)
    for seed in (0, 1):
        out = tmp_path / f"seed-{seed}"
        subprocess.run([sys.executable, "-m", "planeval.cli", "batch", str(manifest),
                        "--out", str(out)],
                       env=hash_seed_env(seed), capture_output=True, check=True)
        digest = hashlib.sha256(out.with_suffix(".jsonl").read_bytes()).hexdigest()
        assert digest == CRITERION_4_JSONL_SHA256, seed


# ---------------------------------------------------------------------------
# Criterion 5: LCS equals the exponential brute force
# ---------------------------------------------------------------------------


def test_criterion_5_lcs_oracle():
    start = time.monotonic()
    rng = random.Random(97)
    alphabet = [GroundAction("op", (obj,)) for obj in ("x", "y", "z")]
    for _ in range(1000):
        a = Plan(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 7))))
        b = Plan(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 7))))
        result = lcs_analyze(a, b)
        assert len(result.substring) == brute_force_substring_length(a.keys(), b.keys())
        assert len(result.subsequence) == brute_force_subsequence_length(a.keys(), b.keys())
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(5, elapsed, "substring/subsequence lengths match brute force on 1000 pairs")


# ---------------------------------------------------------------------------
# Criterion 6: pairing properties
# ---------------------------------------------------------------------------


def test_criterion_6_pairing_properties(gt_plan):
    start = time.monotonic()
    rng = random.Random(101)
    names = ["pick-up", "put-down", "stack", "unstack", "teleport"]
    objects = ["a", "b", "c", "x"]

    def random_plan(max_len):
        actions = []
        for _ in range(rng.randint(0, max_len)):
            name = rng.choice(names)
            arity = rng.randint(0, 2)
            actions.append(GroundAction(name, tuple(rng.choice(objects)
                                                    for _ in range(arity))))
        return Plan(tuple(actions))

    for case in range(1000):
        plan = random_plan(8)
        gt = random_plan(6) if case % 3 else gt_plan
        pairing = pair_actions(plan, gt)

        # One entry per candidate action, so each candidate pairs at most once.
        assert (len(pairing.labels) == len(pairing.per_action_scores)
                == len(pairing.gt_indices) == len(plan))
        gt_indices = [j for j in pairing.gt_indices if j is not None]
        assert len(gt_indices) == len(set(gt_indices))
        assert all(1 <= j <= len(gt) for j in gt_indices)

        assert all(isinstance(label, QualityLabel) for label in pairing.labels)
        # Exhaustive: every candidate is paired or redundant, never both.
        assert all((j is None) == (label is QualityLabel.REDUNDANT)
                   for label, j in zip(pairing.labels, pairing.gt_indices))

        redundant = sum(1 for label in pairing.labels if label is QualityLabel.REDUNDANT)
        if len(plan) > len(gt):
            assert redundant >= len(plan) - len(gt)

        assert pair_actions(plan, gt) == pairing
    _report(6, time.monotonic() - start,
            "one-to-one, exhaustive, bounded-redundant, deterministic on 1000 cases")


# ---------------------------------------------------------------------------
# Criterion 7: simulator conformance
# ---------------------------------------------------------------------------


def test_criterion_7_simulator_conformance(bw_domain, bw_problem, gt_plan,
                                           logistics_domain, logistics_problems):
    start = time.monotonic()
    rng = random.Random(7)
    actions = ground_all_actions(bw_domain, bw_problem)
    for _ in range(1000):
        plan = Plan(tuple(rng.choice(actions) for _ in range(rng.randint(0, 8))))
        result = simulate(plan, bw_problem)
        assert len(result.trace) == result.lea + 1
        for step, (before, after) in enumerate(zip(result.trace, result.trace[1:])):
            action = plan[step]
            assert before - action.add_effects - action.del_effects <= after
            assert action.add_effects <= after
            assert not (action.del_effects & after)
        for k in (result.lea // 2, result.lea):
            prefix = simulate(plan[:k], bw_problem)
            assert prefix.executable
            assert prefix.trace == result.trace[:k + 1]
        if is_valid(plan, bw_problem):
            assert result.executable

    # valid implies executable across every fixture instance's solved plan.
    fixture_cases = [(bw_problem, bw_domain)] + [
        (problem, logistics_domain) for problem in logistics_problems.values()
    ]
    for problem, domain in fixture_cases:
        plan = solve_optimal(problem, domain)
        result = simulate(plan, problem)
        assert is_valid(plan, problem) and result.executable
    _report(7, time.monotonic() - start,
            "frame + prefix monotonicity on 1000 random sequences")


# ---------------------------------------------------------------------------
# Criterion 8: transform search equals exhaustive enumeration
# ---------------------------------------------------------------------------


def test_criterion_8_transform_oracle(bw_domain, bw_problem, gt_plan, pi0_plan):
    start = time.monotonic()
    config = PipelineConfig()
    alphabet = list(gt_plan.actions)  # 6 distinct actions over 3 objects

    def check(plan):
        best = find_best_variant(plan, gt_plan, bw_problem, bw_domain, config)
        oracle = rank_variants_oracle(plan, gt_plan, bw_problem, bw_domain, config)
        assert best.transformation == oracle.transformation
        assert best.penalized == oracle.penalized
        assert best.breakdown.valid == oracle.breakdown.valid
        assert best.plan.keys() == oracle.plan.keys()

    import itertools
    checked = 0
    for length in (0, 1, 2, 3, 4):
        for combo in itertools.product(alphabet, repeat=length):
            check(Plan(tuple(combo)))
            checked += 1
    # Seeded sample with hallucinated actions mixed in.
    rng = random.Random(8)
    pool = alphabet + [GroundAction("teleport", ("a",)), GroundAction("stack", ("a", "a"))]
    for _ in range(150):
        check(Plan(tuple(rng.choice(pool) for _ in range(4))))
        checked += 1

    # pi1's penalized score never drops below pi0's raw score on the batch plan.
    pairing = pair_actions(pi0_plan, gt_plan)
    raw = plan_score(pi0_plan, gt_plan, pairing, lcs_analyze(pi0_plan, gt_plan),
                     is_valid(pi0_plan, bw_problem))
    variant = find_best_variant(pi0_plan, gt_plan, bw_problem, bw_domain, config)
    assert variant.penalized >= raw.total

    _report(8, time.monotonic() - start,
            f"search equals exhaustive ranking on {checked} plans")


# ---------------------------------------------------------------------------
# Criterion 9: aggregation reproducibility and defaulted failures
# ---------------------------------------------------------------------------


def test_criterion_9_aggregation(tmp_path):
    start = time.monotonic()
    (tmp_path / "good.plan").write_text(INSTANCE_10_GT)
    manifest = tmp_path / "manifest.csv"
    columns = ["instance_id", "domain_path", "problem_path", "plan_path",
               "gt_plan_path", "model", "prompt_type"]
    with manifest.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows([
            {"instance_id": "present", "domain_path": str(BW_DOMAIN_PATH),
             "problem_path": str(BW_PROBLEM_PATH), "plan_path": "good.plan",
             "gt_plan_path": "", "model": "m", "prompt_type": "t"},
            {"instance_id": "missing", "domain_path": str(BW_DOMAIN_PATH),
             "problem_path": str(BW_PROBLEM_PATH), "plan_path": "nope.plan",
             "gt_plan_path": "", "model": "m", "prompt_type": "t"},
        ])
    result = evaluate_batch(manifest, out_jsonl=tmp_path / "out.jsonl",
                            out_csv=tmp_path / "out.csv")
    assert not result.had_errors

    # SR over ALL instances, the defaulted failure included.
    row = result.report_rows[0]
    assert row["instances"] == 2
    assert row["pi0_SR"] == 0.5
    defaulted = [r for r in result.records if r["instance_id"] == "missing"][0]
    assert defaulted["flags"]["generation_missing"] is True
    assert defaulted["pi0"]["stv"] == 6

    # Re-aggregating the JSONL reproduces the CSV byte for byte.
    records = read_jsonl(tmp_path / "out.jsonl")
    write_report_csv(aggregate(records), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "out.csv").read_bytes()
    _report(9, time.monotonic() - start,
            "JSONL re-aggregation byte-identical; defaulted failure in denominator")
