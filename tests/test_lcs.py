from __future__ import annotations

import random

from planeval import best_subplan, is_valid, lcs_analyze
from planeval.lcs import extract
from planeval.pddl import GroundAction, Plan

from oracles import (
    brute_force_subsequence_length,
    brute_force_substring_length,
    lcs_length,
)


def act(name, *args):
    return GroundAction(name, tuple(args))


def plan_of(*symbols):
    return Plan(tuple(act(s) for s in symbols))


def test_running_example_pi0(pi0_plan, gt_plan):
    result = lcs_analyze(pi0_plan, gt_plan)
    assert result.substring == ((3, 3),)
    assert result.subsequence == ((3, 3),)


def test_running_example_pi1(bw_domain, bw_problem, gt_plan):
    from planeval import parse_plan
    pi1 = parse_plan(
        "(unstack b c)\n(put-down b)\n(pick-up c)\n(stack c b)\n"
        "(unstack c b)\n(put-down c)\n(pick-up a)\n(stack a c)\n",
        bw_domain, bw_problem)
    result = lcs_analyze(pi1, gt_plan)
    assert len(result.subsequence) == 6
    assert [j for _, j in result.subsequence] == [1, 2, 3, 4, 5, 6]
    assert extract(pi1, result.subsequence).keys() == gt_plan.keys()
    assert len(result.substring) == 4


def test_lcs_projections_agree(pi0_plan, gt_plan):
    result = lcs_analyze(pi0_plan, gt_plan)
    for pairs in (result.substring, result.subsequence):
        plan_side = [pi0_plan[i - 1].key for i, _ in pairs]
        gt_side = [gt_plan[j - 1].key for _, j in pairs]
        assert plan_side == gt_side


def test_substring_is_contiguous_and_increasing(pi0_plan, gt_plan):
    result = lcs_analyze(pi0_plan, gt_plan)
    for (i1, j1), (i2, j2) in zip(result.substring, result.substring[1:]):
        assert i2 == i1 + 1 and j2 == j1 + 1
    for (i1, j1), (i2, j2) in zip(result.subsequence, result.subsequence[1:]):
        assert i2 > i1 and j2 > j1


def test_empty_plans():
    result = lcs_analyze(Plan(), Plan())
    assert result.substring == () and result.subsequence == ()
    result = lcs_analyze(plan_of("a", "b"), Plan())
    assert result.substring == () and result.subsequence == ()


def test_earliest_candidate_start_wins():
    # Two maximal runs: (a b) at candidate 1 and again at candidate 4.
    plan = plan_of("a", "b", "x", "a", "b")
    gt = plan_of("a", "b")
    result = lcs_analyze(plan, gt)
    assert result.substring == ((1, 1), (2, 2))
    assert result.subsequence == ((1, 1), (2, 2))


def test_matches_brute_force_oracle():
    rng = random.Random(13)
    alphabet = [act("op", o) for o in ("x", "y", "z")]
    for _ in range(300):
        a = Plan(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 7))))
        b = Plan(tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 7))))
        result = lcs_analyze(a, b)
        assert len(result.substring) == brute_force_substring_length(a.keys(), b.keys())
        assert len(result.subsequence) == brute_force_subsequence_length(a.keys(), b.keys())
        assert lcs_length(a.keys(), b.keys()) == len(result.subsequence)
        assert len(result.substring) <= len(result.subsequence)


def test_best_subplan_pi0_is_single_invalid_action(pi0_plan, gt_plan, bw_problem):
    pi2 = best_subplan(pi0_plan, lcs_analyze(pi0_plan, gt_plan), bw_problem)
    assert pi2.keys() == (("pick-up", ("c",)),)
    assert not is_valid(pi2, bw_problem)


def test_best_subplan_pi1_recovers_gt(bw_domain, bw_problem, gt_plan):
    from planeval import parse_plan
    pi1 = parse_plan(
        "(unstack b c)\n(put-down b)\n(pick-up c)\n(stack c b)\n"
        "(unstack c b)\n(put-down c)\n(pick-up a)\n(stack a c)\n",
        bw_domain, bw_problem)
    pi3 = best_subplan(pi1, lcs_analyze(pi1, gt_plan), bw_problem)
    assert pi3.keys() == gt_plan.keys()
    assert is_valid(pi3, bw_problem)


def test_best_subplan_prefers_valid_substring(bw_domain, bw_problem, gt_plan):
    # The whole ground truth embedded contiguously is a valid substring plan.
    candidate = Plan(gt_plan.actions + (act("teleport", "x"),))
    chosen = best_subplan(candidate, lcs_analyze(candidate, gt_plan), bw_problem)
    assert chosen.keys() == gt_plan.keys()
    assert is_valid(chosen, bw_problem)


def test_best_subplan_zero_overlap_is_empty(bw_problem, gt_plan):
    candidate = plan_of("alpha", "beta")
    chosen = best_subplan(candidate, lcs_analyze(candidate, gt_plan), bw_problem)
    assert len(chosen) == 0
    assert not is_valid(chosen, bw_problem)  # goal does not hold in init


def test_best_subplan_output_is_subsequence_of_input(pi0_plan, gt_plan, bw_problem):
    chosen = best_subplan(pi0_plan, lcs_analyze(pi0_plan, gt_plan), bw_problem)
    it = iter(pi0_plan.keys())
    assert all(key in it for key in chosen.keys())
