from __future__ import annotations

import random

from planeval import is_valid, pair_actions, parse_plan, recover, simulate
from planeval.pddl import GroundAction, Plan, ProblemModel
from planeval.recovery import StepKind, divergence_point, steps_to_validity
from planeval.similarity import QualityLabel

from oracles import bfs_optimal_cost
from test_transform import PI1_TEXT


def stv(plan, gt, problem):
    return steps_to_validity(plan, pair_actions(plan, gt), gt, problem)


def test_stv_pi0_is_seven(pi0_plan, gt_plan, bw_problem):
    steps = stv(pi0_plan, gt_plan, bw_problem)
    assert len(steps) == 7
    kinds = [s.kind for s in steps]
    assert kinds.count(StepKind.REMOVE) == 2
    assert kinds.count(StepKind.REPAIR) == 4   # same_act at 1, 2, 4, 7
    assert kinds.count(StepKind.REPLACE) == 1  # diff_act at 5
    assert kinds.count(StepKind.ADD) == 0      # all five absent actions absorbed
    assert {s.index for s in steps if s.kind is StepKind.REMOVE} == {6, 8}


def test_stv_pi1_is_two(bw_domain, bw_problem, gt_plan):
    pi1 = parse_plan(PI1_TEXT, bw_domain, bw_problem)
    steps = stv(pi1, gt_plan, bw_problem)
    assert len(steps) == 2
    assert all(s.kind is StepKind.REMOVE for s in steps)
    assert {s.index for s in steps} == {5, 6}


def test_stv_perfect_plan_is_zero(gt_plan, bw_problem):
    assert stv(gt_plan, gt_plan, bw_problem) == []


def test_stv_empty_plan_is_all_adds(gt_plan, bw_problem):
    steps = stv(Plan(), gt_plan, bw_problem)
    assert len(steps) == len(gt_plan)
    assert all(s.kind is StepKind.ADD for s in steps)
    assert [s.gt_action.key for s in steps] == list(gt_plan.keys())


def test_stv_step_kind_soundness(pi0_plan, gt_plan, bw_problem):
    pairing = pair_actions(pi0_plan, gt_plan)
    steps = steps_to_validity(pi0_plan, pairing, gt_plan, bw_problem)
    fix_table = {StepKind.REORDER: QualityLabel.MISPLACED,
                 StepKind.REPAIR: QualityLabel.SAME_ACT,
                 StepKind.REPLACE: QualityLabel.DIFF_ACT}
    plan_keys = set(pi0_plan.keys())
    for step in steps:
        if step.kind is StepKind.REMOVE:
            assert pairing.labels[step.index - 1] is QualityLabel.REDUNDANT
        elif step.kind is StepKind.ADD:
            assert step.gt_action.key not in plan_keys
        else:
            assert pairing.labels[step.index - 1] is fix_table[step.kind]


def test_stv_bounds_on_random_plans(bw_domain, bw_problem, gt_plan):
    rng = random.Random(23)
    pool = list(gt_plan.actions) + [GroundAction("warp", ("x",), resolvable=False)]
    for _ in range(100):
        plan = Plan(tuple(rng.choice(pool) for _ in range(rng.randint(0, 10))))
        steps = stv(plan, gt_plan, bw_problem)
        assert 0 <= len(steps) <= len(plan) + len(gt_plan)


def test_divergence_pi0(pi0_plan, gt_plan, bw_problem):
    plan_trace = simulate(pi0_plan, bw_problem).trace
    gt_trace = simulate(gt_plan, bw_problem).trace
    k, prefix = divergence_point(plan_trace, gt_trace)
    assert (k, prefix) == (0, 0)


def test_divergence_pi1_shares_fifth_state(bw_domain, bw_problem, gt_plan):
    pi1 = parse_plan(PI1_TEXT, bw_domain, bw_problem)
    plan_trace = simulate(pi1, bw_problem).trace
    gt_trace = simulate(gt_plan, bw_problem).trace
    k, prefix = divergence_point(plan_trace, gt_trace)
    assert gt_trace[k] == plan_trace[prefix]  # the shared state itself
    assert k == 4
    assert prefix == 4
    assert gt_trace[k] == plan_trace[4]


def test_divergence_identical_traces(gt_plan, bw_problem):
    gt_trace = simulate(gt_plan, bw_problem).trace
    k, prefix = divergence_point(gt_trace, gt_trace)
    assert k == len(gt_plan)
    assert prefix == len(gt_plan)


def test_divergence_prefers_shortest_prefix(bw_domain, bw_problem, gt_plan):
    # pick-up then put-down returns to init, so the earliest occurrence wins.
    loop = parse_plan("(pick-up a)\n(put-down a)\n", bw_domain, bw_problem)
    plan_trace = simulate(loop, bw_problem).trace
    gt_trace = simulate(gt_plan, bw_problem).trace
    k, prefix = divergence_point(plan_trace, gt_trace)
    assert (k, prefix) == (0, 0)


def test_recover_pi0(pi0_plan, gt_plan, bw_problem):
    outcome = recover(pi0_plan, gt_plan, simulate(pi0_plan, bw_problem),
                      simulate(gt_plan, bw_problem))
    assert len(outcome.corr) == 0
    assert len(outcome.comp) == 6
    assert outcome.final.keys() == outcome.comp.keys()
    assert is_valid(outcome.final, bw_problem)


def test_recover_valid_plan_is_identity(gt_plan, bw_problem):
    gt_sim = simulate(gt_plan, bw_problem)
    outcome = recover(gt_plan, gt_plan, gt_sim, gt_sim)
    assert outcome.corr.keys() == gt_plan.keys()
    assert len(outcome.comp) == 0
    assert outcome.final.keys() == gt_plan.keys()


def test_recover_from_matching_prefix(bw_domain, bw_problem, gt_plan):
    # Two correct actions, then nonsense: corr keeps the prefix and the
    # completion is oracle-optimal from the reached state.
    plan = Plan(gt_plan.actions[:2] + (GroundAction("warp", ("x",), resolvable=False),))
    outcome = recover(plan, gt_plan, simulate(plan, bw_problem),
                      simulate(gt_plan, bw_problem))
    assert len(outcome.corr) == 2
    reached = simulate(outcome.corr, bw_problem).final_state
    oracle_problem = ProblemModel(bw_problem.name, bw_problem.domain_name,
                                  bw_problem.objects, reached, bw_problem.goal)
    assert len(outcome.comp) == bfs_optimal_cost(oracle_problem, bw_domain)
    assert is_valid(outcome.final, bw_problem)

