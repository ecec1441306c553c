from __future__ import annotations

import random
from dataclasses import replace

from planeval import is_valid, parse_plan, simulate
from planeval.pddl import GroundAction, Plan
from planeval.planner import ground_all_actions
from planeval.simulator import format_trace

NOOP = Plan((GroundAction("noop", ()),))


def test_applicable_running_example(bw_problem, pi0_plan, gt_plan):
    assert not simulate(pi0_plan[:1], bw_problem).executable  # block a is not on c
    assert simulate(gt_plan[:1], bw_problem).executable


def test_applicable_empty_preconditions(bw_problem):
    assert simulate(NOOP, bw_problem).executable
    assert simulate(NOOP, replace(bw_problem, init=frozenset())).executable


def test_applicable_unresolvable_is_flagged(bw_problem):
    # An unresolvable action has no preconditions, yet it stops execution.
    bogus = GroundAction("foo", ("bar",), resolvable=False)
    result = simulate(Plan((bogus,)), bw_problem)
    assert result.lea == 0
    assert not result.executable
    assert result.trace == (bw_problem.init,)


def test_apply_unstack(bw_problem, gt_plan):
    state = simulate(gt_plan[:1], bw_problem).final_state  # (unstack b c)
    assert ("holding", "b") in state
    assert ("clear", "c") in state
    assert ("on", "b", "c") not in state
    assert ("handempty",) not in state


def test_apply_identity_effects(bw_problem):
    assert simulate(NOOP, bw_problem).final_state == bw_problem.init


def test_apply_reverse_is_involution(bw_problem, gt_plan):
    action = gt_plan[0]
    reverse = GroundAction(action.name, action.args, preconditions=frozenset(),
                           add_effects=action.del_effects, del_effects=action.add_effects)
    result = simulate(Plan((action, reverse)), bw_problem)
    assert result.executable
    assert result.final_state == bw_problem.init


def test_apply_unmet_preconditions(bw_problem, pi0_plan):
    result = simulate(pi0_plan[:1], bw_problem)
    assert result.lea == 0
    assert not result.executable
    failed = pi0_plan[result.lea]  # (unstack a c)
    assert failed.resolvable
    assert ("on", "a", "c") in failed.preconditions - result.final_state


def test_simulate_pi0(bw_problem, pi0_plan):
    result = simulate(pi0_plan, bw_problem)
    assert result.lea == 0
    assert result.trace == (bw_problem.init,)
    assert not result.executable
    assert not result.valid


def test_simulate_gt(bw_problem, gt_plan):
    result = simulate(gt_plan, bw_problem)
    assert result.lea == 6
    assert result.executable
    assert len(result.trace) == 7
    assert result.valid


def test_simulate_empty_plan(bw_problem):
    result = simulate(Plan(), bw_problem)
    assert result.lea == 0
    assert result.executable
    assert result.trace == (bw_problem.init,)


def test_simulate_stops_at_unresolvable(bw_domain, bw_problem):
    plan = parse_plan("(unstack b c)\nteleport a\n(put-down b)\n", bw_domain, bw_problem)
    result = simulate(plan, bw_problem)
    assert result.lea == 1
    assert not result.executable
    assert len(result.trace) == 2
    assert not plan[result.lea].resolvable  # (teleport a)


def test_is_valid_running_example(bw_domain, bw_problem, pi0_plan, gt_plan):
    assert not is_valid(pi0_plan, bw_problem)
    assert is_valid(gt_plan, bw_problem)


def test_empty_plan_valid_when_goal_holds(bw_domain):
    from planeval import parse_problem
    text = """
    (define (problem trivial) (:domain blocksworld-4ops)
      (:objects a)
      (:init (handempty) (clear a) (ontable a))
      (:goal (ontable a)))
    """
    problem = parse_problem(text, bw_domain)
    assert is_valid(Plan(), problem)


def test_trace_dump_format(bw_problem, gt_plan):
    result = simulate(gt_plan[:1], bw_problem)
    lines = format_trace(result).splitlines()
    assert len(lines) == 2
    assert lines[0] == "(clear a) (clear b) (handempty) (on b c) (ontable a) (ontable c)"
    assert lines[1] == "(clear a) (clear c) (holding b) (ontable a) (ontable c)"


# ---------------------------------------------------------------------------
# Properties on random action sequences
# ---------------------------------------------------------------------------


def _random_walk_plans(domain, problem, rng, count, length):
    """Random plans biased toward executable prefixes: half the actions are
    sampled from the applicable set, half uniformly."""
    actions = ground_all_actions(domain, problem)
    plans = []
    for _ in range(count):
        state = problem.init
        chosen = []
        for _ in range(length):
            if rng.random() < 0.5:
                candidates = [a for a in actions if a.preconditions <= state]
                action = rng.choice(candidates) if candidates else rng.choice(actions)
            else:
                action = rng.choice(actions)
            chosen.append(action)
            if action.preconditions <= state:
                state = (state - action.del_effects) | action.add_effects
        plans.append(Plan(tuple(chosen)))
    return plans


def test_frame_and_prefix_properties(bw_domain, bw_problem):
    rng = random.Random(42)
    for plan in _random_walk_plans(bw_domain, bw_problem, rng, count=60, length=8):
        result = simulate(plan, bw_problem)
        assert len(result.trace) == result.lea + 1
        # Frame property: untouched atoms persist across each applied action.
        for step, (before, after) in enumerate(zip(result.trace, result.trace[1:])):
            action = plan[step]
            untouched = before - action.add_effects - action.del_effects
            assert untouched <= after
            assert action.add_effects <= after
            assert not (action.del_effects & after)
        # Monotone prefix: simulating plan[0..k] reproduces trace[0..k].
        for k in (0, result.lea // 2, result.lea):
            prefix = simulate(plan[:k], bw_problem)
            assert prefix.trace == result.trace[:k + 1]
            assert prefix.executable


def test_determinism(bw_problem, pi0_plan, gt_plan):
    for plan in (pi0_plan, gt_plan):
        assert simulate(plan, bw_problem) == simulate(plan, bw_problem)
