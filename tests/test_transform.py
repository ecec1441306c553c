from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

import pytest

from planeval import (
    PipelineConfig,
    circular_shift,
    find_best_variant,
    is_valid,
    parse_plan,
    remap_params,
)
from planeval.errors import NonBijectiveMapping, SearchBudgetExceeded
from planeval.pddl import GroundAction, Plan
from planeval.transform import Transformation, transformation_penalty

from oracles import rank_variants_oracle

PI1_TEXT = ("(unstack b c)\n(put-down b)\n(pick-up c)\n(stack c b)\n"
            "(unstack c b)\n(put-down c)\n(pick-up a)\n(stack a c)\n")


def act(name, *args):
    return GroundAction(name, tuple(args))


# ---------------------------------------------------------------------------
# Circular shift
# ---------------------------------------------------------------------------


def test_shift_identity(pi0_plan):
    assert circular_shift(pi0_plan, 0) is pi0_plan
    assert circular_shift(pi0_plan, len(pi0_plan)).actions == pi0_plan.actions


def test_shift_three_actions():
    plan = Plan((act("a"), act("b"), act("c")))
    assert [a.name for a in circular_shift(plan, 1)] == ["c", "a", "b"]


def test_shift_matches_rotate_oracle(pi0_plan):
    for n in range(-3, 12):
        rotated = deque(pi0_plan.actions)
        rotated.rotate(n)
        assert circular_shift(pi0_plan, n).actions == tuple(rotated)


def test_shift_empty_plan():
    assert circular_shift(Plan(), 5).actions == ()


# ---------------------------------------------------------------------------
# Parameter remapping
# ---------------------------------------------------------------------------


def test_remap_swaps_objects_consistently(bw_domain, bw_problem, pi0_plan):
    pi1 = remap_params(pi0_plan, {"a": "b", "b": "a", "c": "c"}, bw_domain, bw_problem)
    expected = parse_plan(PI1_TEXT, bw_domain, bw_problem)
    assert pi1.keys() == expected.keys()
    assert pi1[0].key == ("unstack", ("b", "c"))


def test_remap_identity(pi0_plan, bw_domain, bw_problem):
    assert remap_params(pi0_plan, {}, bw_domain, bw_problem).keys() == pi0_plan.keys()
    assert remap_params(pi0_plan, {"a": "a"}, bw_domain, bw_problem).keys() == pi0_plan.keys()


def test_remap_involution(pi0_plan, bw_domain, bw_problem):
    swap = {"a": "b", "b": "a"}
    once = remap_params(pi0_plan, swap, bw_domain, bw_problem)
    twice = remap_params(once, swap, bw_domain, bw_problem)
    assert twice.keys() == pi0_plan.keys()


def test_remap_rejects_non_bijective(pi0_plan, bw_domain, bw_problem):
    with pytest.raises(NonBijectiveMapping):
        remap_params(pi0_plan, {"a": "c", "b": "c"}, bw_domain, bw_problem)


def test_remap_substitutes_grounded_effects(pi0_plan, bw_domain, bw_problem):
    mapped = remap_params(pi0_plan, {"a": "b", "b": "a"}, bw_domain, bw_problem)
    assert ("on", "b", "c") in mapped[0].preconditions


def test_remap_retypes_cross_type_actions(logistics_domain, logistics_problems):
    problem = logistics_problems["log-01"]
    plan = parse_plan("(load-truck p1 t1 l1)\n", logistics_domain, problem)
    mapped = remap_params(plan, {"p1": "t1", "t1": "p1"}, logistics_domain, problem)
    assert not mapped[0].resolvable  # a truck cannot be loaded as a package


def test_transformation_penalty_defaults():
    identity = Transformation(0, (("a", "a"), ("b", "b")))
    assert transformation_penalty(identity, 8, Fraction(1), Fraction(1)) == 0
    swap = Transformation(0, (("a", "b"), ("b", "a")))
    assert transformation_penalty(swap, 8, Fraction(1), Fraction(1)) == 2
    shifted = Transformation(6, (("a", "a"),))
    assert transformation_penalty(shifted, 8, Fraction(1), Fraction(1)) == 2  # min(6, 2)


# ---------------------------------------------------------------------------
# Variant search
# ---------------------------------------------------------------------------


def test_find_best_variant_running_example(pi0_plan, gt_plan, bw_problem, bw_domain):
    pi1, score = find_best_variant(pi0_plan, gt_plan, bw_problem, bw_domain)
    assert score.transformation.shift == 0
    changed = {src: dst for src, dst in score.transformation.mapping if src != dst}
    assert changed == {"a": "b", "b": "a"}
    assert pi1[0].key == ("unstack", ("b", "c"))
    assert score.penalized > Fraction(278, 15)  # strictly beats the raw plan
    assert not score.valid


def test_identity_wins_for_perfect_plan(gt_plan, bw_problem, bw_domain):
    pi1, score = find_best_variant(gt_plan, gt_plan, bw_problem, bw_domain)
    assert score.transformation.shift == 0
    assert score.transformation.total_changes(len(gt_plan)) == 0
    assert pi1.keys() == gt_plan.keys()
    assert score.valid
    assert score.penalty == 0


def test_variant_never_scores_below_input(pi0_plan, gt_plan, bw_problem, bw_domain):
    from planeval import lcs_analyze, pair_actions, plan_score
    pairing, _ = pair_actions(pi0_plan, gt_plan)
    raw = plan_score(pi0_plan, gt_plan, pairing, lcs_analyze(pi0_plan, gt_plan),
                     is_valid(pi0_plan, bw_problem))
    _, score = find_best_variant(pi0_plan, gt_plan, bw_problem, bw_domain)
    assert score.penalized >= raw.total


def test_search_matches_exhaustive_oracle_small(bw_domain, bw_problem, gt_plan):
    config = PipelineConfig()
    rng = random.Random(5)
    names = [("pick-up", 1), ("stack", 2)]
    objects = ["a", "b"]
    for _ in range(25):
        actions = []
        for _ in range(rng.randint(1, 3)):
            name, arity = rng.choice(names)
            actions.append(act(name, *(rng.choice(objects) for _ in range(arity))))
        plan = Plan(tuple(actions))
        best_plan, best = find_best_variant(plan, gt_plan, bw_problem, bw_domain, config)
        oracle = rank_variants_oracle(plan, gt_plan, bw_problem, bw_domain, config)
        assert best.transformation == oracle.transformation
        assert best.penalized == oracle.penalized
        assert best_plan.keys() == oracle.plan.keys()


def test_shift_and_remap_preserve_multisets(pi0_plan, bw_domain, bw_problem):
    shifted = circular_shift(pi0_plan, 3)
    assert sorted(a.key for a in shifted) == sorted(a.key for a in pi0_plan)
    mapped = remap_params(pi0_plan, {"a": "c", "c": "a"}, bw_domain, bw_problem)
    assert sorted(a.name for a in mapped) == sorted(a.name for a in pi0_plan)
    assert len(mapped) == len(pi0_plan)


@pytest.mark.parametrize("budget", [0, 5])
def test_search_budget_exceeded_carries_best(pi0_plan, gt_plan, bw_problem, bw_domain,
                                             budget):
    config = PipelineConfig(budget=budget)
    with pytest.raises(SearchBudgetExceeded) as excinfo:
        find_best_variant(pi0_plan, gt_plan, bw_problem, bw_domain, config)
    best_plan, best_score = excinfo.value.best
    assert len(best_plan) == len(pi0_plan)
    assert best_score.penalized is not None
    if budget == 0:  # only the identity, enumerated first, was scored
        assert best_score.transformation.shift == 0
        assert not best_score.transformation.changed_objects
        assert best_plan.keys() == pi0_plan.keys()


def test_search_is_deterministic(pi0_plan, gt_plan, bw_problem, bw_domain):
    outcomes = [find_best_variant(pi0_plan, gt_plan, bw_problem, bw_domain)[1]
                for _ in range(3)]
    assert all(o.transformation == outcomes[0].transformation for o in outcomes)
    assert all(o.penalized == outcomes[0].penalized for o in outcomes)


def test_pruned_mode_finds_object_swap(logistics_domain, logistics_problems):
    # log-04 has 7 objects, above the default prune threshold of 6, so the
    # search only tries mappings that align at least one action positionally.
    from planeval import solve_optimal
    problem = logistics_problems["log-04"]
    gt = solve_optimal(problem, logistics_domain)
    assert len(problem.objects) > PipelineConfig().prune_threshold
    swapped = remap_params(gt, {"p1": "p2", "p2": "p1"}, logistics_domain, problem)
    assert not is_valid(swapped, problem)
    pi1, score = find_best_variant(swapped, gt, problem, logistics_domain)
    changed = {src: dst for src, dst in score.transformation.mapping if src != dst}
    assert changed == {"p1": "p2", "p2": "p1"}
    assert score.valid
    assert pi1.keys() == gt.keys()


def test_validity_first_ranking(bw_domain, bw_problem, gt_plan):
    # A shuffled ground truth has a valid variant reachable by shifting, so
    # the winner must be valid even though the identity scores well too.
    shuffled = circular_shift(gt_plan, 2)
    assert not is_valid(shuffled, bw_problem)
    _, score = find_best_variant(shuffled, gt_plan, bw_problem, bw_domain)
    assert score.valid
