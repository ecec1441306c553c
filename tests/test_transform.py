from __future__ import annotations

import itertools
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
from planeval.pddl import GroundAction, Plan, ProblemModel
from planeval.similarity import SynonymTable, make_similarity_cache
from planeval.transform import (
    Transformation,
    _score_ceiling,
    score_variant,
    transformation_penalty,
)

from conftest import make_bw_problem
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


def test_score_variant_defaults_to_the_config_provider(bw_domain, bw_problem, gt_plan):
    config = PipelineConfig(similarity_provider="char_lcs")
    plan = parse_plan("(pick-up a)\n(lift b)\n(stack b c)\n(unstack a a)\n",
                      bw_domain, bw_problem)
    identity = Transformation(0, tuple((o, o) for o in sorted(plan.objects())))
    default = score_variant(plan, identity, gt_plan, bw_problem, len(plan), config)
    explicit = score_variant(plan, identity, gt_plan, bw_problem, len(plan), config,
                             sim=make_similarity_cache(config.provider()))
    assert default.penalized == explicit.penalized == Fraction(59, 6)


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


SYNONYMS = SynonymTable({("pick-up", "lift"): Fraction(1, 2)})


def _random_plans(gt_plan, bw_domain, bw_problem, rng):
    """Short plans over three objects, one hallucinated name among them, and
    remapped, shifted ground truths with at most one action replaced."""
    names = [("pick-up", 1), ("put-down", 1), ("stack", 2), ("unstack", 2), ("lift", 1)]
    objects = ["a", "b", "c"]
    for _ in range(20):
        actions = []
        for _ in range(rng.randint(1, 4)):
            name, arity = rng.choice(names)
            actions.append(act(name, *(rng.choice(objects) for _ in range(arity))))
        yield Plan(tuple(actions))
    for _ in range(6):
        swap = dict(zip(objects, rng.sample(objects, len(objects))))
        plan = circular_shift(remap_params(gt_plan, swap, bw_domain, bw_problem),
                              rng.randrange(len(gt_plan)))
        if rng.random() < 0.5:
            actions = list(plan.actions)
            actions[rng.randrange(len(actions))] = act("lift", rng.choice(objects))
            plan = Plan(tuple(actions))
        yield plan


@pytest.mark.parametrize("c_shift, c_map", [(1, 1), (0, 0), (Fraction(1, 2), 2)],
                         ids=["1-1", "0-0", "half-2"])
@pytest.mark.parametrize("provider_name", ["exact", "char_lcs", "synonyms"])
def test_search_matches_oracle_under_every_provider_and_cost(
        bw_domain, bw_problem, gt_plan, provider_name, c_shift, c_map):
    # (0, 0) makes many variants tie on the penalized score, so pruning on
    # equality and the tie-break are exercised.
    config = PipelineConfig(c_shift=Fraction(c_shift), c_map=Fraction(c_map),
                            similarity_provider=("char_lcs" if provider_name == "char_lcs"
                                                 else "exact"))
    provider = SYNONYMS if provider_name == "synonyms" else config.provider()
    for plan in _random_plans(gt_plan, bw_domain, bw_problem, random.Random(5)):
        best_plan, best = find_best_variant(plan, gt_plan, bw_problem, bw_domain, config,
                                            provider=provider)
        oracle = rank_variants_oracle(plan, gt_plan, bw_problem, bw_domain, config,
                                      provider=provider)
        assert best.transformation == oracle.transformation
        assert best.penalized == oracle.penalized
        assert best.valid == oracle.valid
        assert best_plan.keys() == oracle.plan.keys()


@pytest.mark.parametrize("provider, max_length", [
    (PipelineConfig().provider(), 4),
    (PipelineConfig(similarity_provider="char_lcs").provider(), 3),
    (SYNONYMS, 3),
], ids=["exact", "char_lcs", "synonyms"])
def test_score_ceiling_bounds_every_invalid_variant(bw_domain, bw_problem, gt_plan,
                                                    provider, max_length):
    config = PipelineConfig()
    alphabet = list(gt_plan.actions)  # the criterion-8 alphabet
    plans = [Plan(combo) for length in range(max_length + 1)
             for combo in itertools.product(alphabet, repeat=length)]
    plans.append(parse_plan("(pick-up z)\n(stack z a)\n(lift c)\n(unstack a z)\n",
                            bw_domain, bw_problem))  # z is not a problem object
    sim = make_similarity_cache(provider)
    checked = 0
    for plan in plans:
        ceiling = _score_ceiling(plan, gt_plan, provider)
        objs = sorted(plan.objects())
        for perm in itertools.permutations(objs):
            mapping = dict(zip(objs, perm))
            mapped = remap_params(plan, mapping, bw_domain, bw_problem)
            for shift in range(max(len(plan), 1)):
                variant = circular_shift(mapped, shift)
                score = score_variant(variant, Transformation(shift, tuple(mapping.items())),
                                      gt_plan, bw_problem, len(plan), config,
                                      sim=sim)
                if not score.valid:
                    assert ceiling(variant) - score.penalty >= score.penalized
                    checked += 1
    assert checked > 2000


@pytest.mark.parametrize("which, budget", [
    ("pi0", 1), ("pi0", 7), ("pi0", 40),
    ("shuffled-gt", 4), ("shuffled-gt", 5), ("shuffled-gt", 30),
])
def test_budget_winner_is_exact_over_enumerated_prefix(pi0_plan, gt_plan, bw_problem,
                                                       bw_domain, which, budget):
    # pi0 has 48 variants.  The shuffled ground truth has 36, and a valid one
    # is the fifth enumerated (identity mapping, shift 4).
    plan = pi0_plan if which == "pi0" else circular_shift(gt_plan, 2)
    config = PipelineConfig(budget=budget)
    with pytest.raises(SearchBudgetExceeded) as excinfo:
        find_best_variant(plan, gt_plan, bw_problem, bw_domain, config)
    best_plan, best = excinfo.value.best
    oracle = rank_variants_oracle(plan, gt_plan, bw_problem, bw_domain, config,
                                  limit=budget)
    assert best.transformation == oracle.transformation
    assert best.penalized == oracle.penalized
    assert best.valid == oracle.valid
    assert best_plan.keys() == oracle.plan.keys()


@pytest.mark.parametrize("c_shift, c_map", [(1, 1), (0, 0)], ids=["1-1", "0-0"])
def test_later_valid_variant_with_a_smaller_key_wins(bw_domain, c_shift, c_map):
    # A 3-cycle of the objects makes the plan valid and is enumerated before
    # the a/c swap, which is valid too, moves fewer objects and so wins.
    table = make_bw_problem(bw_domain, [["a"], ["b"], ["c"]], [["a"]])
    problem = ProblemModel("holding-a", bw_domain.name, table.objects, table.init,
                           frozenset({("holding", "a")}))
    plan = parse_plan("(pick-up a)\n(stack a b)\n(pick-up c)\n", bw_domain, problem)
    gt = parse_plan("(pick-up a)\n", bw_domain, problem)
    config = PipelineConfig(c_shift=Fraction(c_shift), c_map=Fraction(c_map))
    _, best = find_best_variant(plan, gt, problem, bw_domain, config)
    oracle = rank_variants_oracle(plan, gt, problem, bw_domain, config)
    assert best.valid
    assert best.transformation == oracle.transformation
    assert dict(best.transformation.mapping) == {"a": "c", "b": "b", "c": "a"}


@pytest.mark.parametrize("c_shift, c_map", [(1, 1), (0, 0)], ids=["1-1", "0-0"])
def test_variant_at_its_ceiling_that_wins_the_tie_break_is_scored(
        bw_domain, bw_problem, c_shift, c_map):
    # Shift 2 of the identity and the x/y swap at shift 0 both rebuild the
    # ground truth exactly, so both score their ceiling and tie; the swap is
    # enumerated later but wins on the smaller shift.
    gt = Plan((act("p", "x"), act("q", "x"), act("p", "y"), act("q", "y")))
    plan = circular_shift(gt, 2)
    config = PipelineConfig(c_shift=Fraction(c_shift), c_map=Fraction(c_map))
    _, best = find_best_variant(plan, gt, bw_problem, bw_domain, config)
    oracle = rank_variants_oracle(plan, gt, bw_problem, bw_domain, config)
    assert best.transformation == oracle.transformation
    assert best.transformation == Transformation(0, (("x", "y"), ("y", "x")))


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
