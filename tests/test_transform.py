from __future__ import annotations

import gc
import itertools
import math
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planeval import (
    PipelineConfig,
    circular_shift,
    find_best_variant,
    is_valid,
    parse_domain,
    parse_plan,
    parse_problem,
    remap_params,
    solve_optimal,
    transform,
)
from planeval.errors import NonBijectiveMapping, SearchBudgetExceeded
from planeval.pddl import GroundAction, Plan, ProblemModel, plan_to_text
from planeval.similarity import (
    CharLcsSimilarity,
    SynonymTable,
    exact_name_similarity,
    make_similarity_cache,
)
from planeval.scoring import score_ceiling
from planeval.transform import Transformation, score_variant

from conftest import make_bw_problem
from oracles import penalty_oracle, rank_variants_oracle, total_changes

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


def test_transformation_penalty_defaults(bw_domain, bw_problem, gt_plan, pi0_plan):
    def winner(plan, gt):
        return find_best_variant(plan, gt, bw_problem, bw_domain)

    identity = winner(gt_plan, gt_plan)  # valid
    assert identity.transformation.shift == 0 and identity.penalty == 0
    swap = winner(pi0_plan, gt_plan)  # a/b swapped, invalid
    assert swap.transformation == Transformation(0, (("a", "b"), ("b", "a"), ("c", "c")))
    assert swap.penalty == 2
    pi1 = parse_plan(PI1_TEXT, bw_domain, bw_problem)
    shifted = winner(circular_shift(pi1, 2), pi1)  # 8 actions, invalid
    assert shifted.transformation == Transformation(6, (("a", "a"), ("b", "b"), ("c", "c")))
    assert shifted.penalty == 2  # min(6, 8 - 6)
    shuffled = winner(circular_shift(gt_plan, 2), gt_plan)  # 6 actions, valid
    assert shuffled.breakdown.valid and shuffled.transformation.shift == 4
    assert shuffled.penalty == 2  # min(4, 6 - 4)


# ---------------------------------------------------------------------------
# Variant search
# ---------------------------------------------------------------------------


def test_find_best_variant_running_example(pi0_plan, gt_plan, bw_problem, bw_domain):
    score = find_best_variant(pi0_plan, gt_plan, bw_problem, bw_domain)
    assert score.transformation.shift == 0
    changed = {src: dst for src, dst in score.transformation.mapping if src != dst}
    assert changed == {"a": "b", "b": "a"}
    assert score.plan[0].key == ("unstack", ("b", "c"))
    assert score.penalized > Fraction(278, 15)  # strictly beats the raw plan
    assert not score.breakdown.valid


def test_find_best_variant_defaults_to_the_config_provider(bw_domain, bw_problem, gt_plan):
    config = PipelineConfig(similarity=CharLcsSimilarity())
    plan = parse_plan("(pick-up a)\n(lift b)\n(stack b c)\n(unstack a a)\n",
                      bw_domain, bw_problem)
    fuzzy = find_best_variant(plan, gt_plan, bw_problem, bw_domain, config)
    exact = find_best_variant(plan, gt_plan, bw_problem, bw_domain)
    assert fuzzy.penalized == Fraction(59, 6)
    assert exact.penalized != fuzzy.penalized


def test_identity_wins_for_perfect_plan(gt_plan, bw_problem, bw_domain):
    score = find_best_variant(gt_plan, gt_plan, bw_problem, bw_domain)
    assert score.transformation.shift == 0
    assert total_changes(score.transformation, len(gt_plan)) == 0
    assert score.plan.keys() == gt_plan.keys()
    assert score.breakdown.valid
    assert score.penalty == 0


def test_variant_never_scores_below_input(pi0_plan, gt_plan, bw_problem, bw_domain):
    from planeval import lcs_analyze, pair_actions, plan_score
    pairing = pair_actions(pi0_plan, gt_plan)
    raw = plan_score(pi0_plan, gt_plan, pairing, lcs_analyze(pi0_plan, gt_plan),
                     is_valid(pi0_plan, bw_problem))
    score = find_best_variant(pi0_plan, gt_plan, bw_problem, bw_domain)
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
        best = find_best_variant(plan, gt_plan, bw_problem, bw_domain, config)
        oracle = rank_variants_oracle(plan, gt_plan, bw_problem, bw_domain, config)
        assert best.transformation == oracle.transformation
        assert best.penalized == oracle.penalized
        assert best.plan.keys() == oracle.plan.keys()


PROVIDERS = {"exact": exact_name_similarity, "char_lcs": CharLcsSimilarity(),
             "synonyms": SynonymTable({("pick-up", "lift"): Fraction(1, 2)})}


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
                            similarity=PROVIDERS[provider_name])
    for plan in _random_plans(gt_plan, bw_domain, bw_problem, random.Random(5)):
        best = find_best_variant(plan, gt_plan, bw_problem, bw_domain, config)
        oracle = rank_variants_oracle(plan, gt_plan, bw_problem, bw_domain, config)
        assert best.transformation == oracle.transformation
        assert best.penalized == oracle.penalized
        assert best.breakdown.valid == oracle.breakdown.valid
        assert best.plan.keys() == oracle.plan.keys()


COSTS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_search_matches_oracle_on_drawn_plans(bw_domain, bw_problem, gt_plan, data):
    # Plans over the criterion-8 alphabet, the hallucinated name lift and an
    # action on z, which is not a problem object.
    alphabet = [*gt_plan.actions,
                *parse_plan("(lift c)\n(pick-up z)\n", bw_domain, bw_problem).actions]
    plan = Plan(tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=5))))
    config = PipelineConfig(c_shift=data.draw(st.sampled_from(COSTS)),
                            c_map=data.draw(st.sampled_from(COSTS)))
    best = find_best_variant(plan, gt_plan, bw_problem, bw_domain, config)
    oracle = rank_variants_oracle(plan, gt_plan, bw_problem, bw_domain, config)
    assert best.transformation == oracle.transformation
    assert best.penalized == oracle.penalized
    assert best.breakdown.valid == oracle.breakdown.valid
    assert best.plan.keys() == oracle.plan.keys()


def test_search_simulates_each_variant_once(monkeypatch, pi0_plan, gt_plan, bw_problem,
                                            bw_domain):
    simulated = []
    original = transform.is_valid

    def recording(plan, problem):
        simulated.append(plan.keys())
        return original(plan, problem)

    monkeypatch.setattr(transform, "is_valid", recording)
    find_best_variant(pi0_plan, gt_plan, bw_problem, bw_domain)
    assert simulated
    assert len(simulated) == len(set(simulated))


def _skip_cases(bw_domain, bw_problem, gt_plan, logistics_domain, log_problem, rng):
    """(plan, gt, problem, domain) with at most 5 objects on which the search
    skips partial mappings: a hallucinated name or an undeclared object (no
    variant can be valid), a Logistics mapping that gives a truck's place to
    a package (no completion resolves) and a remapped ground truth whose
    valid variant is found late."""
    objects = ["a", "b", "c"]

    def perturbed(gt, domain, problem, objs):
        mapping = dict(zip(objs, rng.sample(objs, len(objs))))
        return circular_shift(remap_params(gt, mapping, domain, problem),
                              rng.randrange(len(gt))).actions

    for extra in ([act("lift", "b")], [act("teleport", "x9", "y9")],
                  [act("pick-up", "z")], [act("teleport", "a", "c"), act("warp", "z9")]):
        actions = list(perturbed(gt_plan, bw_domain, bw_problem, objects))[:rng.randint(2, 4)]
        for action in extra:
            actions.insert(rng.randrange(len(actions) + 1), action)
        yield Plan(tuple(actions)), gt_plan, bw_problem, bw_domain
    late = remap_params(gt_plan, {"a": "c", "c": "a"}, bw_domain, bw_problem)
    yield circular_shift(late, rng.randrange(len(gt_plan))), gt_plan, bw_problem, bw_domain
    log_gt = solve_optimal(log_problem, logistics_domain)
    log_objs = sorted(log_gt.objects())
    for _ in range(4):
        actions = list(perturbed(log_gt, logistics_domain, log_problem, log_objs))
        if rng.random() < 0.5:
            actions.append(actions[rng.randrange(len(actions))])
        yield Plan(tuple(actions)), log_gt, log_problem, logistics_domain


def _count_remaps(monkeypatch) -> list[int]:
    count = [0]
    remap = transform.remap_params

    def counting(*args, **kwargs):
        count[0] += 1
        return remap(*args, **kwargs)

    monkeypatch.setattr(transform, "remap_params", counting)
    return count


def _recorded_nodes(monkeypatch) -> list[tuple[tuple[str, ...], bool | None]]:
    """Record, in search order, each partial mapping tested for a skip as
    ``(images, skipped)`` and each complete mapping as ``(images, None)``."""
    nodes = []
    assignments = transform._assignments

    def recording(objs, skip):
        def recorded(images):
            skipped = skip(images)
            nodes.append((images, skipped))
            return skipped
        for images in assignments(objs, recorded):
            nodes.append((images, None))
            yield images

    monkeypatch.setattr(transform, "_assignments", recording)
    return nodes


def _visited_under_budget(nodes, plan, budget) -> tuple[set[Transformation], int]:
    """Replay the *nodes* of an unbounded search under *budget*: each tested
    partial mapping and each variant of a complete mapping counts one node,
    and the search stops at the first node past the budget once a variant
    was visited.  Returns the visited variants and the nodes counted."""
    objs = list(dict.fromkeys(arg for action in plan for arg in action.args))
    shifts = range(len(plan)) if len(plan) else [0]
    visited: set[Transformation] = set()
    counted = 0
    for images, skipped in nodes:
        pairs = tuple(sorted(zip(objs, images)))
        for shift in ([None] if skipped is not None else shifts):
            if counted >= budget and visited:
                return visited, counted
            counted += 1
            if shift is not None:
                visited.add(Transformation(shift, pairs))
    return visited, counted


def _assert_budget_winner_is_exact(plan, gt, problem, domain, nodes, budget):
    """Under *budget*, the search raises carrying the oracle's winner over
    the variants it visited."""
    config = PipelineConfig(budget=budget)
    visited, _ = _visited_under_budget(nodes, plan, budget)
    with pytest.raises(SearchBudgetExceeded) as excinfo:
        find_best_variant(plan, gt, problem, domain, config)
    best = excinfo.value.best
    oracle = rank_variants_oracle(plan, gt, problem, domain, config, only=visited)
    assert best.transformation == oracle.transformation
    assert best.penalized == oracle.penalized
    assert best.breakdown.valid == oracle.breakdown.valid
    assert best.plan.keys() == oracle.plan.keys()


@pytest.mark.parametrize("c_shift, c_map", [(1, 1), (0, 0), (Fraction(1, 2), 2)],
                         ids=["1-1", "0-0", "half-2"])
@pytest.mark.parametrize("provider_name", ["exact", "char_lcs", "synonyms"])
def test_skipped_mappings_match_oracle(monkeypatch, bw_domain, bw_problem, gt_plan,
                                       logistics_domain, logistics_problems,
                                       provider_name, c_shift, c_map):
    config = PipelineConfig(c_shift=Fraction(c_shift), c_map=Fraction(c_map),
                            similarity=PROVIDERS[provider_name])
    cases = list(_skip_cases(bw_domain, bw_problem, gt_plan, logistics_domain,
                             logistics_problems["log-01"], random.Random(13)))
    remaps = _count_remaps(monkeypatch)
    mappings = 0
    for plan, gt, problem, domain in cases:
        mappings += math.factorial(len(plan.objects()))
        best = find_best_variant(plan, gt, problem, domain, config)
        oracle = rank_variants_oracle(plan, gt, problem, domain, config)
        assert best.transformation == oracle.transformation
        assert best.penalized == oracle.penalized
        assert best.breakdown.valid == oracle.breakdown.valid
        assert best.plan.keys() == oracle.plan.keys()
    # The oracle remaps each of its mappings once; the search skips some.
    assert remaps[0] - mappings < mappings


@pytest.mark.parametrize("which", ["hallucinated", "truck-package"])
def test_budget_inside_a_skipped_subtree_keeps_the_prefix_winner(
        monkeypatch, bw_domain, bw_problem, gt_plan, logistics_domain, logistics_problems,
        which):
    if which == "hallucinated":
        actions = list(circular_shift(gt_plan, 1).actions[:3])
        actions.insert(1, act("teleport", "x9", "y9"))
        plan, gt, problem, domain = Plan(tuple(actions)), gt_plan, bw_problem, bw_domain
    else:
        problem, domain = logistics_problems["log-01"], logistics_domain
        gt = solve_optimal(problem, domain)
        plan = remap_params(gt, {"l1": "l2", "l2": "l1"}, domain, problem)
    nodes = _recorded_nodes(monkeypatch)
    find_best_variant(plan, gt, problem, domain)
    nodes = list(nodes)
    total, skips = 0, []  # the nodes, and the number of each skipped one
    for _, skipped in nodes:
        if skipped:
            skips.append(total)
        total += len(plan) if skipped is None else 1
    assert total == _visited_under_budget(nodes, plan, math.inf)[1]
    # A budget of every node is not exceeded.
    find_best_variant(plan, gt, problem, domain, PipelineConfig(budget=total))
    # Budgets that stop the search at a skipped partial mapping or just after.
    assert len(skips) >= 2
    budgets = sorted({budget for index in skips for budget in (index, index + 1)
                      if budget < total})
    picked = budgets[::len(budgets) // 8 or 1] + [budgets[-1], total - 1]
    for budget in picked:
        _assert_budget_winner_is_exact(plan, gt, problem, domain, nodes, budget)


TOUR_DOMAIN = """(define (domain tour) (:requirements :strips)
  (:predicates (at ?x))
  (:action move :parameters (?from ?to)
   :precondition (at ?from) :effect (and (at ?to) (not (at ?from)))))"""
TOUR_PROBLEM = """(define (problem tour-4) (:domain tour) (:objects l1 l2 l3 l4)
  (:init (at l1)) (:goal (at l1)))"""


@pytest.mark.parametrize("c_shift, c_map", [(1, 1), (0, 0)], ids=["1-1", "0-0"])
def test_valid_variant_at_shift_zero_beats_an_earlier_shifted_one(c_shift, c_map):
    # The tour l1 -> l2 -> l3 -> l4 -> l1, rotated by two, is valid again
    # under the identity at shift 2 and under the l1/l3 swap at shift 0 (the
    # reversed tour).  Both cost two changes; the swap, enumerated later and
    # moving as many objects as the first valid variant changes, wins on the
    # shift, so its subtree must not be skipped.
    domain = parse_domain(TOUR_DOMAIN)
    problem = parse_problem(TOUR_PROBLEM, domain)
    tour = parse_plan("(move l1 l2)\n(move l2 l3)\n(move l3 l4)\n(move l4 l1)\n",
                      domain, problem)
    plan = circular_shift(tour, 2)
    config = PipelineConfig(c_shift=Fraction(c_shift), c_map=Fraction(c_map))
    best = find_best_variant(plan, tour, problem, domain, config)
    oracle = rank_variants_oracle(plan, tour, problem, domain, config)
    assert best.breakdown.valid
    assert best.transformation == oracle.transformation
    assert best.transformation == Transformation(
        0, (("l1", "l3"), ("l2", "l2"), ("l3", "l1"), ("l4", "l4")))


def _hallucinated(gt, domain, problem):
    """The batch's hallucinated candidate: two unknown actions, three new objects."""
    lines = plan_to_text(gt).splitlines()
    lines.insert(1, "(teleport x9 y9)")
    lines.append("(warp z9)")
    return parse_plan("\n".join(lines) + "\n", domain, problem)


def test_hallucinated_six_object_plan_remaps_few_mappings(monkeypatch, bw_domain,
                                                          bw_problem):
    gt = solve_optimal(bw_problem, bw_domain)
    plan = _hallucinated(gt, bw_domain, bw_problem)
    assert len(plan.objects()) == 6
    remaps = _count_remaps(monkeypatch)
    best = find_best_variant(plan, gt, bw_problem, bw_domain)
    assert remaps[0] <= 10  # of 720 mappings
    oracle = rank_variants_oracle(plan, gt, bw_problem, bw_domain, PipelineConfig())
    assert best.transformation == oracle.transformation
    assert best.penalized == oracle.penalized
    assert best.plan.keys() == oracle.plan.keys()


def test_search_leaves_no_cyclic_garbage(bw_domain, bw_problem, logistics_domain,
                                         logistics_problems):
    # Reference cycles would wait for the collector and raise peak memory.
    gt = solve_optimal(bw_problem, bw_domain)
    five = make_bw_problem(bw_domain, [["a"], ["b"], ["c"], ["d"], ["e"]],
                           [["a", "b", "c", "d", "e"]])
    five_gt = solve_optimal(five, bw_domain)
    log = logistics_problems["log-04"]
    log_gt = solve_optimal(log, logistics_domain)
    swapped = remap_params(log_gt, {"p1": "p2", "p2": "p1"}, logistics_domain, log)
    assert len(swapped.objects()) > 6
    searches = [(_hallucinated(gt, bw_domain, bw_problem), gt, bw_problem, bw_domain),
                (five_gt[:-2], five_gt, five, bw_domain),
                (swapped, log_gt, log, logistics_domain)]
    gc.collect()
    gc.disable()
    try:
        for plan, target, problem, domain in searches:
            find_best_variant(plan, target, problem, domain)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("provider, max_length", [
    (PROVIDERS["exact"], 4),
    (PROVIDERS["char_lcs"], 3),
    (PROVIDERS["synonyms"], 3),
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
        objs = sorted(plan.objects())
        ceiling = score_ceiling(plan, gt_plan, objs, provider)
        for perm in itertools.permutations(objs):
            bound = ceiling(perm)
            # A partial mapping bounds each of its completions.
            assert all(ceiling(perm[:k]) >= bound for k in range(len(perm)))
            mapping = dict(zip(objs, perm))
            mapped = remap_params(plan, mapping, bw_domain, bw_problem)
            for shift in range(max(len(plan), 1)):
                variant = circular_shift(mapped, shift)
                transformation = Transformation(shift, tuple(mapping.items()))
                score = score_variant(variant, transformation,
                                      penalty_oracle(transformation, len(plan), config),
                                      gt_plan, is_valid(variant, bw_problem), sim)
                if not score.breakdown.valid:
                    assert bound - score.penalty >= score.penalized
                    checked += 1
    assert checked > 2000


@pytest.mark.parametrize("provider", list(PROVIDERS.values()), ids=list(PROVIDERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_score_ceiling_never_rises_along_a_prefix(gt_plan, provider, data):
    # The pi1 search bounds every mapping by the ceiling of the empty one,
    # which is sound only while extending the images never raises it.  Plans
    # mix ground-truth shapes with a synonym, a hallucinated name and objects
    # z and x9 outside the ground truth.
    shapes = [("pick-up", 1), ("put-down", 1), ("stack", 2), ("unstack", 2),
              ("lift", 1), ("teleport", 2)]
    objects = ["a", "b", "c", "z", "x9"]
    drawn = data.draw(st.lists(st.tuples(st.sampled_from(shapes),
                                         st.lists(st.sampled_from(objects),
                                                  min_size=2, max_size=2)),
                               min_size=1, max_size=8))
    plan = Plan(tuple(act(name, *args[:arity]) for (name, arity), args in drawn))
    objs = list(dict.fromkeys(arg for action in plan for arg in action.args))
    images = tuple(data.draw(st.permutations(objs)))
    ceiling = score_ceiling(plan, gt_plan, objs, provider)
    bounds = [ceiling(images[:k]) for k in range(len(objs) + 1)]
    assert bounds == sorted(bounds, reverse=True)


@pytest.mark.parametrize("which, budget", [
    ("pi0", 0), ("pi0", 1), ("pi0", 7), ("pi0", 40), ("pi0", 53),
    ("shuffled-gt", 4), ("shuffled-gt", 5), ("shuffled-gt", 7), ("shuffled-gt", 8),
    ("shuffled-gt", 30),
])
def test_budget_winner_is_exact_over_enumerated_prefix(monkeypatch, pi0_plan, gt_plan,
                                                       bw_problem, bw_domain, which, budget):
    # pi0 takes 54 nodes and has no valid variant.  The shuffled ground truth
    # takes 12: three partial mappings, the six shifts of the identity, the
    # fifth of them valid (node 7), and three skipped partial mappings.
    plan = pi0_plan if which == "pi0" else circular_shift(gt_plan, 2)
    nodes = _recorded_nodes(monkeypatch)
    unbounded = find_best_variant(plan, gt_plan, bw_problem, bw_domain)
    nodes = list(nodes)
    _, total = _visited_under_budget(nodes, plan, math.inf)
    assert total == (54 if which == "pi0" else 12)
    if budget < total:
        _assert_budget_winner_is_exact(plan, gt_plan, bw_problem, bw_domain, nodes, budget)
    else:
        best = find_best_variant(plan, gt_plan, bw_problem, bw_domain,
                                 PipelineConfig(budget=budget))
        assert best == unbounded


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
    best = find_best_variant(plan, gt, problem, bw_domain, config)
    oracle = rank_variants_oracle(plan, gt, problem, bw_domain, config)
    assert best.breakdown.valid
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
    best = find_best_variant(plan, gt, bw_problem, bw_domain, config)
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
    best_score = excinfo.value.best
    assert len(best_score.plan) == len(pi0_plan)
    assert best_score.penalized is not None
    if budget == 0:  # only the identity, enumerated first, was scored
        assert best_score.transformation.shift == 0
        assert all(src == dst for src, dst in best_score.transformation.mapping)
        assert best_score.plan.keys() == pi0_plan.keys()


@pytest.mark.parametrize("budget", [0, 1, 100_000])
def test_valid_plan_is_its_own_variant_without_a_search(monkeypatch, gt_plan, bw_problem,
                                                        bw_domain, budget):
    # The identity at shift 0 has penalty 0 and no change, and every other
    # variant changes something, so the search ends at that first variant,
    # before any budget check can raise.
    nodes = _recorded_nodes(monkeypatch)
    best = find_best_variant(gt_plan, gt_plan, bw_problem, bw_domain,
                             PipelineConfig(budget=budget))
    identity = tuple(dict.fromkeys(arg for action in gt_plan for arg in action.args))
    assert nodes == [*((identity[:k], False) for k in range(1, len(identity) + 1)),
                     (identity, None)]
    assert best.transformation == Transformation(0, (("a", "a"), ("b", "b"), ("c", "c")))
    assert best.breakdown.valid and best.penalty == 0
    assert best.penalized == best.breakdown.total
    assert best.plan.keys() == gt_plan.keys()


def test_bounds_are_built_only_when_the_identity_is_invalid(monkeypatch, gt_plan, pi0_plan,
                                                          bw_problem, bw_domain):
    # The score ceiling and the dead-prefix test are built once, when the
    # identity at shift 0 proves invalid; a valid plan's search builds neither.
    built = {name: [] for name in ("score_ceiling", "_no_valid_completion")}
    for name, calls in built.items():
        original = getattr(transform, name)
        monkeypatch.setattr(transform, name, lambda *args, original=original, calls=calls:
                            calls.append(args) or original(*args))
    find_best_variant(gt_plan, gt_plan, bw_problem, bw_domain)
    assert {name: len(calls) for name, calls in built.items()} == {
        "score_ceiling": 0, "_no_valid_completion": 0}
    find_best_variant(pi0_plan, gt_plan, bw_problem, bw_domain)
    assert {name: len(calls) for name, calls in built.items()} == {
        "score_ceiling": 1, "_no_valid_completion": 1}


@pytest.mark.parametrize("c_shift, c_map", [(Fraction(1, 3), Fraction(2, 5)),
                                            (Fraction(0), Fraction(1, 2))],
                         ids=["third-two-fifths", "zero-half"])
@pytest.mark.parametrize("which", ["pi0", "shuffled-gt"])
def test_fractional_costs_match_oracle(pi0_plan, gt_plan, bw_problem, bw_domain,
                                       which, c_shift, c_map):
    # The search counts penalties in integers over the lcm of the cost
    # denominators, here 15 and 2.
    plan = pi0_plan if which == "pi0" else circular_shift(gt_plan, 2)
    config = PipelineConfig(c_shift=c_shift, c_map=c_map)
    best = find_best_variant(plan, gt_plan, bw_problem, bw_domain, config)
    oracle = rank_variants_oracle(plan, gt_plan, bw_problem, bw_domain, config)
    assert best.transformation == oracle.transformation
    assert best.penalty == oracle.penalty
    assert best.penalized == oracle.penalized
    assert best.plan.keys() == oracle.plan.keys()


def test_warm_tables_give_the_fresh_winner(pi0_plan, gt_plan, bw_problem, bw_domain,
                                           logistics_domain, logistics_problems):
    # Tables that earlier searches against the same problem and ground truth
    # filled give each search the result it gets without them.
    log = logistics_problems["log-04"]
    log_gt = solve_optimal(log, logistics_domain)
    swapped = remap_params(log_gt, {"p1": "p2", "p2": "p1"}, logistics_domain, log)
    searches = [(pi0_plan, gt_plan, bw_problem, bw_domain),
                (circular_shift(gt_plan, 2), gt_plan, bw_problem, bw_domain),
                (_hallucinated(gt_plan, bw_domain, bw_problem), gt_plan, bw_problem, bw_domain),
                (swapped, log_gt, log, logistics_domain)]
    resolved = {domain: {} for domain in (bw_domain.name, logistics_domain.name)}
    for _ in range(2):
        for plan, gt, problem, domain in searches:
            warm = find_best_variant(plan, gt, problem, domain, resolved=resolved[domain.name])
            assert warm == find_best_variant(plan, gt, problem, domain)
    assert all(resolved.values())


def test_search_is_deterministic(pi0_plan, gt_plan, bw_problem, bw_domain):
    outcomes = [find_best_variant(pi0_plan, gt_plan, bw_problem, bw_domain)
                for _ in range(3)]
    assert all(o.transformation == outcomes[0].transformation for o in outcomes)
    assert all(o.penalized == outcomes[0].penalized for o in outcomes)


def test_seven_object_search_finds_object_swap(logistics_domain, logistics_problems):
    from planeval import solve_optimal
    problem = logistics_problems["log-04"]
    gt = solve_optimal(problem, logistics_domain)
    assert len(problem.objects) == 7
    swapped = remap_params(gt, {"p1": "p2", "p2": "p1"}, logistics_domain, problem)
    assert not is_valid(swapped, problem)
    score = find_best_variant(swapped, gt, problem, logistics_domain)
    changed = {src: dst for src, dst in score.transformation.mapping if src != dst}
    assert changed == {"p1": "p2", "p2": "p1"}
    assert score.breakdown.valid
    assert score.plan.keys() == gt.keys()


LOG_03_CANDIDATE = """(load-airplane p1 t2 ap1)
(fly-airplane t2 ap1 ap2)
(unload-airplane p1 t2 ap2)
(load-truck p1 t1 ap2)
(drive-truck t1 ap2 l2 c2)
(unload-truck p1 t1 l2)
(load-truck p1 a1 l1)
(drive-truck a1 l1 ap1 c1)
(unload-truck p1 a1 ap1)
"""


def test_ten_object_search_finds_the_valid_winner(logistics_domain, logistics_problems):
    # The vehicles of the log-03 ground truth rotated and the plan shifted:
    # restricting the search to mappings that align one action with the
    # ground truth reported an invalid variant with penalized score 33.
    problem = logistics_problems["log-03"]
    gt = solve_optimal(problem, logistics_domain)
    plan = parse_plan(LOG_03_CANDIDATE, logistics_domain, problem)
    assert len(plan.objects()) == 10
    score = find_best_variant(plan, gt, problem, logistics_domain)
    assert score.breakdown.valid and score.penalized == 3
    assert score.transformation.shift == 3
    changed = {src: dst for src, dst in score.transformation.mapping if src != dst}
    assert changed == {"a1": "t1", "t1": "t2", "t2": "a1"}
    assert is_valid(score.plan, problem)


def test_seven_object_perturbed_plan_matches_oracle(logistics_domain, logistics_problems):
    # From a perturbation generator: the log-04 ground truth with c1, l3 and
    # p2 rotated and one action dropped.  Restricting the search to
    # mappings that align one action with the ground truth lost here.
    problem = logistics_problems["log-04"]
    gt = parse_plan("(load-truck p1 t1 l1)\n(drive-truck t1 l1 l2 c1)\n"
                    "(load-truck p2 t1 l2)\n(drive-truck t1 l2 l3 c1)\n"
                    "(unload-truck p1 t1 l3)\n(unload-truck p2 t1 l3)\n",
                    logistics_domain, problem)
    plan = parse_plan("(load-truck p1 t1 l1)\n(drive-truck t1 l1 l2 l3)\n"
                      "(load-truck c1 t1 l2)\n(unload-truck p1 t1 p2)\n"
                      "(unload-truck c1 t1 p2)\n", logistics_domain, problem)
    assert len(plan.objects()) == 7
    config = PipelineConfig()
    best = find_best_variant(plan, gt, problem, logistics_domain, config)
    oracle = rank_variants_oracle(plan, gt, problem, logistics_domain, config)
    assert best.transformation == oracle.transformation
    assert best.penalized == oracle.penalized == Fraction(121, 6)
    assert best.breakdown.valid == oracle.breakdown.valid
    assert best.plan.keys() == oracle.plan.keys()


@pytest.mark.parametrize("positions, budget", [
    ((8, 5, 2, 0), 20_000),
    ((6, 3, 1, 0, 0), 2_000),
], ids=["18-objects", "20-objects"])
def test_hallucinated_log_03_plan_stays_within_budget(logistics_domain, logistics_problems,
                                                      positions, budget):
    # Unknown actions over unknown objects inserted into the log-03 ground
    # truth: no variant is valid, so only the score ceiling cuts the 18! or
    # 20! mappings short.  Without its bound on the substring run (18
    # objects) or on the arguments that can still be ground-truth objects
    # (20 objects), the search needs more nodes than the budget.
    problem = logistics_problems["log-03"]
    gt = solve_optimal(problem, logistics_domain)
    lines = plan_to_text(gt).splitlines()
    for index, position in enumerate(positions):
        lines.insert(position, f"(teleport x{index} y{index})")
    plan = parse_plan("\n".join(lines) + "\n", logistics_domain, problem)
    assert len(plan.objects()) == 10 + 2 * len(positions)
    best = find_best_variant(plan, gt, problem, logistics_domain,
                             PipelineConfig(budget=budget))
    assert not best.breakdown.valid


def test_validity_first_ranking(bw_domain, bw_problem, gt_plan):
    # A shuffled ground truth has a valid variant reachable by shifting, so
    # the winner must be valid even though the identity scores well too.
    shuffled = circular_shift(gt_plan, 2)
    assert not is_valid(shuffled, bw_problem)
    score = find_best_variant(shuffled, gt_plan, bw_problem, bw_domain)
    assert score.breakdown.valid
