from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from planeval import (
    is_valid,
    lcs_analyze,
    length_penalty,
    normalize_score,
    pair_actions,
    plan_score,
    potential,
)
from planeval.errors import ZeroLengthGroundTruth
from planeval.pddl import Plan
from planeval.scoring import M_MAX, placeholder_similarity
from planeval.similarity import CharLcsSimilarity, SynonymTable, exact_name_similarity

from oracles import placeholder_similarity_oracle


def audit(breakdown) -> bool:
    """Recompute the total from the components; must hold exactly, always."""
    return breakdown.total == (
        breakdown.base + breakdown.similarity_sum + breakdown.pair_bonus
        + breakdown.substring_bonus + breakdown.subsequence_bonus - breakdown.length_penalty
    )


def breakdown_for(plan, gt, problem):
    pairing, _ = pair_actions(plan, gt)
    return plan_score(plan, gt, pairing, lcs_analyze(plan, gt), is_valid(plan, problem))


def test_length_penalty_reported_value():
    assert length_penalty(8, 6) == Fraction(2, 3)


def test_length_penalty_equal_lengths():
    for m in (1, 4, 9):
        assert length_penalty(m, m) == 0


def test_length_penalty_short_plans_pay_double():
    assert length_penalty(4, 6) == Fraction(4, 3)
    for gap in (1, 2, 5):
        assert length_penalty(6 - gap, 6) == 2 * length_penalty(6 + gap, 6)


def test_length_penalty_zero_gt():
    with pytest.raises(ZeroLengthGroundTruth):
        length_penalty(3, 0)


def test_plan_score_running_example(pi0_plan, gt_plan, bw_problem):
    breakdown = breakdown_for(pi0_plan, gt_plan, bw_problem)
    assert breakdown.base == 8
    assert breakdown.similarity_sum == Fraction(57, 10)
    assert breakdown.base + breakdown.similarity_sum == Fraction(137, 10)
    assert breakdown.pair_bonus == Fraction(5, 2)
    assert (breakdown.base + breakdown.similarity_sum
            + breakdown.pair_bonus) == Fraction(81, 5)  # 16.2
    assert breakdown.substring_bonus == 2
    assert breakdown.subsequence_bonus == 1
    assert (breakdown.base + breakdown.similarity_sum + breakdown.pair_bonus
            + breakdown.substring_bonus + breakdown.subsequence_bonus) == Fraction(96, 5)
    assert breakdown.length_penalty == Fraction(2, 3)
    assert breakdown.total == Fraction(278, 15)
    assert audit(breakdown)


def test_plan_score_valid_optimal(gt_plan, bw_problem):
    breakdown = breakdown_for(gt_plan, gt_plan, bw_problem)
    assert breakdown.valid
    assert breakdown.total == len(gt_plan)
    assert breakdown.similarity_sum == 0 and breakdown.pair_bonus == 0


def test_plan_score_valid_suboptimal(bw_domain, bw_problem, gt_plan):
    from planeval import parse_plan
    detour = parse_plan(
        "(pick-up a)\n(put-down a)\n"  # pointless but executable detour
        "(unstack b c)\n(put-down b)\n(pick-up c)\n(stack c b)\n"
        "(pick-up a)\n(stack a c)\n",
        bw_domain, bw_problem)
    assert is_valid(detour, bw_problem)
    breakdown = breakdown_for(detour, gt_plan, bw_problem)
    assert breakdown.total == len(detour) - Fraction(4, len(gt_plan))


def test_potential_running_example():
    # (278/15 + 77/3) / 16 is exactly 2.7625, which also lands within 0.01
    # of the rounded repeating decimal 2.766...
    result = potential(Fraction(278, 15), Fraction(77, 3), 8, False)
    assert result == Fraction(221, 80)
    assert abs(float(result) - 2.7625) < 1e-9
    assert abs(float(result) - 2.7666) < 0.01


def test_potential_degenerate_mean():
    result = potential(Fraction(9), Fraction(9), 3, False)
    assert result == 3


def test_potential_validity_reward():
    result = potential(Fraction(6), Fraction(6), 6, True)
    assert result == 2  # 1 per action + reward 1
    assert potential(Fraction(6), Fraction(6), 6, False) == 1
    custom = potential(Fraction(6), Fraction(6), 6, True, reward=Fraction(1, 2))
    assert custom == Fraction(3, 2)


def test_potential_requires_nonempty_plan():
    with pytest.raises(ZeroLengthGroundTruth):
        potential(Fraction(0), Fraction(0), 0, False)


def test_normalize_running_example(pi0_plan, gt_plan, bw_problem):
    breakdown = breakdown_for(pi0_plan, gt_plan, bw_problem)
    normalized = normalize_score(breakdown, pi0_plan, gt_plan)
    assert normalized == Fraction(278, 15) / (8 * M_MAX)
    assert abs(float(normalized) - 0.5148) < 1e-3


def test_normalize_caps_at_one(gt_plan, bw_problem):
    # Full composition of a perfect plan exceeds the per-action ceiling and
    # is capped: (1 + 1 + 0.5 + 2 + 1) / 4.5 > 1.
    pairing, _ = pair_actions(gt_plan, gt_plan)
    full = plan_score(gt_plan, gt_plan, pairing, lcs_analyze(gt_plan, gt_plan), False)
    assert full.total == Fraction(11, 2) * len(gt_plan)
    assert normalize_score(full, gt_plan, gt_plan) == 1


def test_normalize_negative_outlier(bw_problem, gt_plan, bw_domain):
    from planeval import parse_plan
    bloated = parse_plan("(pick-up a)\n" * 40, bw_domain, bw_problem)
    breakdown = breakdown_for(bloated, gt_plan, bw_problem)
    normalized = normalize_score(breakdown, bloated, gt_plan)
    assert normalized < 0  # large length penalties stay negative, uncapped


def test_normalize_empty_plan_uses_gt_length(gt_plan, bw_problem):
    breakdown = breakdown_for(Plan(), gt_plan, bw_problem)
    assert breakdown.total == -12  # 0 base, penalty 2*36/6
    normalized = normalize_score(breakdown, Plan(), gt_plan)
    assert normalized == Fraction(-12) / (6 * M_MAX)


def test_score_monotonicity_in_paired_actions(pi0_plan, gt_plan, bw_problem):
    # Rewriting a redundant action into a paired one never lowers the total
    # (lengths unchanged, so the penalty is fixed).
    pairing, _ = pair_actions(pi0_plan, gt_plan)
    base_total = plan_score(pi0_plan, gt_plan, pairing,
                            lcs_analyze(pi0_plan, gt_plan), False).total
    improved = Plan(pi0_plan.actions[:5] + (gt_plan[4],) + pi0_plan.actions[6:])
    pairing2, _ = pair_actions(improved, gt_plan)
    improved_total = plan_score(improved, gt_plan, pairing2,
                                lcs_analyze(improved, gt_plan), False).total
    assert improved_total >= base_total


def test_breakdown_audit_is_exact(pi0_plan, gt_plan, bw_problem):
    breakdown = breakdown_for(pi0_plan, gt_plan, bw_problem)
    assert isinstance(breakdown.total, Fraction)
    assert audit(breakdown)


@pytest.mark.parametrize("provider", [
    exact_name_similarity,
    CharLcsSimilarity(),
    SynonymTable({("pick-up", "lift"): Fraction(1, 2), ("stack", "put"): Fraction(1, 10)}),
], ids=["exact", "char_lcs", "synonyms"])
def test_placeholder_similarity_matches_action_similarity(provider):
    names = ["pick-up", "lift", "stack", "put", "Unstack", "drive-truck", "x"]
    for name, other, arity, other_arity in itertools.product(names, names, range(5),
                                                             range(5)):
        for j in range(arity + 1):
            args = (name, arity, other, other_arity, j, provider)
            assert placeholder_similarity(*args) == placeholder_similarity_oracle(*args), args
