from __future__ import annotations

import random
from fractions import Fraction

import pytest

from planeval import (
    CharLcsSimilarity,
    QualityLabel,
    SynonymTable,
    action_similarity,
    aqm_score,
    exact_name_similarity,
    non_positional_aqm,
    pair_actions,
    param_score,
)
from planeval.errors import ConfigError
from planeval.pddl import GroundAction, Plan
from planeval.similarity import char_lcs_len

from oracles import brute_force_param_counts


def act(name, *args):
    return GroundAction(name, tuple(args))


# ---------------------------------------------------------------------------
# Name similarity providers
# ---------------------------------------------------------------------------


def test_name_similarity_identity():
    assert exact_name_similarity("Stack", "stack") == 1


def test_strict_provider_gives_zero_for_unstack_stack():
    # Strict matching: no credit across different action names.
    assert exact_name_similarity("unstack", "stack") == 0


def test_char_lcs_provider_derived_values():
    provider = CharLcsSimilarity()
    # charLCS("unstack", "stack") = 5 -> 10/12, above the 0.5 floor.
    assert char_lcs_len("unstack", "stack") == 5
    assert provider("unstack", "stack") == Fraction(10, 12)
    # charLCS("pick-up", "put-down") = 2 ("p-") -> 4/15, floored to 0.
    assert char_lcs_len("pick-up", "put-down") == 2
    value = provider("pick-up", "put-down")
    assert value == 0
    assert 0 <= value < 1


def test_provider_conformance():
    rng = random.Random(3)
    names = ["pick-up", "put-down", "stack", "unstack", "load-truck", "fly", "x"]
    table = SynonymTable({("pick-up", "lift"): Fraction(4, 5)})
    for provider in (exact_name_similarity, CharLcsSimilarity(), table):
        for name in names:
            assert provider(name, name) == 1
        for _ in range(50):
            a, b = rng.choice(names), rng.choice(names)
            score = provider(a, b)
            assert provider(b, a) == score
            assert 0 <= score <= 1


def test_synonym_table_load(tmp_path):
    path = tmp_path / "synonyms.txt"
    path.write_text("pick-up lift 0.8\nstack place-on 0.9  # comment\n")
    table = SynonymTable.load(path)
    assert table("lift", "pick-up") == Fraction(4, 5)
    assert table("place-on", "stack") == Fraction(9, 10)
    assert table("lift", "stack") == 0


def test_synonym_table_with_byte_order_mark_scores_its_first_pair(tmp_path):
    path = tmp_path / "synonyms.txt"
    path.write_text("\ufeffpick-up lift 0.8\n", encoding="utf-8")
    assert SynonymTable.load(path)("lift", "pick-up") == Fraction(4, 5)


def test_synonym_table_rejects_bad_scores(tmp_path):
    path = tmp_path / "synonyms.txt"
    path.write_text("a b 1.5\n")
    with pytest.raises(ConfigError):
        SynonymTable.load(path)


# ---------------------------------------------------------------------------
# Parameter and action similarity
# ---------------------------------------------------------------------------


def test_param_score_reported_values():
    assert param_score(["a", "c"], ["b", "c"]) == Fraction(1, 4)
    assert param_score(["c", "a"], ["a", "c"]) == Fraction(1, 5)
    assert param_score(["a"], ["a", "b"]) == Fraction(3, 20)  # 0.25 - 0.1


def test_param_score_matches_brute_force():
    rng = random.Random(11)
    objects = ["a", "b", "c", "d"]
    for _ in range(500):
        p = [rng.choice(objects) for _ in range(rng.randint(0, 4))]
        q = [rng.choice(objects) for _ in range(rng.randint(0, 4))]
        f_count, m_count = brute_force_param_counts(p, q)
        expected = (Fraction(1, 4) * f_count + Fraction(1, 10) * m_count
                    - Fraction(1, 10) * abs(len(p) - len(q)))
        assert param_score(p, q) == expected


def test_action_similarity_reported_values():
    assert action_similarity(act("put-down", "a"), act("put-down", "b")) == 1
    assert action_similarity(act("stack", "c", "a"), act("stack", "c", "b")) == Fraction(5, 4)
    # sigma = 0 across names, so only the parameter term contributes.
    assert action_similarity(act("unstack", "c", "a"), act("stack", "a", "c")) == Fraction(1, 5)


def test_action_similarity_identity():
    for action in (act("pick-up", "c"), act("stack", "a", "b")):
        expected = 1 + Fraction(1, 4) * len(action.args)
        assert action_similarity(action, action) == expected


def test_action_similarity_floored_at_zero():
    # Arity gap drives sigma + C below zero; the score must floor at 0.
    assert action_similarity(act("go", "a"), act("fly", "b", "c", "d")) == 0


# ---------------------------------------------------------------------------
# Pairing and quality labels
# ---------------------------------------------------------------------------


def test_pairing_running_example(pi0_plan, gt_plan):
    pairing, aqm = pair_actions(pi0_plan, gt_plan)
    assert aqm.label_names() == (
        "same_act", "same_act", "correct", "same_act",
        "diff_act", "redundant", "same_act", "redundant",
    )
    assert pairing.per_action_scores == (
        Fraction(5, 4), Fraction(1), Fraction(1), Fraction(5, 4),
        Fraction(1, 5), Fraction(0), Fraction(1), Fraction(0),
    )
    assert sum(pairing.per_action_scores) == Fraction(57, 10)
    # Positional pairing sends candidate 5 to ground-truth action 6.
    assert [p.gt_index for p in pairing.pairs if p.candidate_index == 5] == [6]
    assert pairing.unpaired == (6, 8)


def test_pairing_identical_plans(gt_plan):
    _, aqm = pair_actions(gt_plan, gt_plan)
    assert set(aqm.labels) == {QualityLabel.CORRECT}


def test_pairing_reversed_plan_all_misplaced(gt_plan):
    reversed_plan = Plan(tuple(reversed(gt_plan.actions)))
    _, aqm = pair_actions(reversed_plan, gt_plan)
    assert set(aqm.labels) == {QualityLabel.MISPLACED}


def test_pairing_prefers_correct_over_equal_scoring_match(gt_plan):
    # A later identical action must win its slot over an earlier fuzzy match.
    candidate = Plan((act("unstack", "c", "a"), *gt_plan.actions[1:]))
    pairing, aqm = pair_actions(candidate, gt_plan)
    assert aqm.labels[5] is QualityLabel.CORRECT  # (stack a c) keeps its slot
    assert [p.gt_index for p in pairing.pairs if p.candidate_index == 1] == [1]


def test_pairing_duplicate_candidates_not_paired_twice(gt_plan):
    duplicated = Plan((gt_plan[0], gt_plan[0], gt_plan[0]))
    pairing, aqm = pair_actions(duplicated, gt_plan)
    assert aqm.labels[0] is QualityLabel.CORRECT
    gt_indices = [p.gt_index for p in pairing.pairs]
    assert len(gt_indices) == len(set(gt_indices))


def test_np_aqm_running_example(pi0_plan, gt_plan):
    pairing, aqm = pair_actions(pi0_plan, gt_plan)
    np_aqm = non_positional_aqm(pi0_plan, gt_plan, aqm)
    assert np_aqm.label_names() == (
        "same_act", "same_act", "correct", "same_act",
        "diff_act", "same_act", "same_act", "same_act",
    )


def test_np_aqm_all_correct_unchanged(gt_plan):
    pairing, aqm = pair_actions(gt_plan, gt_plan)
    assert non_positional_aqm(gt_plan, gt_plan, aqm).labels == aqm.labels


def test_np_aqm_keeps_unrelated_hallucination_redundant(bw_domain, bw_problem, gt_plan):
    candidate = Plan((*gt_plan.actions, act("teleport", "x", "y")))
    pairing, aqm = pair_actions(candidate, gt_plan)
    assert aqm.labels[-1] is QualityLabel.REDUNDANT
    np_aqm = non_positional_aqm(candidate, gt_plan, aqm)
    assert np_aqm.labels[-1] is QualityLabel.REDUNDANT


def test_aqm_score_running_example(pi0_plan, gt_plan):
    _, aqm = pair_actions(pi0_plan, gt_plan)
    assert aqm_score(aqm) == Fraction(13, 32)  # 0.40625


def test_aqm_score_extremes(gt_plan):
    _, all_correct = pair_actions(gt_plan, gt_plan)
    assert aqm_score(all_correct) == 1
    _, all_redundant = pair_actions(
        Plan((act("teleport", "x"), act("warp", "y"))), gt_plan)
    assert aqm_score(all_redundant) == 0
    assert aqm_score(pair_actions(Plan(), gt_plan)[1]) == 0


def test_pairing_is_deterministic(pi0_plan, gt_plan):
    results = [pair_actions(pi0_plan, gt_plan) for _ in range(3)]
    assert all(r == results[0] for r in results)
