from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from planeval import QualityLabel, pair_actions, parse_domain, parse_plan, parse_problem, ground
from planeval.errors import (
    ArityMismatch,
    MalformedLine,
    PddlSyntaxError,
    PlanEvalError,
    TypeMismatch,
    UndeclaredSymbol,
    UnsupportedFeature,
)
from planeval.pddl import GroundAction, Plan, domain_to_pddl, plan_to_text, problem_to_pddl

from conftest import FIXTURES, INSTANCE_10_CANDIDATE


def test_blocksworld_domain_schemas(bw_domain):
    assert bw_domain.name == "blocksworld-4ops"
    assert {s.name for s in bw_domain.schemas} == {"pick-up", "put-down", "stack", "unstack"}
    assert len(bw_domain.predicates) == 5


def test_zero_action_domain_is_valid():
    domain = parse_domain("(define (domain empty) (:requirements :strips) (:predicates (p ?x)))")
    assert domain.schemas == ()


def test_logistics_domain_has_six_schemas(logistics_domain):
    assert len(logistics_domain.schemas) == 6
    assert logistics_domain.typed
    assert logistics_domain.is_subtype("truck", "vehicle")
    assert logistics_domain.is_subtype("truck", "physobj")
    assert logistics_domain.is_subtype("airport", "place")
    assert not logistics_domain.is_subtype("city", "physobj")


def test_domain_rejects_conditional_effects():
    text = """
    (define (domain bad) (:requirements :strips)
      (:predicates (p ?x) (q ?x))
      (:action a :parameters (?x)
        :precondition (p ?x)
        :effect (when (p ?x) (q ?x))))
    """
    with pytest.raises(UnsupportedFeature):
        parse_domain(text)


def test_domain_rejects_negative_preconditions():
    text = """
    (define (domain bad) (:requirements :strips)
      (:predicates (p ?x))
      (:action a :parameters (?x) :precondition (not (p ?x)) :effect (p ?x)))
    """
    with pytest.raises(UnsupportedFeature):
        parse_domain(text)


def test_domain_rejects_numeric_requirement():
    with pytest.raises(UnsupportedFeature):
        parse_domain("(define (domain bad) (:requirements :fluents))")


def test_domain_rejects_quantified_goal_syntax():
    text = """
    (define (domain bad) (:requirements :strips)
      (:predicates (p ?x))
      (:action a :parameters (?x)
        :precondition (forall (?y) (p ?y)) :effect (p ?x)))
    """
    with pytest.raises((UnsupportedFeature, UndeclaredSymbol)):
        parse_domain(text)


def test_syntax_error_carries_position():
    with pytest.raises(PddlSyntaxError) as excinfo:
        parse_domain("(define (domain broken)")
    assert excinfo.value.line == 1


@pytest.mark.parametrize("text", [
    "(define (domain))",
    "(define (problem))",
    "(define (domain cyclic) (:requirements :strips :typing) (:types a - b b - a))",
], ids=["empty-domain-header", "empty-problem-header", "cyclic-types"])
def test_malformed_define_is_a_syntax_error(bw_domain, text):
    with pytest.raises(PddlSyntaxError):
        if "(problem" in text:
            parse_problem(text, bw_domain)
        else:
            parse_domain(text)


def test_undeclared_predicate_in_schema():
    text = """
    (define (domain bad) (:requirements :strips)
      (:predicates (p ?x))
      (:action a :parameters (?x) :precondition (q ?x) :effect (p ?x)))
    """
    with pytest.raises(UndeclaredSymbol):
        parse_domain(text)


def test_problem_instance_10(bw_problem):
    assert len(bw_problem.objects) == 3
    assert len(bw_problem.goal) == 2
    assert ("on", "b", "c") in bw_problem.init


def test_problem_goal_subset_of_init_is_valid(bw_domain):
    text = """
    (define (problem trivial) (:domain blocksworld-4ops)
      (:objects a)
      (:init (handempty) (clear a) (ontable a))
      (:goal (ontable a)))
    """
    problem = parse_problem(text, bw_domain)
    assert problem.goal <= problem.init


def test_problem_undeclared_object(bw_domain):
    text = """
    (define (problem bad) (:domain blocksworld-4ops)
      (:objects a b c)
      (:init (handempty) (ontable d))
      (:goal (ontable a)))
    """
    with pytest.raises(UndeclaredSymbol):
        parse_problem(text, bw_domain)


def test_problem_type_mismatch(logistics_domain):
    text = """
    (define (problem bad) (:domain logistics)
      (:objects t1 - truck p1 - package l1 - location c1 - city)
      (:init (in-city t1 c1))
      (:goal (at p1 l1)))
    """
    with pytest.raises(TypeMismatch):
        parse_problem(text, logistics_domain)


def test_parse_plan_running_example(bw_domain, bw_problem, pi0_plan):
    assert len(pi0_plan) == 8
    assert pi0_plan[0].key == ("unstack", ("a", "c"))
    assert all(action.resolvable for action in pi0_plan)


def test_parse_plan_empty_input(bw_domain, bw_problem):
    assert len(parse_plan("", bw_domain, bw_problem)) == 0
    assert len(parse_plan("\n  \n ; comment only\n", bw_domain, bw_problem)) == 0


def test_parse_plan_flags_unresolvable(bw_domain, bw_problem):
    plan = parse_plan("(unstack a c)\nfoo bar\n", bw_domain, bw_problem)
    assert len(plan) == 2
    assert plan[0].resolvable
    assert not plan[1].resolvable
    assert plan[1].name == "foo"
    assert plan[1].args == ("bar",)


def test_parse_plan_tolerates_case_and_missing_parens(bw_domain, bw_problem):
    plan = parse_plan("  UNSTACK B C\n(Put-Down b)  ; comment\n", bw_domain, bw_problem)
    assert plan.keys() == (("unstack", ("b", "c")), ("put-down", ("b",)))
    assert all(action.resolvable for action in plan)


def test_ground_action_folds_case_on_construction(bw_domain, bw_problem):
    parsed = parse_plan("(pick-up a)\n", bw_domain, bw_problem)[0]
    action = GroundAction("Pick-Up", ("A",), parsed.preconditions,
                          parsed.add_effects, parsed.del_effects)
    assert action.name == "pick-up" and action.args == ("a",)
    assert action.key == ("pick-up", ("a",))
    assert str(action) == "(pick-up a)"
    assert action == parsed
    _, aqm = pair_actions(Plan((action,)), Plan((parsed,)))
    assert aqm.labels == (QualityLabel.CORRECT,)


def test_parse_plan_unknown_object_and_bad_arity(bw_domain, bw_problem):
    plan = parse_plan("(pick-up d)\n(stack a)\n", bw_domain, bw_problem)
    assert not plan[0].resolvable
    assert not plan[1].resolvable


def test_parse_plan_malformed_line(bw_domain, bw_problem):
    with pytest.raises(MalformedLine):
        parse_plan("(unstack a c)\n()\n", bw_domain, bw_problem)


def test_ground_unstack(bw_domain):
    action = ground(bw_domain.schema("unstack"), ["b", "c"])
    assert action.preconditions == {("on", "b", "c"), ("clear", "b"), ("handempty",)}
    assert action.add_effects == {("holding", "b"), ("clear", "c")}
    assert action.del_effects == {("on", "b", "c"), ("clear", "b"), ("handempty",)}


def test_ground_unary(bw_domain):
    action = ground(bw_domain.schema("pick-up"), ["c"])
    assert action.args == ("c",)
    assert ("holding", "c") in action.add_effects


def test_ground_arity_mismatch(bw_domain):
    with pytest.raises(ArityMismatch):
        ground(bw_domain.schema("stack"), ["a"])


def test_ground_type_mismatch(logistics_domain, logistics_problems):
    problem = logistics_problems["log-01"]
    schema = logistics_domain.schema("drive-truck")
    with pytest.raises(TypeMismatch):
        ground(schema, ["p1", "l1", "l2", "c1"], domain=logistics_domain, problem=problem)


def test_grounding_is_pure_substitution(bw_domain, logistics_domain, logistics_problems):
    # Distinct arguments keep the substitution collapse-free, so the multiset
    # of predicate names must be preserved exactly.
    rng = random.Random(7)
    problem = logistics_problems["log-03"]
    domains = [(bw_domain, ["a", "b", "c"]), (logistics_domain, sorted(problem.objects))]
    for domain, objs in domains:
        for schema in domain.schemas:
            for _ in range(20):
                args = rng.sample(objs, len(schema.params))
                action = ground(schema, args)
                for grounded, schematic in (
                    (action.preconditions, schema.preconditions),
                    (action.add_effects, schema.add_effects),
                    (action.del_effects, schema.del_effects),
                ):
                    assert sorted(a[0] for a in grounded) == sorted(a[0] for a in schematic)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_domain_round_trip(bw_domain, logistics_domain):
    for domain in (bw_domain, logistics_domain):
        assert parse_domain(domain_to_pddl(domain)) == domain


def test_problem_round_trip(bw_domain, bw_problem, logistics_domain, logistics_problems):
    assert parse_problem(problem_to_pddl(bw_problem, bw_domain), bw_domain) == bw_problem
    for problem in logistics_problems.values():
        text = problem_to_pddl(problem, logistics_domain)
        assert parse_problem(text, logistics_domain) == problem


def test_plan_round_trip(bw_domain, bw_problem):
    plan = parse_plan(INSTANCE_10_CANDIDATE, bw_domain, bw_problem)
    assert parse_plan(plan_to_text(plan), bw_domain, bw_problem) == plan


# ---------------------------------------------------------------------------
# Models compare and hash by value
# ---------------------------------------------------------------------------

LOG_TYPES = ["truck airplane - vehicle", "package vehicle - physobj",
             "airport location - place", "city place physobj - object"]
LOG_OBJECTS = ["t1 - truck", "a1 - airplane", "p1 - package", "l1 - location",
               "l2 - airport", "c1 - city"]
LOG_INIT = ["(in-city l1 c1)", "(in-city l2 c1)", "(at t1 l1)", "(at a1 l2)", "(at p1 l1)"]


def logistics_texts(types=LOG_TYPES, objects=LOG_OBJECTS, init=LOG_INIT,
                    goal="(at p1 l2)") -> tuple[str, str]:
    """Logistics domain and problem texts with the given section contents."""
    domain = (FIXTURES / "logistics" / "domain.pddl").read_text()
    start = domain.index("(:types")
    end = domain.index(")", start)
    domain = f"{domain[:start]}(:types {' '.join(types)}{domain[end:]}"
    problem = (f"(define (problem log-h) (:domain logistics)\n"
               f"  (:objects {' '.join(objects)})\n"
               f"  (:init {' '.join(init)})\n"
               f"  (:goal {goal}))\n")
    return domain, problem


def parse_models(texts: tuple[str, str]):
    domain = parse_domain(texts[0])
    return domain, parse_problem(texts[1], domain)


def test_models_parsed_twice_are_equal_dict_keys():
    first, second = parse_models(logistics_texts()), parse_models(logistics_texts())
    assert first[0] is not second[0] and first[1] is not second[1]
    for a, b in zip(first, second):
        assert a == b and hash(a) == hash(b)
        assert {a: "cached"}[b] == "cached"
    assert {first: "cached"}[second] == "cached"


@pytest.mark.parametrize("seed", range(4))
def test_section_order_leaves_models_equal(seed):
    rng = random.Random(seed)
    types, objects, init = (rng.sample(items, len(items))
                            for items in (LOG_TYPES, LOG_OBJECTS, LOG_INIT))
    assert (types, objects, init) != (LOG_TYPES, LOG_OBJECTS, LOG_INIT)
    shuffled = parse_models(logistics_texts(types, objects, init))
    for a, b in zip(shuffled, parse_models(logistics_texts())):
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("change", [
    {"goal": "(at p1 l1)"},
    {"objects": [o.replace("l2 - airport", "l2 - location") for o in LOG_OBJECTS]},
])
def test_goal_or_object_type_tells_problems_apart(change):
    domain, problem = parse_models(logistics_texts())
    other = parse_problem(logistics_texts(**change)[1], domain)
    assert other != problem
    assert len({(domain, problem), (domain, other)}) == 2


# Tokens of the accepted PDDL fragment, so that generated text gets past the
# first checks of the parsers and not only into their top-level rejections.
_PDDL_TOKENS = ["(", ")", "(", ")", "define", "domain", "problem", ":requirements",
                ":strips", ":typing", ":adl", ":types", "-", "object", ":predicates",
                ":action", ":parameters", ":precondition", ":effect", "and", "not",
                "when", "?x", "?y", "on", "clear", "holding", "handempty", "pick-up",
                "stack", "a", "b", ":objects", ":init", ":goal", ":domain",
                "blocksworld-4ops", ";", "\n"]
_PDDL_LIKE_TEXT = st.one_of(
    st.text(max_size=200),
    st.lists(st.sampled_from(_PDDL_TOKENS), max_size=60).map(" ".join),
)


@settings(deadline=None, max_examples=150)
@given(text=_PDDL_LIKE_TEXT)
@example(text="(" * 5000)
@example(text="(define " + "(" * 3000 + ")" * 3000 + ")")
def test_parsers_raise_only_planeval_errors(bw_domain, bw_problem, text):
    for parse in (lambda: parse_domain(text),
                  lambda: parse_problem(text, bw_domain),
                  lambda: parse_plan(text, bw_domain, bw_problem)):
        try:
            parse()
        except PlanEvalError:
            pass
