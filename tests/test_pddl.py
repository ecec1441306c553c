from __future__ import annotations

import random
import subprocess
import sys

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
from planeval.pddl import (GroundAction, Plan, domain_to_pddl, plan_to_text, problem_to_pddl,
                           resolve_action)

from conftest import FIXTURES, INSTANCE_10_CANDIDATE, hash_seed_env


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


def _domain_text(sections: str) -> str:
    return f"(define (domain d) (:predicates (p ?x) (q ?x)) {sections})"


def _action_text(body: str) -> str:
    return _domain_text(f"(:action a {body})")


def _problem_text(sections: str) -> str:
    return ("(define (problem x) (:domain logistics) "
            f"(:objects t1 - truck c1 - city l1 - location) {sections})")


# One malformed text per rejection in the domain and problem readers, with
# the exact error each must raise.  Problem texts are read against Logistics.
REJECTIONS = {
    "read-unclosed": ("domain", "(define (domain d)", PddlSyntaxError,
                      "unexpected end of input, expected ')' (line 1, column 1)"),
    "read-nothing": ("domain", "", PddlSyntaxError,
                     "unexpected end of input, expected an expression"),
    "read-stray-close": ("domain", ")", PddlSyntaxError, "unexpected ')' (line 1, column 1)"),
    "trailing": ("domain", "(define (domain d)) x", PddlSyntaxError,
                 "trailing content 'x' after top-level form (line 1, column 21)"),
    "define-not-a-list": ("domain", "x", PddlSyntaxError,
                          "expected (define ...) in domain file"),
    "define-misspelt": ("domain", "(defin (domain d))", PddlSyntaxError,
                        "expected 'define' in domain file, got 'defin' (line 1, column 2)"),
    "define-empty": ("domain", "(define)", PddlSyntaxError, "empty define form in domain file"),
    "header-kind": ("domain", "(define (problem d))", PddlSyntaxError,
                    "expected 'domain' in domain header, got 'problem' (line 1, column 10)"),
    "header-no-name": ("domain", "(define (domain))", PddlSyntaxError,
                       "missing name in (domain ...) header (line 1, column 10)"),
    "header-name-list": ("domain", "(define (domain (d)))", PddlSyntaxError,
                         "expected a name in domain name"),
    "section-not-a-list": ("domain", _domain_text("x"), PddlSyntaxError,
                           "expected a (:keyword ...) domain section"),
    "requirement": ("domain", _domain_text("(:requirements :strips :adl)"), UnsupportedFeature,
                    "unsupported PDDL construct ':adl': requirement"),
    "types-dangling-dash": ("domain", _domain_text("(:types - t)"), PddlSyntaxError,
                            "dangling '-' in :types"),
    "types-missing-type": ("domain", _domain_text("(:types t -)"), PddlSyntaxError,
                           "missing type name after '-' in :types"),
    "predicate-not-a-list": ("domain", _domain_text("(:predicates r)"), PddlSyntaxError,
                             "expected (name ?args...) in :predicates"),
    "predicate-duplicate": ("domain", _domain_text("(:predicates (p ?y))"), PddlSyntaxError,
                            "duplicate predicate 'p'"),
    "section-unsupported": ("domain", _domain_text("(:constants c)"), UnsupportedFeature,
                            "unsupported PDDL construct ':constants': domain section"),
    "types-cyclic": ("domain", _domain_text("(:types t - u u - t)"), PddlSyntaxError,
                     "cyclic type hierarchy through 'u'"),
    "predicate-type-undeclared": ("domain", _domain_text("(:predicates (r ?x - t))"),
                                  UndeclaredSymbol, "undeclared type 't'"),
    "action-duplicate": ("domain", _domain_text("(:action a) (:action a)"), PddlSyntaxError,
                         "duplicate action name 'a'"),
    "parameter-type-undeclared": ("domain", _action_text(":parameters (?x - t)"),
                                  UndeclaredSymbol, "undeclared type 't'"),
    "action-no-name": ("domain", _domain_text("(:action)"), PddlSyntaxError,
                       "missing action name in :action"),
    "action-key-unsupported": ("domain", _action_text(":vars (?x)"), UnsupportedFeature,
                               "unsupported PDDL construct ':vars': in action a"),
    "action-key-repeated-parameters": ("domain", _action_text(":parameters (?x) :parameters (?y)"),
                                       PddlSyntaxError, "duplicate :parameters in action a"),
    "action-key-repeated-precondition": ("domain",
                                         _action_text(":parameters (?x) :precondition (p ?x)"
                                                      " :precondition (q ?x)"),
                                         PddlSyntaxError, "duplicate :precondition in action a"),
    "action-key-repeated-effect": ("domain",
                                   _action_text(":parameters (?x) :precondition (p ?x)"
                                                " :effect (q ?x) :effect (not (p ?x))"),
                                   PddlSyntaxError, "duplicate :effect in action a"),
    "action-key-no-value": ("domain", _action_text(":parameters (?x) :effect"),
                            PddlSyntaxError, "missing value for :effect in action a"),
    "parameters-not-a-list": ("domain", _action_text(":parameters ?x"), PddlSyntaxError,
                              "expected a parameter list in action a"),
    "parameter-no-question-mark": ("domain", _action_text(":parameters (x)"), PddlSyntaxError,
                                   "parameter 'x' of a must start with '?'"),
    "parameter-duplicate": ("domain", _action_text(":parameters (?x ?x)"), PddlSyntaxError,
                            "duplicate parameter in action a"),
    "conjunction-not-a-list": ("domain", _action_text(":parameters (?x) :precondition p"),
                               PddlSyntaxError,
                               "expected an atom or (and ...) in a precondition"),
    "atom-not-a-list": ("domain", _action_text(":parameters (?x) :precondition (and (p ?x) q)"),
                        PddlSyntaxError, "expected an atom in a precondition"),
    "atom-rejected-head": ("domain", _action_text(":parameters (?x) :precondition (not (p ?x))"),
                           UnsupportedFeature,
                           "unsupported PDDL construct 'not': in a precondition"),
    "atom-predicate-undeclared": ("domain", _action_text(":parameters (?x) :precondition (r ?x)"),
                                  UndeclaredSymbol, "undeclared predicate 'r'"),
    "atom-arity": ("domain", _action_text(":parameters (?x) :precondition (p ?x ?x)"),
                   PddlSyntaxError,
                   "predicate 'p' used with 2 terms in a precondition, declared with 1"),
    "atom-variable-undeclared": ("domain", _action_text(":parameters (?x) :effect (p ?y)"),
                                 UndeclaredSymbol, "undeclared variable '?y'"),
    "effect-not-a-list": ("domain", _action_text(":parameters (?x) :effect (and (p ?x) ())"),
                          PddlSyntaxError, "expected an effect atom in action a"),
    "effect-not-two-atoms": ("domain",
                             _action_text(":parameters (?x) :effect (not (p ?x) (q ?x))"),
                             PddlSyntaxError, "(not ...) takes one atom in action a"),
    "effect-rejected-head": ("domain",
                             _action_text(":parameters (?x) :effect (when (p ?x) (q ?x))"),
                             UnsupportedFeature,
                             "unsupported PDDL construct 'when': in effect of action a"),
    "effect-nested-and": ("domain", _action_text(":parameters (?x) :effect (and (and (p ?x)))"),
                          UnsupportedFeature,
                          "unsupported PDDL construct 'and': in effect of action a"),
    "effect-overlap": ("domain",
                       _action_text(":parameters (?x) :effect (and (p ?x) (not (p ?x)))"),
                       PddlSyntaxError, "action a adds and deletes the same atom: (p ?x)"),
    "problem-define-not-a-list": ("problem", "x", PddlSyntaxError,
                                  "expected (define ...) in problem file"),
    "problem-define-misspelt": ("problem", "(defin (problem x))", PddlSyntaxError,
                                "expected 'define' in problem file, got 'defin' "
                                "(line 1, column 2)"),
    "problem-define-empty": ("problem", "(define)", PddlSyntaxError,
                             "empty define form in problem file"),
    "problem-header-kind": ("problem", "(define (domain x))", PddlSyntaxError,
                            "expected 'problem' in problem header, got 'domain' "
                            "(line 1, column 10)"),
    "problem-header-no-name": ("problem", "(define (problem))", PddlSyntaxError,
                               "missing name in (problem ...) header (line 1, column 10)"),
    "problem-header-name-list": ("problem", "(define (problem (x)))", PddlSyntaxError,
                                 "expected a name in problem name"),
    "problem-section-not-a-list": ("problem", _problem_text("x"), PddlSyntaxError,
                                   "expected a (:keyword ...) problem section"),
    "object-type-undeclared": ("problem", _problem_text("(:objects o - boat)"),
                               UndeclaredSymbol, "undeclared type 'boat'"),
    "object-two-types": ("problem", _problem_text("(:objects t1 - package)"), PddlSyntaxError,
                         "object 't1' declared as both 'truck' and 'package'"),
    "init-object-undeclared": ("problem", _problem_text("(:init (at p1 l1))"),
                               UndeclaredSymbol, "undeclared object 'p1'"),
    "init-type-mismatch": ("problem", _problem_text("(:init (in-city t1 c1))"), TypeMismatch,
                           "object 't1' of type 'truck' used as 'place' in (in-city t1 c1)"),
    "goal-two-expressions": ("problem", _problem_text("(:goal (at t1 l1) (at t1 l1))"),
                             PddlSyntaxError, ":goal takes a single expression"),
    "goal-type-mismatch": ("problem", _problem_text("(:goal (at c1 l1))"), TypeMismatch,
                           "object 'c1' of type 'city' used as 'physobj' in (at c1 l1)"),
    "problem-section-unsupported": ("problem", _problem_text("(:metric minimize (total-time))"),
                                    UnsupportedFeature,
                                    "unsupported PDDL construct ':metric': problem section"),
    "problem-domain-repeated": ("problem", "(define (problem x) (:domain blocksworld-4ops)"
                                            " (:domain logistics))",
                                PddlSyntaxError, "duplicate :domain section in problem x"),
    "problem-goal-repeated": ("problem", _problem_text("(:goal (at t1 l1)) (:goal (at t1 l1))"),
                              PddlSyntaxError, "duplicate :goal section in problem x"),
    "problem-domain-name": ("problem", "(define (problem x) (:domain blocksworld-4ops))",
                            PddlSyntaxError,
                            "problem references domain 'blocksworld-4ops', "
                            "expected 'logistics'"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_each_rejection_names_its_fault(case, logistics_domain):
    kind, text, error, message = REJECTIONS[case]
    with pytest.raises(error) as excinfo:
        if kind == "domain":
            parse_domain(text)
        else:
            parse_problem(text, logistics_domain)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


# Texts with two clashing atoms, read in a child interpreter, and the error
# naming the first clash in file order, whatever the interpreter's hash seed.
FIRST_CLASHES = {
    "init-types": (
        "problem",
        "(define (problem x) (:domain logistics) (:objects c1 - city l1 l2 - location)"
        " (:init (in-city c1 l1) (at c1 l2)) (:goal (at c1 l1)))",
        "TypeMismatch: object 'c1' of type 'city' used as 'place' in (in-city c1 l1)"),
    "effect-overlap": (
        "domain",
        "(define (domain d) (:predicates (p ?x) (q ?x)) (:action a :parameters (?x)"
        " :effect (and (p ?x) (q ?x) (not (p ?x)) (not (q ?x)))))",
        "PddlSyntaxError: action a adds and deletes the same atom: (p ?x)"),
}
_READ_IN_CHILD = """
import sys
from pathlib import Path
from planeval import parse_domain, parse_problem
kind, text, fixtures = sys.argv[1:]
try:
    if kind == "domain":
        parse_domain(text)
    else:
        logistics = Path(fixtures) / "logistics" / "domain.pddl"
        parse_problem(text, parse_domain(logistics.read_text()))
except Exception as exc:
    print(f"{type(exc).__name__}: {exc}")
"""


@pytest.mark.parametrize("case", sorted(FIRST_CLASHES))
def test_first_clash_in_file_order_is_reported_under_any_hash_seed(case):
    kind, text, message = FIRST_CLASHES[case]
    outputs = [subprocess.run([sys.executable, "-c", _READ_IN_CHILD, kind, text, str(FIXTURES)],
                              env=hash_seed_env(seed), capture_output=True, text=True,
                              check=True).stdout
               for seed in (1, 2)]
    assert outputs == [message + "\n"] * 2


def test_undeclared_predicate_in_schema():
    # The undeclared q in a precondition, an add effect and a delete effect.
    for precondition, effect in [("(q ?x)", "(p ?x)"),
                                 ("(p ?x)", "(and (p ?x) (q ?x))"),
                                 ("(p ?x)", "(and (p ?x) (not (q ?x)))")]:
        text = f"""
        (define (domain bad) (:requirements :strips)
          (:predicates (p ?x))
          (:action a :parameters (?x) :precondition {precondition} :effect {effect}))
        """
        with pytest.raises(UndeclaredSymbol, match="undeclared predicate 'q'"):
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


def test_problem_object_declared_with_two_types(logistics_domain):
    template = """
    (define (problem twice) (:domain logistics)
      (:objects t1 - truck p1 - package l1 l2 - location c1 - city t1 - {type})
      (:init (in-city l1 c1) (in-city l2 c1) (at t1 l1) (at p1 l1))
      (:goal (at p1 l2)))
    """
    with pytest.raises(PddlSyntaxError,
                       match="object 't1' declared as both 'truck' and 'package'"):
        parse_problem(template.format(type="package"), logistics_domain)
    # Repeating a declaration with the same type is harmless.
    problem = parse_problem(template.format(type="truck"), logistics_domain)
    assert problem.objects["t1"] == "truck"
    plan = parse_plan("(drive-truck t1 l1 l2 c1)\n", logistics_domain, problem)
    assert plan[0].resolvable


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
    assert pair_actions(Plan((action,)), Plan((parsed,))).labels == (QualityLabel.CORRECT,)


def test_parse_plan_unknown_object_and_bad_arity(bw_domain, bw_problem):
    plan = parse_plan("(pick-up d)\n(stack a)\n(stack b b c)\n", bw_domain, bw_problem)
    assert not plan[0].resolvable
    assert not plan[1].resolvable
    assert not plan[2].resolvable
    assert plan[2].key == ("stack", ("b", "b", "c"))


# Per domain: lines that earlier rows parse, and lines each of which the
# table must resolve as a fresh parse does: upper case, an unknown name, a
# wrong arity, a type clash (typed Logistics only) and an undeclared object.
WARM_TABLE_CASES = {
    "blocksworld": ("(unstack a c)\n(put-down a)\n(pick-up b)\n(teleport a)\n",
                    ["(UNSTACK A C)", "Put-Down A", "(unstack a c)", "(TELEPORT a)",
                     "(teleport a b)", "(stack a)", "(stack b b c)", "(pick-up d)",
                     "(PICK-UP D)"]),
    "logistics": ("(load-truck p1 t1 l1)\n(drive-truck t1 l1 l2 c1)\n(drive-truck p1 l1 l2 c1)\n",
                  ["(LOAD-TRUCK P1 T1 L1)", "(Drive-Truck t1 L1 l2 C1)", "(fly p1 l1)",
                   "(load-truck p1 t1)", "(drive-truck p1 l1 l2 c1)",
                   "(DRIVE-TRUCK P1 L1 L2 C1)", "(load-truck p9 t1 l1)",
                   "(unload-truck p1 t1 l2)"]),
}


@pytest.mark.parametrize("which", sorted(WARM_TABLE_CASES))
def test_parse_plan_through_a_warm_table_equals_a_fresh_parse(
        which, bw_domain, bw_problem, logistics_domain, logistics_problems):
    domain, problem = ((bw_domain, bw_problem) if which == "blocksworld"
                       else (logistics_domain, logistics_problems["log-01"]))
    earlier, lines = WARM_TABLE_CASES[which]
    table: dict = {}
    parse_plan(earlier, domain, problem, table)
    for line in lines:  # an earlier row that wrote each line in lower case
        parse_plan(line.lower(), domain, problem, table)
    filled = dict(table)
    text = "\n".join(lines) + "\n"
    warm = parse_plan(text, domain, problem, table)
    fresh = parse_plan(text, domain, problem)
    assert table == filled  # every line was a hit
    assert len(warm) == len(fresh) == len(lines)
    assert any(not action.resolvable for action in fresh)
    for got, want in zip(warm, fresh):
        assert (got.key, got.preconditions, got.add_effects, got.del_effects,
                got.resolvable) == (want.key, want.preconditions, want.add_effects,
                                    want.del_effects, want.resolvable)


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


def test_resolve_action_type_mismatch(logistics_domain, logistics_problems):
    problem = logistics_problems["log-01"]
    clash = resolve_action("drive-truck", ["p1", "l1", "l2", "c1"], logistics_domain, problem)
    assert not clash.resolvable
    assert clash.key == ("drive-truck", ("p1", "l1", "l2", "c1"))
    assert clash.preconditions == clash.add_effects == clash.del_effects == frozenset()
    # Locations are places, the subtype the parameters ask for.
    drive = resolve_action("Drive-Truck", ["T1", "l1", "l2", "c1"], logistics_domain, problem)
    assert drive == ground(logistics_domain.schema("drive-truck"), ["t1", "l1", "l2", "c1"])
    assert drive.resolvable


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
