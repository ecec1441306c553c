from __future__ import annotations

import functools
import gc
import random
import re
import sys
import time
import traceback
import types

import pytest
from hypothesis import given, settings, strategies as st

from planeval import (is_valid, parse_domain, parse_problem, planner, replan_from, simulate,
                      solve_optimal)
from planeval.errors import ConfigError, PlanningTimeout, PlanningUnsolvable
from planeval.pddl import ProblemModel, plan_to_text
from planeval.planner import INF, _GroundTask, _search, goal_count_bound, ground_all_actions, hmax

from conftest import FIXTURES, make_bw_problem
from oracles import (
    bfs_distances,
    bfs_optimal_cost,
    bw_table_problem,
    config_atoms,
    count_optimal_plans,
    goal_distances,
    hmax_oracle,
    least_optimal_plan_oracle,
    tower_configs,
)


def state_mask(task, state) -> int:
    """The bitmask of *state* over the task's atoms; other atoms never matter."""
    return sum(1 << task.atom_index[atom] for atom in state if atom in task.atom_index)


def test_instance_10_optimal_cost(bw_domain, bw_problem, gt_plan):
    plan = solve_optimal(bw_problem, bw_domain)
    assert len(plan) == len(gt_plan) == 6
    assert is_valid(plan, bw_problem)


def test_goal_subset_of_init_yields_empty_plan(bw_domain, bw_problem):
    trivial = ProblemModel(bw_problem.name, bw_problem.domain_name, bw_problem.objects,
                           bw_problem.init, frozenset({("handempty",)}))
    assert len(solve_optimal(trivial, bw_domain)) == 0


def test_small_blocksworld_matches_bfs_oracle(bw_domain):
    # The exhaustive 2-5 block sweep runs in the acceptance suite; this keeps
    # a quick 2-3 block version close to the implementation.
    for n in (2, 3):
        blocks = tuple(f"b{i}" for i in range(1, n + 1))
        for cfg in sorted(tower_configs(blocks)):
            problem = bw_table_problem(bw_domain, blocks, config_atoms(cfg))
            plan = solve_optimal(problem, bw_domain)
            assert len(plan) == bfs_optimal_cost(problem, bw_domain)
            assert is_valid(plan, problem)


def test_logistics_matches_bfs_oracle(logistics_domain, logistics_problems):
    for problem in logistics_problems.values():
        plan = solve_optimal(problem, logistics_domain)
        assert len(plan) == bfs_optimal_cost(problem, logistics_domain)
        assert is_valid(plan, problem)


def test_replan_from_init_equals_solve(bw_domain, bw_problem):
    plan = replan_from(bw_problem.init, bw_problem, bw_domain)
    assert len(plan) == 6


def test_replan_from_goal_state(bw_domain, bw_problem, gt_plan):
    final = simulate(gt_plan, bw_problem).final_state
    assert len(replan_from(final, bw_problem, bw_domain)) == 0


def test_replan_from_gt_prefix(bw_domain, bw_problem, gt_plan):
    result = simulate(gt_plan[:3], bw_problem)
    completion = replan_from(result.final_state, bw_problem, bw_domain)
    assert len(completion) == 3
    assert bfs_optimal_cost(
        ProblemModel(bw_problem.name, bw_problem.domain_name, bw_problem.objects,
                     result.final_state, bw_problem.goal),
        bw_domain,
    ) == 3


def test_unsolvable_goal(bw_domain, bw_problem):
    impossible = ProblemModel(bw_problem.name, bw_problem.domain_name,
                              bw_problem.objects, bw_problem.init,
                              frozenset({("on", "a", "a")}))
    with pytest.raises(PlanningUnsolvable):
        solve_optimal(impossible, bw_domain)


def test_timeout_is_raised(bw_domain):
    blocks = [f"b{i}" for i in range(1, 8)]
    problem = make_bw_problem(bw_domain, [[b] for b in blocks], [blocks])
    with pytest.raises(PlanningTimeout):
        solve_optimal(problem, bw_domain, timeout=1e-6)


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0],
                         ids=["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("replan", [False, True], ids=["solve", "replan"])
def test_timeout_that_is_not_finite_and_positive_is_rejected(bw_domain, timeout, replan):
    # Seven blocks on the table and an unsolvable goal: without the check a
    # NaN or infinite timeout searches for seconds to exhaustion.
    blocks = [f"b{i}" for i in range(1, 8)]
    table = make_bw_problem(bw_domain, [[b] for b in blocks], [blocks])
    problem = ProblemModel(table.name, table.domain_name, table.objects, table.init,
                           frozenset({("on", "b1", "b1")}))
    start = time.monotonic()
    with pytest.raises(ConfigError, match=re.escape(f"got {timeout}")):
        if replan:
            replan_from(problem.init, problem, bw_domain, timeout=timeout)
        else:
            solve_optimal(problem, bw_domain, timeout=timeout)
    assert time.monotonic() - start < 0.1


def test_hmax_is_admissible(bw_domain):
    # h(s) must never exceed the true remaining cost, for every reachable state.
    blocks = ("b1", "b2", "b3", "b4")
    goal = config_atoms((("b1", "b2", "b3", "b4"),))
    problem = bw_table_problem(bw_domain, blocks, goal)
    actions = ground_all_actions(bw_domain, problem)
    task = _GroundTask(bw_domain, problem)
    reachable = bfs_distances(problem.init, actions)
    for state in reachable:
        true_cost = bfs_distances(state, actions)
        remaining = min(
            (d for s, d in true_cost.items() if problem.goal <= s), default=None
        )
        if remaining is None:
            continue
        assert hmax(task, state_mask(task, state)) <= remaining


def test_hmax_matches_fixpoint_oracle(bw_domain, bw_problem, gt_plan,
                                      logistics_domain, logistics_problems):
    blocks = ("b1", "b2", "b3", "b4")
    tower = bw_table_problem(bw_domain, blocks, config_atoms((blocks,)))
    cases = [(tower, bw_domain)]
    cases += [(problem, logistics_domain) for problem in logistics_problems.values()]
    for problem, domain in cases:
        task = _GroundTask(domain, problem)
        reachable = bfs_distances(problem.init, task.actions)
        for state in reachable:
            assert (hmax(task, state_mask(task, state))
                    == hmax_oracle(task, state, problem.goal))

    def with_goal(goal):
        return _GroundTask(bw_domain, ProblemModel(
            bw_problem.name, bw_problem.domain_name, bw_problem.objects,
            bw_problem.init, goal))

    # (on a a) is unsolvable, but its relaxation reaches it by pick-up, stack.
    goal = frozenset({("on", "a", "a")})
    task = with_goal(goal)
    assert hmax(task, task.init_mask) == hmax_oracle(task, bw_problem.init, goal) == 2
    # No action adds an atom of an undeclared object.
    goal = frozenset({("on", "a", "b"), ("ontable", "z")})
    task = with_goal(goal)
    assert hmax(task, task.init_mask) == hmax_oracle(task, bw_problem.init, goal) == INF
    task = with_goal(bw_problem.goal)
    final = simulate(gt_plan, bw_problem).final_state
    assert (hmax(task, state_mask(task, final))
            == hmax_oracle(task, final, bw_problem.goal) == 0)


# Each of these has several optimal plans.  The GT is the least of them,
# actions compared by their ground_all_actions position, whatever order A*
# expands states in.  The Blocksworld cases give (initial towers, goal
# towers), bottom to top.
TIE_CASES = {
    "log-04": None,
    "bw-swap-towers": ([["a", "b"], ["c", "d"]], [["b", "a"], ["d", "c"]]),
    "bw-rebuild": ([["a", "c"], ["d", "b"]], [["b", "a", "c"], ["d"]]),
}


def tie_case(name, bw_domain, logistics_domain, logistics_problems):
    towers = TIE_CASES[name]
    if towers is None:
        return logistics_problems[name], logistics_domain
    return make_bw_problem(bw_domain, *towers), bw_domain


@pytest.mark.parametrize("name", sorted(TIE_CASES))
def test_tie_breaking_picks_the_pinned_gt(name, bw_domain, logistics_domain,
                                          logistics_problems):
    problem, domain = tie_case(name, bw_domain, logistics_domain, logistics_problems)
    assert count_optimal_plans(problem, domain) > 1
    plan = solve_optimal(problem, domain)
    assert len(plan) == bfs_optimal_cost(problem, domain)
    assert plan_to_text(plan) == plan_to_text(least_optimal_plan_oracle(problem, domain))


@st.composite
def bw_towers(draw, blocks: tuple[str, ...]) -> list[list[str]]:
    """*blocks* in a drawn order, cut into towers at drawn places."""
    order = draw(st.permutations(blocks))
    towers = [[order[0]]]
    for block in order[1:]:
        if draw(st.booleans()):
            towers.append([block])
        else:
            towers[-1].append(block)
    return towers


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(3, 5))
def test_solved_gt_is_the_least_optimal_plan(bw_domain, data, n):
    blocks = tuple(f"b{i}" for i in range(1, n + 1))
    problem = make_bw_problem(bw_domain, data.draw(bw_towers(blocks)),
                              data.draw(bw_towers(blocks)))
    assert solve_optimal(problem, bw_domain) == least_optimal_plan_oracle(problem, bw_domain)


@pytest.mark.parametrize("name", ["log-01", "log-02", "log-03", "log-04", "log-05"])
def test_logistics_gt_is_the_least_optimal_plan(name, logistics_domain, logistics_problems):
    problem = logistics_problems[name]
    assert (solve_optimal(problem, logistics_domain)
            == least_optimal_plan_oracle(problem, logistics_domain))


def exact_heuristic(problem, domain):
    """The true distance to the goal, the strongest admissible heuristic."""
    dist = goal_distances(problem, domain)
    return lambda task, state: dist.get(atoms_of(task, state), INF)


def test_gt_does_not_depend_on_the_heuristic(bw_domain, logistics_domain,
                                             logistics_problems):
    cases = [tie_case(name, bw_domain, logistics_domain, logistics_problems)
             for name in sorted(TIE_CASES)]
    cases += [(logistics_problems[name], logistics_domain) for name in ("log-01", "log-02")]
    rng = random.Random(11)
    for n in (4, 5, 5):
        blocks = [f"b{i}" for i in range(1, n + 1)]
        cases.append((make_bw_problem(bw_domain, random_towers(rng, blocks),
                                      random_towers(rng, blocks)), bw_domain))
    for problem, domain in cases:
        plan = solve_optimal(problem, domain)
        assert solve_optimal(problem, domain, heuristic=lambda task, state: 0.0) == plan
        assert solve_optimal(problem, domain, heuristic=exact_heuristic(problem, domain)) == plan


def test_combined_bound_is_admissible_and_consistent(bw_domain, logistics_domain,
                                                     logistics_problems):
    # A* closes a state at its first g and the depth-first pass skips a
    # child that A* reached sooner; both need h = max(h_max, goal count)
    # to be admissible and consistent.
    cases = []
    for cfg in sorted(tower_configs(("b1", "b2", "b3"))):
        cases.append((bw_table_problem(bw_domain, ("b1", "b2", "b3"), config_atoms(cfg)),
                      bw_domain))
    for name in ("bw-swap-towers", "bw-rebuild"):
        cases.append(tie_case(name, bw_domain, logistics_domain, logistics_problems))
    blocks = ("b1", "b2", "b3", "b4")
    cases.append((bw_table_problem(bw_domain, blocks, config_atoms((blocks,))), bw_domain))
    cases += [(logistics_problems[name], logistics_domain) for name in ("log-01", "log-02")]
    for problem, domain in cases:
        task = _GroundTask(domain, problem)
        dist = goal_distances(problem, domain)

        def h(state):
            mask = state_mask(task, state)
            return max(hmax(task, mask), goal_count_bound(task, mask))

        for state in bfs_distances(problem.init, task.actions):
            assert h(state) <= dist.get(state, INF)
            for action in task.actions:
                if action.preconditions <= state:
                    successor = (state - action.del_effects) | action.add_effects
                    assert h(state) <= 1 + h(successor)


def test_goal_count_bound_divides_by_the_most_goal_atoms_one_action_adds(bw_domain,
                                                                        bw_problem):
    # Every Blocksworld action adds one on/ontable atom, so k = 1 for the
    # usual goals; put-down adds ontable, clear and handempty at once.
    task = _GroundTask(bw_domain, bw_problem)
    assert task.goal_adds == 1
    assert goal_count_bound(task, task.init_mask) == 2
    goal = frozenset({("on", "a", "c"), ("ontable", "b"), ("clear", "b"), ("handempty",),
                      ("clear", "a")})
    task = _GroundTask(bw_domain, ProblemModel(bw_problem.name, bw_problem.domain_name,
                                               bw_problem.objects, bw_problem.init, goal))
    assert task.goal_adds == 3
    # (on a c) and (ontable b) are unsatisfied, and one step may add both.
    assert goal_count_bound(task, task.init_mask) == 1


def tower_heuristic_calls(bw_domain, n: int, optimum: int) -> int:
    """Heuristic calls to stack *n* blocks from the table into one tower."""
    blocks = [f"b{i}" for i in range(1, n + 1)]
    problem = make_bw_problem(bw_domain, [[b] for b in blocks], [blocks])
    calls = 0

    def counting(task, state):
        nonlocal calls
        calls += 1
        return hmax(task, state)

    assert len(solve_optimal(problem, bw_domain, heuristic=counting)) == optimum
    return calls


def test_seven_block_tower_stays_within_its_heuristic_call_ceiling(bw_domain):
    # Both passes together evaluate the heuristic 4,526 times on this
    # tower; the ceiling leaves about 10 % headroom.  Evaluating h_max for
    # every generated state rather than every popped one took 9,875 calls,
    # and without the goal-count bound and the per-search h cache the count
    # is about twice that again.
    assert tower_heuristic_calls(bw_domain, 7, 12) <= 5_000


def test_eight_block_tower_stays_within_its_heuristic_call_ceiling(bw_domain):
    # 31,124 calls; evaluating h_max for every generated state took 74,901,
    # and the search once ran past the default timeout on this tower.
    assert tower_heuristic_calls(bw_domain, 8, 14) <= 35_000


def test_seven_block_tower_depth_first_entries_stay_within_the_failure_memo_ceiling(
        bw_domain, monkeypatch):
    # Counts the depth-first pass's entries into a non-goal state: each one
    # reads the clock once from `complete` itself.  The failure memo keeps
    # the 7-block tower at 1,114 such entries, and the ceiling leaves about
    # 10 % headroom; without the memo (no `failed.add(succ)`) the pass
    # re-enters dead ends, 1,405 times.  On the 8-block tower the same
    # count reads 7,825 and 13,770.
    entries = 0

    def monotonic():
        nonlocal entries
        entries += sys._getframe(1).f_code.co_name == "complete"
        return 0.0

    monkeypatch.setattr(planner, "time", types.SimpleNamespace(monotonic=monotonic))
    blocks = [f"b{i}" for i in range(1, 8)]
    problem = make_bw_problem(bw_domain, [[b] for b in blocks], [blocks])
    assert len(solve_optimal(problem, bw_domain)) == 12
    assert entries <= 1_230


def test_inconsistent_heuristic_is_reported(bw_domain, bw_problem):
    # h = 50 off the goal overestimates every state: A* still finds a plan,
    # but no child passes the depth-first pass's bound, so no plan comes back.
    def overestimate(task, state):
        return 0.0 if task.goal_mask & ~state == 0 else 50.0

    with pytest.raises(PlanningUnsolvable, match="not consistent"):
        solve_optimal(bw_problem, bw_domain, heuristic=overestimate)


def test_depth_first_pass_honours_the_timeout(bw_domain, monkeypatch):
    # A clock that has run out only inside the depth-first pass.
    def monotonic():
        inside = any(frame.name == "complete" for frame in traceback.extract_stack())
        return INF if inside else 0.0

    monkeypatch.setattr(planner, "time", types.SimpleNamespace(monotonic=monotonic))
    problem = make_bw_problem(bw_domain, [["a", "b"], ["c", "d"]], [["b", "a"], ["d", "c"]])
    with pytest.raises(PlanningTimeout):
        solve_optimal(problem, bw_domain, timeout=1.0)


def test_search_leaves_no_cycle_for_the_collector(bw_domain, monkeypatch):
    # With the cyclic collector off, a task that is still alive after its
    # solve has returned is held by a reference cycle.
    def tasks() -> list:
        return [o for o in gc.get_objects() if isinstance(o, _GroundTask)]

    blocks = [f"b{i}" for i in range(1, 6)]
    problem = make_bw_problem(bw_domain, [[b] for b in blocks], [blocks])
    gc.collect()
    before = tasks()
    gc.disable()
    try:
        assert len(solve_optimal(problem, bw_domain)) == 8
        # Again, with a clock that has run out only inside the depth-first pass.
        def monotonic():
            inside = any(frame.name == "complete" for frame in traceback.extract_stack())
            return INF if inside else 0.0

        monkeypatch.setattr(planner, "time", types.SimpleNamespace(monotonic=monotonic))
        try:
            solve_optimal(problem, bw_domain)
        except PlanningTimeout:
            pass
        else:
            pytest.fail("the depth-first pass did not time out")
        leaked = [task for task in tasks() if not any(task is old for old in before)]
    finally:
        gc.enable()
    assert leaked == []


def random_towers(rng: random.Random, blocks: list[str]) -> list[list[str]]:
    towers: list[list[str]] = []
    for block in rng.sample(blocks, len(blocks)):
        if towers and rng.random() < 0.6:
            towers[-1].append(block)
        else:
            towers.append([block])
    return towers


def atoms_of(task, mask: int) -> frozenset:
    return frozenset(atom for atom, i in task.atom_index.items() if mask >> i & 1)


def search_trace(task, heuristic) -> tuple[list, list[int]]:
    """The plan A* finds with *heuristic*, and the states it evaluated, in order."""
    evaluated: list[int] = []

    def counting(task, state):
        evaluated.append(state)
        return heuristic(task, state)

    return _search(task, task.init_mask, 60.0, counting), evaluated


def test_search_is_the_same_with_the_memo(bw_domain, logistics_domain,
                                          logistics_problems):
    # Same plan and same heuristic calls, state for state, as with the
    # memo-free fixpoint oracle: the memo changes no h value.
    cases = [tie_case(name, bw_domain, logistics_domain, logistics_problems)
             for name in sorted(TIE_CASES)]
    rng = random.Random(7)
    for n in (4, 4, 5, 5):
        blocks = [f"b{i}" for i in range(1, n + 1)]
        cases.append((make_bw_problem(bw_domain, random_towers(rng, blocks),
                                      random_towers(rng, blocks)), bw_domain))

    def oracle(task, state):
        return hmax_oracle(task, atoms_of(task, state), atoms_of(task, task.goal_mask))

    for problem, domain in cases:
        plan, evaluated = search_trace(_GroundTask(domain, problem), hmax)
        expected_plan, expected = search_trace(_GroundTask(domain, problem), oracle)
        assert plan == expected_plan
        assert evaluated == expected


@functools.cache
def shared_task(case: str):
    """One task per case, kept across examples so that its hmax memo is
    shared: (task, goal, reachable states)."""
    if case == "log-02":
        domain = parse_domain((FIXTURES / "logistics" / "domain.pddl").read_text())
        problem = parse_problem((FIXTURES / "logistics" / "log-02.pddl").read_text(), domain)
    elif case == "tower":
        domain = parse_domain((FIXTURES / "blocksworld" / "domain.pddl").read_text())
        blocks = ("b1", "b2", "b3", "b4")
        problem = bw_table_problem(domain, blocks, config_atoms((blocks,)))
    else:
        # The unsolvable and the unreachable goal of the fixpoint-oracle test.
        domain = parse_domain((FIXTURES / "blocksworld" / "domain.pddl").read_text())
        problem = parse_problem((FIXTURES / "blocksworld" / "instance-10.pddl").read_text(),
                                domain)
        goal = {"on-a-a": {("on", "a", "a")},
                "undeclared": {("on", "a", "b"), ("ontable", "z")}}[case]
        problem = ProblemModel(problem.name, problem.domain_name, problem.objects,
                               problem.init, frozenset(goal))
    task = _GroundTask(domain, problem)
    return task, problem.goal, sorted(bfs_distances(problem.init, task.actions), key=sorted)


@pytest.mark.parametrize("case", ["tower", "log-02", "on-a-a", "undeclared"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hmax_memo_never_leaks_between_states(case, data):
    # Arbitrary atom sets, each a reachable state with any atoms flipped,
    # evaluated in the drawn order against one task and its memo.
    task, goal, reachable = shared_task(case)
    atoms = sorted(task.atom_index)
    draws = st.tuples(st.sampled_from(reachable), st.sets(st.sampled_from(atoms)))
    for base, flipped in data.draw(st.lists(draws, min_size=1, max_size=8)):
        state = base ^ flipped
        assert hmax(task, state_mask(task, state)) == hmax_oracle(task, state, goal)


def test_returned_plans_are_always_valid(bw_domain, logistics_domain, logistics_problems):
    cases = [(problem, logistics_domain) for problem in logistics_problems.values()]
    cases.append((make_bw_problem(bw_domain, [["a", "b"], ["c"]], [["c", "b"], ["a"]]),
                  bw_domain))
    for problem, domain in cases:
        assert is_valid(solve_optimal(problem, domain), problem)


def test_external_planner_hook(tmp_path, bw_domain, bw_problem, gt_plan):
    script = tmp_path / "fake_planner.py"
    script.write_text(
        "import sys, shutil\n"
        "domain, problem, out = sys.argv[1:4]\n"
        f"shutil.copy({str(tmp_path / 'canned.plan')!r}, out)\n"
    )
    from planeval.pddl import plan_to_text
    (tmp_path / "canned.plan").write_text(plan_to_text(gt_plan))
    plan = solve_optimal(bw_problem, bw_domain, external_cmd=f"python3 {script}")
    assert plan.keys() == gt_plan.keys()


def test_external_planner_failure(tmp_path, bw_domain, bw_problem):
    script = tmp_path / "broken_planner.py"
    script.write_text("import sys; sys.exit(3)\n")
    with pytest.raises(PlanningUnsolvable):
        solve_optimal(bw_problem, bw_domain, external_cmd=f"python3 {script}")
