from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from planeval import is_valid, parse_domain, parse_problem, replan_from, simulate, solve_optimal
from planeval.errors import PlanningTimeout, PlanningUnsolvable
from planeval.pddl import ProblemModel, plan_to_text
from planeval.planner import INF, _GroundTask, _search, ground_all_actions, hmax

from conftest import FIXTURES, make_bw_problem
from oracles import (
    bfs_distances,
    bfs_optimal_cost,
    bw_table_problem,
    config_atoms,
    count_optimal_plans,
    hmax_oracle,
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
        solve_optimal(problem, bw_domain, timeout=0.0)


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


# Each of these has several optimal plans.  A* breaks f-ties by the number of
# unsatisfied goal atoms, then by insertion order, which follows the
# ground-action order; that picks the GT pinned here.  The Blocksworld cases
# give (initial towers, goal towers), bottom to top.
PINNED_GTS = {
    "log-04": (None, "(load-truck p1 t1 l1)\n(drive-truck t1 l1 l2 c1)\n(load-truck p2 t1 l2)\n"
                     "(drive-truck t1 l2 l3 c1)\n(unload-truck p1 t1 l3)\n(unload-truck p2 t1 l3)\n"),
    "bw-swap-towers": (([["a", "b"], ["c", "d"]], [["b", "a"], ["d", "c"]]),
                       "(unstack b a)\n(put-down b)\n(unstack d c)\n(put-down d)\n"
                       "(pick-up a)\n(stack a b)\n(pick-up c)\n(stack c d)\n"),
    "bw-rebuild": (([["a", "c"], ["d", "b"]], [["b", "a", "c"], ["d"]]),
                   "(unstack b d)\n(put-down b)\n(unstack c a)\n(put-down c)\n"
                   "(pick-up a)\n(stack a b)\n(pick-up c)\n(stack c a)\n"),
}


@pytest.mark.parametrize("name", sorted(PINNED_GTS))
def test_tie_breaking_picks_the_pinned_gt(name, bw_domain, logistics_domain,
                                          logistics_problems):
    towers, expected = PINNED_GTS[name]
    if towers is None:
        problem, domain = logistics_problems[name], logistics_domain
    else:
        problem, domain = make_bw_problem(bw_domain, *towers), bw_domain
    assert count_optimal_plans(problem, domain) > 1
    plan = solve_optimal(problem, domain)
    assert len(plan) == bfs_optimal_cost(problem, domain)
    assert plan_to_text(plan) == expected


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
    cases = []
    for name, (towers, _) in sorted(PINNED_GTS.items()):
        if towers is None:
            cases.append((logistics_problems[name], logistics_domain))
        else:
            cases.append((make_bw_problem(bw_domain, *towers), bw_domain))
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
