"""Optimal forward state-space search: the ground-truth engine.

The solved ground truth is the lexicographically least optimal plan: of the
plans with the fewest actions, the one whose first action comes first in
``ground_all_actions`` order, then its second, and so on.  A* finds the
optimal length with the admissible bound max(h_max, goal count / k), and a
depth-first pass in action order returns that plan, so neither the heuristic
nor A*'s tie-breaking picks among the optimal plans.  A* computes h_max when
it pops a state, not when it generates it (lazy A*, Tolpin et al. 2013),
and the depth-first pass tests the goal count before h_max.  The rule does
not apply to ``external_cmd``: its plan is whatever that planner returns.

States are encoded as atom bitmasks for fast duplicate detection; the
public API speaks in :class:`~planeval.pddl.Plan` and atom sets.  h_max is
computed in unit-cost layers of the delete relaxation: each layer fires
every action whose preconditions have all been reached, and h_max is the
first layer whose reached atoms cover the goal.  That is the value of the
delete-relaxation fixpoint (Bonet & Geffner 2001), reached in one pass per
layer instead of repeated sweeps over every action.  The layers a reached
set still needs depend on that set alone, so each search remembers them for
every set met after two or more layers (most states' sets agree from there
on) and forgets them when the search ends; the h values are unchanged.
"""

from __future__ import annotations

import heapq
import itertools
import math
import shlex
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Callable

from .errors import ConfigError, PlanningTimeout, PlanningUnsolvable, read_text
from .pddl import (
    Atom,
    DomainModel,
    GroundAction,
    Plan,
    ProblemModel,
    State,
    domain_to_pddl,
    ground,
    parse_plan,
    problem_to_pddl,
)

INF = float("inf")

DEFAULT_TIMEOUT = 10.0


def ground_all_actions(domain: DomainModel, problem: ProblemModel) -> list[GroundAction]:
    """Every type-correct grounding of every schema, in a deterministic order."""
    actions: list[GroundAction] = []
    for schema in domain.schemas:
        candidates = [problem.objects_of_type(domain, p.type) for p in schema.params]
        for combo in itertools.product(*candidates):
            actions.append(ground(schema, combo))
    return actions


class _GroundTask:
    """Bitmask encoding of one problem: atoms indexed, actions pre-encoded."""

    def __init__(self, domain: DomainModel, problem: ProblemModel):
        self.actions = ground_all_actions(domain, problem)
        atom_index: dict[Atom, int] = {}

        def index_of(atom: Atom) -> int:
            if atom not in atom_index:
                atom_index[atom] = len(atom_index)
            return atom_index[atom]

        def mask_of(atoms) -> int:
            mask = 0
            for atom in atoms:
                mask |= 1 << index_of(atom)
            return mask

        self.init_mask = mask_of(problem.init)
        self.goal_mask = mask_of(problem.goal)
        self.encoded: list[tuple[int, int, int, int]] = []
        for i, action in enumerate(self.actions):
            self.encoded.append((
                i,
                mask_of(action.preconditions),
                mask_of(action.add_effects),
                mask_of(action.del_effects),
            ))
        self.atom_index = atom_index
        # (precondition, add) mask pairs: all the delete relaxation reads.
        self.relaxed = [(pre, add) for _, pre, add, _ in self.encoded]
        # The most goal atoms one action adds, at least 1.
        self.goal_adds = max(((add & self.goal_mask).bit_count() for _, add in self.relaxed),
                             default=0) or 1
        # hmax's layers still needed from a reached set (INF included).
        self.layers_to_goal: dict[int, float] = {}


def hmax(task: _GroundTask, state: int) -> float:
    """Admissible delete-relaxation heuristic: max over goal atom levels.

    Layer k fires every action whose preconditions are all reached by layer
    k and adds its add effects to layer k + 1, so an atom is first reached
    in the layer equal to its h_max level.  The result is the first layer
    that covers the goal, or ``INF`` once a layer adds nothing.

    Every set reached after two or more layers that does not cover the goal
    is stored in ``task.layers_to_goal`` with the layers it still needs, and
    a later call that reaches a stored set stops there.  The store lives as long as
    *task*, i.e. one search.
    """
    goal = task.goal_mask
    relaxed = task.relaxed
    memo = task.layers_to_goal
    reached = state
    layer = 0.0
    chain: list[int] = []  # chain[i] is the set reached after 2 + i layers
    while goal & ~reached:
        if layer >= 2.0:
            known = memo.get(reached)
            if known is not None:
                layer += known
                break
            chain.append(reached)
        grown = reached
        for pre, add in relaxed:
            if reached & pre == pre:
                grown |= add
        if grown == reached:
            layer = INF
            break
        reached = grown
        layer += 1.0
    for i, passed in enumerate(chain):
        memo[passed] = layer - 2.0 - i
    return layer


def goal_count_bound(task: _GroundTask, state: int) -> int:
    """Admissible bound from the goal count: ⌈unsatisfied goal atoms / k⌉.

    No action adds more than ``task.goal_adds`` goal atoms, so each step
    satisfies at most that many; a step also changes the bound by at most
    one, so it is consistent as well.
    """
    return -(-(task.goal_mask & ~state).bit_count() // task.goal_adds)


def _search(task: _GroundTask, start: int, timeout: float,
            heuristic: Callable[[_GroundTask, int], float]) -> list[GroundAction]:
    """The least optimal plan from *start*, actions compared by index.

    A* with ``max(heuristic, goal_count_bound)`` finds the optimal length L.
    It computes h lazily: a child is queued under g + max(h(parent) - 1,
    goal count), which a consistent h makes a lower bound on its f, and gets
    its own h only when popped.  A popped state with h = INF is dropped, one
    whose f is above its key is queued again under that f, and any other is
    expanded.  A depth-first pass then tries actions in ``task.encoded``
    order and returns the first plan of length L it meets.  It enters a
    child at depth d only if A* knows no shorter path to it, it has not
    already failed, and d + h(child) <= L, tested with the goal count first
    since h is at least the goal count.  With a consistent h, A* has
    expanded every state of f < L, so it knows a shorter path to any child
    that has one: each state entered is at its true distance, and a state
    that failed once is on no optimal plan.  The skips drop only such
    states, so the plan returned is the same for every consistent
    *heuristic*.
    """
    deadline = time.monotonic() + timeout
    goal = task.goal_mask
    h_of: dict[int, float] = {}

    def h(state: int) -> float:
        value = h_of.get(state)
        if value is None:
            value = h_of[state] = max(heuristic(task, state), goal_count_bound(task, state))
        return value

    def unsat(state: int) -> int:
        return (goal & ~state).bit_count()

    h0 = h(start)
    if h0 == INF:
        raise PlanningUnsolvable("goal unreachable from the given state")
    g_value: dict[int, int] = {start: 0}
    counter = itertools.count()
    heap: list[tuple[float, int, int, int]] = [(h0, unsat(start), next(counter), start)]
    closed: set[int] = set()
    pops = 0
    while heap:
        pops += 1
        if pops % 128 == 0 and time.monotonic() > deadline:
            raise PlanningTimeout(f"search exceeded {timeout} s")
        key, _, _, state = heapq.heappop(heap)
        if state in closed:
            continue
        h_state = h(state)
        if h_state == INF:
            closed.add(state)
            continue
        g = g_value[state]
        if g + h_state > key:
            heapq.heappush(heap, (g + h_state, unsat(state), next(counter), state))
            continue
        closed.add(state)
        if goal & ~state == 0:
            break
        g_succ = g + 1
        for _, pre, add, dele in task.encoded:
            if state & pre != pre:
                continue
            succ = (state & ~dele) | add
            if succ in closed:
                continue
            if g_succ < g_value.get(succ, 1 << 62):
                g_value[succ] = g_succ
                bound = max(h_state - 1, goal_count_bound(task, succ))
                heapq.heappush(heap, (g_succ + bound, unsat(succ), next(counter), succ))
    else:
        raise PlanningUnsolvable("search space exhausted without reaching the goal")
    length = g_value[state]

    failed: set[int] = set()
    steps: list[GroundAction] = []

    def complete(state: int, depth: int) -> bool:
        # Only a goal state passes d + h <= L at d = L, as goal_count_bound
        # is positive elsewhere; so the recursion is at most L deep.
        if goal & ~state == 0:
            return True
        if time.monotonic() > deadline:
            raise PlanningTimeout(f"search exceeded {timeout} s")
        depth += 1
        for action_i, pre, add, dele in task.encoded:
            if state & pre != pre:
                continue
            succ = (state & ~dele) | add
            if (g_value.get(succ, depth) < depth or succ in failed
                    or depth + goal_count_bound(task, succ) > length
                    or depth + h(succ) > length):
                continue
            steps.append(task.actions[action_i])
            if complete(succ, depth):
                return True
            steps.pop()
            failed.add(succ)
        return False

    try:
        if not complete(start, 0):
            raise PlanningUnsolvable(f"no plan of the optimal length {length}: "
                                     "the heuristic is not consistent")
    finally:
        # complete refers to itself through its cell; emptying the cell
        # frees the task without the cyclic collector.
        del complete
    return steps


def solve_optimal(problem: ProblemModel, domain: DomainModel,
                  timeout: float = DEFAULT_TIMEOUT,
                  heuristic: Callable[[_GroundTask, int], float] = hmax,
                  external_cmd: str | None = None) -> Plan:
    """Find the least optimal (minimum action count) plan; see the module
    docstring for the order.

    Raises :class:`PlanningUnsolvable` or :class:`PlanningTimeout`, and
    :class:`ConfigError` when *timeout* is not finite and above 0, which
    would switch the time bound off.  When *external_cmd* is set the
    configured planner command is invoked as ``cmd domain.pddl problem.pddl
    out.plan`` instead of the built-in search.
    """
    if not 0 < timeout < math.inf:
        raise ConfigError(f"planner timeout must be finite and > 0, got {timeout}")
    if external_cmd:
        return run_external_planner(external_cmd, domain, problem, timeout=timeout)
    task = _GroundTask(domain, problem)
    actions = _search(task, task.init_mask, timeout, heuristic)
    return Plan(tuple(actions))


def replan_from(state: State, problem: ProblemModel, domain: DomainModel,
                timeout: float = DEFAULT_TIMEOUT,
                heuristic: Callable[[_GroundTask, int], float] = hmax,
                external_cmd: str | None = None) -> Plan:
    """Solve the problem again with *state* as the initial state."""
    modified = ProblemModel(
        name=problem.name,
        domain_name=problem.domain_name,
        objects=problem.objects,
        init=frozenset(state),
        goal=problem.goal,
    )
    return solve_optimal(modified, domain, timeout=timeout, heuristic=heuristic,
                         external_cmd=external_cmd)


def run_external_planner(cmd: str, domain: DomainModel, problem: ProblemModel,
                         timeout: float | None = None) -> Plan:
    """Escape hatch: ``{cmd} {domain.pddl} {problem.pddl} {out.plan}``."""
    with tempfile.TemporaryDirectory(prefix="planeval-ext-") as tmp:
        tmp_path = Path(tmp)
        domain_file = tmp_path / "domain.pddl"
        problem_file = tmp_path / "problem.pddl"
        out_file = tmp_path / "out.plan"
        domain_file.write_text(domain_to_pddl(domain), encoding="utf-8")
        problem_file.write_text(problem_to_pddl(problem, domain), encoding="utf-8")
        argv = [*shlex.split(cmd), str(domain_file), str(problem_file), str(out_file)]
        try:
            subprocess.run(argv, check=True, timeout=timeout,
                           capture_output=True, text=True, errors="replace")
        except subprocess.TimeoutExpired as exc:
            raise PlanningTimeout(f"external planner exceeded {timeout} s") from exc
        except subprocess.CalledProcessError as exc:
            raise PlanningUnsolvable(
                f"external planner failed with code {exc.returncode}: {exc.stderr}"
            ) from exc
        if not out_file.exists():
            raise PlanningUnsolvable("external planner produced no plan file")
        # Named without its temporary path, so error records stay deterministic.
        return parse_plan(read_text(out_file, "external planner output"), domain, problem)
