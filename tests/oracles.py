"""Independent oracles: brute-force and breadth-first reference implementations.

Everything here is deliberately naive; these functions define expected
values for the tests and must stay independent of the code paths they check.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

from planeval.pddl import Atom, DomainModel, GroundAction, Plan, ProblemModel, State
from planeval.planner import ground_all_actions
from planeval.similarity import action_similarity
from planeval.simulator import is_valid

# ---------------------------------------------------------------------------
# Blocksworld state-space enumeration
# ---------------------------------------------------------------------------


def tower_configs(blocks: tuple[str, ...]) -> set[tuple[tuple[str, ...], ...]]:
    """Every hand-empty configuration of *blocks* as a sorted tuple of towers
    (each tower listed bottom to top)."""
    if not blocks:
        return {()}
    head, rest = blocks[0], blocks[1:]
    configs = set()
    for cfg in tower_configs(rest):
        configs.add(tuple(sorted(cfg + ((head,),))))
        for t_i, tower in enumerate(cfg):
            for pos in range(len(tower) + 1):
                new_tower = tower[:pos] + (head,) + tower[pos:]
                configs.add(tuple(sorted(cfg[:t_i] + (new_tower,) + cfg[t_i + 1:])))
    return configs


def config_atoms(cfg: tuple[tuple[str, ...], ...]) -> frozenset[Atom]:
    atoms: set[Atom] = {("handempty",)}
    for tower in cfg:
        atoms.add(("ontable", tower[0]))
        atoms.add(("clear", tower[-1]))
        for below, above in zip(tower, tower[1:]):
            atoms.add(("on", above, below))
    return frozenset(atoms)


def bw_table_problem(domain: DomainModel, blocks: tuple[str, ...],
                     goal: frozenset[Atom], name: str = "bw-oracle") -> ProblemModel:
    """All blocks on the table initially, hand empty."""
    init_cfg = tuple(sorted((b,) for b in blocks))
    return ProblemModel(name, domain.name, {b: "object" for b in blocks},
                        config_atoms(init_cfg), goal)


# ---------------------------------------------------------------------------
# Breadth-first search oracle
# ---------------------------------------------------------------------------


def bfs_distances(init: State, actions) -> dict[State, int]:
    """Exhaustive BFS over the reachable state space; unit action costs."""
    dist: dict[State, int] = {init: 0}
    queue = deque([init])
    while queue:
        state = queue.popleft()
        d = dist[state]
        for action in actions:
            if action.preconditions <= state:
                successor = (state - action.del_effects) | action.add_effects
                if successor not in dist:
                    dist[successor] = d + 1
                    queue.append(successor)
    return dist


def bfs_optimal_cost(problem: ProblemModel, domain: DomainModel) -> int | None:
    """Cost of the cheapest goal-satisfying state, or None if unreachable."""
    actions = ground_all_actions(domain, problem)
    dist = bfs_distances(problem.init, actions)
    costs = [d for state, d in dist.items() if problem.goal <= state]
    return min(costs) if costs else None


def count_optimal_plans(problem: ProblemModel, domain: DomainModel) -> int:
    """Number of distinct minimum-length plans (action sequences) to the goal."""
    actions = ground_all_actions(domain, problem)
    dist = bfs_distances(problem.init, actions)
    optimum = min(d for state, d in dist.items() if problem.goal <= state)
    ways: dict[State, int] = {problem.init: 1}
    for state in dist:  # BFS order: nondecreasing distance
        if dist[state] >= optimum:
            continue
        for action in actions:
            if action.preconditions <= state:
                successor = (state - action.del_effects) | action.add_effects
                if dist[successor] == dist[state] + 1:
                    ways[successor] = ways.get(successor, 0) + ways[state]
    return sum(n for state, n in ways.items()
               if problem.goal <= state and dist[state] == optimum)


def goal_distances(problem: ProblemModel, domain: DomainModel) -> dict[State, int]:
    """Fewest actions from each reachable state to a goal state, by
    breadth-first search backwards over the explicit reachable graph;
    states that cannot reach the goal are left out."""
    actions = ground_all_actions(domain, problem)
    reachable = bfs_distances(problem.init, actions)
    predecessors: dict[State, list[State]] = {}
    for state in reachable:
        for action in actions:
            if action.preconditions <= state:
                successor = (state - action.del_effects) | action.add_effects
                predecessors.setdefault(successor, []).append(state)
    goals = [state for state in reachable if problem.goal <= state]
    dist = dict.fromkeys(goals, 0)
    queue = deque(goals)
    while queue:
        state = queue.popleft()
        for before in predecessors.get(state, ()):
            if before not in dist:
                dist[before] = dist[state] + 1
                queue.append(before)
    return dist


def least_optimal_plan_oracle(problem: ProblemModel, domain: DomainModel) -> Plan:
    """The lexicographically least optimal plan, actions compared by their
    ``ground_all_actions`` position: from the initial state, repeatedly take
    the first action that brings the goal one step closer."""
    actions = ground_all_actions(domain, problem)
    dist = goal_distances(problem, domain)
    state, steps = problem.init, []
    while dist[state] > 0:
        for action in actions:
            if action.preconditions <= state:
                successor = (state - action.del_effects) | action.add_effects
                if dist.get(successor) == dist[state] - 1:
                    steps.append(action)
                    state = successor
                    break
    return Plan(tuple(steps))


# ---------------------------------------------------------------------------
# Delete-relaxation heuristic oracle
# ---------------------------------------------------------------------------


def hmax_oracle(task, state: State, goal: State) -> float:
    """h_max by the Bellman-Ford fixpoint over atom sets.

    An atom of *state* has level 0; an action whose preconditions all have a
    level gives each of its add effects the level max(preconditions) + 1
    unless it already has a lower one; sweep over ``task.actions`` until no
    level drops.  Returns the highest level of a *goal* atom, ``inf`` if one
    is never reached.
    """
    level: dict[Atom, float] = {atom: 0.0 for atom in state}
    changed = True
    while changed:
        changed = False
        for action in task.actions:
            if not action.preconditions <= level.keys():
                continue
            via = max((level[atom] for atom in action.preconditions), default=0.0) + 1.0
            for atom in action.add_effects:
                if via < level.get(atom, math.inf):
                    level[atom] = via
                    changed = True
    return max((level.get(atom, math.inf) for atom in goal), default=0.0)


# ---------------------------------------------------------------------------
# Sequence oracles
# ---------------------------------------------------------------------------


def brute_force_substring_length(a: tuple, b: tuple) -> int:
    best = 0
    for start in range(len(a)):
        for end in range(start + 1, len(a) + 1):
            piece = a[start:end]
            if any(b[j:j + len(piece)] == piece for j in range(len(b) - len(piece) + 1)):
                best = max(best, len(piece))
    return best


def lcs_length(plan_keys: tuple, gt_keys: tuple) -> int:
    """Subsequence LCS length by the classic rolling-row dynamic program."""
    if len(plan_keys) < len(gt_keys):
        plan_keys, gt_keys = gt_keys, plan_keys
    width = len(gt_keys)
    previous = [0] * (width + 1)
    current = [0] * (width + 1)
    for key in plan_keys:
        for j in range(1, width + 1):
            if key == gt_keys[j - 1]:
                current[j] = previous[j - 1] + 1
            else:
                current[j] = max(previous[j], current[j - 1])
        previous, current = current, previous
    return previous[width]


def _is_subsequence(piece: tuple, seq: tuple) -> bool:
    it = iter(seq)
    return all(any(x == y for y in it) for x in piece)


def brute_force_subsequence_length(a: tuple, b: tuple) -> int:
    if len(a) > len(b):
        a, b = b, a
    best = 0
    for r in range(len(a), 0, -1):
        for combo in itertools.combinations(a, r):
            if _is_subsequence(combo, b):
                return r
    return best


def brute_force_param_counts(p: list[str], q: list[str]) -> tuple[int, int]:
    """F (exact positional matches) and M (shared objects never aligned)."""
    f_count = sum(1 for i in range(min(len(p), len(q))) if p[i] == q[i])
    m_count = 0
    for obj in set(p) & set(q):
        aligned = any(p[i] == q[i] == obj for i in range(min(len(p), len(q))))
        if not aligned:
            m_count += 1
    return f_count, m_count


def placeholder_similarity_oracle(name: str, arity: int, other: str, other_arity: int,
                                  j: int, provider) -> Fraction:
    """``action_similarity`` of a *name* action over distinct placeholder
    arguments and an *other* action whose first *j* arguments equal them in
    place and whose others occur nowhere else."""
    return action_similarity(
        GroundAction(name, tuple(f"?{i}" for i in range(arity))),
        GroundAction(other, tuple(f"?{i}" if i < j else f"!{i}" for i in range(other_arity))),
        provider)


# ---------------------------------------------------------------------------
# Variant-ranking oracle
# ---------------------------------------------------------------------------


def _shift_distance(transformation, plan_length: int) -> int:
    """Positions moved by the circular shift, the shorter way round."""
    return min(transformation.shift, plan_length - transformation.shift)


def _moved_objects(transformation) -> int:
    return sum(1 for src, dst in transformation.mapping if src != dst)


def total_changes(transformation, plan_length: int) -> int:
    """The circular shift distance plus the number of moved objects."""
    return _shift_distance(transformation, plan_length) + _moved_objects(transformation)


def penalty_oracle(transformation, plan_length: int, config):
    """The pi1 penalty: ``c_shift`` per shift position, ``c_map`` per moved object."""
    return (config.c_shift * _shift_distance(transformation, plan_length)
            + config.c_map * _moved_objects(transformation))


def rank_variants_oracle(plan: Plan, gt: Plan, problem: ProblemModel,
                         domain: DomainModel, config, only=None):
    """Score every (mapping, shift) variant and rank with an explicit sort.

    Ordering: valid first, then highest penalized score, then fewest total
    changes, then smallest shift, then lexicographically smallest mapping.
    Names are compared by ``config.similarity``.  With *only*, a collection
    of transformations, just those variants are ranked.
    """
    from planeval.similarity import make_similarity_cache
    from planeval.transform import (
        Transformation,
        circular_shift,
        remap_params,
        score_variant,
    )

    sim = make_similarity_cache(config.similarity)
    objs = sorted(plan.objects())
    shifts = list(range(len(plan))) if len(plan) else [0]
    enumeration = [(perm, shift) for perm in itertools.permutations(objs)
                   for shift in shifts]
    remapped = {}
    scored = []
    for perm, shift in enumeration:
        mapping = dict(zip(objs, perm))
        transformation = Transformation(shift, tuple(sorted(mapping.items())))
        if only is not None and transformation not in only:
            continue
        if perm not in remapped:
            remapped[perm] = remap_params(plan, mapping, domain, problem)
        penalty = penalty_oracle(transformation, len(plan), config)
        variant = circular_shift(remapped[perm], shift)
        scored.append(score_variant(variant, transformation, penalty, gt,
                                    is_valid(variant, problem), sim))

    def sort_key(vs):
        return (
            not vs.breakdown.valid,
            -vs.penalized,
            total_changes(vs.transformation, len(plan)),
            vs.transformation.shift,
            vs.transformation.mapping,
        )

    scored.sort(key=sort_key)
    return scored[0]
