"""Plan variants via circular shifts and consistent parameter remapping.

The variant search is exact: it ranks every (mapping, shift) combination of
the plan's objects, whatever their number.  Mapping is applied first, then
the shift.

It scores few variants.  Variants are simulated instead: all have the
plan's length, so all valid ones share one raw score and rank by penalty
and tie-break alone, and any valid variant beats every invalid one.  An
invalid variant is scored in full only when an upper bound on its score,
which depends on the mapping alone, says it can still beat the best variant
scored so far.  Mappings are built depth first, and one whose completions
all lose is skipped unremapped.  The bound never rises as a mapping is
extended, so the empty mapping's bound answers most of these tests without
the bound of the mapping at hand.  The bounds are built once, when the
first variant, the identity at shift 0, proves invalid; a valid plan's
search ends at that variant and builds none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from .config import PipelineConfig
from .errors import ConfigError, NonBijectiveMapping, SearchBudgetExceeded
from .lcs import lcs_analyze
from .pddl import DomainModel, GroundAction, Plan, ProblemModel, resolve_action
from .scoring import ScoreBreakdown, plan_score, score_ceiling
from .similarity import make_similarity_cache, pair_actions
from .simulator import is_valid


@dataclass(frozen=True)
class Transformation:
    """A shift amount plus a permutation of the plan's objects (fixed points
    included), stored as sorted pairs for deterministic comparison."""

    shift: int
    mapping: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class VariantScore:
    transformation: Transformation
    plan: Plan
    breakdown: ScoreBreakdown
    penalty: Fraction
    penalized: Fraction


def circular_shift(plan: Plan, n: int) -> Plan:
    """Move the action at index i to ``((i - 1 + n) mod |plan|) + 1``."""
    length = len(plan)
    if length == 0:
        return plan
    n %= length
    if n == 0:
        return plan
    return Plan(plan.actions[-n:] + plan.actions[:-n])


def _full_mapping(plan: Plan, mapping: Mapping[str, str]) -> dict[str, str]:
    objs = sorted(plan.objects())
    full = {obj: mapping.get(obj, obj) for obj in objs}
    if sorted(full.values()) != objs:
        raise NonBijectiveMapping(
            f"mapping {dict(mapping)} is not a permutation of the plan objects {objs}"
        )
    return full


def remap_params(plan: Plan, mapping: Mapping[str, str],
                 domain: DomainModel, problem: ProblemModel,
                 resolved: dict[tuple, GroundAction] | None = None) -> Plan:
    """Substitute every argument occurrence simultaneously; names unchanged.

    Objects missing from *mapping* stay fixed.  Each remapped action is
    re-resolved against *domain* and *problem*, so type-invalid combinations
    come back flagged unresolvable.  *resolved* memoises the resolution of
    each ``(name, args)`` across calls against the same domain and problem;
    it is the table that :func:`~planeval.pddl.parse_plan` reads and fills.
    """
    full = _full_mapping(plan, mapping)
    if resolved is None:
        resolved = {}
    actions = []
    for action in plan:
        key = (action.name, tuple(full[arg] for arg in action.args))
        remapped = resolved.get(key)
        if remapped is None:
            remapped = resolved[key] = resolve_action(*key, domain, problem)
        actions.append(remapped)
    return Plan(tuple(actions))


# ---------------------------------------------------------------------------
# Mapping enumeration
# ---------------------------------------------------------------------------


def _assignments(objs: list[str], skip: Callable[[tuple[str, ...]], bool]
                 ) -> Iterator[tuple[str, ...]]:
    """Permutations of *objs*, as the images of ``objs[0]``, ``objs[1]``, ...,
    depth first: each object tries its own image first, then the others in
    *objs* order.  A prefix for which *skip* is true is passed over with its
    completions."""
    stack: list[tuple[str, ...]] = [()]
    while stack:
        images = stack.pop()
        if images and skip(images):
            continue
        depth = len(images)
        if depth == len(objs):
            yield images
            continue
        own = objs[depth]
        stack.extend(images + (obj,) for obj in reversed(objs)
                     if obj != own and obj not in images)
        if own not in images:
            stack.append(images + (own,))


def _no_valid_completion(plan: Plan, domain: DomainModel, problem: ProblemModel,
                         objs: list[str]) -> Callable[[tuple[str, ...]], bool]:
    """A test on the images of ``objs[:k]`` that is true only when no mapping
    extending them makes any shift of *plan* valid.

    That holds when an action name, arity or object is unknown, when an
    assigned object's image has a type that one of its parameters does not
    admit, or when a goal atom missing from the initial state is added by no
    plan action's schema under the partial mapping, an unassigned argument
    taking any image not yet used.
    """
    declared = set(objs) <= problem.objects.keys() and all(
        (schema := domain.schema(action.name)) is not None
        and schema.arity == len(action.args) for action in plan)
    if not declared:
        return lambda images: True
    objects = set(objs)
    of_type = {name: {obj for obj in objs if domain.is_subtype(problem.objects[obj], name)}
               for name in domain.types}
    # The images each object may take: those every parameter it fills admits.
    admitted = {obj: objects for obj in objs}
    # Per goal atom, the partial maps under which some plan action adds it.
    supports: dict[tuple, set[tuple[tuple[str, str], ...]]] = {
        goal: set() for goal in problem.goal - problem.init}
    for action in plan:
        schema = domain.schema(action.name)
        binding = {param.name: arg for param, arg in zip(schema.params, action.args)}
        for arg, param in zip(action.args, schema.params):
            admitted[arg] = admitted[arg] & of_type[param.type]
        for effect in schema.add_effects:
            for goal, options in supports.items():
                need: dict[str, str] = {}
                if effect[0] == goal[0] and all(
                        target in objects and need.setdefault(binding[term], target) == target
                        for term, target in zip(effect[1:], goal[1:])):
                    options.add(tuple(need.items()))

    def dead(images: tuple[str, ...]) -> bool:
        image = dict(zip(objs, images))
        if any(dst not in admitted[src] for src, dst in image.items()):
            return True
        used = set(images)
        return not all(any(all(image[src] == dst if src in image else dst not in used
                               for src, dst in option) for option in options)
                       for options in supports.values())

    return dead


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def score_variant(variant: Plan, transformation: Transformation, penalty: Fraction,
                  gt: Plan, problem: ProblemModel, sim) -> VariantScore:
    """Score one variant against *gt*, names compared by *sim*, and subtract
    the *penalty* of its transformation."""
    valid = is_valid(variant, problem)
    # A valid variant's score reads neither its pairing nor its LCS analysis.
    breakdown = (plan_score(variant, gt, None, None, True) if valid else
                 plan_score(variant, gt, pair_actions(variant, gt, sim=sim),
                            lcs_analyze(variant, gt), False))
    return VariantScore(transformation, variant, breakdown, penalty,
                        breakdown.total - penalty)


def find_best_variant(plan: Plan, gt: Plan, problem: ProblemModel,
                      domain: DomainModel, config: PipelineConfig | None = None,
                      resolved: dict[tuple, GroundAction] | None = None,
                      ) -> VariantScore:
    """Select the best variant over every (mapping, shift) combination and
    return its score; the winning variant, pi1, is its ``plan``.

    Ranking: valid first, then penalized score, then fewer total changes,
    then the smaller shift, then the smaller mapping.  The identity
    transformation is always in the candidate set, so an invalid winner's
    penalized score is never below the plan's own score.  A valid winner's
    may be, since validity ranks first.

    A valid plan is its own pi1: the identity at shift 0 has penalty 0 and
    no change, and every other (mapping, shift) makes at least one change.
    So the search ends at that first variant, never exceeds the budget and
    builds no bound: the score ceiling, its bound for the empty mapping and
    the dead-prefix test are built when that variant proves invalid.

    Mappings are built depth first, objects in order of first appearance,
    each trying its own image first, so the identity comes first.  Valid
    variants rank on (penalty, changes, shift, mapping) alone, and only the
    valid winner is scored.  An invalid variant is scored only while no
    valid one is known and its mapping's score ceiling minus its penalty can
    still win.  A partial mapping is skipped with its completions, each
    moving at least ``low`` objects, when (a) a valid variant is known and
    ``(c_map * low, low)`` exceeds its (penalty, changes), or (b) no
    completion can be valid and either a valid variant is known or the
    ceiling minus ``c_map * low`` is below the best score.  Penalties and
    floors are integers, ``c_shift`` and ``c_map`` scaled by the lcm of their
    denominators; a penalty becomes a ``Fraction`` only in a variant's score.

    A node is a partial mapping tested for a skip or a variant visited.
    Once a winner exists and ``config.budget`` nodes have been counted, the
    search raises :class:`SearchBudgetExceeded` carrying the exact winner
    among the variants visited; the identity at shift 0 always is.  Raises
    :class:`ConfigError` when ``c_shift``, ``c_map`` or ``budget`` is
    negative.

    *resolved* is :func:`remap_params`' table for *domain* and *problem*;
    the search reads and fills it.
    """
    if config is None:
        config = PipelineConfig()
    if config.c_shift < 0 or config.c_map < 0 or config.budget < 0:
        raise ConfigError(f"transform costs and budget must be >= 0, got c_shift="
                          f"{config.c_shift}, c_map={config.c_map} and budget={config.budget}")
    if resolved is None:
        resolved = {}
    objs = list(dict.fromkeys(arg for action in plan for arg in action.args))
    length = len(plan)
    shifts = list(range(length)) if length else [0]
    sim = make_similarity_cache(config.similarity)
    # Costs in units of 1 / scale: a penalty is c_shift * circular shift
    # distance + c_map * moved objects.
    c_shift, c_map = Fraction(config.c_shift), Fraction(config.c_map)
    scale = math.lcm(c_shift.denominator, c_map.denominator)
    c_shift, c_map = int(c_shift * scale), int(c_map * scale)
    magnitudes = [min(shift, length - shift) for shift in shifts]

    best: VariantScore | None = None  # best scored invalid variant
    best_rank: tuple = ()  # (changes, shift, mapping) of best
    # Built when the first variant, the identity at shift 0, becomes best:
    # the score ceiling, its bound for the empty mapping and the dead-prefix
    # test.  The ceiling never rises as a mapping is extended, so the empty
    # mapping's, root, bounds every node: a cost above root_limit loses.
    ceiling_of = dead = None
    root_limit = 0
    valid: tuple | None = None  # ((penalty, changes, shift, mapping), plan)
    nodes = 0

    def winner() -> VariantScore:
        if valid is None:
            return best
        (penalty, _, shift, pairs), variant = valid
        # Scored as score_variant scores a valid variant, without simulating
        # it again.
        breakdown = plan_score(variant, gt, None, None, True)
        cost = Fraction(penalty, scale)
        return VariantScore(Transformation(shift, pairs), variant, breakdown, cost,
                            breakdown.total - cost)

    def count_node() -> None:
        nonlocal nodes
        if nodes >= config.budget and (valid is not None or best is not None):
            raise SearchBudgetExceeded(
                f"variant search exceeded its budget of {config.budget} nodes",
                best=winner())
        nodes += 1

    def skip(images: tuple[str, ...]) -> bool:
        count_node()
        # Every completion moves the assigned objects that moved and the
        # unassigned ones whose own name is already taken as an image.
        low = (sum(src != dst for src, dst in zip(objs, images))
               + len(set(images).intersection(objs[len(images):])))
        floor = c_map * low
        if valid is not None:
            return (floor, low) > valid[0][:2] or dead(images)
        return (best is not None and dead(images)
                and (floor > root_limit
                     or floor > (ceiling_of(images) - best.penalized) * scale))

    for images in _assignments(objs, skip):
        mapped = remap_params(plan, dict(zip(objs, images)), domain, problem, resolved)
        pairs = tuple(sorted(zip(objs, images)))
        moved = sum(src != dst for src, dst in pairs)
        # An unresolvable action never executes, so no shift can be valid.
        executable = all(action.resolvable for action in mapped)
        # An invalid variant can win only if (penalty, rank) stays below this.
        limit = None
        for shift in shifts:
            count_node()
            penalty = c_shift * magnitudes[shift] + c_map * moved
            rank = (magnitudes[shift] + moved, shift, pairs)
            if valid is not None and (penalty, *rank) >= valid[0]:
                continue
            if executable:
                variant = circular_shift(mapped, shift)
                if is_valid(variant, problem):
                    valid = ((penalty, *rank), variant)
                    if not rank[0]:  # no change: the identity at shift 0 wins
                        return winner()
                    continue
            if valid is not None:
                continue
            if best is not None:
                if penalty > root_limit:  # so also > limit
                    continue
                if limit is None:
                    limit = ((ceiling_of(images) - best.penalized) * scale, *best_rank)
                if (penalty, *rank) > limit:
                    continue
            candidate = score_variant(circular_shift(mapped, shift),
                                      Transformation(shift, pairs),
                                      Fraction(penalty, scale), gt, problem, sim)
            if best is None:
                ceiling_of = score_ceiling(plan, gt, objs, config.similarity)
                root = ceiling_of(())
                dead = _no_valid_completion(plan, domain, problem, objs)
            if (best is None or candidate.penalized > best.penalized
                    or (candidate.penalized == best.penalized and rank < best_rank)):
                best, best_rank, limit = candidate, rank, None
                root_limit = math.floor((root - best.penalized) * scale)
    return winner()
