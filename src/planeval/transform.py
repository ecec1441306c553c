"""Plan variants via circular shifts and consistent parameter remapping.

The variant search enumerates every (mapping, shift) combination while the
plan's object count stays at or below ``EXACT_SEARCH_MAX_OBJECTS``; above
it, only mappings that make at least one action land exactly on its
ground-truth counterpart under some shift are generated (plus the
identity), and that search is not exact.  Mapping is applied first, then
the shift.

The exact search scores few variants.  Variants are simulated
instead: all have the plan's length, so all valid ones share one raw score
and rank by penalty and tie-break alone, and any valid variant beats every
invalid one.  An invalid variant is scored in full only when an upper bound
on its score, which depends on the mapping alone, says it can still beat
the best variant scored so far.  Mappings are built depth first, and one
whose completions all lose is skipped unremapped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .config import PipelineConfig
from .errors import ConfigError, NonBijectiveMapping, SearchBudgetExceeded
from .lcs import lcs_analyze
from .pddl import DomainModel, GroundAction, Plan, ProblemModel, resolve_action
from .scoring import ScoreBreakdown, plan_score, score_ceiling
from .similarity import NameSimilarityProvider, make_similarity_cache, pair_actions
from .simulator import is_valid

# Above this many plan objects, only aligned mappings are tried.
EXACT_SEARCH_MAX_OBJECTS = 6


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
    valid: bool


def circular_shift(plan: Plan, n: int) -> Plan:
    """Move the action at index i to ``((i - 1 + n) mod |plan|) + 1``."""
    length = len(plan)
    if length == 0:
        return plan
    n %= length
    if n == 0:
        return plan
    return Plan(plan.actions[-n:] + plan.actions[:-n], label=plan.label)


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
    each ``(name, args)`` across calls against the same domain and problem.
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
    return Plan(tuple(actions), label=plan.label)


# ---------------------------------------------------------------------------
# Candidate mapping generation
# ---------------------------------------------------------------------------


def _assignments(objs: list[str], skip: Callable[[tuple[str, ...]], bool]
                 ) -> Iterator[tuple[str, ...]]:
    """Permutations of the sorted *objs* in lexicographic order, depth first;
    a prefix for which *skip* is true is passed over with its completions."""
    stack: list[tuple[str, ...]] = [()]
    while stack:
        images = stack.pop()
        if images and skip(images):
            continue
        if len(images) == len(objs):
            yield images
        else:
            stack.extend(images + (obj,) for obj in reversed(objs) if obj not in images)


def _aligned_partial_maps(plan: Plan, gt: Plan, objs: set[str],
                          shifts: Iterable[int]) -> Iterator[dict[str, str]]:
    """Partial maps that make some candidate action equal its ground-truth
    counterpart positionally under one of the shifts."""
    length = len(plan)
    seen: set[tuple] = set()
    for shift in shifts:
        for i in range(length):
            j = (i + shift) % length
            if j >= len(gt):
                continue
            cand, target = plan[i], gt[j]
            if cand.name != target.name or len(cand.args) != len(target.args):
                continue
            partial: dict[str, str] = {}
            ok = True
            for src, dst in zip(cand.args, target.args):
                if dst not in objs or partial.get(src, dst) != dst:
                    ok = False
                    break
                partial[src] = dst
            if not ok or len(set(partial.values())) != len(partial):
                continue
            key = tuple(sorted(partial.items()))
            if key not in seen:
                seen.add(key)
                yield partial


def _complete_partial(partial: dict[str, str], objs: list[str]) -> Iterator[dict[str, str]]:
    """Extend an injective partial map to permutations, identity-first."""
    used_range = set(partial.values())
    rest_domain = [o for o in objs if o not in partial]
    fixed = dict(partial)
    displaced: list[str] = []
    for obj in rest_domain:
        if obj not in used_range:
            fixed[obj] = obj
        else:
            displaced.append(obj)
    free_range = sorted(set(objs) - used_range - {o for o in rest_domain if o not in used_range})
    if not displaced:
        yield fixed
        return
    # Small by construction (bounded by the aligned action's arity), but cap
    # the blowup defensively with the single canonical pairing.
    if len(displaced) > 6:
        yield {**fixed, **dict(zip(displaced, free_range))}
        return
    for perm in itertools.permutations(free_range):
        yield {**fixed, **dict(zip(displaced, perm))}


def _pruned_mappings(plan: Plan, gt: Plan, objs: list[str],
                     shifts: Iterable[int]) -> Iterator[dict[str, str]]:
    yield {obj: obj for obj in objs}
    seen: set[tuple] = {tuple(sorted((o, o) for o in objs))}
    for partial in _aligned_partial_maps(plan, gt, set(objs), shifts):
        for full in _complete_partial(partial, objs):
            key = tuple(sorted(full.items()))
            if key not in seen:
                seen.add(key)
                yield full


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def score_variant(variant: Plan, transformation: Transformation, penalty: Fraction,
                  gt: Plan, problem: ProblemModel, sim) -> VariantScore:
    """Score one variant against *gt*, names compared by *sim*, and subtract
    the *penalty* of its transformation."""
    valid = is_valid(variant, problem)
    pairing, _ = pair_actions(variant, gt, sim=sim)
    breakdown = plan_score(variant, gt, pairing, lcs_analyze(variant, gt), valid)
    return VariantScore(transformation, variant, breakdown, penalty,
                        breakdown.total - penalty, valid)


def find_best_variant(plan: Plan, gt: Plan, problem: ProblemModel,
                      domain: DomainModel, config: PipelineConfig | None = None,
                      provider: NameSimilarityProvider | None = None,
                      ) -> tuple[Plan, VariantScore]:
    """Enumerate transformed variants and select the best one.

    Ranking: valid first, then penalized score, then fewer total changes,
    then the smaller shift, then the smaller mapping.  The identity
    transformation is always in the candidate set, so the winner's penalized
    score is never below the plan's own score.

    One streaming pass simulates each variant whose actions all resolve.
    Valid variants rank on (penalty, changes, shift, mapping) alone, and
    once one is found, a later variant is simulated only if that key is
    smaller.  Before a valid variant is found, an invalid one is scored only
    if the mapping's score ceiling minus its penalty can still beat the best
    scored so far, ties decided by the tie-break.  Only the valid winner, if
    any, is scored.

    Up to ``EXACT_SEARCH_MAX_OBJECTS`` objects, a partial mapping is skipped
    with its completions, each of which moves at least ``low`` objects, when
    (a) a valid variant is known and ``(c_map * low, low)`` exceeds its
    (penalty, changes), or (b) an unknown name, arity or object, or an
    assigned action that does not resolve, leaves no completion valid, and
    the ceiling minus ``c_map * low`` is below the best score.

    Raises :class:`SearchBudgetExceeded`, carrying the exact winner among
    the variants enumerated so far, when variants remain after
    ``config.budget`` have been enumerated; the identity, enumerated first,
    always is, and a skipped variant counts as enumerated.  Raises
    :class:`ConfigError` when ``c_shift`` or ``c_map`` is negative.
    """
    if config is None:
        config = PipelineConfig()
    if config.c_shift < 0 or config.c_map < 0:
        raise ConfigError(f"transform costs must be >= 0, got c_shift={config.c_shift} "
                          f"and c_map={config.c_map}")
    if provider is None:
        provider = config.provider()
    objs = sorted(plan.objects())
    length = len(plan)
    shifts = list(range(length)) if length else [0]
    sim = make_similarity_cache(provider)
    ceiling_of = score_ceiling(plan, gt, objs, provider)
    # Penalties, c_shift * circular shift distance + c_map * moved objects,
    # indexed by the number of moved objects, then the shift; a row is built
    # when a mapping first moves that many objects.
    magnitudes = [min(shift, length - shift) for shift in shifts]
    penalties: dict[int, list[Fraction]] = {}
    resolved: dict[tuple, GroundAction] = {}
    # An unknown name, arity or object leaves every variant unresolvable.
    declared = set(objs) <= problem.objects.keys() and all(
        (schema := domain.schema(action.name)) is not None
        and schema.arity == len(action.args) for action in plan)

    best: VariantScore | None = None  # best scored invalid variant
    best_rank: tuple = ()  # (changes, shift, mapping) of best
    valid: tuple | None = None  # ((penalty, changes, shift, mapping), plan)

    def winner() -> VariantScore:
        if valid is None:
            return best
        (penalty, _, shift, pairs), variant = valid
        return score_variant(variant, Transformation(shift, pairs), penalty, gt,
                             problem, sim)

    def exceeded() -> SearchBudgetExceeded:
        found = winner()
        return SearchBudgetExceeded(
            f"variant search exceeded budget {config.budget} "
            f"({projected or 'unknown'} candidates)", best=(found.plan, found))

    def resolves(images: tuple[str, ...]) -> bool:
        image = dict(zip(objs, images))
        for action in plan:
            key = (action.name, tuple(image.get(arg) for arg in action.args))
            if None not in key[1]:
                if key not in resolved:
                    resolved[key] = resolve_action(*key, domain, problem)
                if not resolved[key].resolvable:
                    return False
        return True

    def skip(images: tuple[str, ...]) -> bool:
        nonlocal enumerated
        depth = len(images)
        # Every completion moves the assigned objects that moved and the
        # unassigned ones whose own name is already taken as an image.
        low = (sum(src != dst for src, dst in zip(objs, images))
               + len(set(images).intersection(objs[depth:])))
        floor = config.c_map * low
        if not ((valid is not None and (floor, low) > valid[0][:2])
                or (best is not None and not (declared and resolves(images))
                    and ceiling_of(images) - floor < best.penalized)):
            return False
        skipped = math.factorial(len(objs) - depth) * len(shifts)
        if enumerated + skipped > config.budget:
            raise exceeded()
        enumerated += skipped
        return True

    if len(objs) <= EXACT_SEARCH_MAX_OBJECTS:
        assignments = _assignments(objs, skip)
        projected = math.factorial(len(objs)) * len(shifts)
    else:
        assignments = (tuple(mapping[obj] for obj in objs)
                       for mapping in _pruned_mappings(plan, gt, objs, shifts))
        projected = None  # lazily generated; bounded by the budget check

    enumerated = 0
    for images in assignments:
        mapped = remap_params(plan, dict(zip(objs, images)), domain, problem, resolved)
        pairs = tuple(zip(objs, images))
        moved = sum(src != dst for src, dst in pairs)
        costs = penalties.get(moved)
        if costs is None:
            costs = penalties[moved] = [config.c_shift * magnitude + config.c_map * moved
                                        for magnitude in magnitudes]
        # An unresolvable action never executes, so no shift can be valid.
        executable = all(action.resolvable for action in mapped)
        # An invalid variant can win only if (penalty, rank) stays below this.
        limit = None
        for shift in shifts:
            if enumerated and enumerated >= config.budget:
                raise exceeded()
            enumerated += 1
            penalty = costs[shift]
            rank = (magnitudes[shift] + moved, shift, pairs)
            if valid is not None and (penalty, *rank) >= valid[0]:
                continue
            if executable:
                variant = circular_shift(mapped, shift)
                if is_valid(variant, problem):
                    valid = ((penalty, *rank), variant)
                    continue
            if valid is not None:
                continue
            if best is not None:
                if limit is None:
                    limit = (ceiling_of(images) - best.penalized, *best_rank)
                if (penalty, *rank) > limit:
                    continue
            candidate = score_variant(circular_shift(mapped, shift),
                                      Transformation(shift, pairs), penalty, gt,
                                      problem, sim)
            if (best is None or candidate.penalized > best.penalized
                    or (candidate.penalized == best.penalized and rank < best_rank)):
                best, best_rank, limit = candidate, rank, None
    found = winner()
    return found.plan, found
