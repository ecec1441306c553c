"""Plan variants via circular shifts and consistent parameter remapping.

The variant search enumerates every (mapping, shift) combination while the
plan's object count stays at or below ``prune_threshold``; above it, only
mappings that make at least one action land exactly on its ground-truth
counterpart under some shift are generated (plus the identity).  Mapping is
applied first, then the shift.

The search is exact but scores few variants.  Variants are simulated
instead: all have the plan's length, so all valid ones share one raw score
and rank by penalty and tie-break alone, and any valid variant beats every
invalid one.  An invalid variant is scored in full only when an upper bound
on its score, which depends on the mapping alone, says it can still beat
the best variant scored so far.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .config import PipelineConfig
from .errors import NonBijectiveMapping, SearchBudgetExceeded
from .lcs import lcs_analyze
from .pddl import DomainModel, GroundAction, Plan, ProblemModel, resolve_action
from .scoring import (
    PAIR_BONUS,
    SUBSEQUENCE_BONUS_PER_ACTION,
    SUBSTRING_BONUS_PER_ACTION,
    ScoreBreakdown,
    length_penalty,
    plan_score,
)
from .similarity import (
    FLAT_MATCH_SCORE,
    NameSimilarityProvider,
    action_similarity,
    make_similarity_cache,
    pair_actions,
)
from .simulator import is_valid

ZERO = Fraction(0)


@dataclass(frozen=True)
class Transformation:
    """A shift amount plus a permutation of the plan's objects (fixed points
    included), stored as sorted pairs for deterministic comparison."""

    shift: int
    mapping: tuple[tuple[str, str], ...]

    @property
    def changed_objects(self) -> tuple[str, ...]:
        return tuple(src for src, dst in self.mapping if src != dst)

    def shift_magnitude(self, plan_length: int) -> int:
        if plan_length == 0 or self.shift == 0:
            return 0
        return min(self.shift, plan_length - self.shift)

    def total_changes(self, plan_length: int) -> int:
        return self.shift_magnitude(plan_length) + len(self.changed_objects)


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


def transformation_penalty(transformation: Transformation, plan_length: int,
                           c_shift: Fraction, c_map: Fraction) -> Fraction:
    """Linear in the circular shift distance and the number of moved objects."""
    return (c_shift * transformation.shift_magnitude(plan_length)
            + c_map * len(transformation.changed_objects))


# ---------------------------------------------------------------------------
# Candidate mapping generation
# ---------------------------------------------------------------------------


def _exhaustive_mappings(objs: list[str]) -> Iterator[dict[str, str]]:
    for perm in itertools.permutations(objs):
        yield dict(zip(objs, perm))


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

#: What one identical-action pair can earn: the flat pair score, the pair
#: bonus, and a place in both the substring and the subsequence run.
SHARED_ACTION_CEILING = (FLAT_MATCH_SCORE + PAIR_BONUS + SUBSTRING_BONUS_PER_ACTION
                         + SUBSEQUENCE_BONUS_PER_ACTION)


def _score_ceiling(plan: Plan, gt: Plan, provider: NameSimilarityProvider
                   ) -> Callable[[Plan], Fraction]:
    """Upper bound on the raw total of any invalid variant of *plan*.

    The returned function takes a variant and depends only on its multiset
    of actions, so one call covers every shift of a mapping.  Of the
    ``min(count_variant(k), count_gt(k))`` identical pairs per action ``k``,
    each earns at most :data:`SHARED_ACTION_CEILING` (both LCS runs are no
    longer than the number of such pairs).  Every other action earns at most
    its best similarity to any ground-truth action, plus the pair bonus if
    its name occurs in the ground truth.  A mapping changes neither names
    nor arities, and since ``F + M`` never exceeds the smaller arity, that
    best similarity is reached with identical arguments, so it is computed
    once per (name, arity).
    """
    base = len(plan) - length_penalty(len(plan), len(gt))
    gt_counts = Counter(gt.keys())
    gt_names = {action.name for action in gt}
    gt_shapes = {(action.name, len(action.args)) for action in gt}

    def shaped(name: str, arity: int) -> GroundAction:
        return GroundAction(name, tuple(f"?{i}" for i in range(arity)))

    caps: dict[tuple[str, int], Fraction] = {}
    for action in plan:
        shape = (action.name, len(action.args))
        if shape not in caps:
            best_similarity = max(action_similarity(shaped(*shape), shaped(*gt_shape),
                                                    provider)
                                  for gt_shape in gt_shapes)
            caps[shape] = best_similarity + (PAIR_BONUS if action.name in gt_names
                                             else ZERO)

    def ceiling(variant: Plan) -> Fraction:
        shared = 0
        rest = ZERO
        for key, count in Counter(variant.keys()).items():
            pairs = min(count, gt_counts[key])
            shared += pairs
            if count > pairs:
                rest += (count - pairs) * caps[key[0], len(key[1])]
        return base + SHARED_ACTION_CEILING * shared + rest

    return ceiling


def score_variant(variant: Plan, transformation: Transformation, gt: Plan,
                  problem: ProblemModel, plan_length: int,
                  config: PipelineConfig, sim=None) -> VariantScore:
    """Score one variant; names compare by *sim*, else by ``config.provider()``."""
    if sim is None:
        sim = make_similarity_cache(config.provider())
    valid = is_valid(variant, problem)
    pairing, _ = pair_actions(variant, gt, sim=sim)
    breakdown = plan_score(variant, gt, pairing, lcs_analyze(variant, gt), valid)
    penalty = transformation_penalty(transformation, plan_length,
                                     config.c_shift, config.c_map)
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

    Raises :class:`SearchBudgetExceeded`, carrying the exact winner among
    the variants enumerated so far, when variants remain after
    ``config.budget`` have been enumerated; the identity, enumerated first,
    always is.
    """
    if config is None:
        config = PipelineConfig()
    if provider is None:
        provider = config.provider()
    objs = sorted(plan.objects())
    length = len(plan)
    shifts = list(range(length)) if length else [0]
    sim = make_similarity_cache(provider)
    ceiling_of = _score_ceiling(plan, gt, provider)
    # Exact penalties, indexed by the number of moved objects, then the shift.
    magnitudes = [min(shift, length - shift) for shift in shifts]
    penalties = [[config.c_shift * magnitude + config.c_map * moved
                  for magnitude in magnitudes] for moved in range(len(objs) + 1)]

    if len(objs) <= config.prune_threshold:
        mappings: Iterable[dict[str, str]] = _exhaustive_mappings(objs)
        projected = math.factorial(len(objs)) * len(shifts)
    else:
        mappings = _pruned_mappings(plan, gt, objs, shifts)
        projected = None  # lazily generated; bounded by the budget check

    resolved: dict[tuple, GroundAction] = {}
    best: VariantScore | None = None  # best scored invalid variant
    best_rank: tuple = ()  # (changes, shift, mapping) of best
    valid: tuple | None = None  # ((penalty, changes, shift, mapping), plan)

    def winner() -> VariantScore:
        if valid is None:
            return best
        (_, _, shift, pairs), variant = valid
        return score_variant(variant, Transformation(shift, pairs), gt, problem,
                             length, config, sim=sim)

    enumerated = 0
    for mapping in mappings:
        mapped = remap_params(plan, mapping, domain, problem, resolved)
        pairs = tuple(sorted(mapping.items()))
        moved = sum(src != dst for src, dst in pairs)
        costs = penalties[moved]
        # An unresolvable action never executes, so no shift can be valid.
        executable = all(action.resolvable for action in mapped)
        # An invalid variant can win only if (penalty, rank) stays below this.
        limit = None
        for shift in shifts:
            if enumerated and enumerated >= config.budget:
                found = winner()
                raise SearchBudgetExceeded(
                    f"variant search exceeded budget {config.budget} "
                    f"({projected or 'unknown'} candidates)",
                    best=(found.plan, found),
                )
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
                    limit = (ceiling_of(mapped) - best.penalized, *best_rank)
                if (penalty, *rank) > limit:
                    continue
            candidate = score_variant(circular_shift(mapped, shift),
                                      Transformation(shift, pairs), gt, problem, length,
                                      config, sim=sim)
            if (best is None or candidate.penalized > best.penalized
                    or (candidate.penalized == best.penalized and rank < best_rank)):
                best, best_rank, limit = candidate, rank, None
    found = winner()
    return found.plan, found
