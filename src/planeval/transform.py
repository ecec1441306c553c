"""Plan variants via circular shifts and consistent parameter remapping.

The variant search enumerates every (mapping, shift) combination while the
plan's object count stays at or below ``prune_threshold``; above it, only
mappings that make at least one action land exactly on its ground-truth
counterpart under some shift are generated (plus the identity).  Mapping is
applied first, then the shift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .config import PipelineConfig
from .errors import NonBijectiveMapping, SearchBudgetExceeded
from .lcs import lcs_analyze
from .pddl import DomainModel, Plan, ProblemModel, resolve_action
from .scoring import ScoreBreakdown, plan_score
from .similarity import NameSimilarityProvider, make_similarity_cache, pair_actions
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
                 domain: DomainModel, problem: ProblemModel) -> Plan:
    """Substitute every argument occurrence simultaneously; names unchanged.

    Objects missing from *mapping* stay fixed.  Each remapped action is
    re-resolved against *domain* and *problem*, so type-invalid combinations
    come back flagged unresolvable.
    """
    full = _full_mapping(plan, mapping)
    actions = tuple(
        resolve_action(action.name, tuple(full[arg] for arg in action.args), domain, problem)
        for action in plan
    )
    return Plan(actions, label=plan.label)


def transformation_penalty(transformation: Transformation, plan_length: int,
                           c_shift: Fraction, c_map: Fraction) -> Fraction:
    """Linear in the circular shift distance and the number of moved objects."""
    return (c_shift * transformation.shift_magnitude(plan_length)
            + c_map * len(transformation.changed_objects))


# ---------------------------------------------------------------------------
# Candidate mapping generation
# ---------------------------------------------------------------------------


def _as_transformation(shift: int, full_mapping: Mapping[str, str]) -> Transformation:
    return Transformation(shift, tuple(sorted(full_mapping.items())))


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


def _better(a: VariantScore, b: VariantScore, plan_length: int) -> bool:
    """Ranking: valid first, then penalized score, then fewer total changes,
    then the identity-closest (smallest shift, smallest mapping) variant."""
    if a.valid != b.valid:
        return a.valid
    if a.penalized != b.penalized:
        return a.penalized > b.penalized
    changes_a = a.transformation.total_changes(plan_length)
    changes_b = b.transformation.total_changes(plan_length)
    if changes_a != changes_b:
        return changes_a < changes_b
    if a.transformation.shift != b.transformation.shift:
        return a.transformation.shift < b.transformation.shift
    return a.transformation.mapping < b.transformation.mapping


def score_variant(variant: Plan, transformation: Transformation, gt: Plan,
                  problem: ProblemModel, plan_length: int,
                  config: PipelineConfig, sim=None) -> VariantScore:
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

    The identity transformation is always in the candidate set, so the
    winner's penalized score is never below the plan's own score.  Raises
    :class:`SearchBudgetExceeded` (carrying the best variant found so far)
    when variants remain after ``config.budget`` have been scored; the
    identity, enumerated first, is scored whatever the budget.
    """
    if config is None:
        config = PipelineConfig()
    objs = sorted(plan.objects())
    length = len(plan)
    shifts = list(range(length)) if length else [0]
    sim = make_similarity_cache(provider if provider is not None
                                else config.provider())

    if len(objs) <= config.prune_threshold:
        mappings: Iterable[dict[str, str]] = _exhaustive_mappings(objs)
        projected = math.factorial(len(objs)) * len(shifts)
    else:
        mappings = _pruned_mappings(plan, gt, objs, shifts)
        projected = None  # lazily generated; bounded by the budget check

    best: VariantScore | None = None
    evaluated = 0
    for mapping in mappings:
        mapped = remap_params(plan, mapping, domain, problem)
        full = _full_mapping(plan, mapping)
        for shift in shifts:
            if evaluated >= config.budget and best is not None:
                raise SearchBudgetExceeded(
                    f"variant search exceeded budget {config.budget} "
                    f"({projected or 'unknown'} candidates)",
                    best=(best.plan, best),
                )
            evaluated += 1
            transformation = _as_transformation(shift, full)
            candidate = score_variant(circular_shift(mapped, shift), transformation,
                                      gt, problem, length, config, sim=sim)
            if best is None or _better(candidate, best, length):
                best = candidate
    assert best is not None  # identity is always enumerated
    return best.plan, best
