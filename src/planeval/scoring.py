"""Plan score composition, plan potential, 0-1 normalisation and the score
ceiling of transformed variants.

Everything is exact rational arithmetic internally (so repeating decimals
like 18.53... stay exact Fractions); values only become floats at report
time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ZeroLengthGroundTruth
from .lcs import LcsResult
from .pddl import GroundAction, Plan
from .similarity import (
    FLAT_MATCH_SCORE,
    NameSimilarityProvider,
    PairingResult,
    QualityLabel,
    action_similarity,
)

ZERO = Fraction(0)
ONE = Fraction(1)

#: Bonus per pair whose action names match (correct / misplaced / same_act).
PAIR_BONUS = Fraction(1, 2)
SUBSTRING_BONUS_PER_ACTION = Fraction(2)
SUBSEQUENCE_BONUS_PER_ACTION = Fraction(1)

#: Per-action ceiling used by the 0-1 normalisation: 1 base + 1 flat pair
#: similarity + 0.5 pair bonus + 2 substring, with the subsequence bonus
#: absorbed by capping at 1.
M_MAX = Fraction(9, 2)

DEFAULT_VALIDITY_REWARD = Fraction(1)

_NAME_MATCH_LABELS = frozenset(
    {QualityLabel.CORRECT, QualityLabel.MISPLACED, QualityLabel.SAME_ACT}
)


@dataclass(frozen=True)
class ScoreBreakdown:
    base: Fraction
    similarity_sum: Fraction
    pair_bonus: Fraction
    substring_bonus: Fraction
    subsequence_bonus: Fraction
    length_penalty: Fraction
    total: Fraction
    valid: bool


def length_penalty(n: int, m: int) -> Fraction:
    """Quadratic deviation from the optimal length; short plans pay double."""
    if m < 1:
        raise ZeroLengthGroundTruth("length penalty undefined for an empty ground truth")
    gap = Fraction((n - m) ** 2, m)
    return gap if n >= m else 2 * gap


def plan_score(plan: Plan, gt: Plan, pairing: PairingResult, lcs: LcsResult,
               valid: bool) -> ScoreBreakdown:
    """Compose the plan score.

    Valid plans are only penalised for sub-optimal length; invalid plans get
    the full composition of base length credit, per-action similarity, pair
    bonuses and LCS bonuses minus the length penalty.
    """
    base = Fraction(len(plan))
    penalty = length_penalty(len(plan), len(gt))
    if valid:
        return ScoreBreakdown(base, ZERO, ZERO, ZERO, ZERO, penalty,
                              base - penalty, True)
    similarity_sum = sum(pairing.per_action_scores, ZERO)
    pair_bonus = PAIR_BONUS * sum(
        1 for pair in pairing.pairs if pair.label in _NAME_MATCH_LABELS
    )
    substring_bonus = SUBSTRING_BONUS_PER_ACTION * len(lcs.substring)
    subsequence_bonus = SUBSEQUENCE_BONUS_PER_ACTION * len(lcs.subsequence)
    total = (base + similarity_sum + pair_bonus + substring_bonus
             + subsequence_bonus - penalty)
    return ScoreBreakdown(base, similarity_sum, pair_bonus, substring_bonus,
                          subsequence_bonus, penalty, total, False)


def potential(score0: Fraction, score1: Fraction, n0: int, valid0: bool,
              reward: Fraction = DEFAULT_VALIDITY_REWARD) -> Fraction:
    """The potential: per-action mean of the raw and best-variant scores, plus
    the validity *reward* when the raw plan was already valid."""
    if n0 < 1:
        raise ZeroLengthGroundTruth("potential undefined for an empty candidate plan")
    mean_per_action = (score0 + score1) / (2 * n0)
    return mean_per_action + Fraction(reward) if valid0 else mean_per_action


def normalize_score(breakdown: ScoreBreakdown, plan: Plan, gt: Plan) -> Fraction:
    """Scale the total to roughly [0, 1] via the per-action ceiling.

    Capped above at 1; large length penalties are allowed to stay negative.
    An empty candidate plan is normalised by the ground-truth length instead.
    """
    n = len(plan) if len(plan) > 0 else len(gt)
    if n == 0:
        return ZERO
    value = breakdown.total / (n * M_MAX)
    return value if value < ONE else ONE


#: What one identical-action pair can earn: the flat pair score, the pair
#: bonus, and a place in both the substring and the subsequence run.
SHARED_ACTION_CEILING = (FLAT_MATCH_SCORE + PAIR_BONUS + SUBSTRING_BONUS_PER_ACTION
                         + SUBSEQUENCE_BONUS_PER_ACTION)


def score_ceiling(plan: Plan, gt: Plan, objs: list[str],
                  provider: NameSimilarityProvider
                  ) -> Callable[[tuple[str, ...]], Fraction]:
    """Upper bound on the raw total of any invalid variant of *plan*: a
    permutation of its objects *objs* (sorted), then a circular shift.

    The returned function takes the images of ``objs[:k]`` and bounds the
    variants of every mapping that extends them, whatever the shift.  Of the
    ``min(count_variant(k), count_gt(k))`` identical pairs per key ``k``,
    each earns at most :data:`SHARED_ACTION_CEILING` (both LCS runs are no
    longer than the number of such pairs).  Every other action earns at most
    its best similarity to any ground-truth action, plus the pair bonus if
    its name occurs in the ground truth.  A mapping changes neither names
    nor arities, and since ``F + M`` never exceeds the smaller arity, that
    best similarity is reached with identical arguments, so it is computed
    once per (name, arity), when the bound first needs it.  An action with
    an unassigned argument counts the larger amount if a ground-truth action
    agrees with it.
    """
    base = len(plan) - length_penalty(len(plan), len(gt))
    gt_counts = Counter(gt.keys())
    gt_names = {action.name for action in gt}
    gt_args: dict[tuple[str, int], list[tuple[str, ...]]] = {}
    for action in gt:
        gt_args.setdefault((action.name, len(action.args)), []).append(action.args)

    def shaped(name: str, arity: int) -> GroundAction:
        return GroundAction(name, tuple(f"?{i}" for i in range(arity)))

    caps: dict[tuple[str, int], Fraction] = {}

    def cap(shape: tuple[str, int]) -> Fraction:
        if shape not in caps:
            best_similarity = max(action_similarity(shaped(*shape), shaped(*gt_shape),
                                                    provider)
                                  for gt_shape in gt_args)
            caps[shape] = best_similarity + (PAIR_BONUS if shape[0] in gt_names
                                             else ZERO)
        return caps[shape]

    def ceiling(images: tuple[str, ...]) -> Fraction:
        image = dict(zip(objs, images))
        known: Counter = Counter()
        rest: Counter = Counter()  # (may join a pair, shape) -> actions
        for action in plan:
            args = tuple(image.get(arg) for arg in action.args)
            if None not in args:
                known[action.name, args] += 1
            else:
                shape = (action.name, len(args))
                rest[any(all(arg in (None, other) for arg, other in zip(args, target))
                         for target in gt_args.get(shape, ())), shape] += 1
        shared = 0
        for key, count in known.items():
            pairs = min(count, gt_counts[key])
            shared += pairs
            rest[False, (key[0], len(key[1]))] += count - pairs
        return base + SHARED_ACTION_CEILING * shared + sum(
            (max(SHARED_ACTION_CEILING, cap(shape)) if joins else cap(shape)) * count
            for (joins, shape), count in rest.items())

    return ceiling
