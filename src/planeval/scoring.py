"""Plan score composition, plan potential, 0-1 normalisation and the score
ceiling of transformed variants.

Everything is exact rational arithmetic internally (so repeating decimals
like 18.53... stay exact Fractions); values only become floats at report
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ZeroLengthGroundTruth
from .lcs import LcsResult
from .pddl import Plan
from .similarity import (
    FLAT_MATCH_SCORE,
    NameSimilarityProvider,
    PairingResult,
    QualityLabel,
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


def plan_score(plan: Plan, gt: Plan, pairing: PairingResult | None,
               lcs: LcsResult | None, valid: bool) -> ScoreBreakdown:
    """Compose the plan score.

    Valid plans are only penalised for sub-optimal length, so *pairing* and
    *lcs* are not read and may be ``None``; invalid plans get the full
    composition of base length credit, per-action similarity, pair bonuses
    and LCS bonuses minus the length penalty.
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


#: What one identical-action pair can earn besides its place in the substring
#: run: the flat pair score, the pair bonus and a place in the subsequence run.
SHARED_ACTION_CEILING = FLAT_MATCH_SCORE + PAIR_BONUS + SUBSEQUENCE_BONUS_PER_ACTION


def placeholder_similarity(name: str, arity: int, other: str, other_arity: int,
                           j: int, provider: NameSimilarityProvider) -> Fraction:
    """The best similarity of a *name* action of *arity* distinct arguments
    to an *other* action of *other_arity* that shares at most its first *j*
    arguments in place.

    That is ``action_similarity`` with ``F = min(j, arity, other_arity)``
    exact matches and no other shared argument (``M = 0``), in closed form.
    """
    score = Fraction(provider(name, other)) + Fraction(
        5 * min(j, arity, other_arity) - 2 * abs(arity - other_arity), 20)
    return score if score > ZERO else ZERO


def score_ceiling(plan: Plan, gt: Plan, objs: list[str],
                  provider: NameSimilarityProvider
                  ) -> Callable[[tuple[str, ...]], Fraction]:
    """Upper bound on the raw total of any invalid variant of *plan*: a
    permutation of its objects *objs*, then a circular shift.

    The returned function takes the images of ``objs[:k]`` and bounds the
    variants of every mapping that extends them, whatever the shift.  An
    action that can still equal a ground-truth action, its unassigned
    arguments taking unused images, earns at most
    :data:`SHARED_ACTION_CEILING`.  Any action earns at most its cap: its
    best similarity to a ground-truth action, at most
    :func:`placeholder_similarity` per (name, arity, j), since ``F + M``
    never exceeds either arity nor the number ``j`` of its arguments that
    can still be ground-truth objects, plus the pair bonus if its name
    occurs in the ground truth.  The substring bonus is at most twice the
    longest cyclic run of actions each of which can equal the ground-truth
    action after the one its predecessor can.  The bound is summed in
    integers over one denominator, and the caps are computed at the first
    call.

    The bound never rises as the images are extended: an argument that gets
    an image, or whose unused ground-truth images run out, leaves ``j`` as
    it was or lowers it, and a cap never rises as ``j`` falls; the
    ground-truth actions an action can equal only shrink, so runs only
    shorten.  The bound of ``()`` therefore bounds every mapping.
    """
    gt_targets: dict[tuple[str, int], list[tuple[int, tuple[str, ...]]]] = {}
    for index, action in enumerate(gt):
        gt_targets.setdefault((action.name, len(action.args)), []).append(
            (index, action.args))
    gt_objects = {arg for action in gt for arg in action.args}
    gt_images = gt_objects.intersection(objs)  # those a mapping can produce
    # Scaled by one denominator at the first call: the base, the shared
    # ceiling, the substring bonus and the cap per (name, arity, j).
    scaled: list[int] = []
    caps: dict[tuple[str, int, int], int] = {}

    def scale() -> None:
        gt_names = {action.name for action in gt}
        fractions: dict[tuple[str, int, int], Fraction] = {}
        for name, arity in {(action.name, len(action.args)) for action in plan}:
            # Only a plan object outside the ground truth makes j < arity.
            for j in range(arity + 1) if len(gt_images) < len(objs) else [arity]:
                similarity = max(placeholder_similarity(name, arity, other, other_arity,
                                                        j, provider)
                                 for other, other_arity in gt_targets)
                fractions[name, arity, j] = similarity + (PAIR_BONUS if name in gt_names
                                                          else ZERO)
        constants = [len(plan) - length_penalty(len(plan), len(gt)),
                     SHARED_ACTION_CEILING, SUBSTRING_BONUS_PER_ACTION]
        denominator = math.lcm(*(value.denominator
                                 for value in [*constants, *fractions.values()]))
        scaled.extend([*(int(value * denominator) for value in constants), denominator])
        caps.update((key, int(value * denominator)) for key, value in fractions.items())

    def ceiling(images: tuple[str, ...]) -> Fraction:
        if not scaled:
            scale()
        base, shared, substring, denominator = scaled
        image = dict(zip(objs, images))
        free = gt_images.difference(images)
        total = base
        positions: list[list[int]] = []  # per action, the ground-truth indices it may equal
        for action in plan:
            args = tuple(image.get(arg) for arg in action.args)
            cap = caps[action.name, len(args), sum(
                arg in gt_objects if arg is not None else bool(free) for arg in args)]
            matches = [index for index, target in gt_targets.get((action.name, len(args)), ())
                       if all(dst == other if dst is not None else other in free
                              for dst, other in zip(args, target))]
            positions.append(matches)
            total += max(cap, shared) if matches else cap
        # Neighbours in a substring run equal neighbours in the ground truth.
        run = longest = 0
        previous: list[int] = []
        for current in positions + positions:
            if not current:
                run = 0
            elif run and any(index + 1 in current for index in previous):
                run += 1
            else:
                run = 1
            longest = max(longest, run)
            previous = current
        return Fraction(total + substring * min(longest, len(plan)), denominator)

    return ceiling
