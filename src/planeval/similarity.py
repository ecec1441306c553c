"""Action pairing, per-action similarity and quality labels (AQM, NP-AQM).

The similarity of two actions is ``S = sigma(name, name') + C(params,
params')`` where ``C = 0.25*F + 0.1*M - 0.1*|arity gap|``: F counts exact
positional parameter matches and M counts objects present in both argument
lists but never at a shared position.

Name similarity is pluggable.  The strict :func:`exact_name_similarity`
(1.0 on equal names, else 0.0) is the pipeline default, so no credit leaks
across different action names; :class:`SynonymTable` extends it with
user-supplied synonym scores, and :class:`CharLcsSimilarity` is the fuzzier
character-overlap alternative.  Providers compare by value.

All scores are exact :class:`fractions.Fraction` values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping

from .errors import ConfigError, read_text
from .pddl import GroundAction, Plan

ZERO = Fraction(0)
ONE = Fraction(1)

#: Flat per-pair score for correct and misplaced pairs (not sigma + C).
FLAT_MATCH_SCORE = ONE

NameSimilarityProvider = Callable[[str, str], Fraction]


class QualityLabel(enum.Enum):
    CORRECT = "correct"
    MISPLACED = "misplaced"
    SAME_ACT = "same_act"
    DIFF_ACT = "diff_act"
    REDUNDANT = "redundant"

    def __str__(self) -> str:
        return self.value


#: Quality values used by the 0-1 normalised AQM score.
LABEL_VALUES: Mapping[QualityLabel, int] = {
    QualityLabel.CORRECT: 4,
    QualityLabel.MISPLACED: 3,
    QualityLabel.SAME_ACT: 2,
    QualityLabel.DIFF_ACT: 1,
    QualityLabel.REDUNDANT: 0,
}


# ---------------------------------------------------------------------------
# Name similarity providers
# ---------------------------------------------------------------------------


def char_lcs_len(a: str, b: str) -> int:
    """Length of the longest common character subsequence (rolling row DP)."""
    if len(a) < len(b):
        a, b = b, a
    previous = [0] * (len(b) + 1)
    current = [0] * (len(b) + 1)
    for ch_a in a:
        for j, ch_b in enumerate(b, start=1):
            if ch_a == ch_b:
                current[j] = previous[j - 1] + 1
            else:
                current[j] = max(previous[j], current[j - 1])
        previous, current = current, previous
    return previous[len(b)]


def exact_name_similarity(a: str, b: str) -> Fraction:
    """Strict provider: 1.0 on case-insensitive equality, otherwise 0.0."""
    return ONE if a.lower() == b.lower() else ZERO


@dataclass(frozen=True)
class CharLcsSimilarity:
    """Fuzzy provider: ``2*|charLCS| / (|a|+|b|)`` when above *floor*, else 0."""

    floor: Fraction = Fraction(1, 2)

    def __call__(self, a: str, b: str) -> Fraction:
        a, b = a.lower(), b.lower()
        if a == b:
            return ONE
        if not a or not b:
            return ZERO
        ratio = Fraction(2 * char_lcs_len(a, b), len(a) + len(b))
        return ratio if ratio >= self.floor else ZERO


@dataclass
class SynonymTable:
    """Strict provider with user-supplied synonym scores.

    The table file holds one ``name1 name2 score`` entry per line, with
    ``score`` in [0, 1]; lookups are symmetric and case-insensitive.
    """

    table: dict[tuple[str, str], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        entries, self.table = self.table, {}
        for (a, b), score in entries.items():
            self._add(a, b, Fraction(score))

    def _add(self, a: str, b: str, score: Fraction) -> None:
        if not ZERO <= score <= ONE:
            raise ConfigError(f"synonym score for ({a}, {b}) outside [0, 1]: {score}")
        key = tuple(sorted((a.lower(), b.lower())))
        self.table[key] = score  # type: ignore[index]

    @classmethod
    def load(cls, path: str | Path) -> "SynonymTable":
        provider = cls()
        text = read_text(path, f"synonym table {path}", ConfigError)
        for line_no, line in enumerate(text.splitlines(), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise ConfigError(
                    f"synonym table {path} line {line_no}: expected 'name1 name2 score'")
            try:
                provider._add(parts[0], parts[1], Fraction(parts[2]))
            except (ValueError, ZeroDivisionError, ConfigError) as exc:
                raise ConfigError(f"synonym table {path} line {line_no}: {exc}") from exc
        return provider

    def __call__(self, a: str, b: str) -> Fraction:
        a, b = a.lower(), b.lower()
        if a == b:
            return ONE
        return self.table.get(tuple(sorted((a, b))), ZERO)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Parameter and action similarity
# ---------------------------------------------------------------------------


def param_score(p: tuple[str, ...] | list[str], q: tuple[str, ...] | list[str]) -> Fraction:
    """Parameter alignment ``C = 0.25*F + 0.1*M - 0.1*|arity gap|`` (may be < 0)."""
    p = [x.lower() for x in p]
    q = [x.lower() for x in q]
    exact_positions = {x for x, y in zip(p, q) if x == y}
    f_count = sum(1 for x, y in zip(p, q) if x == y)
    m_count = sum(1 for obj in set(p) & set(q) if obj not in exact_positions)
    return (Fraction(1, 4) * f_count + Fraction(1, 10) * m_count
            - Fraction(1, 10) * abs(len(p) - len(q)))


def action_similarity(a: GroundAction, b: GroundAction,
                      provider: NameSimilarityProvider = exact_name_similarity) -> Fraction:
    """``S = sigma + C`` floored at zero; pairing requires S > 0."""
    score = Fraction(provider(a.name, b.name)) + param_score(a.args, b.args)
    return score if score > ZERO else ZERO


def make_similarity_cache(provider: NameSimilarityProvider = exact_name_similarity
                          ) -> Callable[[GroundAction, GroundAction], Fraction]:
    """Memoised ``action_similarity``, keyed by action identity."""
    cache: dict[tuple, Fraction] = {}

    def sim(a: GroundAction, b: GroundAction) -> Fraction:
        key = (a.key, b.key)
        value = cache.get(key)
        if value is None:
            value = action_similarity(a, b, provider)
            cache[key] = value
        return value

    return sim


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairingResult:
    """The pairing of a candidate plan against a ground truth, one entry per
    candidate action: its label, its score and its 1-based ground-truth
    partner, ``None`` when the action is redundant."""

    labels: tuple[QualityLabel, ...]
    per_action_scores: tuple[Fraction, ...]
    gt_indices: tuple[int | None, ...]


def pair_actions(plan: Plan, gt: Plan,
                 provider: NameSimilarityProvider = exact_name_similarity,
                 sim: Callable[[GroundAction, GroundAction], Fraction] | None = None,
                 ) -> PairingResult:
    """One-to-one pairing of candidate actions against ground-truth actions.

    Three phases, in label priority order:

    1. identical action at the identical index -> ``correct``
    2. identical action elsewhere (candidate order, earliest free ground-truth
       occurrence) -> ``misplaced``
    3. greedy best-similarity matching of the remainder; ties break to the
       earliest ground-truth action.  Names equal -> ``same_act``, else
       ``diff_act``; zero similarity or an empty pool -> ``redundant``.

    Correct and misplaced pairs carry the flat score 1.0; phase-3 pairs carry
    their recomputed similarity.
    """
    if sim is None:
        sim = make_similarity_cache(provider)
    plan_keys, gt_keys = plan.keys(), gt.keys()
    n, m = len(plan_keys), len(gt_keys)
    labels = [QualityLabel.REDUNDANT] * n
    scores = [ZERO] * n
    partners: list[int | None] = [None] * n
    taken = [False] * m

    def pair(i: int, j: int, label: QualityLabel, score: Fraction) -> None:
        labels[i], scores[i], partners[i] = label, score, j + 1
        taken[j] = True

    for i in range(min(n, m)):
        if plan_keys[i] == gt_keys[i]:
            pair(i, i, QualityLabel.CORRECT, FLAT_MATCH_SCORE)

    for i in range(n):
        if partners[i] is not None:
            continue
        for j in range(m):
            if not taken[j] and plan_keys[i] == gt_keys[j]:
                pair(i, j, QualityLabel.MISPLACED, FLAT_MATCH_SCORE)
                break

    for i in range(n):
        if partners[i] is not None:
            continue
        best = ZERO
        best_j = -1
        for j in range(m):
            if taken[j]:
                continue
            score = sim(plan.actions[i], gt.actions[j])
            if score > best:
                best = score
                best_j = j
        if best_j >= 0:
            pair(i, best_j, QualityLabel.SAME_ACT if plan_keys[i][0] == gt_keys[best_j][0]
                 else QualityLabel.DIFF_ACT, best)

    return PairingResult(tuple(labels), tuple(scores), tuple(partners))


def non_positional_aqm(plan: Plan, gt: Plan, labels: tuple[QualityLabel, ...],
                       provider: NameSimilarityProvider = exact_name_similarity
                       ) -> tuple[QualityLabel, ...]:
    """Position-agnostic relabelling of *labels*, the quality map of *plan*
    against *gt*: misplaced becomes correct and redundant actions are
    relabelled against the full (re-usable) ground-truth pool; redundant
    survives only at zero similarity to every ground-truth action."""
    gt_names = {action.name for action in gt}
    relabelled = list(labels)
    for i, label in enumerate(relabelled):
        if label is QualityLabel.MISPLACED:
            relabelled[i] = QualityLabel.CORRECT
        elif label is QualityLabel.REDUNDANT:
            action = plan[i]
            if action.name in gt_names:
                relabelled[i] = QualityLabel.SAME_ACT
            elif any(action_similarity(action, g, provider) > ZERO for g in gt):
                relabelled[i] = QualityLabel.DIFF_ACT
    return tuple(relabelled)


def aqm_score(labels: tuple[QualityLabel, ...]) -> Fraction:
    """Mean label value scaled to [0, 1]; no labels score 0."""
    if not labels:
        return ZERO
    return Fraction(sum(LABEL_VALUES[label] for label in labels), 4 * len(labels))
