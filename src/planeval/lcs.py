"""Longest common substring / subsequence between plans, and sub-plan extraction.

Actions match on exact identity (name plus arguments).  The contiguous run
("substring") and the ordered-but-gappy run ("subsequence") are both
reported as 1-based (candidate, ground-truth) index pairs; among equal
lengths the earliest candidate start wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pddl import Plan, ProblemModel
from .simulator import is_valid

IndexPair = tuple[int, int]


@dataclass(frozen=True)
class LcsResult:
    substring: tuple[IndexPair, ...]
    subsequence: tuple[IndexPair, ...]


def _longest_common_substring(plan_keys: tuple, gt_keys: tuple) -> tuple[IndexPair, ...]:
    n, m = len(plan_keys), len(gt_keys)
    best_len = 0
    best_end = (0, 0)
    previous = [0] * (m + 1)
    current = [0] * (m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if plan_keys[i - 1] == gt_keys[j - 1]:
                current[j] = previous[j - 1] + 1
                if current[j] > best_len:
                    best_len = current[j]
                    best_end = (i, j)
            else:
                current[j] = 0
        previous, current = current, previous
    i_end, j_end = best_end
    return tuple(
        (i_end - best_len + 1 + offset, j_end - best_len + 1 + offset)
        for offset in range(best_len)
    )


def _longest_common_subsequence(plan_keys: tuple, gt_keys: tuple) -> tuple[IndexPair, ...]:
    n, m = len(plan_keys), len(gt_keys)
    # Suffix-length table drives a greedy forward walk, so the reported
    # indices are the lexicographically earliest on the candidate side.
    suffix = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = suffix[i]
        below = suffix[i + 1]
        for j in range(m - 1, -1, -1):
            if plan_keys[i] == gt_keys[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = max(below[j], row[j + 1])
    pairs: list[IndexPair] = []
    need = suffix[0][0]
    i = j = 0
    while need > 0:
        if plan_keys[i] == gt_keys[j] and suffix[i + 1][j + 1] == need - 1:
            pairs.append((i + 1, j + 1))
            i += 1
            j += 1
            need -= 1
        elif suffix[i][j + 1] == need:
            j += 1
        else:
            i += 1
    return tuple(pairs)


def lcs_analyze(plan: Plan, gt: Plan) -> LcsResult:
    """Longest common contiguous run and longest common subsequence."""
    plan_keys = plan.keys()
    gt_keys = gt.keys()
    return LcsResult(
        substring=_longest_common_substring(plan_keys, gt_keys),
        subsequence=_longest_common_subsequence(plan_keys, gt_keys),
    )


def extract(plan: Plan, pairs: tuple[IndexPair, ...]) -> Plan:
    """Project the candidate side of *pairs* out of *plan*, preserving order."""
    return Plan(tuple(plan[i - 1] for i, _ in pairs))


def best_subplan(plan: Plan, lcs: LcsResult, problem: ProblemModel) -> Plan:
    """Prefer the contiguous sub-plan when it is valid on its own, else take
    the subsequence sub-plan; either may be empty.

    *lcs* is ``lcs_analyze(plan, gt)``, the analysis the caller already holds.
    """
    substring_plan = extract(plan, lcs.substring)
    if is_valid(substring_plan, problem):
        return substring_plan
    return extract(plan, lcs.subsequence)
