"""Repair effort (steps to validity) and plan recovery.

Recovery works from the simulations of the candidate and the ground truth
that the caller already holds.  It finds the last ground-truth state the
candidate's trace ever reaches, ``gt_trace[k]``, and keeps the shortest
prefix that reaches it (``corr``).  Because that state lies on the optimal
ground-truth path, the ground-truth suffix ``gt[k:]`` is an optimal
completion from it (Bellman's principle of optimality), so it becomes
``comp`` without any search.  This holds only for a valid ground truth,
which the pipeline checks before recovery.  A plan that is already valid is
returned unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .pddl import GroundAction, Plan, ProblemModel, State
from .similarity import ActionQualityMap, PairingResult, QualityLabel
from .simulator import SimulationResult, is_valid


class StepKind(enum.Enum):
    REMOVE = "remove_action"
    REORDER = "reorder_action"
    REPAIR = "repair_action"
    REPLACE = "replace_action"
    ADD = "add_action"

    def __str__(self) -> str:
        return self.value


#: Label-to-fix table; each operation costs 1.
FIX_FOR_LABEL = {
    QualityLabel.MISPLACED: StepKind.REORDER,
    QualityLabel.SAME_ACT: StepKind.REPAIR,
    QualityLabel.DIFF_ACT: StepKind.REPLACE,
}


@dataclass(frozen=True)
class RepairStep:
    kind: StepKind
    index: int | None = None  # 1-based index into the candidate plan
    gt_action: GroundAction | None = None

    def to_json(self) -> dict:
        payload: dict = {"kind": self.kind.value}
        if self.index is not None:
            payload["index"] = self.index
        if self.gt_action is not None:
            payload["gt_action"] = str(self.gt_action)
        return payload


@dataclass(frozen=True)
class RecoveryOutcome:
    corr: Plan
    comp: Plan
    final: Plan


def steps_to_validity(plan: Plan, aqm: ActionQualityMap, pairing: PairingResult,
                      gt: Plan, problem: ProblemModel) -> list[RepairStep]:
    """Label-guided edit steps toward the valid, optimal ground truth.

    Phase 1 removes every redundant action and stops if the pruned plan is
    already valid.  Phase 2 emits each remaining non-correct action's fix,
    counting a repair whenever the action had any similarity.  Phase 3 adds
    each ground-truth action missing from the pruned plan, except that
    pending repairs absorb additions one for one.
    """
    steps: list[RepairStep] = []
    kept_indices: list[int] = []
    for i, label in enumerate(aqm.labels):
        if label is QualityLabel.REDUNDANT:
            steps.append(RepairStep(StepKind.REMOVE, index=i + 1))
        else:
            kept_indices.append(i)
    pruned = Plan(tuple(plan[i] for i in kept_indices))
    if is_valid(pruned, problem):
        return steps

    repairs = 0
    for i in kept_indices:
        label = aqm.labels[i]
        if label is QualityLabel.CORRECT:
            continue
        steps.append(RepairStep(FIX_FOR_LABEL[label], index=i + 1))
        if pairing.per_action_scores[i] > 0:
            repairs += 1

    pruned_keys = {action.key for action in pruned}
    for gt_action in gt:
        if gt_action.key not in pruned_keys:
            if repairs > 0:
                repairs -= 1
            else:
                steps.append(RepairStep(StepKind.ADD, gt_action=gt_action))
    return steps


def divergence_point(plan_trace: tuple[State, ...],
                     gt_trace: tuple[State, ...]) -> tuple[int, int]:
    """Largest ground-truth trace position whose state appears anywhere in the
    plan trace, and the shortest plan prefix length reaching that state.

    Position 0 (the shared initial state) always qualifies.
    """
    for k in range(len(gt_trace) - 1, -1, -1):
        target = gt_trace[k]
        for prefix_length, state in enumerate(plan_trace):
            if state == target:
                return k, prefix_length
    raise AssertionError("traces share no state; both must start at init")


def recover(plan: Plan, gt: Plan, plan_sim: SimulationResult,
            gt_sim: SimulationResult) -> RecoveryOutcome:
    """Build the recovered plan ``corr ++ gt[k:]`` from the simulations
    *plan_sim* of *plan* and *gt_sim* of *gt*, both from the same problem.

    *gt* must be valid; the recovered plan is then valid too, and as short
    as any completion of ``corr`` when *gt* is optimal.
    """
    if plan_sim.valid:
        # Already valid: keep the whole plan, nothing to complete.
        return RecoveryOutcome(corr=plan, comp=Plan(), final=plan)

    k, prefix_length = divergence_point(plan_sim.trace, gt_sim.trace)
    corr = Plan(plan.actions[:prefix_length])
    comp = Plan(gt.actions[k:])
    final = Plan(corr.actions + comp.actions)
    return RecoveryOutcome(corr=corr, comp=comp, final=final)
