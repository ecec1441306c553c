"""Step-by-step plan execution: traces, executability, validity and LEA.

LEA (last executable action) is the count of actions in the longest
executable prefix, so a plan whose first action already fails has LEA 0.
An unresolvable action ends the simulation exactly like an unmet
precondition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pddl import Plan, ProblemModel, State, format_atom


@dataclass(frozen=True)
class SimulationResult:
    trace: tuple[State, ...]
    lea: int
    executable: bool
    valid: bool = False  # executable and the final state satisfies the goal

    @property
    def final_state(self) -> State:
        return self.trace[-1]


def simulate(plan: Plan, problem: ProblemModel) -> SimulationResult:
    """Execute the longest executable prefix of *plan* from the initial state.

    Failure is data, not an error: the result carries the trace of the
    executed prefix; when execution stopped, ``plan[lea]`` is the action that
    is unresolvable or has preconditions unmet in ``final_state``.
    """
    state = problem.init
    trace = [state]
    for action in plan:
        if not (action.resolvable and action.preconditions <= state):
            return SimulationResult(tuple(trace), len(trace) - 1, False)
        state = (state - action.del_effects) | action.add_effects
        trace.append(state)
    return SimulationResult(tuple(trace), len(plan), True, valid=problem.goal <= state)


def is_valid(plan: Plan, problem: ProblemModel) -> bool:
    """True iff the plan is executable and its final state satisfies the goal."""
    return simulate(plan, problem).valid


def format_state(state: State) -> str:
    """Canonical one-line form: sorted, space-separated atoms."""
    return " ".join(format_atom(atom) for atom in sorted(state))


def format_trace(result: SimulationResult) -> str:
    """One state per line, canonical form; used by golden tests and dumps."""
    return "".join(format_state(state) + "\n" for state in result.trace)
