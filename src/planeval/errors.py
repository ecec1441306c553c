"""Exception types shared across the toolkit, and the one input-file reader."""

from __future__ import annotations

from pathlib import Path
from typing import Callable


class PlanEvalError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Parsing / grounding
# ---------------------------------------------------------------------------


class PddlSyntaxError(PlanEvalError):
    """Malformed PDDL input; carries position and the expected token."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{where}")


class UnsupportedFeature(PlanEvalError):
    """A PDDL construct outside the positive-precondition STRIPS + typing subset."""

    def __init__(self, construct: str, detail: str = ""):
        self.construct = construct
        suffix = f": {detail}" if detail else ""
        super().__init__(f"unsupported PDDL construct '{construct}'{suffix}")


class UndeclaredSymbol(PlanEvalError):
    """An object, predicate or type that is not declared in the domain/problem."""

    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name
        super().__init__(f"undeclared {kind} '{name}'")


class MalformedLine(PlanEvalError):
    """A plan line with no parsable token at all."""

    def __init__(self, line_number: int, text: str):
        self.line_number = line_number
        self.text = text
        super().__init__(f"no parsable token on plan line {line_number}: {text!r}")


class ArityMismatch(PlanEvalError):
    pass


class TypeMismatch(PlanEvalError):
    pass


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


class PlanningUnsolvable(PlanEvalError):
    """The goal is unreachable from the initial state."""


class PlanningTimeout(PlanEvalError):
    """Search exceeded its time budget."""


# ---------------------------------------------------------------------------
# Scoring / transformation / recovery
# ---------------------------------------------------------------------------


class InvalidGroundTruth(PlanEvalError):
    """The ground-truth plan does not reach the goal from the initial state."""


class ZeroLengthGroundTruth(PlanEvalError):
    """Length penalties are undefined for an empty ground-truth plan."""


class NonBijectiveMapping(PlanEvalError):
    """Parameter remapping must be a permutation of the plan's objects."""


class SearchBudgetExceeded(PlanEvalError):
    """The pi1 search hit its node budget; ``best`` is the
    :class:`~planeval.transform.VariantScore` of the best variant visited."""

    def __init__(self, message: str, best):
        self.best = best
        super().__init__(message)


# ---------------------------------------------------------------------------
# Pipeline driver
# ---------------------------------------------------------------------------


class InstanceError(PlanEvalError):
    """A pipeline stage failed for one instance; names the stage."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


class ManifestError(PlanEvalError):
    """A malformed manifest row."""

    def __init__(self, row: int, cause: str):
        self.row = row
        super().__init__(f"manifest row {row}: {cause}")


class ConfigError(PlanEvalError):
    pass


# ---------------------------------------------------------------------------
# Input files
# ---------------------------------------------------------------------------


def read_text(path: str | Path, name: str,
              error: Callable[[str], Exception] = PlanEvalError) -> str:
    """The text of the file at *path*, UTF-8 with or without a byte-order mark.

    An undecodable file raises ``error("<name> is not UTF-8: <reason>")``;
    *name* tells the reader which file it was.  ``OSError`` passes through.
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not UTF-8: {exc}") from exc
