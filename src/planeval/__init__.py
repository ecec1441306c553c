"""planeval: evaluate, score and recover machine-generated PDDL plans.

The package parses STRIPS-subset PDDL, simulates plans, pairs candidate
actions against an optimal ground truth to produce similarity scores and
quality labels, searches plan transformations, extracts best sub-plans,
measures repair effort and completes invalid plans with the ground-truth
suffix.
"""

from .config import PipelineConfig, load_config
from .lcs import LcsResult, best_subplan, lcs_analyze
from .pddl import (
    ActionSchema,
    Atom,
    DomainModel,
    GroundAction,
    Plan,
    ProblemModel,
    State,
    ground,
    parse_domain,
    parse_plan,
    parse_problem,
)
from .pipeline import evaluate_batch, evaluate_instance
from .planner import replan_from, solve_optimal
from .recovery import RecoveryOutcome, RepairStep, StepKind, divergence_point, recover, steps_to_validity
from .scoring import (
    ScoreBreakdown,
    length_penalty,
    normalize_score,
    plan_score,
    potential,
)
from .similarity import (
    CharLcsSimilarity,
    PairingResult,
    QualityLabel,
    SynonymTable,
    action_similarity,
    aqm_score,
    exact_name_similarity,
    non_positional_aqm,
    pair_actions,
    param_score,
)
from .simulator import SimulationResult, is_valid, simulate
from .transform import Transformation, VariantScore, circular_shift, find_best_variant, remap_params

__version__ = "0.1.0"

__all__ = [
    "ActionSchema",
    "Atom",
    "CharLcsSimilarity",
    "DomainModel",
    "GroundAction",
    "LcsResult",
    "PairingResult",
    "Plan",
    "PipelineConfig",
    "ProblemModel",
    "QualityLabel",
    "RecoveryOutcome",
    "RepairStep",
    "ScoreBreakdown",
    "SimulationResult",
    "State",
    "StepKind",
    "SynonymTable",
    "Transformation",
    "VariantScore",
    "action_similarity",
    "aqm_score",
    "best_subplan",
    "circular_shift",
    "divergence_point",
    "evaluate_batch",
    "evaluate_instance",
    "exact_name_similarity",
    "find_best_variant",
    "ground",
    "is_valid",
    "lcs_analyze",
    "length_penalty",
    "load_config",
    "non_positional_aqm",
    "normalize_score",
    "pair_actions",
    "param_score",
    "parse_domain",
    "parse_plan",
    "parse_problem",
    "plan_score",
    "potential",
    "recover",
    "remap_params",
    "replan_from",
    "simulate",
    "solve_optimal",
    "steps_to_validity",
]
