"""Exact Bayesian-network structure learning with parent-set constraints.

Dynamic programming over generational orderings finds globally optimal
DAGs under screened possible-parent sets and an in-degree bound, with
BIC / BGe scoring for continuous and categorical data and a Cox-scored
survival sink.
"""

from .assoc import (
    AssocError,
    EmptyFeasSetError,
    ScreenOptions,
    ScreeningWarning,
    bh_adjust,
    build_constraints,
    cox_screen,
)
from .core import (
    CATEGORICAL,
    CONTINUOUS,
    SURVIVAL,
    Column,
    DagCheck,
    Dataset,
    Network,
    NodeSubset,
    ParentConstraints,
    StructureError,
    skeleton,
    validate_dag,
)
from .engine import (
    BestParentsTable,
    BestSinkTable,
    EngineError,
    LearnResult,
    RecoveryResult,
    best_parents,
    best_sinks,
    learn,
    recover_networks,
)
from .metrics import EdgeConfusion, MetricsError, edge_confusion, fdr, hamming
from .numeric import (
    ConvergenceError,
    FitResult,
    NumericError,
    SeparationError,
    chisq_sf,
    cox_fit,
    least_squares,
    log_mvgamma,
)
from .scoring import (
    LocalScoreTable,
    ScoreConfig,
    ScoringError,
    ScoringWarning,
    bge_local,
    bic_categorical,
    bic_gaussian,
    compute_local_scores,
    cox_bic,
)
from .simulate import Dag, SimError, SimSpec, simulate_dag, simulate_data, simulate_survival

__version__ = "0.1.0"

__all__ = [
    "AssocError",
    "BestParentsTable",
    "BestSinkTable",
    "CATEGORICAL",
    "CONTINUOUS",
    "Column",
    "ConvergenceError",
    "Dag",
    "DagCheck",
    "Dataset",
    "EdgeConfusion",
    "EmptyFeasSetError",
    "EngineError",
    "FitResult",
    "LearnResult",
    "LocalScoreTable",
    "MetricsError",
    "Network",
    "NodeSubset",
    "NumericError",
    "ParentConstraints",
    "RecoveryResult",
    "SURVIVAL",
    "ScoreConfig",
    "ScoringError",
    "ScoringWarning",
    "ScreenOptions",
    "ScreeningWarning",
    "SeparationError",
    "SimError",
    "SimSpec",
    "StructureError",
    "bge_local",
    "best_parents",
    "best_sinks",
    "bh_adjust",
    "bic_categorical",
    "bic_gaussian",
    "build_constraints",
    "chisq_sf",
    "compute_local_scores",
    "cox_bic",
    "cox_fit",
    "cox_screen",
    "edge_confusion",
    "fdr",
    "hamming",
    "learn",
    "least_squares",
    "log_mvgamma",
    "recover_networks",
    "simulate_dag",
    "simulate_data",
    "simulate_survival",
    "skeleton",
    "validate_dag",
]
