"""Exact Bayesian-network structure learning with parent-set constraints.

Dynamic programming over generational orderings finds globally optimal
DAGs under screened possible-parent sets and an in-degree bound, with
BIC / BGe scoring for continuous and categorical data and a Cox-scored
survival sink.

The package exports:

- the entry point: :func:`learn`, its :class:`LearnResult`, and its
  settings :class:`ScreenOptions` and :class:`ScoreConfig`;
- the data types: :class:`Dataset`, :class:`Column` and the column kinds,
  :class:`Network`, :class:`ParentConstraints` and :class:`NodeSubset`;
- the simulator: :class:`SimSpec`, :func:`simulate_dag`,
  :func:`simulate_data` and :func:`simulate_survival`;
- the metrics :func:`fdr` and :func:`hamming`;
- the error and warning classes.

The pipeline stages, the local-score functions, the DP tables and the
numeric kernels are imported from their own modules (``bndp.assoc``,
``bndp.scoring``, ``bndp.engine``, ``bndp.numeric``, ...).
"""

from .assoc import AssocError, EmptyFeasSetError, ScreenOptions, ScreeningWarning
from .core import (
    CATEGORICAL,
    CONTINUOUS,
    SURVIVAL,
    Column,
    Dataset,
    Network,
    NodeSubset,
    ParentConstraints,
    StructureError,
)
from .engine import EngineError, LearnResult, learn
from .metrics import MetricsError, fdr, hamming
from .numeric import ConvergenceError, NumericError, SeparationError
from .scoring import ScoreConfig, ScoringError, ScoringWarning
from .simulate import SimError, SimSpec, simulate_dag, simulate_data, simulate_survival

__version__ = "0.1.0"

__all__ = [
    "AssocError",
    "CATEGORICAL",
    "CONTINUOUS",
    "Column",
    "ConvergenceError",
    "Dataset",
    "EmptyFeasSetError",
    "EngineError",
    "LearnResult",
    "MetricsError",
    "Network",
    "NodeSubset",
    "NumericError",
    "ParentConstraints",
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
    "fdr",
    "hamming",
    "learn",
    "simulate_dag",
    "simulate_data",
    "simulate_survival",
]
