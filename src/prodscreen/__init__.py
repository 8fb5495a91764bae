"""Sparse convex models over all multiplicative feature interactions.

The feature space is every non-empty product of atom columns, 2^d - 1
candidates in all; it is searched, never materialized.  Training runs in
the Fenchel dual: a screen walks the interaction lattice and certifies all
but a small active set to carry zero weight, a damped Newton ascent solves
the reduced dual, and re-screening at the solution either certifies
optimality or grows the active set.
"""

from .data import (AtomicMatrix, FeatureSet, interaction_column, interaction_matrix,
                   load_dense, load_transactions)
from .duality import PrimalModel
from .objectives import (BasketSpec, LogisticSpec, MatrixSpec, basket_dual,
                         logistic_dual, matrix_dual, rank_report)
from .path import (PathConfig, PathResult, lambda_max, metrics_auc, metrics_r2,
                   predict, run_path)
from .screening import (Emitted, PenaltySchedule, ScreenConfig, ScreenResult,
                        dedup_atoms, frequent_itemsets, screen, verify_kkt)
from .solver import SolverConfig, solve
from .synth import SynthDataset, synth_planted

__version__ = "0.1.0"

__all__ = [
    "AtomicMatrix", "FeatureSet", "interaction_column", "interaction_matrix",
    "load_dense", "load_transactions",
    "PrimalModel",
    "BasketSpec", "LogisticSpec", "MatrixSpec", "basket_dual", "logistic_dual",
    "matrix_dual", "rank_report",
    "PathConfig", "PathResult", "lambda_max", "metrics_auc", "metrics_r2",
    "predict", "run_path",
    "Emitted", "PenaltySchedule", "ScreenConfig", "ScreenResult",
    "dedup_atoms", "frequent_itemsets", "screen", "verify_kkt",
    "SolverConfig", "solve",
    "SynthDataset", "synth_planted",
]
