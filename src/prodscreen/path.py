"""Regularization paths over the implicit interaction space.

The largest useful penalty level is the best ratio statistic(u) / rho(|u|)
over the whole lattice, found by the screen's own walk with a level that
rises to each ratio it meets.  The path then walks a geometric grid downward,
warm-starting each solve from the previous dual point.  A level's
certificate re-screens walk the lattice at the next level's penalty:
restricted to the level's own penalty, a walk is the level's certificate,
and the level's last walk is the next level's prediction, the screen at its
warm start.  The first level predicts nothing, by the definition of
lambda_max.  The ratio of predicted to converged support sizes measures how
well the prediction anticipated the solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import AtomicMatrix, interaction_matrix
from .duality import PrimalModel
from .screening import PenaltySchedule, ScreenConfig, ScreenResult, critical_lambda
from .solver import SolverConfig, solve

__all__ = [
    "PathConfig",
    "PathPoint",
    "PathResult",
    "lambda_max",
    "run_path",
    "predict",
    "metrics_auc",
    "metrics_r2",
]


@dataclass(frozen=True)
class PathConfig:
    n_lambdas: int = 50
    lambda_min_ratio: float = 1e-3

    def __post_init__(self):
        if self.n_lambdas < 1:
            raise ValueError("n_lambdas must be >= 1")
        if not 0.0 < self.lambda_min_ratio <= 1.0:
            raise ValueError("lambda_min_ratio must lie in (0, 1]")


def lambda_max(obj, A: AtomicMatrix, schedule: PenaltySchedule,
               scfg: ScreenConfig | None = None) -> float:
    """Smallest base penalty at which no interaction enters the model: the
    critical level of the screen at the objective's empty-model dual point."""
    return critical_lambda(A, obj.screen_weights(obj.alpha0()), schedule,
                           obj.screen_config(scfg))


@dataclass
class PathPoint:
    lam: float
    model: PrimalModel
    gap: float
    active_count: int
    predicted_count: int
    predicted_sets: tuple
    explored_count: int
    expansions: int
    converged: bool
    wall_time: float
    ratio: float
    stop_reason: str


@dataclass
class PathResult:
    points: list[PathPoint] = field(default_factory=list)
    final: object = None  # SolveResult at the smallest lambda

    def tsv_rows(self):
        yield ("lambda", "active", "predicted", "explored", "expansions",
               "gap", "converged", "seconds", "predicted_to_active", "stop_reason")
        for p in self.points:
            yield (f"{p.lam:.10g}", str(p.active_count), str(p.predicted_count),
                   str(p.explored_count), str(p.expansions), f"{p.gap:.6e}",
                   str(int(p.converged)), f"{p.wall_time:.4f}", f"{p.ratio:.6g}",
                   p.stop_reason)

    def best_model(self, score_fn):
        """Model maximizing score_fn(model) over the path."""
        return max((p.model for p in self.points), key=score_fn)


def run_path(obj, A: AtomicMatrix, pcfg: PathConfig | None = None,
             scfg: ScreenConfig | None = None, cfg: SolverConfig | None = None,
             schedule: PenaltySchedule | None = None) -> PathResult:
    """Solve along a geometric grid from lambda_max down, warm-starting each
    step at the previous dual point.  Each solve but the last walks at the
    next grid level and hands its last walk on as the next prediction; a
    point's ``explored_count`` is that walk's."""
    pcfg = pcfg or PathConfig()
    cfg = cfg or SolverConfig()
    schedule = schedule if schedule is not None else obj.spec.penalty
    lam_hi = lambda_max(obj, A, schedule, scfg)
    if not lam_hi > 0.0:
        raise ValueError("lambda_max is zero; the data carries no signal to trace")
    if pcfg.n_lambdas == 1:
        grid = np.array([lam_hi])
    else:
        grid = lam_hi * np.power(pcfg.lambda_min_ratio,
                                 np.arange(pcfg.n_lambdas) / (pcfg.n_lambdas - 1))
    result = PathResult()
    alpha = obj.project(np.asarray(obj.alpha0(), dtype=float))
    first = ScreenResult((), 0, 0)  # nothing clears lambda_max
    lams = grid.tolist()
    for lam, nxt in zip(lams, lams[1:] + [None]):
        tick = time.perf_counter()
        res = solve(obj, A, schedule.with_base(lam), alpha, scfg, cfg,
                    first=first, next_lambda=nxt)
        wall = time.perf_counter() - tick
        alpha, first = res.state.alpha, res.walk
        result.final = res
        active_count = res.model.n_active
        ratio = res.predicted_count / max(1, active_count)
        result.points.append(PathPoint(
            lam=lam, model=res.model, gap=res.state.gap,
            active_count=active_count, predicted_count=res.predicted_count,
            predicted_sets=tuple(fs.atoms for fs in res.predicted),
            explored_count=res.screen_result.explored_count,
            expansions=res.expansions, converged=res.state.converged,
            wall_time=wall, ratio=ratio, stop_reason=res.state.stop_reason))
    return result


def predict(model: PrimalModel, A: AtomicMatrix) -> np.ndarray:
    """Scores for new rows: raw scores (basket), probabilities (logistic),
    or the predicted response matrix including intercept (matrix)."""
    F = interaction_matrix(A, model.active)
    if model.kind == "matrix":
        T = model.intercept.size or (model.coefficients.shape[1] if model.n_active else 1)
        base = model.intercept if model.intercept.size else np.zeros(T)
        return base + F @ np.reshape(model.coefficients, (model.n_active, T))
    scores = F @ model.coefficients
    if model.kind == "logistic":
        return 1.0 / (1.0 + np.exp(-scores))
    return scores


def metrics_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a positive outranks a negative, ties counted half."""
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    # average ranks: a run of ties ending at 1-based rank e with c members
    # shares rank e - (c - 1) / 2
    _, where, counts = np.unique(np.ravel(scores), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[where]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def metrics_r2(pred: np.ndarray, truth: np.ndarray):
    """Per-column coefficient of determination and its mean."""
    pred = np.atleast_2d(np.asarray(pred, dtype=float).T).T
    truth = np.atleast_2d(np.asarray(truth, dtype=float).T).T
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have the same shape")
    sse = np.sum((pred - truth) ** 2, axis=0)
    sst = np.sum((truth - truth.mean(axis=0)) ** 2, axis=0)
    if np.any(sst == 0.0):
        raise ValueError("R^2 undefined for a constant truth column")
    per = 1.0 - sse / sst
    return per, float(per.mean())
