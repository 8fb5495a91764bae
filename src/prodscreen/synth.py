"""Synthetic data with planted interactions, for recovery experiments.

Atoms are Bernoulli(density) binary columns.  A planted interaction is a set
of atoms with a weight; the response is built from the product columns of
the planted sets so that recovering them is exactly the support-recovery
problem the screening solver is meant to win.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AtomicMatrix, FeatureSet, interaction_matrix

__all__ = ["SynthDataset", "synth_planted"]


@dataclass
class SynthDataset:
    matrix: AtomicMatrix
    response: np.ndarray | None
    truth: tuple[FeatureSet, ...]
    weights: tuple[float, ...]
    kind: str


def _planted_sets(planted):
    truth = []
    weights = []
    for atoms, w in planted:
        fs = atoms if isinstance(atoms, FeatureSet) else FeatureSet(tuple(sorted(atoms)))
        truth.append(fs)
        weights.append(float(w))
    return tuple(truth), tuple(weights)


def synth_planted(seed: int, n: int, d: int, planted, noise: float = 0.0,
                  kind: str = "logistic", density: float = 0.3,
                  n_tasks: int = 1, latent_rank: int | None = None) -> SynthDataset:
    """Draw an n x d binary matrix and a response driven by the planted sets.

    logistic: labels indicate whether the weighted sum of planted product
    columns, jittered by Gaussian noise scaled to the weights, clears half
    the smallest planted weight.  matrix: each planted set contributes a
    rank-one term (product column times a direction in R^T); directions are
    drawn inside a latent_rank-dimensional subspace when given, and
    Gaussian noise is added entrywise.  basket: no response; planted sets
    get their co-occurrence boosted on a fifth of the rows instead.
    """
    if kind not in ("basket", "logistic", "matrix"):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0.0 < density < 1.0:
        raise ValueError("density must lie in (0, 1)")
    if not np.isfinite(noise):
        raise ValueError("noise must be finite")
    if latent_rank is not None and latent_rank < 1:
        raise ValueError("latent_rank must be >= 1")
    rng = np.random.default_rng(seed)
    truth, weights = _planted_sets(planted)
    if not np.all(np.isfinite(weights)):
        raise ValueError("planted weights must be finite")
    for fs in truth:
        if fs.atoms[-1] >= d:
            raise ValueError(f"planted atom {fs.atoms[-1]} out of range for d={d}")
    X = rng.random((n, d)) < density
    if kind == "basket":
        for fs in truth:
            rows = rng.choice(n, size=max(1, n // 5), replace=False)
            X[np.ix_(rows, list(fs.atoms))] = True
    A = AtomicMatrix(X)
    if kind == "basket":
        return SynthDataset(A, None, truth, weights, kind)
    prods = interaction_matrix(A, truth)
    w = np.asarray(weights, dtype=float)

    if kind == "logistic":
        margin = 0.5 * w.min() if len(w) else 0.0
        jitter = noise * (w.max() if len(w) else 1.0) * rng.standard_normal(n)
        labels = (prods @ w + jitter > margin).astype(float)
        return SynthDataset(A, labels, truth, weights, kind)

    T = int(n_tasks)
    if T < 1:
        raise ValueError("n_tasks must be >= 1")
    if latent_rank is not None:
        basis = np.linalg.qr(rng.standard_normal((T, min(latent_rank, T))))[0]
        raw = basis @ rng.standard_normal((basis.shape[1], len(truth)))
    else:
        raw = rng.standard_normal((T, len(truth)))
    raw /= np.maximum(np.linalg.norm(raw, axis=0, keepdims=True), 1e-12)
    Y = prods @ (raw * w).T + noise * rng.standard_normal((n, T))
    return SynthDataset(A, Y, truth, weights, kind)
