"""Seeded input generators for the four workloads.

Every input is drawn here with numpy from the run's seed; nothing comes from
``prodscreen.synth``, so a change to the program cannot change its inputs.
Each generator writes its files into a directory and returns a dict that
describes them, which the workers and the checks read.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# basket_path: the scripts/path_report.py instance (its default seed is 11)
BASKET_BASE_SEED = 11
BASKET_N, BASKET_D, BASKET_DENSITY = 300, 20, 0.65
BASKET_TAU, BASKET_GEO, BASKET_LEVELS, BASKET_RATIO = 18.0, 1.15, 14, 0.02
BASKET_GAMMA = 1e-3

# logistic_cli: planted sets on binary atoms, fit rows plus held-out rows
LOGIT_N, LOGIT_HELDOUT, LOGIT_D, LOGIT_DENSITY = 5000, 2000, 60, 0.3
LOGIT_PLANTED = (((0, 1), 6.0), ((4, 5, 6), 5.5), ((10,), 5.0))
LOGIT_OFFSET = 3.0
LOGIT_BOOST = 0.1  # share of rows on which each planted set is made to occur
LOGIT_GEO, LOGIT_LEVELS, LOGIT_RATIO = 1.5, 10, 0.05
LOGIT_L2 = 1.0
MAX_ORDER = 20  # the CLI's --max-order default, passed explicitly

# itemset_lattice: transactions with two boosted itemsets, mined at a support
ITEM_N, ITEM_D, ITEM_DENSITY = 2000, 90, 0.3
ITEM_BOOSTED = ((0, 1, 2, 3), (10, 11, 12))
ITEM_MIN_SUPPORT = 100.0

# matrix_rank: the scripts/rank_sweep.py instance; its seed is fixed so that
# the solve the program gets wrong is the same in every run
MATRIX_SEED, MATRIX_N, MATRIX_D, MATRIX_T, MATRIX_RANK = 909, 60, 8, 4, 2
MATRIX_DENSITY, MATRIX_NOISE = 0.3, 0.02
MATRIX_PLANTED = (((0, 1), 6.0), ((2,), 5.0), ((3, 4), 5.5), ((6, 7), 6.0))
MATRIX_GRID, MATRIX_PICK = 6, (4, 1)  # rank_sweep grid points 5.99 and 0.165
MATRIX_FAULTY = 1  # index into MATRIX_PICK of the solve whose rank readouts disagree
MATRIX_GEO, MATRIX_ETA, MATRIX_LAMBDA_SHARE = 2.0, 1e-2, 0.15
MATRIX_KKT_TOL, MATRIX_MAX_INNER = 1e-8, 2000


def _write_transactions(path: Path, X: np.ndarray) -> None:
    with open(path, "w") as fh:
        for row in X:
            fh.write(" ".join(f"i{j}" for j in np.flatnonzero(row)) + "\n")


def _write_csv(path: Path, X: np.ndarray, y: np.ndarray | None) -> None:
    header = [f"x{j}" for j in range(X.shape[1])] + ([] if y is None else ["y"])
    cells = X.astype(int) if y is None else np.column_stack([X, y]).astype(int)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in cells:
            fh.write(",".join(map(str, row)) + "\n")


def basket_path(seed: int, out: Path) -> dict:
    """path_report's instance with its rows and items shuffled by the seed.

    How much work the path does turns on how many levels run into the
    inner-iteration cap, which differs by about 30% (quartile spread of
    inner iterations over 16 seeds) between random instances.  The seed
    therefore permutes one fixed instance instead of drawing a new one.
    """
    base = np.random.default_rng(BASKET_BASE_SEED)
    X = base.random((BASKET_N, BASKET_D)) < BASKET_DENSITY
    X[:, 0] = True  # guarantee at least one live column
    rng = np.random.default_rng(seed)
    X = X[rng.permutation(BASKET_N)][:, rng.permutation(BASKET_D)]
    _write_transactions(out / "basket.txt", X)
    return {"data": "basket.txt"}


def _planted_labels(rng, X: np.ndarray) -> np.ndarray:
    """Bernoulli labels with log-odds sum(weight * product column) - offset."""
    w = np.array([wt for _, wt in LOGIT_PLANTED])
    prods = np.column_stack([X[:, list(s)].all(axis=1) for s, _ in LOGIT_PLANTED])
    p = 1.0 / (1.0 + np.exp(LOGIT_OFFSET - prods @ w))
    return (rng.random(len(X)) < p).astype(int)


def _boost(rng, X: np.ndarray, sets, share: float) -> None:
    """Make each set co-occur on a random `share` of the rows."""
    for s in sets:
        rows = rng.choice(len(X), size=int(share * len(X)), replace=False)
        X[np.ix_(rows, list(s))] = True


def logistic_cli(seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    n = LOGIT_N + LOGIT_HELDOUT
    X = rng.random((n, LOGIT_D)) < LOGIT_DENSITY
    _boost(rng, X, [s for s, _ in LOGIT_PLANTED], LOGIT_BOOST)
    y = _planted_labels(rng, X)
    _write_csv(out / "train.csv", X[:LOGIT_N], y[:LOGIT_N])
    _write_csv(out / "heldout.csv", X[LOGIT_N:], None)
    np.savetxt(out / "heldout_labels.txt", y[LOGIT_N:], fmt="%d")
    return {"data": "train.csv", "heldout": "heldout.csv",
            "heldout_labels": "heldout_labels.txt"}


def itemset_lattice(seed: int, out: Path) -> dict:
    rng = np.random.default_rng(seed)
    X = rng.random((ITEM_N, ITEM_D)) < ITEM_DENSITY
    _boost(rng, X, ITEM_BOOSTED, 0.2)
    _write_transactions(out / "items.txt", X)
    np.savetxt(out / "ones.txt", np.ones(ITEM_N), fmt="%d")
    return {"data": "items.txt", "alpha": "ones.txt"}


def matrix_instance():
    """(X, Y, nuclear weights) of the rank_sweep instance, from MATRIX_SEED."""
    rng = np.random.default_rng(MATRIX_SEED)
    X = (rng.random((MATRIX_N, MATRIX_D)) < MATRIX_DENSITY).astype(float)
    prods = np.column_stack([X[:, list(s)].prod(axis=1) for s, _ in MATRIX_PLANTED])
    basis = np.linalg.qr(rng.standard_normal((MATRIX_T, MATRIX_RANK)))[0]
    raw = basis @ rng.standard_normal((MATRIX_RANK, len(MATRIX_PLANTED)))
    raw /= np.maximum(np.linalg.norm(raw, axis=0, keepdims=True), 1e-12)
    Y = prods @ (raw * np.array([w for _, w in MATRIX_PLANTED])).T
    Y = Y + MATRIX_NOISE * rng.standard_normal((MATRIX_N, MATRIX_T))
    top = np.linalg.svd(Y - Y.mean(axis=0), compute_uv=False)[0]
    grid = np.geomspace(0.05, 0.8 * top, MATRIX_GRID)
    return X, Y, [float(grid[i]) for i in MATRIX_PICK]


def matrix_rank(seed: int, out: Path) -> dict:
    del seed  # the instance is fixed; see MATRIX_SEED
    X, Y, rhos = matrix_instance()
    np.savez(out / "matrix.npz", X=X, Y=Y)
    return {"data": "matrix.npz", "rhos": rhos}


GENERATORS = {
    "basket_path": basket_path,
    "logistic_cli": logistic_cli,
    "itemset_lattice": itemset_lattice,
    "matrix_rank": matrix_rank,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    desc = GENERATORS[workload](seed, out)
    (out / "inputs.json").write_text(json.dumps(desc) + "\n")
    return desc
