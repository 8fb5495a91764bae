"""Output checks that recompute every answer in numpy from the inputs.

Nothing here imports prodscreen.  The lattice is walked level by level
(Apriori style): a set of order k+1 is looked at only when each of its
order-k subsets survived, and a set survives when its superset bound
max(c^T a+, c^T a-) still clears the next order's threshold.  Every set
that is not looked at has a subset whose bound certifies it, so the walk
covers the whole lattice.

A check that does not hold raises ``CheckFailed``.  ``KnownFault`` marks the
one failure the program is known to produce (see ``check_matrix``); the
benchmark counts it as a failed operation instead of an incorrect one.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import inputs as cfg

KKT_TOL = 1e-6          # stationarity residual, relative to 1 + threshold
LAMBDA_REL_TOL = 1e-9   # path.tsv prints lambda with 10 significant digits
SCORE_TOL = 1e-9        # predict prints scores with 10 significant digits
AUC_FLOOR = 0.9
RANK_REL_CUTOFF = 1e-8  # rank_report's cutoff for the prediction rank
GAP_SLACK = 1e-12       # rounding allowance on the recomputed gap, relative


class CheckFailed(Exception):
    """The program's output disagrees with the independent computation."""


class KnownFault(CheckFailed):
    """The failure ROADMAP item 3 names: rank readouts that disagree."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ------------------------------------------------------------ inputs ---

def read_transactions(path: Path):
    """(n x items bool matrix, item names) with items in sorted name order."""
    rows = [line.split() for line in Path(path).read_text().splitlines()]
    names = sorted({t for r in rows for t in r})
    col = {t: j for j, t in enumerate(names)}
    X = np.zeros((len(rows), len(names)), dtype=bool)
    for i, r in enumerate(rows):
        X[i, [col[t] for t in r]] = True
    return X, names


def read_csv(path: Path):
    """(numeric matrix, header) of a CSV file with a header row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(c) for c in row] for row in reader])
    return data, header


def read_model(out: Path, names: list[str]):
    """model.json as {tuple of input columns: coefficient}.

    The model's atoms index the program's loaded matrix; items.json maps
    them to names, which map to the columns parsed here.
    """
    items = json.loads((out / "items.json").read_text())
    col = {t: j for j, t in enumerate(names)}
    model = json.loads((out / "model.json").read_text())
    coefs = {}
    for e in model["entries"]:
        key = tuple(sorted(col[items[str(a)]] for a in e["atoms"]))
        coefs[key] = e["coef"] if "coef" in e else e["coef_row"]
    return model, coefs


def read_path_tsv(out: Path):
    rows = [r.split("\t") for r in (out / "path.tsv").read_text().splitlines()]
    head = rows[0]
    return [dict(zip(head, r)) for r in rows[1:]]


# ----------------------------------------------------------- lattice ---

def sweep(X: np.ndarray, wpos: np.ndarray, wneg: np.ndarray, level, max_order: int):
    """Walk the lattice of X's columns level by level.

    ``wpos``/``wneg`` are (n,) or (n, T).  ``level(k, sets, pos, neg)`` gets
    order-k sets (all of one order, a block at a time) with their dots
    c^T wpos and c^T wneg, and returns a bool mask of the sets whose
    supersets must still be looked at.  Only those sets' columns are kept.
    """
    sets = [(j,) for j in range(X.shape[1])]
    cols = X.T.copy()
    keep = _visit(level, 1, sets, cols, wpos, wneg)
    sets, cols = [s for s, kp in zip(sets, keep) if kp], cols[keep]
    for k in range(2, max_order + 1):
        alive = set(sets)
        new_sets, new_cols = [], []
        for a, parent in enumerate(sets):
            # join with the later survivors sharing parent's prefix, when
            # every order-(k-1) subset of the union survived
            exts = []
            for b in range(a + 1, len(sets)):
                if sets[b][:-1] != parent[:-1]:
                    break
                cand = parent + (sets[b][-1],)
                if all(cand[:m] + cand[m + 1:] in alive for m in range(k - 2)):
                    exts.append(cand)
            if not exts:
                continue
            block = cols[a] & X[:, [s[-1] for s in exts]].T
            keep = _visit(level, k, exts, block, wpos, wneg)
            new_sets += [s for s, kp in zip(exts, keep) if kp]
            new_cols.append(block[keep])
        if not new_sets:
            return
        sets, cols = new_sets, np.concatenate(new_cols)


def _visit(level, k, sets, cols, wpos, wneg) -> np.ndarray:
    block = cols.astype(float)
    return np.asarray(level(k, sets, block @ wpos, block @ wneg), dtype=bool)


def set_columns(X: np.ndarray, sets) -> np.ndarray:
    """(n, len(sets)) float product columns."""
    return np.column_stack([X[:, list(s)].all(axis=1) for s in sets]).astype(float) \
        if sets else np.zeros((X.shape[0], 0))


def lambda_max(X, wpos, wneg, base: float, max_order: int, group: bool = False) -> float:
    """max over the lattice of statistic / base**(order-1), by branch and bound."""
    best = [0.0]

    def level(k, sets, pos, neg):
        if group:
            stat = np.linalg.norm(pos - neg, axis=1)
            bound = np.linalg.norm(np.maximum(pos, neg), axis=1)
        else:
            stat, bound = np.abs(pos - neg), np.maximum(pos, neg)
        if len(stat):
            best[0] = max(best[0], float(stat.max()) / base ** (k - 1))
        return bound / base ** k > best[0]

    sweep(X, wpos, wneg, level, max_order)
    return best[0]


# --------------------------------------------------- itemset_lattice ---

def apriori(X: np.ndarray, min_support: float) -> dict:
    """{itemset (tuple of columns): support} for support > min_support."""
    found = {}
    ones = np.ones(X.shape[0])

    def level(k, sets, pos, neg):
        keep = pos > min_support
        for s, c in zip(sets, pos):
            if c > min_support:
                found[s] = c
        return keep

    sweep(X, ones, np.zeros_like(ones), level, X.shape[1])
    return found


def check_itemsets(inputs: Path, desc: dict, out: Path) -> None:
    X, names = read_transactions(inputs / desc["data"])
    want = {frozenset(names[j] for j in s): c for s, c in apriori(X, cfg.ITEM_MIN_SUPPORT).items()}
    got = {}
    for line in (out / "interactions.jsonl").read_text().splitlines():
        rec = json.loads(line)
        key = frozenset(rec["items"])
        _require(key not in got, f"itemset {sorted(key)} emitted twice")
        got[key] = rec["stat"]
    missing = want.keys() - got.keys()
    extra = got.keys() - want.keys()
    _require(not missing, f"{len(missing)} frequent itemsets not emitted, "
             f"e.g. {sorted(next(iter(missing))) if missing else ''}")
    _require(not extra, f"{len(extra)} emitted itemsets are not frequent")
    wrong = [k for k in want if got[k] != want[k]]
    _require(not wrong, f"{len(wrong)} itemsets carry a wrong support count")


# ------------------------------------------- basket_path, logistic_cli ---

def _kkt_residual(kind: str, stat: float, thr: float, coef: float) -> float:
    """How far one set is from primal stationarity, in statistic units."""
    if kind == "basket":
        r = stat - thr - cfg.BASKET_GAMMA * coef
        if coef <= 0.0:
            return max(r, 0.0)
        if coef >= 1.0:
            return max(-r, 0.0)
        return abs(r)
    if coef == 0.0:
        return max(abs(stat) - thr, 0.0)
    return abs(stat - math.copysign(thr, coef) - cfg.LOGIT_L2 * coef)


def check_path_fit(workload: str, inputs: Path, desc: dict, out: Path) -> None:
    """Levels converged, first lambda equal to lambda_max, and the final model
    stationary on every set of the lattice."""
    if workload == "basket_path":
        kind, base, levels, ratio = "basket", cfg.BASKET_GEO, cfg.BASKET_LEVELS, cfg.BASKET_RATIO
        X, names = read_transactions(inputs / desc["data"])
        alpha0 = np.full(X.shape[0], cfg.BASKET_TAU)
    else:
        kind, base, levels, ratio = "logistic", cfg.LOGIT_GEO, cfg.LOGIT_LEVELS, cfg.LOGIT_RATIO
        data, header = read_csv(inputs / desc["data"])
        X, y, names = data[:, :-1] == 1.0, data[:, -1], header[:-1]
        alpha0 = y - 0.5
    path = read_path_tsv(out)
    _require(len(path) == levels, f"path has {len(path)} levels, expected {levels}")
    _require(all(p["converged"] == "1" for p in path), "a path level did not converge")
    lam_max = lambda_max(X, np.maximum(alpha0, 0), np.maximum(-alpha0, 0), base, cfg.MAX_ORDER)
    lams = [float(p["lambda"]) for p in path]
    _require(abs(lams[0] - lam_max) <= LAMBDA_REL_TOL * lam_max,
             f"first path lambda {lams[0]!r} is not lambda_max {lam_max!r}")
    want_last = lam_max * ratio
    _require(abs(lams[-1] - want_last) <= LAMBDA_REL_TOL * want_last,
             f"last path lambda {lams[-1]!r} is not {ratio} * lambda_max")

    model, coefs = read_model(out, names)
    _require(model["kind"] == kind, f"model kind {model['kind']!r}")
    sets = sorted(coefs)
    scores = set_columns(X, sets) @ np.array([coefs[s] for s in sets]) if sets \
        else np.zeros(X.shape[0])
    if kind == "basket":
        alpha = np.maximum(cfg.BASKET_TAU - scores, 0.0)
    else:
        alpha = y - 1.0 / (1.0 + np.exp(-scores))
    lam = lams[-1]
    seen = set()
    worst = [0.0, None]  # largest residual and its set

    def note(s, stat):
        thr = lam * base ** (len(s) - 1)
        res = _kkt_residual(kind, stat, thr, coefs.get(s, 0.0)) / (1.0 + thr)
        if res > worst[0]:
            worst[:] = [res, s]

    def level(k, level_sets, pos, neg):
        for s, p, m in zip(level_sets, pos, neg):
            seen.add(s)
            note(s, p - m)
        return np.maximum(pos, neg) > lam * base ** k

    sweep(X, np.maximum(alpha, 0), np.maximum(-alpha, 0), level, cfg.MAX_ORDER)
    # a model set the walk did not reach has a subset whose bound puts its
    # statistic at or below its threshold; check its stationarity directly
    unseen = sorted(set(coefs) - seen)
    for s, stat in zip(unseen, set_columns(X, unseen).T @ alpha):
        note(s, stat)
    _require(worst[0] <= KKT_TOL, f"KKT residual {worst[0]:.3e} at set {worst[1]} "
             f"exceeds {KKT_TOL:g}")
    if workload == "logistic_cli":
        planted = {tuple(s) for s, _ in cfg.LOGIT_PLANTED}
        _require(planted <= set(coefs), f"planted sets {sorted(planted - set(coefs))} "
                 "are not active")
        check_heldout(inputs, desc, out, sets, coefs)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with tied scores given their average rank."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    ranks = (first + (counts + 1) / 2.0)[inverse]
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def check_heldout(inputs: Path, desc: dict, out: Path, sets, coefs) -> None:
    data, header = read_csv(inputs / desc["heldout"])
    labels = np.loadtxt(inputs / desc["heldout_labels"])
    X = data == 1.0
    scores = set_columns(X, sets) @ np.array([coefs[s] for s in sets])
    want = 1.0 / (1.0 + np.exp(-scores))
    got = np.loadtxt(out / "predictions.tsv", ndmin=1)
    _require(got.shape == want.shape, f"predict wrote {got.size} scores for {want.size} rows")
    bad = np.flatnonzero(np.abs(got - want) > SCORE_TOL * np.maximum(1.0, np.abs(want)))
    _require(bad.size == 0, f"{bad.size} held-out scores differ from model.json, "
             f"first at row {bad[0] if bad.size else -1}")
    a_pred, a_model = auc(got, labels), auc(want, labels)
    _require(a_pred == a_model, f"held-out AUC {a_pred} from predict != {a_model} from model")
    _require(a_pred >= AUC_FLOOR, f"held-out AUC {a_pred:.4f} below {AUC_FLOOR}")


# ------------------------------------------------------- matrix_rank ---

def _sv_excess(R: np.ndarray, rho: float) -> np.ndarray:
    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    return (U * np.maximum(s - rho, 0.0)) @ Vt


def check_matrix(inputs: Path, desc: dict, out: Path, k: int) -> None:
    """Solve k: lambda from lambda_max, converged, gap recomputed over the
    whole lattice, and the two rank readouts recomputed and in agreement."""
    arrays = np.load(inputs / desc["data"])
    X, Y = arrays["X"] == 1.0, arrays["Y"]
    info = json.loads((out / f"solve{k}.json").read_text())
    rho = desc["rhos"][k]
    _require(info["converged"], f"solve at rho={rho:.4g} did not converge")
    Yc = Y - Y.mean(axis=0)
    a0 = _sv_excess(Yc, rho)
    lam_max = lambda_max(X, np.maximum(a0, 0), np.maximum(-a0, 0), cfg.MATRIX_GEO,
                         X.shape[1], group=True)
    lam = cfg.MATRIX_LAMBDA_SHARE * lam_max
    _require(abs(info["lambda"] - lam) <= LAMBDA_REL_TOL * lam,
             f"lambda {info['lambda']!r} is not {cfg.MATRIX_LAMBDA_SHARE} * lambda_max")

    model = json.loads((out / f"model{k}.json").read_text())
    alpha = np.load(out / f"alpha{k}.npy")
    sets = [tuple(e["atoms"]) for e in model["entries"]]
    W = np.array([e["coef_row"] for e in model["entries"]]).reshape(len(sets), Y.shape[1])
    _require(np.allclose(model["intercept"], Y.mean(axis=0), rtol=0, atol=1e-12),
             "intercept is not the response mean")
    P = set_columns(X, sets) @ W
    sig_p = np.linalg.svd(P, compute_uv=False)
    thr_of = [lam * cfg.MATRIX_GEO ** (len(s) - 1) for s in sets]
    eta = cfg.MATRIX_ETA
    primal = (0.5 * float(np.sum((Yc - P) ** 2)) + rho * float(sig_p.sum())
              + float(np.dot(thr_of, np.linalg.norm(W, axis=1)))
              + 0.5 * eta * float(np.sum(W * W)))
    sig_r = np.linalg.svd(Yc - alpha, compute_uv=False)
    shrink = [0.0]

    def level(kk, level_sets, pos, neg):
        thr = lam * cfg.MATRIX_GEO ** (kk - 1)
        shrink[0] += float(np.sum(np.maximum(np.linalg.norm(pos - neg, axis=1) - thr, 0) ** 2))
        return np.linalg.norm(np.maximum(pos, neg), axis=1) > lam * cfg.MATRIX_GEO ** kk

    sweep(X, np.maximum(alpha, 0), np.maximum(-alpha, 0), level, X.shape[1])
    dual = (0.5 * float(np.sum(Yc * Yc)) - 0.5 * float(np.sum(np.maximum(sig_r - rho, 0) ** 2))
            - 0.5 * shrink[0] / eta)
    gap = primal - dual
    scale = 1.0 + abs(primal)
    _require(-GAP_SLACK * scale <= gap <= (cfg.MATRIX_KKT_TOL + GAP_SLACK) * scale,
             f"recomputed gap {gap:.3e} is outside [0, {cfg.MATRIX_KKT_TOL:g} * (1 + |P|)]")
    pred_rank = int(np.sum(sig_p > RANK_REL_CUTOFF * sig_p.max(initial=0.0))) \
        if sig_p.size and sig_p.max() > 0 else 0
    retained = int(np.sum(sig_r > rho))
    _require((pred_rank, retained) == (info["pred_rank"], info["retained"]),
             f"rank_report gave {(info['pred_rank'], info['retained'])}, "
             f"recomputed {(pred_rank, retained)}")
    if pred_rank != retained:
        raise KnownFault(f"at rho={rho:.4g} the prediction rank {pred_rank} and the "
                         f"retained count {retained} disagree")


def check_round(workload: str, inputs: Path, desc: dict, out: Path) -> list:
    """Check one round's outputs.  Returns the KnownFault of each operation
    that failed in the known way (an empty list when none did); any other
    failed check raises CheckFailed."""
    if workload == "itemset_lattice":
        check_itemsets(inputs, desc, out)
        return []
    if workload == "matrix_rank":
        faults = []
        for k in range(len(desc["rhos"])):
            try:
                check_matrix(inputs, desc, out, k)
            except KnownFault as e:
                if k != cfg.MATRIX_FAULTY:
                    raise CheckFailed(str(e)) from None
                faults.append(e)
        return faults
    check_path_fit(workload, inputs, desc, out)
    return []
