"""Independent brute-force oracles used across the test suite.

Everything here works on the fully materialized interaction matrix (all
2^d - 1 product columns), so it is only usable at toy scale, which is the
point: results from the implicit-lattice solver must match these within
tight tolerances.  Two exceptions: the reference walk, the lattice walk
one node at a time, which the library's batched walk must match node for
node; and dense_hessian, a reduced dual's curvature operator written out
as a dense matrix, which the direct Newton solve is checked against.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations

import numpy as np

from prodscreen.data import Column, cosine, split_dots


def dense_hessian(red, alpha):
    """red.hessian_matvec(alpha) as a dense matrix over alpha's flattened
    entries, one matvec per column."""
    hv = red.hessian_matvec(alpha)
    H = np.zeros((alpha.size, alpha.size))
    for i in range(alpha.size):
        e = np.zeros(alpha.shape)
        e.flat[i] = 1.0
        H[:, i] = hv(e).ravel()
    return H


def all_subsets(d: int):
    """Every non-empty atom subset, sorted by the atom tuple."""
    out = []
    for k in range(1, d + 1):
        out.extend(combinations(range(d), k))
    return sorted(out)


def materialize(X: np.ndarray):
    """(subsets, P) with P holding one product column per subset."""
    d = X.shape[1]
    subsets = all_subsets(d)
    P = np.column_stack([X[:, list(s)].prod(axis=1) for s in subsets])
    return subsets, P


def threshold_vector(subsets, schedule):
    return np.array([schedule.threshold(len(s)) for s in subsets])


def enumerate_stats(P: np.ndarray, alpha: np.ndarray, mode: str = "signed"):
    """Statistic of every materialized column at alpha.

    mode "signed": |c^T a|; "nonneg": c^T a; "group": row norms of P^T A.
    """
    dots = P.T @ alpha
    if mode == "signed":
        return np.abs(dots)
    if mode == "nonneg":
        return dots
    return np.linalg.norm(dots, axis=1)


def closure_bounds(P: np.ndarray, alpha: np.ndarray, mode: str = "signed"):
    pos = np.maximum(alpha, 0.0)
    neg = np.maximum(-alpha, 0.0)
    if mode == "group":
        hi = np.maximum(P.T @ pos, P.T @ neg)
        return np.linalg.norm(hi, axis=1)
    if mode == "nonneg":
        return P.T @ alpha
    return np.maximum(P.T @ pos, P.T @ neg)


# ------------------------------------------------------- reference walk ---

def _node_stat_bound(col, w):
    """Statistic and superset bound of one column, as floats.  The mode
    follows from the weights: row norms for an (n, T) dual, c^T a for a
    vector dual without negative entries, |c^T a| otherwise."""
    p, m = split_dots(col, w)
    if w.pos.ndim == 2:
        diff = p - m
        hi = np.maximum(p, m)
        return math.sqrt(float(diff @ diff)), math.sqrt(float(hi @ hi))
    p, m = float(p), float(m)
    if not np.any(w.neg > 0):
        return p - m, p - m
    return abs(p - m), max(p, m)


def _too_similar(child, parent_col, level):
    if child.tidlist is not None:
        pn = parent_col.support_size
        return (1.0 if pn == 0 else child.support_size / pn) > level
    return cosine(child.values, parent_col.values) > level


def reference_walk(A, weights, schedule, cfg, lam):
    """The lattice walk one node at a time: a Column and two dots per node.

    A generator of ``(atoms, stat, threshold)`` in join order, like the
    library's batched walk, with the same pruning rules; it returns
    ``(explored, pruned)``.  ``lam`` is a one-element list the caller may
    raise between yields.
    """
    explored = pruned = 0
    X = A.atom_matrix()
    seeds = []
    for j in range(A.n_cols):
        col = A.column(j)
        stat, bound = _node_stat_bound(col, weights)
        explored += 1
        thr = lam[0] * schedule.rho(1)
        if stat > thr:
            yield (j,), stat, thr
        seeds.append(((j,), j, col, bound))
    seeds.sort(key=lambda c: (-c[3], c[1]))
    stack = [seeds] if A.n_cols > 1 and cfg.max_order > 1 else []
    while stack:
        cls = stack.pop()
        order = len(cls[0][0]) + 1
        rho_k = schedule.rho(order)
        rho_next = schedule.rho(order + 1) if order < cfg.max_order else None
        for k, (atoms, _, pcol, _) in enumerate(cls):
            children = []
            for _, ext, scol, _ in cls[k + 1:]:
                if A.is_binary:
                    tid = np.intersect1d(pcol.tidlist, scol.tidlist, assume_unique=True)
                    col = Column(None, A.n_rows, tidlist=tid)
                else:
                    col = Column(None, A.n_rows, values=pcol.values * X[:, ext])
                explored += 1
                level = cfg.child_parent_prune
                if level > 0.0 and _too_similar(col, pcol, level) \
                        and _too_similar(col, scol, level):
                    continue
                stat, bound = _node_stat_bound(col, weights)
                thr = lam[0] * rho_k
                if stat > thr:
                    yield atoms + (ext,), stat, thr
                if rho_next is None:
                    continue
                if bound > lam[0] * rho_next:
                    children.append((atoms + (ext,), ext, col, bound))
                else:
                    pruned += 1
            if len(children) > 1:
                stack.append(children)
    return explored, pruned


def reference_screen(A, weights, schedule, cfg):
    """(emitted, explored, pruned) of the reference walk at the schedule's
    base; emitted holds (sorted atoms, stat, threshold) sorted by atoms."""
    walk = reference_walk(A, weights, schedule, cfg, [schedule.base_lambda])
    emitted = []
    while True:
        try:
            atoms, stat, thr = next(walk)
        except StopIteration as stop:
            explored, pruned = stop.value
            break
        emitted.append((tuple(sorted(atoms)), stat, thr))
    return sorted(emitted), explored, pruned


def reference_critical_lambda(A, weights, schedule, cfg):
    """Largest stat / rho over the lattice by the reference walk, stepped up
    where the quotient rounds down, as ``critical_lambda`` defines it."""
    cfg = replace(cfg, child_parent_prune=0.0)
    lam = [0.0]
    for atoms, stat, _ in reference_walk(A, weights, schedule, cfg, lam):
        rho = schedule.rho(len(atoms))
        level = stat / rho
        while stat > level * rho:
            level = math.nextafter(level, math.inf)
        lam[0] = level
    return lam[0]


# ----------------------------------------------------------------- fista ---

def _fista(prox, grad, L, x0, max_iter, rel_stop=1e-14, objective=None):
    """Accelerated proximal gradient with function-value restart."""
    x = x0.copy()
    z = x0.copy()
    t = 1.0
    best = np.inf
    stall = 0
    for it in range(max_iter):
        x_new = prox(z - grad(z) / L, 1.0 / L)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        if objective is not None and it % 25 == 0:
            v = objective(x_new)
            if v > best:  # restart momentum on increase
                z = x_new.copy()
                t_new = 1.0
            if best - v < rel_stop * (1.0 + abs(best)):
                stall += 1
                if stall >= 4:
                    x = x_new
                    break
            else:
                stall = 0
            best = min(best, v)
        x, t = x_new, t_new
    return x


def solve_basket_primal(P, tau, lam_vec, gamma, max_iter=60000):
    """min 0.5||(tau - P b)_+||^2 + lam^T b + gamma/2 ||b||^2, b in [0, 1]^M.

    Smooth within the box (the l1 term is linear for b >= 0), solved by
    projected accelerated gradient.
    """
    n, M = P.shape
    L = np.linalg.norm(P, 2) ** 2 + gamma

    def obj(b):
        r = np.maximum(tau - P @ b, 0.0)
        return 0.5 * r @ r + lam_vec @ b + 0.5 * gamma * b @ b

    def grad(b):
        r = np.maximum(tau - P @ b, 0.0)
        return -P.T @ r + lam_vec + gamma * b

    def prox(v, _):
        return np.clip(v, 0.0, 1.0)

    # fold the linear term into the gradient; prox is the box projection
    b = _fista(lambda v, s: prox(v, s), grad, L, np.zeros(M), max_iter, objective=obj)
    return b, obj(b)


def solve_logistic_primal(P, y, lam_vec, tau, max_iter=60000):
    """min sum log(1 + e^s) - y s + lam^T |b| + tau/2 ||b||^2 by FISTA."""
    n, M = P.shape
    L = 0.25 * np.linalg.norm(P, 2) ** 2 + tau

    def obj(b):
        s = P @ b
        return float(np.sum(np.logaddexp(0.0, s) - y * s)
                     + lam_vec @ np.abs(b) + 0.5 * tau * b @ b)

    def smooth_grad(b):
        s = P @ b
        return P.T @ (1.0 / (1.0 + np.exp(-s)) - y) + tau * b

    def prox(v, step):
        return np.sign(v) * np.maximum(np.abs(v) - step * lam_vec, 0.0)

    b = _fista(prox, smooth_grad, L, np.zeros(M), max_iter, objective=obj)
    return b, obj(b)


def solve_group_primal(P, Y, lam_vec, eta, max_iter=60000):
    """min 0.5||Y - P W||_F^2 + sum lam_u ||W_u|| + eta/2 ||W||_F^2 by FISTA.

    This is the matrix objective with the nuclear weight at zero.
    """
    n, M = P.shape
    T = Y.shape[1]
    L = np.linalg.norm(P, 2) ** 2 + eta

    def obj(W):
        R = Y - P @ W
        return float(0.5 * np.sum(R * R) + lam_vec @ np.linalg.norm(W, axis=1)
                     + 0.5 * eta * np.sum(W * W))

    def smooth_grad(W):
        return -P.T @ (Y - P @ W) + eta * W

    def prox(V, step):
        norms = np.linalg.norm(V, axis=1)
        scale = np.zeros_like(norms)
        live = norms > step * lam_vec
        scale[live] = 1.0 - step * lam_vec[live] / norms[live]
        return scale[:, None] * V

    W = _fista(prox, smooth_grad, L, np.zeros((M, T)), max_iter, objective=obj)
    return W, obj(W)


def svt(X, rho):
    """Singular-value soft threshold: the prox of rho times the nuclear norm."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    return (U * np.maximum(s - rho, 0.0)) @ Vt


def solve_matrix_primal(P, Y, lam_vec, eta, rho, max_iter=60000):
    """min 0.5||Y - P W||_F^2 + rho ||P W||_* + sum lam_u ||W_u|| + eta/2 ||W||_F^2.

    The nuclear norm sits on P W, so W has no closed-form prox; FISTA runs
    on the Fenchel dual instead, with the nuclear norm's dual variable beta
    kept apart:

        min 0.5||Y - alpha - beta||^2 + sum (||P_u^T alpha|| - lam_u)_+^2 / (2 eta)
        over alpha and ||beta||_2 <= rho.

    The prox of the spectral-ball constraint is X - svt(X, rho), by Moreau's
    identity.  Returns (W, primal value, dual value): W is the group soft
    threshold of P^T alpha over eta, and the dual value, 0.5||Y||^2 minus
    the split objective, bounds the optimum from below.
    """
    L = 2.0 + np.linalg.norm(P, 2) ** 2 / eta

    def coefficients(alpha):
        V = P.T @ alpha
        norms = np.linalg.norm(V, axis=1)
        scale = np.zeros_like(norms)
        live = norms > lam_vec
        scale[live] = 1.0 - lam_vec[live] / norms[live]
        return scale[:, None] * V / eta

    def split_obj(x):
        R = Y - x[0] - x[1]
        shr = np.maximum(np.linalg.norm(P.T @ x[0], axis=1) - lam_vec, 0.0)
        return float(0.5 * np.sum(R * R) + 0.5 * (shr @ shr) / eta)

    def grad(x):
        R = Y - x[0] - x[1]
        return np.stack([P @ coefficients(x[0]) - R, -R])

    def prox(x, _):
        return np.stack([x[0], x[1] - svt(x[1], rho)])

    x = _fista(prox, grad, L, np.zeros((2,) + Y.shape), max_iter, objective=split_obj)
    W = coefficients(x[0])
    primal = matrix_objective(P, Y, lam_vec, eta, rho, W)
    return W, primal, float(0.5 * np.sum(Y * Y)) - split_obj(x)


def basket_objective(P, tau, lam_vec, gamma, b):
    r = np.maximum(tau - P @ b, 0.0)
    return float(0.5 * r @ r + lam_vec @ b + 0.5 * gamma * b @ b)


def logistic_objective(P, y, lam_vec, tau, b):
    s = P @ b
    return float(np.sum(np.logaddexp(0.0, s) - y * s)
                 + lam_vec @ np.abs(b) + 0.5 * tau * b @ b)


def matrix_objective(P, Y, lam_vec, eta, rho, W):
    R = Y - P @ W
    nuc = np.linalg.svd(P @ W, compute_uv=False).sum() if W.size else 0.0
    return float(0.5 * np.sum(R * R) + rho * nuc
                 + lam_vec @ np.linalg.norm(W, axis=1) + 0.5 * eta * np.sum(W * W))


def embed_model(model, subsets, T=None):
    """Coefficients of a fitted model written over the materialized columns."""
    index = {tuple(s): i for i, s in enumerate(subsets)}
    if T is None:
        full = np.zeros(len(subsets))
    else:
        full = np.zeros((len(subsets), T))
    for fs, coef in zip(model.active, model.coefficients):
        full[index[fs.atoms]] = coef
    return full
