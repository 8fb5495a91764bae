"""Independent brute-force oracles used across the test suite.

Most of what is here works on the fully materialized interaction matrix
(all 2^d - 1 product columns), so it is only usable at toy scale, which is
the point: results from the implicit-lattice solver must match these
within tight tolerances.  The rest are references the library keeps no
second copy of:

* column_dot, split_dots and closure_bound: one column's dots with a dual
  and its superset bound, node by node (a column here is n floats),
  against which the lattice walk's batched bound is checked (the
  reference walk is built on them);
* running_dots and running_stat: a column's dots summed row by row over
  all n rows, which the walk's statistics on binary data must equal bit
  for bit, though the walk sums each half of the dual over fewer rows;
* reference_walk, the lattice walk one node at a time, which the
  library's batched walk must match node for node;
* jaccard, and dedup_kept, the greedy pass scored pair by pair (jaccard
  for binary data, the library's cosine for dense data), which
  ``dedup_atoms`` and its similarity matrix must match;
* hessian_matvec, a reduced dual's curvature operator, D + F_B F_B^T / c
  from the logistic dual's ``_curvature``, which its direct Newton solve
  reads, and from the basket dual's band, which the library no longer
  keeps (the matrix dual's own operator for the matrix dual), and
  dense_hessian, that operator written out as a dense matrix, which the
  direct Newton solve is checked against.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.optimize import minimize

from prodscreen.data import cosine


def hessian_matvec(red, alpha):
    """v -> (D + F_B F_B^T / c) v, the negative Hessian at alpha: for the
    basket dual D = I, c = gamma and F_B the columns with
    0 < c^T alpha - thr < gamma, and for the logistic dual from
    ``red._curvature``; the matrix dual, whose curvature is not a diagonal
    plus low rank, uses its own ``hessian_matvec``."""
    if hasattr(red, "hessian_matvec"):
        return red.hessian_matvec(alpha)
    if red.obj.kind == "basket":
        z = red.dots(alpha) - red.thr
        diag, live, c = 1.0, (z > 0.0) & (z < red.gamma), red.gamma
    else:
        diag, live, c = red._curvature(alpha)
    FB = red.F[:, live]

    def hv(v):
        return diag * v + FB @ (FB.T @ v) / c

    return hv


def dense_hessian(red, alpha):
    """hessian_matvec(red, alpha) as a dense matrix over alpha's flattened
    entries, one matvec per column."""
    hv = hessian_matvec(red, alpha)
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


# ------------------------------------------------------- column by column ---

def column_dot(c, w):
    """c^T w for a weight vector of the column's length; for an (n, T)
    matrix the length-T vector of dots, each a running sum in row order.
    Rows must agree."""
    if w.shape[0] != len(c):
        raise ValueError(f"weight has {w.shape[0]} rows, column has {len(c)}")
    if w.ndim == 1:
        return float(c @ w)
    return (c[:, None] * w).sum(axis=0)


def split(alpha):
    """(pos, neg), the halves of a dual as the walk splits it:
    max(alpha, 0) and max(-alpha, 0)."""
    alpha = np.asarray(alpha, dtype=float)
    return np.maximum(alpha, 0.0), np.maximum(-alpha, 0.0)


def split_dots(col, alpha):
    """(c^T pos, c^T neg) of a dual; length-T vectors for an (n, T) dual."""
    pos, neg = split(alpha)
    return column_dot(col, pos), column_dot(col, neg)


def running_dots(col, alpha):
    """(c^T pos, c^T neg) of a dual as running sums in row order over all n
    rows, each a length-T vector (T = 1 for a vector dual)."""
    c = col[:, None]
    n = len(col)
    pos, neg = split(alpha)
    return (np.cumsum(c * pos.reshape(n, -1), axis=0)[-1],
            np.cumsum(c * neg.reshape(n, -1), axis=0)[-1])


def running_stat(col, alpha):
    """A column's statistic from its running_dots: the norm of pos - neg for
    an (n, T) dual, one BLAS dot as the walk takes it, else |pos - neg|."""
    p, m = running_dots(col, alpha)
    diff = p - m
    if np.ndim(alpha) == 2:
        return math.sqrt(float(diff @ diff))
    return abs(float(diff[0]))


def closure_bound(col, alpha):
    """Upper bound on the statistic of every superset of the column's atom set."""
    return _node_stat_bound(col, alpha)[1]


def jaccard(a, b):
    """Intersection over union of two 0/1 columns; 1.0 when both empty."""
    if not np.all((a == 0.0) | (a == 1.0)) or not np.all((b == 0.0) | (b == 1.0)):
        raise ValueError("jaccard is defined for binary columns only")
    na, nb = int(a.sum()), int(b.sum())
    if na == 0 and nb == 0:
        return 1.0
    inter = int((a * b).sum())
    return inter / (na + nb - inter)


def dedup_kept(A, sim):
    """The atoms a pairwise greedy pass keeps: a column goes when its
    jaccard (binary data) or cosine (dense data) with a kept column is at
    least sim."""
    X = A.atom_matrix().astype(float)
    kept = []
    for j in range(A.n_cols):
        for i in kept:
            s = jaccard(X[:, i], X[:, j]) if A.is_binary else cosine(X[:, i], X[:, j])
            if s >= sim:
                break
        else:
            kept.append(j)
    return kept


# ------------------------------------------------------- reference walk ---

def _node_stat_bound(col, alpha):
    """Statistic and superset bound of one column, as floats.  The mode
    follows from the dual: row norms for an (n, T) dual, c^T a for a
    vector dual without negative entries, |c^T a| otherwise."""
    p, m = split_dots(col, alpha)
    if np.ndim(alpha) == 2:
        diff = p - m
        hi = np.maximum(p, m)
        return math.sqrt(float(diff @ diff)), math.sqrt(float(hi @ hi))
    p, m = float(p), float(m)
    if not np.any(np.asarray(alpha) < 0):
        return p - m, p - m
    return abs(p - m), max(p, m)


def reference_walk(A, alpha, schedule, cfg, lam):
    """The lattice walk one node at a time: a dense column and two dots per node.

    A generator of ``(atoms, stat, threshold)`` in join order, like the
    library's batched walk, with the same pruning rules; it returns
    ``(explored, pruned)``.  ``lam`` is a one-element list the caller may
    raise between yields.
    """
    explored = pruned = 0
    X = A.atom_matrix().astype(float)
    seeds = []
    for j in range(A.n_cols):
        col = X[:, j]
        stat, bound = _node_stat_bound(col, alpha)
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
            for _, ext, _, _ in cls[k + 1:]:
                col = pcol * X[:, ext]
                explored += 1
                stat, bound = _node_stat_bound(col, alpha)
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


def reference_screen(A, alpha, schedule, cfg):
    """(emitted, explored, pruned) of the reference walk at the schedule's
    base; emitted holds (sorted atoms, stat, threshold) sorted by atoms."""
    walk = reference_walk(A, alpha, schedule, cfg, [schedule.base_lambda])
    emitted = []
    while True:
        try:
            atoms, stat, thr = next(walk)
        except StopIteration as stop:
            explored, pruned = stop.value
            break
        emitted.append((tuple(sorted(atoms)), stat, thr))
    return sorted(emitted), explored, pruned


def reference_critical_lambda(A, alpha, schedule, cfg):
    """Largest stat / rho over the lattice by the reference walk, stepped up
    where the quotient rounds down, as ``critical_lambda`` defines it."""
    lam = [0.0]
    for atoms, stat, _ in reference_walk(A, alpha, schedule, cfg, lam):
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


def solve_basket_primal(P, tau, lam_vec, gamma, max_iter=60000, hinge=True):
    """min 0.5||(tau - P b)_+||^2 + lam^T b + gamma/2 ||b||^2, b in [0, 1]^M
    (with the loss unhinged, 0.5||tau - P b||^2, when ``hinge`` is false).

    Smooth within the box (the l1 term is linear for b >= 0), solved by
    projected accelerated gradient and then by L-BFGS-B from its end point:
    FISTA's stop on slow progress can leave it 1e-5 relative short on
    instances that are flat along directions curved only by a small gamma.
    """
    n, M = P.shape
    L = np.linalg.norm(P, 2) ** 2 + gamma

    def residual(b):
        r = tau - P @ b
        return np.maximum(r, 0.0) if hinge else r

    def obj(b):
        r = residual(b)
        return 0.5 * r @ r + lam_vec @ b + 0.5 * gamma * b @ b

    def grad(b):
        return -P.T @ residual(b) + lam_vec + gamma * b

    def prox(v, _):
        return np.clip(v, 0.0, 1.0)

    # fold the linear term into the gradient; prox is the box projection
    b = _fista(lambda v, s: prox(v, s), grad, L, np.zeros(M), max_iter, objective=obj)
    out = minimize(lambda v: (obj(v), grad(v)), b, jac=True, method="L-BFGS-B",
                   bounds=[(0.0, 1.0)] * M, options={"ftol": 0.0, "gtol": 1e-13,
                                                     "maxiter": 20000, "maxcor": 30})
    if out.fun < obj(b):
        b = np.clip(out.x, 0.0, 1.0)
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
