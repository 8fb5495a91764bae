"""Dual formulations of the three training objectives.

Each objective maximizes a concave dual D(alpha) whose gradient vanishes
exactly at the KKT pairing between dual variable and primal scores.  The
penalty contribution only ever involves the currently active interaction
columns: inactive columns are those the screen certifies to have inner
products inside the penalty dead zone, and they contribute nothing to value,
gradient, or curvature.  A reduced dual holds the active columns as one
n x m matrix F from ``interaction_matrix``, the routine that builds
``predict``'s and ``rank_report``'s columns too.  All three expose the
same surface to the solver:

    ascend                              the round's solve of the reduced problem,
    value / gradient                    on the reduced problem,
    project                             for the feasible set,
    primal_map / primal_value           to recover and score coefficients.

The logistic and matrix duals ascend by damped Newton, each along its own
``newton_direction`` and ``step_along`` it; the logistic step keeps its
iterates strictly inside its box.  The basket solves its reduced primal on
[0, 1]^m instead and hands back the dual point of its last iterate.

Each reduced dual writes its conjugate pair once: ``value`` holds the
conjugates of loss and penalty, and ``primal_map`` the coefficient map that
is the penalty conjugate's gradient (a clip for the covering objective, a
soft threshold for the logistic one, a row-wise group shrink for the
matrix one).  Dual values keep their additive constants, so value equals
the primal optimum at the optimum and duality gaps are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import AtomicMatrix, interaction_matrix
from .screening import PenaltySchedule, ScreenConfig
from .solver import _LS_MAX, _LS_SHRINK, ROUND_GUARD, _inner_ascent, backtrack, qn_step

__all__ = [
    "BasketSpec",
    "LogisticSpec",
    "MatrixSpec",
    "DualObjective",
    "ReducedDual",
    "basket_dual",
    "logistic_dual",
    "matrix_dual",
    "rank_report",
]

_EPS = 1e-12
# share of its distance to a face of the logistic box that one step may cover
_TO_FACE = 0.9
# the basket primal's projected Newton: Armijo's share of the predicted
# decrease, and the widest band along a face of the box that binds
_ARMIJO = 1e-4
_BIND_MAX = 1e-3
# relative cutoff of both rank_report counts
_RANK_TOL = 1e-8


def _xlogx(s):
    """s log s elementwise for s in [0, 1], with 0 log 0 = 0 and no warning."""
    return s * np.log(np.where(s > 0.0, s, 1.0))


@dataclass(frozen=True)
class BasketSpec:
    """Covering objective: 0.5 * ||(tau - scores)_+||^2 plus weighted l1 and
    a small ridge, with coefficients boxed to [0, 1]."""

    tau_target: float = 10.0
    penalty: PenaltySchedule = field(default_factory=lambda: PenaltySchedule.flat(1.0))
    gamma: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.tau_target < np.inf:
            raise ValueError("tau_target must be positive and finite")
        if not 0.0 < self.gamma < np.inf:
            raise ValueError("gamma must be positive and finite")


@dataclass(frozen=True)
class LogisticSpec:
    """Logistic loss with weighted l1 and l2 penalties; labels in {0, 1}."""

    labels: np.ndarray
    penalty: PenaltySchedule = field(default_factory=lambda: PenaltySchedule.flat(1.0))
    tau_l2: float = 1.0

    def __post_init__(self):
        y = np.asarray(self.labels, dtype=float)
        if y.ndim != 1 or not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be a flat 0/1 vector")
        object.__setattr__(self, "labels", y)
        if not 0.0 < self.tau_l2 < np.inf:
            raise ValueError("tau_l2 must be positive and finite")


@dataclass(frozen=True)
class MatrixSpec:
    """Multi-response least squares with a nuclear-norm penalty on the
    prediction matrix, row-wise group l2 on coefficients, and ridge."""

    responses: np.ndarray
    rho_nuclear: float = 0.0
    penalty: PenaltySchedule = field(
        default_factory=lambda: PenaltySchedule.supergeometric(1.0, 1.5, 1.5))
    eta_l2: float = 1e-3
    fit_intercept: bool = True

    def __post_init__(self):
        Y = np.asarray(self.responses, dtype=float)
        if Y.ndim != 2 or Y.shape[1] == 0:
            raise ValueError("responses must be an (n, T) matrix with T >= 1")
        object.__setattr__(self, "responses", Y)
        if not 0.0 <= self.rho_nuclear < np.inf:
            raise ValueError("rho_nuclear must be non-negative and finite")
        if not 0.0 < self.eta_l2 < np.inf:
            raise ValueError("eta_l2 must be positive and finite")


def _gram_singulars(R: np.ndarray):
    """Singular values and right singular vectors of R via the T x T Gram."""
    G = R.T @ R
    evals, Q = np.linalg.eigh(G)
    sig = np.sqrt(np.clip(evals, 0.0, None))
    return sig, Q


def _sv_excess(R: np.ndarray, rho: float) -> np.ndarray:
    """Sum over singular triples of (sigma - rho)_+ u q^T, computed without
    forming the left factors: R Q diag((sigma - rho)_+/sigma) Q^T.  At
    rho = 0 this reproduces R itself."""
    sig, Q = _gram_singulars(R)
    f = np.zeros_like(sig)
    live = sig > rho
    f[live] = (sig[live] - rho) / sig[live]
    return ((R @ Q) * f) @ Q.T


def _sv_excess_jacobian(R: np.ndarray, rho: float):
    """Generalized Jacobian of R -> sum (sigma - rho)_+ u q^T at R, as a
    matvec H -> J[H], from one thin SVD R = U diag(sigma) Q^T.

    With f(s) = (s - rho)_+ and A = U^T H Q, the U-block of J[H] takes the
    divided differences (f_i - f_j)/(s_i - s_j) on the symmetric part of A
    and (f_i + f_j)/(s_i + s_j) on the skew part, and the part of H outside
    the span of U is scaled by f(s)/s.  A wide R (n < T) is handled through
    its transpose, where that outside part lies in the column space.
    Pairs are resolved by which side of rho they sit on, so ties and zero
    singular values never divide: both above rho gives 1 on the symmetric
    part, both at or below gives 0 everywhere, and a straddling pair gives
    (s_i - rho)/(s_i - s_j) with s_i > rho >= s_j.  At sigma = rho the
    element with derivative 0 is taken.  Every coefficient lies in [0, 1],
    so J is symmetric PSD and bounded by the identity, which it equals at
    rho = 0."""
    if rho == 0.0:
        return lambda H: H
    if R.shape[0] < R.shape[1]:
        jt = _sv_excess_jacobian(R.T, rho)
        return lambda H: jt(H.T).T
    U, sig, Qt = np.linalg.svd(R, full_matrices=False)
    live = sig > rho
    f = np.where(live, sig - rho, 0.0)
    scale = f / np.where(live, sig, 1.0)
    li, lj = live[:, None], live[None, :]
    cross = li & ~lj
    gaps = np.where(cross, sig[:, None] - sig[None, :], 1.0)
    straddle = np.where(cross, f[:, None] / gaps, 0.0)
    sym = np.where(li & lj, 1.0, straddle + straddle.T)
    either = li | lj
    skew = np.where(either, (f[:, None] + f[None, :])
                    / np.where(either, sig[:, None] + sig[None, :], 1.0), 0.0)
    # J[H] = (U (C_A * A + C_At * A^T) + H Q diag(scale)) Q^T: the U-block
    # coefficients, less the scale that H Q diag(scale) adds back inside U
    C_A = 0.5 * (sym + skew) - scale[None, :]
    C_At = 0.5 * (sym - skew)

    def jv(H):
        HQ = H @ Qt.T
        A = U.T @ HQ
        return (U @ (C_A * A + C_At * A.T) + HQ * scale) @ Qt

    return jv


class ReducedDual:
    """Dual problem restricted to a list of active emissions.  Their
    columns F come from ``interaction_matrix``, as ``predict``'s do."""

    def __init__(self, obj, active):
        self.obj = obj
        self.active = list(active)
        self.F = interaction_matrix(obj.A, [e.feature_set for e in self.active])
        self.thr = np.array([e.threshold for e in self.active], dtype=float)

    def dots(self, alpha):
        return self.F.T @ alpha

    def ascend(self, alpha, h: float, cfg, tol: float):
        """(point, value, next h, steps, stop) of the round's solve from
        alpha: here the damped Newton ascent ``_inner_ascent``."""
        return _inner_ascent(self, alpha, h, cfg, tol)

    def step_along(self, alpha, value: float, direction, h: float):
        """(point, value, next h) of an ascent step along direction from
        alpha, or None when none is found: here, by backtracking."""
        return backtrack(self, alpha, value, direction, h)

    def project(self, alpha):
        return self.obj.project(alpha)

    def free_mask(self, alpha, grad):
        """The coordinates a step may move: all of them here."""
        return np.ones_like(alpha, dtype=bool)

    def feature_sets(self):
        return tuple(e.feature_set for e in self.active)


class DualObjective:
    """Problem-level surface: feasible set, screening weights, reduction."""

    kind = ""

    def __init__(self, A: AtomicMatrix):
        self.A = A

    def screen_config(self, base: ScreenConfig | None = None) -> ScreenConfig:
        return base or ScreenConfig()

    def screen_weights(self, alpha):
        """The dual the screen reads: alpha itself."""
        return alpha

    def project(self, alpha):
        return alpha

    def alpha0(self):
        raise NotImplementedError

    def reduced(self, active) -> ReducedDual:
        raise NotImplementedError


# ---------------------------------------------------------------- basket ---

class _BasketReduced(ReducedDual):
    def __init__(self, obj, active):
        super().__init__(obj, active)
        self.tau = obj.spec.tau_target
        self.gamma = obj.spec.gamma
        self._scale = np.einsum("ij,ij->j", self.F, self.F) + self.gamma  # P's diagonal bound

    def _excess(self, z):
        """Penalty contribution per active column: the conjugate of the
        clip map ``_slope_weights``, piecewise quadratic then linear in
        z = c^T a - lam."""
        g = self.gamma
        return np.where(z <= 0.0, 0.0,
                        np.where(z >= g, z - 0.5 * g, 0.5 * z * z / g))

    def value(self, alpha) -> float:
        z = self.dots(alpha) - self.thr
        return float(self.tau * alpha.sum() - 0.5 * alpha @ alpha - self._excess(z).sum())

    def primal_map(self, alpha):
        return self._slope_weights(self.dots(alpha) - self.thr)

    def gradient(self, alpha):
        return self.tau - alpha - self.F @ self.primal_map(alpha)

    def ascend(self, alpha, h: float, cfg, tol: float):
        """Solve the reduced primal instead, by projected Newton from
        beta = primal_map(alpha): minimize over the box [0, 1]^m
        P(beta) = 0.5 ||(tau - F beta)_+||^2 + thr^T beta + gamma/2 ||beta||^2,
        the loss unhinged without ``enforce_nonneg``.  Returns the dual
        point alpha(beta) = project(tau - F beta) and the dual ascent's stop
        reasons: ``tol`` when the dual's projected gradient there is at most
        tol, ``stalled`` when no projected step lowers P, or ``max_inner``.
        The damping h is not used."""
        beta = self.primal_map(alpha)
        r, alpha, z, gn = self._dual_point(beta)
        steps, stop = 0, "max_inner"
        for _ in range(cfg.max_inner):
            if gn <= tol:
                stop = "tol"
                break
            nxt = self._projected_newton(beta, r, alpha, z)
            if nxt is None:
                stop = "stalled"
                break
            beta = nxt
            steps += 1
            r, alpha, z, gn = self._dual_point(beta)
        return alpha, self.value(alpha), h, steps, stop

    def _dual_point(self, beta):
        """(r = tau - F beta, alpha = project(r), z = F^T alpha - thr, the
        norm of the dual's gradient at alpha on its free coordinates)."""
        r = self.tau - self.F @ beta
        alpha = self.project(r)
        z = self.dots(alpha) - self.thr
        grad = self.tau - alpha - self.F @ self._slope_weights(z)
        g = np.where(self.free_mask(alpha, grad), grad, 0.0)
        return r, alpha, z, float(np.sqrt(g @ g))

    def _projected_newton(self, beta, r, alpha, z):
        """Bertsekas's projected Newton step from beta, or None when no step
        is known to lower P.  With P's gradient g = gamma beta - z, the
        coordinates within eps of a face that g pushes them against bind
        and take a gradient step scaled by ||F_j||^2 + gamma (eps is that
        step's projected length, at most ``_BIND_MAX``); the rest take the
        Newton step of F_R^T F_R + gamma I over the rows R where the hinge
        is live.  The step halves until Armijo's condition holds along the
        arc clip(beta + t d, 0, 1), where P's change is the exact
        g^T s + gamma/2 ||s||^2 + (the loss's curvature along F s).  The
        arc's slope at t = 0+ must be negative beyond ``ROUND_GUARD`` times
        the magnitudes of its terms."""
        g = self.gamma * beta - z
        # each nonzero alpha_i = tau - (F beta)_i carries the rounding of
        # tau + (F beta)_i into g = gamma beta + thr - F^T alpha
        sizes = np.where(alpha != 0.0, 2.0 * self.tau - r, 0.0)
        mag = self.gamma * beta + self.thr + self.dots(sizes)
        d = -g / self._scale
        eps = min(_BIND_MAX, float(np.linalg.norm(beta - np.clip(beta + d, 0.0, 1.0))))
        free = ~(((beta <= eps) & (g > 0.0)) | ((beta >= 1.0 - eps) & (g < 0.0)))
        if free.any():
            rows = r > 0.0 if self.obj.enforce_nonneg else np.ones(r.size, dtype=bool)
            d[free] = -self._newton_solve(self.F[np.ix_(rows, free)], g[free])
        # as t -> 0+, coordinates on a face that d pushes out of the box stay put
        start = np.where(((beta <= 0.0) & (d < 0.0)) | ((beta >= 1.0) & (d > 0.0)), 0.0, d)
        if not g @ start < -ROUND_GUARD * (np.abs(start) @ mag):
            return None
        t = 1.0
        for _ in range(_LS_MAX):
            nxt = np.clip(beta + t * d, 0.0, 1.0)
            s = nxt - beta
            slope = float(g @ s)
            rise = 0.5 * self.gamma * float(s @ s) + self._loss_curvature(r, self.F @ s)
            if slope < 0.0 and (1.0 - _ARMIJO) * slope + rise <= 0.0:
                return nxt
            t *= _LS_SHRINK
        return None

    def _newton_solve(self, G, v):
        """(G^T G + gamma I)^-1 v over the smaller side of G: its columns, or
        by Woodbury its rows when the columns outnumber them."""
        k, f = G.shape
        if f <= k:
            return np.linalg.solve(G.T @ G + self.gamma * np.eye(f), v)
        S = G @ G.T + self.gamma * np.eye(k)
        return (v - G.T @ np.linalg.solve(S, G @ v)) / self.gamma

    def _loss_curvature(self, r, u):
        """The loss's change from residual r to r - u less its first-order
        part -alpha^T u: 0.5 u_i^2 where the row stays live, written out
        where the hinge turns on or off (there |r_i| <= |u_i|)."""
        if not self.obj.enforce_nonneg:
            return 0.5 * float(u @ u)
        a, b = np.maximum(r, 0.0), np.maximum(r - u, 0.0)
        return float(np.where(a > 0.0, np.where(b > 0.0, 0.5 * u * u, a * (u - 0.5 * a)),
                              0.5 * b * b).sum())

    def _slope_weights(self, z):
        """e'(z) = clip(z / gamma, 0, 1), the derivative of the penalty
        ``_excess`` and the coefficient of a column at z = c^T a - lam."""
        return np.clip(z / self.gamma, 0.0, 1.0)

    def free_mask(self, alpha, grad):
        if not self.obj.enforce_nonneg:
            return np.ones_like(alpha, dtype=bool)
        return (alpha > 0.0) | (grad > 0.0)

    def primal_value(self, beta) -> float:
        r = self.tau - self.F @ beta
        loss = 0.5 * float(np.sum(np.maximum(r, 0.0) ** 2))
        return loss + float(self.thr @ beta) + 0.5 * self.gamma * float(beta @ beta)


class BasketDual(DualObjective):
    """Dual of the covering objective.  The loss conjugate confines the dual
    to alpha >= 0 unless ``enforce_nonneg`` is switched off, in which case
    the solver roams freely and non-negativity emerges at the optimum."""

    kind = "basket"

    def __init__(self, spec: BasketSpec, A: AtomicMatrix, enforce_nonneg: bool = True):
        super().__init__(A)
        self.spec = spec
        self.enforce_nonneg = enforce_nonneg

    def alpha0(self):
        return np.full(self.A.n_rows, self.spec.tau_target)

    def project(self, alpha):
        return np.maximum(alpha, 0.0) if self.enforce_nonneg else alpha

    def reduced(self, active):
        return _BasketReduced(self, active)


def basket_dual(spec: BasketSpec, A: AtomicMatrix, enforce_nonneg: bool = True) -> BasketDual:
    return BasketDual(spec, A, enforce_nonneg=enforce_nonneg)


# -------------------------------------------------------------- logistic ---

class _LogisticReduced(ReducedDual):
    def __init__(self, obj, active):
        super().__init__(obj, active)
        self.y = obj.spec.labels
        self.tau = obj.spec.tau_l2

    def value(self, alpha) -> float:
        """Binary entropy of s = y - alpha, the negated conjugate of the
        logistic loss, less the l1 + l2 conjugate of the active columns."""
        s = np.clip(self.y - alpha, 0.0, 1.0)
        shr = np.maximum(np.abs(self.dots(alpha)) - self.thr, 0.0)
        return float(-(_xlogx(s) + _xlogx(1.0 - s)).sum() - 0.5 * (shr @ shr) / self.tau)

    def primal_map(self, alpha):
        """Soft threshold of c^T a at lam, over tau."""
        z = self.dots(alpha)
        return np.sign(z) * np.maximum(np.abs(z) - self.thr, 0.0) / self.tau

    def gradient(self, alpha):
        s = np.clip(self.y - alpha, _EPS, 1.0 - _EPS)
        return np.log(s / (1.0 - s)) - self.F @ self.primal_map(alpha)

    def _curvature(self, alpha):
        """(D, live, c) with negative Hessian D + F_B F_B^T / c."""
        s = np.clip(self.y - alpha, _EPS, 1.0 - _EPS)
        return 1.0 / s + 1.0 / (1.0 - s), np.abs(self.dots(alpha)) > self.thr, self.tau

    def newton_direction(self, alpha, grad, mask, h: float):
        """Solution x of (H + h I) x = grad on the free coordinates (mask),
        with x = 0 on the others; the masked gradient when x is not finite
        or not an ascent direction.

        By Woodbury, with E = D + h, w = mask / E and G = sqrt(w) F_B,
        x = w g - sqrt(w) G S^-1 G^T (sqrt(w) g) where S = c I + G^T G is
        m x m for m live columns.  S >= c I, so its solve stays well
        conditioned however large D grows near the faces of the box, which
        the capped step approaches but never reaches.
        (An LU solve: at m of a few hundred it is not where the time goes.)
        """
        diag, live, c = self._curvature(alpha)
        g = np.where(mask, grad, 0.0)
        w = np.where(mask, 1.0 / (diag + h), 0.0)
        x = w * g
        if live.any():
            sw = np.sqrt(w)
            G = self.F[:, live]
            G *= sw[:, None]
            S = G.T @ G
            S[np.diag_indices_from(S)] += c
            x -= sw * (G @ np.linalg.solve(S, G.T @ (sw * g)))
        if not np.all(np.isfinite(x)) or float(np.vdot(x, g)) <= 0.0:
            return g
        return x

    def step_along(self, alpha, value: float, direction, h: float):
        """Backtrack from the longest step t <= 1 that leaves every
        s = y - alpha at least a tenth of its distance to 0 and to 1 (the
        fraction-to-the-boundary rule of interior-point methods).  From a
        point inside the box every iterate stays strictly inside, where the
        curvature 1/s stays finite, so no coordinate is ever pinned."""
        s = self.y - alpha
        up, down = direction > 0.0, direction < 0.0  # s falls, s rises
        room = np.concatenate((s[up] / direction[up], (s[down] - 1.0) / direction[down]))
        t = min(1.0, _TO_FACE * room.min(initial=np.inf))
        return backtrack(self, alpha, value, t * direction, h)

    def primal_value(self, beta) -> float:
        scores = self.F @ beta
        loss = float(np.sum(np.logaddexp(0.0, scores) - self.y * scores))
        return loss + float(self.thr @ np.abs(beta)) + 0.5 * self.tau * float(beta @ beta)


class LogisticDual(DualObjective):
    """Dual of the logistic objective.  The dual variable is the residual
    y - sigmoid(scores), feasible on the box [y - 1, y]."""

    kind = "logistic"

    def __init__(self, spec: LogisticSpec, A: AtomicMatrix):
        super().__init__(A)
        if spec.labels.shape[0] != A.n_rows:
            raise ValueError("labels and matrix disagree on row count")
        self.spec = spec

    def alpha0(self):
        return self.spec.labels - 0.5

    def project(self, alpha):
        return np.clip(alpha, self.spec.labels - 1.0, self.spec.labels)

    def reduced(self, active):
        return _LogisticReduced(self, active)


def logistic_dual(spec: LogisticSpec, A: AtomicMatrix) -> LogisticDual:
    return LogisticDual(spec, A)


# ---------------------------------------------------------------- matrix ---

class _MatrixReduced(ReducedDual):
    def __init__(self, obj, active):
        super().__init__(obj, active)
        self.Yc = obj.Yc
        self.rho = obj.spec.rho_nuclear
        self.eta = obj.spec.eta_l2
        self._half_y2 = 0.5 * float(np.sum(self.Yc * self.Yc))

    def value(self, alpha) -> float:
        sig, _ = _gram_singulars(self.Yc - alpha)
        clipped = np.maximum(sig - self.rho, 0.0)
        Z = self.dots(alpha)
        shr = np.maximum(np.linalg.norm(Z, axis=1) - self.thr, 0.0)
        return float(self._half_y2 - 0.5 * clipped @ clipped - 0.5 * (shr @ shr) / self.eta)

    def primal_map(self, alpha):
        """Row-wise group shrink (1 - lam/|z|)_+ z / eta of Z = F^T alpha:
        rows with norm at most lam vanish."""
        Z = self.dots(alpha)
        norms = np.linalg.norm(Z, axis=1)
        live = norms > self.thr
        scale = np.zeros_like(norms)
        scale[live] = (norms[live] - self.thr[live]) / norms[live]
        return scale[:, None] * Z / self.eta

    def gradient(self, alpha):
        return _sv_excess(self.Yc - alpha, self.rho) - self.F @ self.primal_map(alpha)

    def hessian_matvec(self, alpha):
        """Negative Hessian: the singular-value soft-threshold Jacobian at
        Yc - alpha plus F J_g F^T / eta, where J_g is the Jacobian of the
        row-wise group soft threshold, (1 - thr/|z|) I + thr z z^T/|z|^3
        on rows with |z| > thr."""
        spectral = _sv_excess_jacobian(self.Yc - alpha, self.rho)
        Z = self.dots(alpha)
        norms = np.linalg.norm(Z, axis=1)
        on = norms > self.thr
        FB = self.F[:, on]
        dirs = Z[on] / norms[on, None]
        coef = self.thr[on] / norms[on]
        eta = self.eta

        def hv(v):
            G = FB.T @ v
            G = (1.0 - coef)[:, None] * G + (coef * np.sum(dirs * G, axis=1))[:, None] * dirs
            return spectral(v) + FB @ G / eta

        return hv

    def newton_direction(self, alpha, grad, mask, h: float):
        """CG on the curvature operator: the spectral Jacobian is not a
        diagonal plus low rank, so there is no direct solve.  The matrix
        dual is unconstrained, so ``mask`` is all true."""
        return qn_step(grad, self.hessian_matvec(alpha), h)

    def primal_value(self, W) -> float:
        P = self.F @ W
        sig = np.linalg.svd(P, compute_uv=False)
        r = self.Yc - P
        loss = 0.5 * float(np.sum(r * r)) + self.rho * float(sig.sum())
        group = float(self.thr @ np.linalg.norm(W, axis=1))
        return loss + group + 0.5 * self.eta * float(np.sum(W * W))


class MatrixDual(DualObjective):
    """Dual of the multi-response objective.  The dual variable is an (n, T)
    matrix; singular values of the residual above rho_nuclear drive the
    gradient through their singular vectors, so low-rank structure in the
    fitted prediction matrix falls out of the clipping."""

    kind = "matrix"

    def __init__(self, spec: MatrixSpec, A: AtomicMatrix):
        super().__init__(A)
        Y = spec.responses
        if Y.shape[0] != A.n_rows:
            raise ValueError("responses and matrix disagree on row count")
        self.spec = spec
        if spec.fit_intercept:
            self.intercept = Y.mean(axis=0)
            self.Yc = Y - self.intercept
        else:
            self.intercept = np.zeros(Y.shape[1])
            self.Yc = Y

    def alpha0(self):
        """Singular-value soft threshold of the centered responses: the dual
        optimum of the empty-model problem."""
        return _sv_excess(self.Yc, self.spec.rho_nuclear)

    def reduced(self, active):
        return _MatrixReduced(self, active)


def matrix_dual(spec: MatrixSpec, A: AtomicMatrix) -> MatrixDual:
    return MatrixDual(spec, A)


def rank_report(spec: MatrixSpec, A: AtomicMatrix, alpha: np.ndarray, model):
    """(numerical rank of the fitted prediction matrix, count of residual
    singular values above rho_nuclear).  The two coincide at an exact
    optimum, so the pair is a convergence diagnostic as well as a readout
    of how much rank the nuclear penalty retained.  Both counts leave out
    values within a relative ``_RANK_TOL`` of their edge, 0 or rho: the
    ascent ends a damped step short of a residual value converging on rho."""
    Y = spec.responses
    Yc = Y - Y.mean(axis=0) if spec.fit_intercept else Y
    W = np.reshape(model.coefficients, (model.n_active, Yc.shape[1]))
    P = interaction_matrix(A, model.active) @ W
    # singular values straight from the matrix: through the Gram P^T P an
    # exact zero comes back near sqrt(eps) * sigma_1, above the rank cutoff
    sig_p = np.linalg.svd(P, compute_uv=False)
    pred_rank = int(np.sum(sig_p > _RANK_TOL * sig_p.max(initial=0.0)))
    sig_r = np.linalg.svd(Yc - alpha, compute_uv=False)
    retained = int(np.sum(sig_r > spec.rho_nuclear * (1.0 + _RANK_TOL)))
    return pred_rank, retained
