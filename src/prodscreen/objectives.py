"""Dual formulations of the three training objectives.

Each objective maximizes a concave dual D(alpha) whose gradient vanishes
exactly at the KKT pairing between dual variable and primal scores.  The
penalty contribution only ever involves the currently active interaction
columns: inactive columns are those the screen certifies to have inner
products inside the penalty dead zone, and they contribute nothing to value,
gradient, or curvature.  All three expose the same surface to the solver:

    value / gradient / hessian_matvec   on the reduced problem,
    newton_direction                    its damped Newton direction,
    step_along                          and the step taken along it,
    project / free_mask                 for the feasible set,
    primal_map / primal_value           to recover and score coefficients.

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

from .data import AtomicMatrix, DualWeights, FeatureSet, interaction_column
from .screening import PenaltySchedule, ScreenConfig
from .solver import ROUND_GUARD, backtrack, qn_step

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
    columns, stacked into F, come from ``interaction_column``, as
    ``predict``'s do."""

    def __init__(self, obj, active):
        self.obj = obj
        self.active = list(active)
        n = obj.A.n_rows
        if self.active:
            self.F = np.column_stack(
                [interaction_column(obj.A, e.feature_set).dense() for e in self.active])
            self.thr = np.array([e.threshold for e in self.active])
        else:
            self.F = np.zeros((n, 0))
            self.thr = np.zeros(0)

    def dots(self, alpha):
        return self.F.T @ alpha

    def _curvature(self, alpha):
        """(D, live, c) with negative Hessian D + F_B F_B^T / c, where D is
        a diagonal (vector or scalar) and F_B the columns flagged live."""
        raise NotImplementedError

    def hessian_matvec(self, alpha):
        """v -> (D + F_B F_B^T / c) v, the negative Hessian at alpha."""
        diag, live, c = self._curvature(alpha)
        FB = self.F[:, live]

        def hv(v):
            return diag * v + FB @ (FB.T @ v) / c

        return hv

    def newton_direction(self, alpha, grad, mask, h: float):
        """Solution x of (H + h I) x = grad on the free coordinates (mask),
        with x = 0 on the others; the masked gradient when x is not finite
        or not an ascent direction.

        By Woodbury, with E = D + h, w = mask / E and G = sqrt(w) F_B,
        x = w g - sqrt(w) G S^-1 G^T (sqrt(w) g) where S = c I + G^T G is
        m x m for m live columns.  S >= c I, so its solve stays well
        conditioned however large D grows at the faces of the feasible box.
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
        """(point, value, next h) of an ascent step along direction from
        alpha, or None when none is found: here, by backtracking."""
        return backtrack(self, alpha, value, direction, h)

    def project(self, alpha):
        return self.obj.project(alpha)

    def feature_sets(self):
        return tuple(e.feature_set for e in self.active)


class DualObjective:
    """Problem-level surface: feasible set, screening weights, reduction."""

    kind = ""

    def __init__(self, A: AtomicMatrix):
        self.A = A

    def screen_config(self, base: ScreenConfig | None = None) -> ScreenConfig:
        return base or ScreenConfig()

    def screen_weights(self, alpha) -> DualWeights:
        return DualWeights.from_alpha(alpha)

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

    def _curvature(self, alpha):
        z = self.dots(alpha) - self.thr
        return 1.0, (z > 0.0) & (z < self.gamma), self.gamma

    def step_along(self, alpha, value: float, direction, h: float):
        """The first maximizer along the projected ray, accepted when its
        value is not below ``value`` by more than rounding.  Its ascent is
        certified by the slope at t = 0+, so a value that is flat to double
        precision still moves; h is left as it is."""
        t = self._ray_max(alpha, direction)
        if t is None or not np.isfinite(t):
            return None
        cand = self.project(alpha + t * direction)
        v = self.value(cand)
        if not v >= value - ROUND_GUARD * (1.0 + abs(value)):  # NaN fails too
            return None
        return cand, v, h

    def _ray_max(self, alpha, d):
        """First maximizer t > 0 of V(t) = value(project(alpha + t d)) for a
        feasible alpha (inf if V rises without end), or None when V'(0+) is
        not above its rounding error.

        Between the sorted breakpoints t_i = alpha_i / -d_i (d_i < 0, none
        without ``enforce_nonneg``) the point moves along p, d with the
        clipped coordinates zeroed, so V is quadratic there up to the
        penalty's kinks, and V'(t) = c - t p.p - b.e'(z(t)) with
        c = tau sum(p) - alpha.p, b = F^T p, z(t) = F^T alpha(t) - thr:
        decreasing on each segment.  The segments are scanned in blocks of
        doubling width; within a block, clipping coordinate i takes F_i d_i
        off b, and the slopes at all segment ends are checked at once.  The
        first segment that ends with V' <= 0 holds the answer.
        """
        tau = self.tau
        if self.obj.enforce_nonneg:
            d = np.where((alpha <= 0.0) & (d < 0.0), 0.0, d)  # clipped from t = 0
            cut = np.flatnonzero(d < 0.0)
            ts = alpha[cut] / -d[cut]
            order = np.argsort(ts, kind="stable")
            cut, ts = cut[order], ts[order]
        else:
            cut, ts = np.zeros(0, dtype=np.intp), np.zeros(0)
        start, k0, width = 0.0, 0, 16
        while True:
            # the state at the block's start, computed afresh
            p = d.copy()
            p[cut[:k0]] = 0.0
            b = self.F.T @ p
            z = self.dots(self.project(alpha + start * d)) - self.thr
            c = tau * p.sum() - alpha @ p
            pp = p @ p
            if k0 == 0:
                w = self._slope_weights(z)
                size = tau * np.abs(p).sum() + np.abs(alpha) @ np.abs(p) + np.abs(b) @ w
                if c - b @ w <= ROUND_GUARD * size:  # no slope above rounding
                    return None
            if k0 >= ts.size:
                return start + self._segment_root(c - start * pp, pp, b, z, np.inf)
            rows = cut[k0:k0 + width]
            ends = ts[k0:k0 + width]
            dr = d[rows]
            # each segment of the block, before the clip at its end
            P = self.F[rows] * dr[:, None]
            B = b - np.cumsum(P, axis=0) + P
            q = dr * (tau - alpha[rows])
            C = c - np.cumsum(q) + q
            PP = pp - np.cumsum(dr * dr) + dr * dr
            lengths = np.diff(ends, prepend=start)
            zend = z + np.cumsum(lengths[:, None] * B, axis=0)
            slope = C - ends * PP - np.sum(B * self._slope_weights(zend), axis=1)
            hit = np.flatnonzero((lengths > 0.0) & (slope <= 0.0))
            if hit.size:
                j = hit[0]
                s0, zs = (ends[j - 1], zend[j - 1]) if j else (start, z)
                return s0 + self._segment_root(C[j] - s0 * PP[j], PP[j], B[j], zs,
                                               lengths[j])
            start = ends[-1]
            k0 += width
            width *= 2

    def _slope_weights(self, z):
        """e'(z) = clip(z / gamma, 0, 1), the derivative of the penalty
        ``_excess`` and the coefficient of a column at z = c^T a - lam."""
        return np.clip(z / self.gamma, 0.0, 1.0)

    def _segment_root(self, a, pp, b, z, length):
        """First zero in [0, length] of f(s) = a - s pp - b.e'(z + s b),
        which is decreasing and piecewise linear, with kinks where some
        z_j + s b_j crosses 0 or gamma; length (which may be infinite) when
        f stays positive."""
        g = self.gamma
        on = b != 0.0
        kinks = np.concatenate((-z[on] / b[on], (g - z[on]) / b[on]))
        kinks = np.sort(kinks[(kinks > 0.0) & (kinks < length)])
        f = a - kinks * pp - b @ self._slope_weights(z[:, None] + b[:, None] * kinks)
        i = int(np.argmax(f <= 0.0)) if np.any(f <= 0.0) else kinks.size
        lo = kinks[i - 1] if i > 0 else 0.0
        hi = kinks[i] if i < kinks.size else length
        # on (lo, hi) every column is below, inside or above the band alike
        w = z + (lo + 0.5 * (hi - lo) if np.isfinite(hi) else 2.0 * lo + 1.0) * b
        live = (w > 0.0) & (w < g)
        rate = pp + b[live] @ b[live] / g
        top = a - b[w >= g].sum() - b[live] @ z[live] / g
        if rate <= 0.0:  # f is constant on (lo, hi)
            return lo if top <= 0.0 else hi
        return min(max(top / rate, lo), hi)

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
        s = np.clip(self.y - alpha, _EPS, 1.0 - _EPS)
        return 1.0 / s + 1.0 / (1.0 - s), np.abs(self.dots(alpha)) > self.thr, self.tau

    def free_mask(self, alpha, grad):
        lo = self.y - 1.0
        hi = self.y
        pinned_lo = (alpha <= lo) & (grad <= 0.0)
        pinned_hi = (alpha >= hi) & (grad >= 0.0)
        return ~(pinned_lo | pinned_hi)

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
        diagonal plus low rank, so there is no direct solve."""
        return qn_step(grad, self.hessian_matvec(alpha), mask, h)

    def free_mask(self, alpha, grad):
        return np.ones_like(alpha, dtype=bool)

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
    of how much rank the nuclear penalty retained."""
    Y = spec.responses
    Yc = Y - Y.mean(axis=0) if spec.fit_intercept else Y
    if model.n_active:
        F = np.column_stack([interaction_column(A, fs).dense() for fs in model.active])
        P = F @ model.coefficients
    else:
        P = np.zeros_like(Yc)
    # singular values straight from the matrix: through the Gram P^T P an
    # exact zero comes back near sqrt(eps) * sigma_1, above the rank cutoff
    sig_p = np.linalg.svd(P, compute_uv=False)
    top = sig_p.max(initial=0.0)
    pred_rank = int(np.sum(sig_p > 1e-8 * top)) if top > 0 else 0
    sig_r = np.linalg.svd(Yc - alpha, compute_uv=False)
    retained = int(np.sum(sig_r > spec.rho_nuclear))
    return pred_rank, retained
