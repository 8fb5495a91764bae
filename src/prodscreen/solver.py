"""Projected damped-Newton ascent on the reduced dual.

The inner loop maximizes the concave reduced dual.  Each step takes the
direction (H + h I)^-1 grad on the free coordinates from the reduced dual
itself (``newton_direction``): the basket and logistic duals, whose
curvature is a diagonal plus a low-rank term, solve it exactly through one
small SPD system (Woodbury); the matrix dual runs conjugate gradients
(``qn_step``) on its curvature operator.  A backtracking line search
enforces strict increase, and the damping h grows when the quadratic model
misleads and shrinks when a full step is accepted first try.  The outer
loop alternates inner convergence with an exact re-screen of the lattice:
any interaction the screen emits that is missing from the active set joins
it, and the solve finishes when the screen certifies the active set
complete and the duality gap is below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import AtomicMatrix
from .duality import PrimalModel, duality_gap
from .screening import PenaltySchedule, ScreenConfig, ScreenResult, screen

__all__ = [
    "SolverConfig",
    "DualState",
    "SolveResult",
    "cg_solve",
    "qn_step",
    "line_search",
    "LineSearchResult",
    "solve",
]


@dataclass(frozen=True)
class SolverConfig:
    kkt_tol: float = 1e-6
    max_outer: int = 100
    max_inner: int = 500
    cg_rel_tol: float = 1e-8
    cg_max_iter: int = 200
    h_init: float = 1e-4
    h_grow: float = 10.0
    h_shrink: float = 0.5
    ls_shrink: float = 0.5
    ls_max: int = 30

    def __post_init__(self):
        if self.kkt_tol <= 0 or self.cg_rel_tol <= 0 or self.h_init <= 0:
            raise ValueError("tolerances and h_init must be positive")
        if not 0 < self.h_shrink < 1 or not 0 < self.ls_shrink < 1:
            raise ValueError("shrink factors must lie in (0, 1)")
        if self.h_grow <= 1:
            raise ValueError("h_grow must exceed 1")
        if min(self.max_outer, self.max_inner, self.cg_max_iter, self.ls_max) < 1:
            raise ValueError("iteration caps must be >= 1")


@dataclass
class DualState:
    """Where the dual ascent ended up, with the certificates attached.

    stop_reason is ``converged`` (certified gap and an empty exact
    re-screen), ``stalled`` (no ascent step left and no set missing, gap not
    certified) or ``max_outer`` (outer rounds exhausted)."""

    alpha: np.ndarray
    dots: np.ndarray
    dual_value: float
    primal_value: float
    gap: float
    h: float
    inner_iterations: int
    outer_iterations: int
    stop_reason: str
    inner_cap_hits: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


@dataclass
class SolveResult:
    state: DualState
    model: PrimalModel
    screen_result: ScreenResult
    predicted: tuple
    expansions: int
    log: list = field(default_factory=list)

    @property
    def predicted_count(self) -> int:
        return len(self.predicted)


LOG_HEADER = ("outer_iter", "inner_iter", "dual_value", "gap", "active_count",
              "explored_count")


def _vdot(a, b) -> float:
    return float(np.vdot(a, b))


def cg_solve(matvec, rhs, rel_tol: float = 1e-8, max_iter: int = 200):
    """Conjugate gradients for (symmetric PD operator) x = rhs.

    Stops when the residual norm falls to rel_tol * ||rhs||.  Works on any
    array shape.  Raises on non-finite values; a direction of non-positive
    curvature ends the iteration at the current point.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    rs = _vdot(r, r)
    if rs == 0.0:
        return x
    target = (rel_tol ** 2) * rs
    p = r.copy()
    for _ in range(max_iter):
        Ap = matvec(p)
        pAp = _vdot(p, Ap)
        if not math.isfinite(pAp):
            raise ValueError("non-finite curvature in cg_solve")
        if pAp <= 0.0:
            break
        a = rs / pAp
        x = x + a * p
        r = r - a * Ap
        rs_new = _vdot(r, r)
        if rs_new <= target:
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite iterate in cg_solve")
    return x


def qn_step(grad, hess_matvec, free_mask, h: float, cfg: SolverConfig):
    """Ascent direction (H + h I)^-1 grad restricted to the free coordinates,
    by CG on a curvature operator (the matrix dual's direction).

    Falls back to the masked gradient if CG misbehaves or the returned
    direction is not an ascent direction.
    """
    g = np.where(free_mask, grad, 0.0)

    def op(v):
        return np.where(free_mask, hess_matvec(np.where(free_mask, v, 0.0)), 0.0) + h * v

    try:
        direction = cg_solve(op, g, cfg.cg_rel_tol, cfg.cg_max_iter)
    except ValueError:
        return g.copy()
    if _vdot(direction, g) <= 0.0:
        return g.copy()
    return direction


@dataclass
class LineSearchResult:
    alpha: np.ndarray
    value: float
    h: float
    stalled: bool
    used_gradient: bool


def line_search(red, alpha, value: float, direction, gradient_dir, h: float,
                cfg: SolverConfig) -> LineSearchResult:
    """Backtrack along the quasi-Newton direction, then along the gradient.

    Accepting the full quasi-Newton step on the first try shrinks h (floored
    at h_init); exhausting the backtracks grows h and retries along the
    projected gradient; failing both reports a stall and leaves the iterate
    unchanged.
    """
    t = 1.0
    for trial in range(cfg.ls_max):
        cand = red.project(alpha + t * direction)
        v = red.value(cand)
        if v > value:
            h_next = max(cfg.h_init, h * cfg.h_shrink) if trial == 0 else h
            return LineSearchResult(cand, v, h_next, False, False)
        t *= cfg.ls_shrink
    h = h * cfg.h_grow
    t = 1.0
    for _ in range(cfg.ls_max):
        cand = red.project(alpha + t * gradient_dir)
        v = red.value(cand)
        if v > value:
            return LineSearchResult(cand, v, h, False, True)
        t *= cfg.ls_shrink
    return LineSearchResult(alpha, value, h, True, True)


_POLISH_MAX = 20
_POLISH_BACKTRACKS = 8


def _newton_step(red, alpha, h: float, cfg: SolverConfig, stop: float):
    """(masked gradient, its norm, Newton direction) at alpha.  The
    direction is None, and no solve is spent, when the norm is <= stop."""
    grad = red.gradient(alpha)
    mask = red.free_mask(alpha, grad)
    g = np.where(mask, grad, 0.0)
    gn = math.sqrt(_vdot(g, g))
    if gn <= stop:
        return g, gn, None
    return g, gn, red.newton_direction(alpha, grad, mask, h, cfg)


def _polish(red, alpha, value: float, h: float, cfg: SolverConfig, tol: float):
    """Endgame refinement once value comparisons drown in rounding noise.

    Near the maximum the dual value is flat to double precision while the
    gradient still carries signal, so steps are accepted on gradient-norm
    decrease instead, guarded against value regressions above noise scale.
    Directions are the reduced dual's damped Newton steps on the free
    coordinates, from its exact generalized Jacobian.
    """
    iters = 0
    guard = 1e-12 * (1.0 + abs(value))
    misses = 0
    for _ in range(_POLISH_MAX):
        _, gn, direction = _newton_step(red, alpha, h, cfg, 0.1 * tol)
        if direction is None:
            break
        accepted = False
        t = 1.0
        for _ in range(_POLISH_BACKTRACKS):
            cand = red.project(alpha + t * direction)
            cgrad = red.gradient(cand)
            cg = np.where(red.free_mask(cand, cgrad), cgrad, 0.0)
            cv = red.value(cand)
            if math.sqrt(_vdot(cg, cg)) < gn * (1.0 - 1e-3) and cv >= value - guard:
                alpha, value = cand, cv
                accepted = True
                break
            t *= 0.5
        iters += 1
        if accepted:
            h = max(cfg.h_init, h * cfg.h_shrink)
            misses = 0
        else:
            h *= cfg.h_grow
            misses += 1
            if misses > 2:
                break
    return alpha, value, h, iters


def _inner_ascent(red, alpha, h: float, cfg: SolverConfig, tol: float):
    """Run quasi-Newton ascent until the projected gradient is below tol.

    The last returned flag is True when the loop ran out of max_inner steps
    without reaching tol or stalling."""
    value = red.value(alpha)
    iters = 0
    stalled = False
    capped = False
    for _ in range(cfg.max_inner):
        g, _, direction = _newton_step(red, alpha, h, cfg, tol)
        if direction is None:
            break
        res = line_search(red, alpha, value, direction, g, h, cfg)
        iters += 1
        h = res.h
        if res.stalled:
            stalled = True
            alpha, value, h, extra = _polish(red, alpha, value, h, cfg, tol)
            iters += extra
            break
        alpha, value = res.alpha, res.value
    else:
        capped = True
    return alpha, value, h, iters, stalled, capped


def solve(obj, A: AtomicMatrix, schedule: PenaltySchedule, alpha0=None,
          scfg: ScreenConfig | None = None, cfg: SolverConfig | None = None) -> SolveResult:
    """Working-set dual ascent over the implicit interaction space.

    Screens at the starting dual point to predict the active set, maximizes
    the reduced dual, then re-screens: emissions outside the active set are
    pulled in and the cycle repeats.  Converged means the final screen found
    nothing new and primal - dual <= kkt_tol * (1 + |primal|).  The first
    screen honours ``scfg.child_parent_prune``; the re-screens certify, so
    they run exact.
    """
    cfg = cfg or SolverConfig()
    scfg = obj.screen_config(scfg)
    exact = replace(scfg, child_parent_prune=0.0)
    alpha = obj.project(np.array(obj.alpha0() if alpha0 is None else alpha0, dtype=float))

    first = screen(A, obj.screen_weights(alpha), schedule, scfg)
    predicted = first.feature_sets()
    active = {e.feature_set.atoms: e for e in first.emitted}

    h = cfg.h_init
    inner_tol = cfg.kkt_tol
    expansions = 0
    total_inner = 0
    cap_hits = 0
    stop_reason = "max_outer"
    log: list[tuple] = []
    check = first
    red = obj.reduced(list(active.values()))
    beta = red.primal_map(alpha)
    pval = dval = gap = math.nan
    outer = 0

    for outer in range(1, cfg.max_outer + 1):
        red = obj.reduced(list(active.values()))
        alpha, dval, h, inners, stalled, capped = _inner_ascent(red, alpha, h, cfg, inner_tol)
        total_inner += inners
        cap_hits += capped

        check = screen(A, obj.screen_weights(alpha), schedule, exact)
        missing = [e for e in check.emitted if e.feature_set.atoms not in active]
        beta = red.primal_map(alpha)
        pval = red.primal_value(beta)
        gap = duality_gap(pval, dval)
        log.append((outer, total_inner, dval, gap, len(check.emitted), check.explored_count))

        # a gap certifies optimality only when it is (numerically) nonnegative;
        # a substantially negative gap means the dual value is not a valid
        # bound (seen when the signed basket relaxation peaks off the orthant)
        if not missing and abs(gap) <= cfg.kkt_tol * (1.0 + abs(pval)):
            stop_reason = "converged"
            break
        if missing:
            for e in missing:
                active[e.feature_set.atoms] = e
            expansions += 1
        elif stalled:
            stop_reason = "stalled"
            break
        else:
            # inner loop hit its gradient tolerance but the gap is not yet
            # certified; tighten and continue
            inner_tol = max(inner_tol * 0.1, 1e-14)

    intercept = getattr(obj, "intercept", None)
    model = PrimalModel.from_coefficients(obj.kind, red.feature_sets(), beta, intercept)
    state = DualState(alpha=alpha, dots=red.dots(alpha), dual_value=dval,
                      primal_value=pval, gap=gap, h=h,
                      inner_iterations=total_inner, outer_iterations=outer,
                      stop_reason=stop_reason, inner_cap_hits=cap_hits)
    return SolveResult(state=state, model=model, screen_result=check,
                       predicted=predicted, expansions=expansions, log=log)
