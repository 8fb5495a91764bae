"""Projected damped-Newton ascent on the reduced dual.

The inner loop maximizes the concave reduced dual.  Each step takes the
direction (H + h I)^-1 grad on the free coordinates from the reduced dual
itself (``newton_direction``): the basket and logistic duals, whose
curvature is a diagonal plus a low-rank term, solve it exactly through one
small SPD system (Woodbury); the matrix dual runs conjugate gradients
(``qn_step``) on its curvature operator.  The step length is the reduced
dual's too (``step_along``): the basket dual, piecewise quadratic along its
projected ray, steps exactly to the first maximum there; the logistic and
matrix duals backtrack until the value strictly increases, and their
damping h grows when the quadratic model misleads and shrinks when a full
step is accepted first try.  The outer loop alternates inner convergence
with an exact re-screen of the lattice: any interaction the screen emits
that is missing from the active set joins it, and the solve finishes when
the screen certifies the active set complete and the duality gap is below
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import AtomicMatrix
from .duality import PrimalModel
from .screening import PenaltySchedule, ScreenConfig, ScreenResult, restrict, screen

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

    def __post_init__(self):
        if not 0.0 < self.kkt_tol < math.inf:
            raise ValueError("kkt_tol must be positive and finite")
        if min(self.max_outer, self.max_inner) < 1:
            raise ValueError("iteration caps must be >= 1")


@dataclass
class DualState:
    """Where the dual ascent ended up, with the certificates attached.

    stop_reason is ``converged`` (certified gap and an empty exact
    re-screen), ``stalled`` (no ascent step left and no set missing, gap not
    certified) or ``max_outer`` (outer rounds exhausted)."""

    alpha: np.ndarray
    dual_value: float
    primal_value: float
    gap: float
    inner_iterations: int
    outer_iterations: int
    stop_reason: str
    inner_cap_hits: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


@dataclass
class SolveResult:
    """A solve's end point.  ``screen_result`` is the certificate at the
    solve's penalty; ``walk`` is the exact walk it was restricted from,
    which ran at ``next_lambda`` when one was given (the next path level's
    prediction) and at the solve's own penalty otherwise."""

    state: DualState
    model: PrimalModel
    screen_result: ScreenResult
    predicted: tuple
    expansions: int
    walk: ScreenResult
    log: list = field(default_factory=list)

    @property
    def predicted_count(self) -> int:
        return len(self.predicted)


LOG_HEADER = ("outer_iter", "inner_iter", "dual_value", "gap", "active_count",
              "explored_count", "inner_stop")


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


def qn_step(grad, hess_matvec, free_mask, h: float):
    """Ascent direction (H + h I)^-1 grad restricted to the free coordinates,
    by CG on a curvature operator (the matrix dual's direction).

    Falls back to the masked gradient if CG misbehaves or the returned
    direction is not an ascent direction.
    """
    g = np.where(free_mask, grad, 0.0)

    def op(v):
        return np.where(free_mask, hess_matvec(np.where(free_mask, v, 0.0)), 0.0) + h * v

    try:
        direction = cg_solve(op, g)
    except ValueError:
        return g.copy()
    if _vdot(direction, g) <= 0.0:
        return g.copy()
    return direction


# damping h: its starting value and floor, and its factors when the Newton
# model misleads (grow) and when a full step is accepted first try (shrink)
_H_INIT = 1e-4
_H_GROW = 10.0
_H_SHRINK = 0.5
# backtracking: step shrink factor and trials per direction
_LS_SHRINK = 0.5
_LS_MAX = 30
_POLISH_MAX = 20
_POLISH_BACKTRACKS = 8
# rounding allowance relative to the size of what is compared: a value of
# at least reference - ROUND_GUARD * (1 + |reference|) has not fallen below
# the reference, and a slope no larger than ROUND_GUARD times the sum of its
# terms' magnitudes is not known to be positive
ROUND_GUARD = 1e-12


@dataclass
class LineSearchResult:
    alpha: np.ndarray
    value: float
    h: float
    stalled: bool
    used_gradient: bool


def backtrack(red, alpha, value: float, direction, h: float):
    """Halve the step along direction until the value strictly increases.

    Returns (point, value, next h), or None after _LS_MAX trials.  The full
    step accepted on the first try shrinks h, floored at its starting value.
    """
    t = 1.0
    for trial in range(_LS_MAX):
        cand = red.project(alpha + t * direction)
        v = red.value(cand)
        if v > value:
            return cand, v, (max(_H_INIT, h * _H_SHRINK) if trial == 0 else h)
        t *= _LS_SHRINK
    return None


def line_search(red, alpha, value: float, direction, gradient_dir,
                h: float) -> LineSearchResult:
    """Step along the quasi-Newton direction, then along the gradient.

    The reduced dual sets the quasi-Newton step (``red.step_along``): the
    basket dual steps exactly to the first maximum along its projected ray,
    and the logistic and matrix duals ``backtrack``.  When no step is
    found, h grows and the projected gradient is backtracked; failing both
    reports a stall and leaves the iterate unchanged.
    """
    found = red.step_along(alpha, value, direction, h)
    if found is not None:
        return LineSearchResult(*found, False, False)
    h = h * _H_GROW
    found = backtrack(red, alpha, value, gradient_dir, h)
    if found is not None:
        return LineSearchResult(found[0], found[1], h, False, True)
    return LineSearchResult(alpha, value, h, True, True)


def _newton_step(red, alpha, h: float, stop: float):
    """(masked gradient, its norm, Newton direction) at alpha.  The
    direction is None, and no solve is spent, when the norm is <= stop."""
    grad = red.gradient(alpha)
    mask = red.free_mask(alpha, grad)
    g = np.where(mask, grad, 0.0)
    gn = math.sqrt(_vdot(g, g))
    if gn <= stop:
        return g, gn, None
    return g, gn, red.newton_direction(alpha, grad, mask, h)


def _polish(red, alpha, value: float, h: float, tol: float):
    """Endgame refinement once value comparisons drown in rounding noise.

    Near the maximum the dual value is flat to double precision while the
    gradient still carries signal, so steps are accepted on gradient-norm
    decrease instead, guarded against value regressions above noise scale.
    Directions are the reduced dual's damped Newton steps on the free
    coordinates, from its exact generalized Jacobian.
    """
    iters = 0
    guard = ROUND_GUARD * (1.0 + abs(value))
    misses = 0
    for _ in range(_POLISH_MAX):
        _, gn, direction = _newton_step(red, alpha, h, 0.1 * tol)
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
            h = max(_H_INIT, h * _H_SHRINK)
            misses = 0
        else:
            h *= _H_GROW
            misses += 1
            if misses > 2:
                break
    return alpha, value, h, iters


def _inner_ascent(red, alpha, h: float, cfg: SolverConfig, tol: float):
    """Run quasi-Newton ascent until the projected gradient is below tol.

    The last returned value says why the loop stopped: ``tol`` (gradient
    below tol), ``stalled`` (no ascent step left, then polished) or
    ``max_inner`` (steps exhausted)."""
    value = red.value(alpha)
    iters = 0
    stop = "max_inner"
    for _ in range(cfg.max_inner):
        g, _, direction = _newton_step(red, alpha, h, tol)
        if direction is None:
            stop = "tol"
            break
        res = line_search(red, alpha, value, direction, g, h)
        iters += 1
        h = res.h
        if res.stalled:
            stop = "stalled"
            alpha, value, h, extra = _polish(red, alpha, value, h, tol)
            iters += extra
            break
        alpha, value = res.alpha, res.value
    return alpha, value, h, iters, stop


def solve(obj, A: AtomicMatrix, schedule: PenaltySchedule, alpha0=None,
          scfg: ScreenConfig | None = None, cfg: SolverConfig | None = None, *,
          first: ScreenResult | None = None, next_lambda: float | None = None) -> SolveResult:
    """Working-set dual ascent over the implicit interaction space.

    Screens at the starting dual point to predict the active set, maximizes
    the reduced dual, then re-screens: emissions outside the active set are
    pulled in and the cycle repeats.  Converged means the final screen found
    nothing new and primal - dual <= kkt_tol * (1 + |primal|).  The
    re-screens are exact certificates: they run without the child-parent
    shortcut, which only the predicting screen honours.

    ``first``, when given, is a screen already taken at the projected
    starting point and ``schedule``; it stands in for the predicting
    screen, so ``scfg.child_parent_prune`` then goes unused.  Each
    re-screen walks at ``next_lambda`` (at most ``schedule.base_lambda``)
    when it is given and at ``schedule`` otherwise, and the certificate is
    that walk restricted to ``schedule``.  The last walk, returned as
    ``walk``, is then the exact screen a solve at ``next_lambda`` starting
    from this one's end point would predict with.
    """
    cfg = cfg or SolverConfig()
    scfg = obj.screen_config(scfg)
    alpha = obj.project(np.array(obj.alpha0() if alpha0 is None else alpha0, dtype=float))
    if next_lambda is not None and not next_lambda <= schedule.base_lambda:
        raise ValueError("next_lambda must not exceed the schedule's base penalty")
    walk_schedule = schedule if next_lambda is None else schedule.with_base(next_lambda)
    exact = replace(scfg, child_parent_prune=0.0)

    if first is None:
        first = screen(A, obj.screen_weights(alpha), schedule, scfg)
    elif any(e.threshold != schedule.threshold(len(e.feature_set.atoms))
             for e in first.emitted):
        raise ValueError("first was not screened at the schedule's penalty")
    predicted = first.feature_sets()
    active = {e.feature_set.atoms: e for e in first.emitted}

    h = _H_INIT
    inner_tol = cfg.kkt_tol
    expansions = 0
    total_inner = 0
    cap_hits = 0
    stop_reason = "max_outer"
    log: list[tuple] = []

    for outer in range(1, cfg.max_outer + 1):
        red = obj.reduced(list(active.values()))
        alpha, dval, h, inners, inner_stop = _inner_ascent(red, alpha, h, cfg, inner_tol)
        total_inner += inners
        cap_hits += inner_stop == "max_inner"

        walk = screen(A, obj.screen_weights(alpha), walk_schedule, exact)
        check = restrict(walk, schedule)
        missing = [e for e in check.emitted if e.feature_set.atoms not in active]
        beta = red.primal_map(alpha)
        pval = red.primal_value(beta)
        gap = pval - dval
        log.append((outer, total_inner, dval, gap, len(check.emitted), check.explored_count,
                    inner_stop))

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
        elif inner_stop == "stalled":
            stop_reason = "stalled"
            break
        else:
            # inner loop hit its gradient tolerance but the gap is not yet
            # certified; tighten and continue
            inner_tol = max(inner_tol * 0.1, 1e-14)

    intercept = getattr(obj, "intercept", None)
    model = PrimalModel.from_coefficients(obj.kind, red.feature_sets(), beta, intercept)
    state = DualState(alpha=alpha, dual_value=dval, primal_value=pval, gap=gap,
                      inner_iterations=total_inner, outer_iterations=outer,
                      stop_reason=stop_reason, inner_cap_hits=cap_hits)
    return SolveResult(state=state, model=model, screen_result=check,
                       predicted=predicted, expansions=expansions, walk=walk, log=log)
