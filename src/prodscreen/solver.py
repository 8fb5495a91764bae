"""Working-set solve of the reduced dual, and its damped-Newton ascent.

Each outer round solves the reduced problem by the reduced dual's own
``ascend``.  For the logistic and matrix duals that is the damped-Newton
ascent here (``_inner_ascent``): each step takes the direction
(H + h I)^-1 grad from the reduced dual (``newton_direction``), which the
logistic dual, whose curvature is a diagonal plus a low-rank term, solves
exactly through one small SPD system (Woodbury), and the matrix dual by
conjugate gradients (``qn_step``) on its curvature operator.  The step
length is the reduced dual's too (``step_along``), along the Newton
direction and, when that finds no step, along the gradient: the logistic
dual caps its step so that every row keeps a tenth of its distance to the
faces of its box, and it and the matrix dual then backtrack until the
value strictly increases, so no trial leaves the feasible set.  The
damping h starts afresh in each round, grows when the quadratic model
misleads and shrinks when a first trial is accepted.  The basket dual
solves its reduced primal by projected Newton instead and hands back that
solve's dual point; its rounds stop on the dual's projected-gradient test.
The outer loop alternates inner convergence with an exact re-screen of
the lattice: any interaction the screen emits that is missing from the
active set joins it, and the solve finishes when the screen certifies the
active set complete and the duality gap is below tolerance.  Otherwise
the inner tolerance tightens, down to a floor, and the solve stalls when
no step is left or a round at the floor takes none (the next would repeat
it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def qn_step(grad, hess_matvec, h: float):
    """Ascent direction (H + h I)^-1 grad by CG on a curvature operator, for
    an unconstrained dual (the matrix dual's direction).

    Falls back to the gradient if CG misbehaves or the returned direction
    is not an ascent direction.
    """
    try:
        direction = cg_solve(lambda v: hess_matvec(v) + h * v, grad)
    except ValueError:
        return grad.copy()
    if _vdot(direction, grad) <= 0.0:
        return grad.copy()
    return direction


# damping h: its starting value and floor, and its factors when the Newton
# model misleads (grow) and when a full step is accepted first try (shrink)
_H_INIT = 1e-4
_H_GROW = 10.0
_H_SHRINK = 0.5
# backtracking: step shrink factor and trials per direction
_LS_SHRINK = 0.5
_LS_MAX = 30
# the inner gradient tolerance tightens tenfold per uncertified round, to here
_INNER_TOL_FLOOR = 1e-14
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


def backtrack(red, alpha, value: float, direction):
    """Halve the step along direction until the value strictly increases.

    Returns (point, value, whether the full step was taken), or None after
    _LS_MAX trials.  The trials are not projected: the direction must keep
    alpha + direction feasible, as the logistic dual's capped step does.
    """
    t = 1.0
    for trial in range(_LS_MAX):
        cand = alpha + t * direction
        v = red.value(cand)
        if v > value:
            return cand, v, trial == 0
        t *= _LS_SHRINK
    return None


def line_search(red, alpha, value: float, direction, gradient_dir,
                h: float) -> LineSearchResult:
    """Step along the quasi-Newton direction, then along the gradient.

    The reduced dual sets both steps (``red.step_along``): the logistic
    dual ``backtrack``s from a step capped short of its box's faces, and
    the matrix dual ``backtrack``s from the full step.  (The basket never
    gets here: it solves its reduced primal.)  A full step taken at once
    shrinks h, floored at its starting value.  When no step is found along
    the direction, h grows and the gradient is tried; failing both reports
    a stall and leaves the iterate unchanged.
    """
    found = red.step_along(alpha, value, direction)
    if found is not None:
        cand, v, full = found
        return LineSearchResult(cand, v, max(_H_INIT, h * _H_SHRINK) if full else h,
                                False, False)
    h = h * _H_GROW
    found = red.step_along(alpha, value, gradient_dir)
    if found is not None:
        return LineSearchResult(found[0], found[1], h, False, True)
    return LineSearchResult(alpha, value, h, True, True)


def _newton_step(red, alpha, h: float, stop: float):
    """(gradient, its norm, Newton direction) at alpha.  The direction is
    None, and no solve is spent, when the norm is <= stop."""
    grad = red.gradient(alpha)
    gn = math.sqrt(_vdot(grad, grad))
    if gn <= stop:
        return grad, gn, None
    return grad, gn, red.newton_direction(alpha, grad, h)


def _polish(red, alpha, value: float, h: float, tol: float, budget: int):
    """Endgame refinement once value comparisons drown in rounding noise.

    Near the maximum the dual value is flat to double precision while the
    gradient still carries signal, so steps are accepted on gradient-norm
    decrease instead, guarded against value regressions above noise scale.
    Directions are the reduced dual's damped Newton steps, from its exact
    generalized Jacobian; each full trial is projected onto the feasible
    set and halved as ``backtrack`` halves, and at most ``budget`` steps
    are taken.  Returns (point, value, steps).
    """
    iters = 0
    guard = ROUND_GUARD * (1.0 + abs(value))
    misses = 0
    for _ in range(budget):
        _, gn, direction = _newton_step(red, alpha, h, 0.1 * tol)
        if direction is None:
            break
        accepted = False
        t = 1.0
        for _ in range(_LS_MAX):
            cand = red.project(alpha + t * direction)
            cg = red.gradient(cand)
            cv = red.value(cand)
            if math.sqrt(_vdot(cg, cg)) < gn * (1.0 - 1e-3) and cv >= value - guard:
                alpha, value = cand, cv
                accepted = True
                break
            t *= _LS_SHRINK
        iters += 1
        if accepted:
            h = max(_H_INIT, h * _H_SHRINK)
            misses = 0
        else:
            h *= _H_GROW
            misses += 1
            if misses > 2:
                break
    return alpha, value, iters


def _inner_ascent(red, alpha, cfg: SolverConfig, tol: float):
    """Run damped-Newton ascent until the gradient norm is at most tol.

    Returns (point, value, steps, stop), where stop says why the loop
    ended: ``tol`` (gradient at most tol), ``stalled`` (no ascent step
    left, then polished) or ``max_inner`` (steps exhausted).  Polish steps
    count as inner steps and share the cap.  The damping starts at
    ``_H_INIT``."""
    h = _H_INIT
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
            alpha, value, extra = _polish(red, alpha, value, h, tol, cfg.max_inner - iters)
            iters += extra
            break
        alpha, value = res.alpha, res.value
    return alpha, value, iters, stop


def solve(obj, A: AtomicMatrix, schedule: PenaltySchedule, alpha0=None,
          scfg: ScreenConfig | None = None, cfg: SolverConfig | None = None, *,
          first: ScreenResult | None = None, next_lambda: float | None = None) -> SolveResult:
    """Working-set dual ascent over the implicit interaction space.

    Screens at the starting dual point to predict the active set, maximizes
    the reduced dual, then re-screens: emissions outside the active set are
    pulled in and the cycle repeats.  Converged means the final screen found
    nothing new and primal - dual <= kkt_tol * (1 + |primal|).

    ``first``, when given, is a screen already taken at the projected
    starting point and ``schedule``; it stands in for the predicting
    screen.  Each re-screen walks at ``next_lambda`` (at most
    ``schedule.base_lambda``) when it is given and at ``schedule``
    otherwise, and the certificate is that walk restricted to
    ``schedule``.  The last walk, returned as ``walk``, is then the exact
    screen a solve at ``next_lambda`` starting from this one's end point
    would predict with.
    """
    cfg = cfg or SolverConfig()
    scfg = obj.screen_config(scfg)
    alpha = obj.project(np.array(obj.alpha0() if alpha0 is None else alpha0, dtype=float))
    if next_lambda is not None and not next_lambda <= schedule.base_lambda:
        raise ValueError("next_lambda must not exceed the schedule's base penalty")
    walk_schedule = schedule if next_lambda is None else schedule.with_base(next_lambda)

    if first is None:
        first = screen(A, obj.screen_weights(alpha), schedule, scfg)
    elif any(e.threshold != schedule.threshold(len(e.feature_set.atoms))
             for e in first.emitted):
        raise ValueError("first was not screened at the schedule's penalty")
    predicted = first.feature_sets()
    active = {e.feature_set.atoms: e for e in first.emitted}

    inner_tol = cfg.kkt_tol
    expansions = 0
    total_inner = 0
    cap_hits = 0
    stop_reason = "max_outer"
    log: list[tuple] = []
    missing: list = []

    for outer in range(1, cfg.max_outer + 1):
        if outer == 1 or missing:  # the active set grew in the last round
            red = obj.reduced(list(active.values()))
        alpha, dval, inners, inner_stop = red.ascend(alpha, cfg, inner_tol)
        total_inner += inners
        cap_hits += inner_stop == "max_inner"

        walk = screen(A, obj.screen_weights(alpha), walk_schedule, scfg)
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
        elif inner_stop == "stalled" or (inners == 0 and inner_tol <= _INNER_TOL_FLOOR):
            # no ascent step left; at the floor, a round without a step
            # would repeat itself exactly
            stop_reason = "stalled"
            break
        else:
            # inner loop hit its gradient tolerance but the gap is not yet
            # certified; tighten and continue
            inner_tol = max(inner_tol * 0.1, _INNER_TOL_FLOOR)

    intercept = getattr(obj, "intercept", None)
    model = PrimalModel.from_coefficients(obj.kind, red.feature_sets(), beta, intercept)
    state = DualState(alpha=alpha, dual_value=dval, primal_value=pval, gap=gap,
                      inner_iterations=total_inner, outer_iterations=outer,
                      stop_reason=stop_reason, inner_cap_hits=cap_hits)
    return SolveResult(state=state, model=model, screen_result=check,
                       predicted=predicted, expansions=expansions, walk=walk, log=log)
