import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import oracles as oc
import prodscreen.solver
from prodscreen import (AtomicMatrix, BasketSpec, FeatureSet, LogisticSpec, MatrixSpec,
                        PathConfig, PenaltySchedule, ScreenConfig, SolverConfig,
                        basket_dual, cg_solve, interaction_column, lambda_max,
                        line_search, logistic_dual, matrix_dual, qn_step, run_path,
                        screen, solve, synth_planted, verify_kkt)
from prodscreen.screening import Emitted
from prodscreen.solver import LineSearchResult


def test_cg_known_solution():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    x = cg_solve(lambda v: A @ v, np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-10)


def test_cg_residual_contract(rng):
    n = 30
    M = rng.standard_normal((n, n))
    A = M @ M.T + np.eye(n)
    b = rng.standard_normal(n)
    for tol in (1e-4, 1e-8):
        x = cg_solve(lambda v: A @ v, b, rel_tol=tol, max_iter=500)
        assert np.linalg.norm(A @ x - b) <= tol * np.linalg.norm(b) * (1 + 1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solver_config_rejects_non_finite_tol(bad):
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(kkt_tol=bad)


def test_cg_zero_rhs():
    x = cg_solve(lambda v: v, np.zeros(4))
    assert np.allclose(x, 0.0)


def test_cg_nonfinite_raises():
    with pytest.raises(ValueError, match="non-finite"):
        cg_solve(lambda v: v * np.nan, np.ones(3))


def test_qn_step_limits():
    g = np.array([1.0, -2.0, 0.5])
    mask = np.ones(3, dtype=bool)
    # zero curvature, h = 1: direction equals the gradient
    d = qn_step(g, lambda v: np.zeros_like(v), mask, 1.0)
    assert np.allclose(d, g, atol=1e-10)
    # identity curvature, h = 1: direction halves
    d = qn_step(g, lambda v: v, mask, 1.0)
    assert np.allclose(d, g / 2.0, atol=1e-10)
    # masked coordinates never move
    mask2 = np.array([True, False, True])
    d = qn_step(g, lambda v: v, mask2, 1.0)
    assert d[1] == 0.0
    # CG blowing up falls back to the gradient
    d = qn_step(g, lambda v: v * np.nan, mask, 1.0)
    assert np.allclose(d, g)


class _Quad:
    """Concave 1-D toy: f(a) = -(a - 3)^2 / 2, maximized at 3."""

    def value(self, a):
        return float(-0.5 * (a[0] - 3.0) ** 2)

    def project(self, a):
        return a

    def step_along(self, a, value, direction, h):
        return prodscreen.solver.backtrack(self, a, value, direction, h)


def test_line_search_accepts_and_shrinks_h():
    red = _Quad()
    a = np.array([0.0])
    res = line_search(red, a, red.value(a), np.array([3.0]), np.array([3.0]), 0.1)
    assert not res.stalled
    assert res.value > red.value(a)
    assert res.h == pytest.approx(0.05)  # first-try success halves h
    assert np.allclose(res.alpha, [3.0])


def test_line_search_h_floor():
    res = line_search(_Quad(), np.array([0.0]), -4.5, np.array([3.0]),
                      np.array([3.0]), 1e-4)
    assert res.h == pytest.approx(1e-4)  # never shrinks below its starting value


def test_line_search_stalls_at_optimum():
    red = _Quad()
    a = np.array([3.0])  # already optimal; no strict increase exists
    res = line_search(red, a, red.value(a), np.array([1.0]), np.array([0.0]), 0.1)
    assert res.stalled
    assert np.allclose(res.alpha, a)
    assert res.h == pytest.approx(1.0)  # grown once on the quasi-Newton failure


def _basket_ray_case(rng, nonneg, gamma, n=9, d=4):
    """A basket reduced dual over every atom column at a feasible alpha
    (some coordinates at 0 when non-negativity is enforced), with each
    column's z = c^T alpha - thr drawn on either side of 0 and gamma, on
    the scale of the band or well past it."""
    A = AtomicMatrix.from_dense(rng.random((n, d)))
    obj = basket_dual(BasketSpec(tau_target=rng.uniform(0.5, 3.0), gamma=gamma), A,
                      enforce_nonneg=nonneg)
    if nonneg:
        alpha = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 2.0, n))
    else:
        alpha = rng.normal(0.5, 1.0, n)
    cols = [interaction_column(A, (j,)) for j in range(d)]
    z = rng.uniform(-1.0, 2.0, d) * np.where(rng.random(d) < 0.5, gamma, 2.0)
    red = obj.reduced([Emitted(FeatureSet((j,)), float(c.dense() @ alpha - zj), 0.0)
                       for j, (c, zj) in enumerate(zip(cols, z))])
    return red, alpha


@given(st.integers(0, 10 ** 6), st.booleans(), st.floats(1e-3, 1.0))
@settings(max_examples=150, deadline=None)
def test_basket_step_reaches_first_ray_maximum(seed, nonneg, gamma):
    """The basket dual's step lands on the first maximum of its value along
    the projected ray, which the oracle finds by evaluating every coordinate
    and z breakpoint and every piece's vertex; no step is taken only where
    the value does not rise from t = 0."""
    rng = np.random.default_rng(seed)
    red, alpha = _basket_ray_case(rng, nonneg, gamma)
    direction = rng.normal(0.0, 1.0, alpha.size)  # crosses coordinate breakpoints
    value = red.value(alpha)
    _, best = oc.ray_first_max(red, alpha, direction)
    tol = 1e-9 * (1.0 + abs(best))
    found = red.step_along(alpha, value, direction, 1e-4)
    if found is None:
        assert best <= value + tol
    else:
        cand, v, h = found
        assert h == 1e-4
        assert v == red.value(cand)
        assert v >= best - tol


def test_basket_line_search_makes_one_value_call(rng):
    """Along the Newton direction the basket dual takes its exact step: one
    value evaluation, no gradient retry."""
    X = (rng.random((40, 6)) < 0.5).astype(float)
    A = AtomicMatrix.from_dense(X)
    obj = basket_dual(BasketSpec(tau_target=4.0), A)
    alpha = obj.project(obj.alpha0())
    first = screen(A, obj.screen_weights(alpha), PenaltySchedule.flat(2.0))
    red = obj.reduced(first.emitted)
    assert red.F.shape[1] > 0
    value = red.value(alpha)
    grad = red.gradient(alpha)
    mask = red.free_mask(alpha, grad)
    direction = red.newton_direction(alpha, grad, mask, 1e-4)
    calls = []
    evaluate = red.value
    red.value = lambda a: calls.append(1) or evaluate(a)
    res = line_search(red, alpha, value, direction, np.where(mask, grad, 0.0), 1e-4)
    assert len(calls) == 1
    assert not res.used_gradient and not res.stalled
    assert res.value > value and res.h == 1e-4


def _scalar_dual_max(fn, lo, hi):
    out = minimize_scalar(lambda a: -fn(np.array([a])), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12})
    return -out.fun


def test_basket_solve_matches_scalar_oracle():
    # one row, one atom: the whole dual is a scalar concave function
    A = AtomicMatrix.from_dense(np.array([[1.0]]))
    spec = BasketSpec(tau_target=1.0, gamma=1e-3)
    obj = basket_dual(spec, A)
    sched = PenaltySchedule.flat(0.5)
    res = solve(obj, A, sched, cfg=SolverConfig(kkt_tol=1e-10))
    red = obj.reduced(list(res.screen_result.emitted))
    oracle = _scalar_dual_max(red.value, 0.0, 2.0)
    assert res.state.converged
    assert res.state.dual_value == pytest.approx(oracle, abs=1e-8)
    assert res.state.primal_value == pytest.approx(oracle, abs=1e-6)
    beta = res.model.coefficients[0]
    assert beta == pytest.approx(0.5 / (1.0 + spec.gamma), abs=1e-6)


def test_logistic_solve_matches_scalar_oracle():
    A = AtomicMatrix.from_dense(np.array([[1.0]]))
    spec = LogisticSpec(labels=np.array([1.0]), tau_l2=0.5)
    obj = logistic_dual(spec, A)
    sched = PenaltySchedule.flat(0.1)
    res = solve(obj, A, sched, cfg=SolverConfig(kkt_tol=1e-10))
    red = obj.reduced(list(res.screen_result.emitted))
    oracle = _scalar_dual_max(red.value, 0.0, 1.0)
    assert res.state.converged
    assert res.state.dual_value == pytest.approx(oracle, abs=1e-8)
    # the fitted score must solve sigma(s) = 1 - alpha with soft-threshold map
    assert res.model.n_active == 1


def test_solve_above_lambda_max_gives_empty_model(rng):
    X = (rng.random((12, 5)) < 0.5).astype(float)
    A = AtomicMatrix.from_dense(X)

    spec = BasketSpec(tau_target=2.0)
    obj = basket_dual(spec, A)
    res = solve(obj, A, PenaltySchedule.flat(2.0 * 12 + 1.0))
    assert res.state.converged
    assert res.model.n_active == 0
    assert np.allclose(res.state.alpha, 2.0)  # the loss minimizer's dual point

    y = (rng.random(12) < 0.5).astype(float)
    lobj = logistic_dual(LogisticSpec(labels=y, tau_l2=1.0), A)
    res = solve(lobj, A, PenaltySchedule.flat(13.0))
    assert res.state.converged and res.model.n_active == 0
    assert np.allclose(res.state.alpha, y - 0.5)

    Y = rng.standard_normal((12, 2))
    mspec = MatrixSpec(responses=Y, rho_nuclear=0.3, eta_l2=1e-2)
    mobj = matrix_dual(mspec, A)
    res = solve(mobj, A, PenaltySchedule.flat(200.0))
    assert res.state.converged and res.model.n_active == 0
    # primal equals dual exactly at the empty optimum
    assert res.state.gap == pytest.approx(0.0, abs=1e-8)


def test_solve_deterministic(rng):
    X = (rng.random((25, 6)) < 0.4).astype(float)
    A = AtomicMatrix.from_dense(X)
    y = (rng.random(25) < 0.5).astype(float)
    obj = logistic_dual(LogisticSpec(labels=y, tau_l2=1.0), A)
    sched = PenaltySchedule.flat(0.8)
    r1 = solve(obj, A, sched)
    r2 = solve(obj, A, sched)
    assert np.array_equal(r1.state.alpha, r2.state.alpha)
    assert r1.state.dual_value == r2.state.dual_value
    assert [f.atoms for f in r1.model.active] == [f.atoms for f in r2.model.active]


def test_solve_checks_handed_in_screen_and_next_lambda(rng):
    """A handed-in first screen must carry the schedule's thresholds, and
    the re-screens may not walk above the solve's own penalty."""
    X = (rng.random((25, 6)) < 0.4).astype(float)
    A = AtomicMatrix.from_dense(X)
    y = (rng.random(25) < 0.5).astype(float)
    obj = logistic_dual(LogisticSpec(labels=y, tau_l2=1.0), A)
    w = obj.screen_weights(obj.project(np.asarray(obj.alpha0(), dtype=float)))
    sched = PenaltySchedule.flat(0.2)
    other = screen(A, w, sched.with_base(0.1), ScreenConfig())
    assert other.emitted
    with pytest.raises(ValueError, match="first"):
        solve(obj, A, sched, first=other)
    with pytest.raises(ValueError, match="next_lambda"):
        solve(obj, A, sched, next_lambda=0.3)
    own = screen(A, w, sched, ScreenConfig())
    res = solve(obj, A, sched, first=own, next_lambda=0.1)
    assert np.array_equal(res.state.alpha, solve(obj, A, sched).state.alpha)


def test_progress_log_schema(rng):
    X = (rng.random((15, 5)) < 0.5).astype(float)
    A = AtomicMatrix.from_dense(X)
    obj = basket_dual(BasketSpec(tau_target=2.0), A)
    res = solve(obj, A, PenaltySchedule.flat(3.0))
    assert len(res.log) == res.state.outer_iterations
    outer, inner, dval, gap, active, explored, inner_stop = res.log[-1]
    assert outer == res.state.outer_iterations
    assert inner == res.state.inner_iterations
    assert dval == res.state.dual_value
    assert gap == res.state.gap
    assert explored == res.screen_result.explored_count
    assert inner_stop in ("tol", "stalled", "max_inner")


def test_log_records_inner_stop(rng):
    """A solve whose inner rounds are capped logs ``max_inner`` once for each
    cap hit the state counts."""
    X = (rng.random((40, 6)) < 0.5).astype(float)
    A = AtomicMatrix.from_dense(X)
    obj = basket_dual(BasketSpec(tau_target=4.0), A)
    res = solve(obj, A, PenaltySchedule.flat(2.0), cfg=SolverConfig(max_inner=1, max_outer=5))
    stops = [row[-1] for row in res.log]
    assert stops.count("max_inner") == res.state.inner_cap_hits > 0


def test_hessian_matvec_matches_columnwise_sum(rng):
    """The curvature operator is a plain sum of rank-one column terms; any
    reduction order agrees to tight tolerance."""
    X = (rng.random((20, 5)) < 0.5).astype(float)
    A = AtomicMatrix.from_dense(X)
    y = (rng.random(20) < 0.5).astype(float)
    obj = logistic_dual(LogisticSpec(labels=y, tau_l2=1.0), A)
    sched = PenaltySchedule.flat(0.4)
    scr = solve(obj, A, sched).screen_result
    red = obj.reduced(list(scr.emitted))
    alpha = obj.project(obj.alpha0() + 0.1 * rng.standard_normal(20))
    hv = red.hessian_matvec(alpha)
    v = rng.standard_normal(20)
    s = np.clip(y - alpha, 1e-12, 1 - 1e-12)
    expect = (1 / s + 1 / (1 - s)) * v
    live = np.abs(red.dots(alpha)) > red.thr
    for j in np.flatnonzero(live):
        col = red.F[:, j]
        expect = expect + col * (col @ v) / obj.spec.tau_l2
    assert np.max(np.abs(hv(v) - expect)) < 1e-10 * (1 + np.max(np.abs(expect)))


def _rank_sweep_instance():
    """scripts/rank_sweep.py's default instance and its six nuclear weights."""
    planted = [((0, 1), 6.0), ((2,), 5.0), ((3, 4), 5.5), ((6, 7), 6.0)]
    ds = synth_planted(909, 60, 8, planted, noise=0.02, kind="matrix",
                       n_tasks=4, latent_rank=2)
    top = np.linalg.svd(ds.response - ds.response.mean(axis=0), compute_uv=False)[0]
    return ds, np.geomspace(0.05, 0.8 * top, 6)


def _rank_sweep_solve(ds, rho, cfg):
    shape = PenaltySchedule.geometric(1.0, 2.0)
    obj = matrix_dual(MatrixSpec(responses=ds.response, rho_nuclear=float(rho),
                                 eta_l2=1e-2), ds.matrix)
    sched = shape.with_base(0.15 * lambda_max(obj, ds.matrix, shape))
    return solve(obj, ds.matrix, sched, None, None, cfg)


def test_inner_cap_hits_are_counted():
    ds, rhos = _rank_sweep_instance()
    res = _rank_sweep_solve(ds, rhos[4], SolverConfig(kkt_tol=1e-8, max_inner=3))
    assert res.state.inner_cap_hits > 0
    assert res.state.inner_cap_hits <= res.state.outer_iterations


def test_rank_sweep_solves_stay_under_inner_cap():
    """With the exact spectral curvature, every rank_sweep weight converges
    well inside the cap: no outer round ends at max_inner."""
    ds, rhos = _rank_sweep_instance()
    for rho in rhos:
        res = _rank_sweep_solve(ds, rho, SolverConfig(kkt_tol=1e-8, max_inner=2000))
        assert res.state.converged, rho
        assert res.state.inner_cap_hits == 0, rho
        assert res.state.inner_iterations <= 200, rho


# ------------------------------------------------- direct Newton direction --

def _picks(rng, kind, size):
    return {"none": np.zeros(size, dtype=bool), "all": np.ones(size, dtype=bool),
            "some": rng.random(size) < 0.5}[kind]


def _reduced_with_live(obj, A, alpha, want):
    """Reduced dual over every atom column, with thresholds placed so that
    exactly the columns flagged in ``want`` are live at alpha."""
    cols = [interaction_column(A, (j,)) for j in range(A.n_cols)]
    dots = np.array([c.dense() @ alpha for c in cols])
    if obj.kind == "basket":  # live: 0 < dots - thr < gamma
        thr = np.where(want, dots - 0.5 * obj.spec.gamma, dots + 1.0)
    else:  # live: |dots| > thr
        thr = np.where(want, 0.5 * np.abs(dots), np.abs(dots) + 1.0)
    red = obj.reduced([Emitted(FeatureSet((j,)), float(t), 0.0)
                       for j, (c, t) in enumerate(zip(cols, thr))])
    assert np.array_equal(red._curvature(alpha)[1], want)
    return red


@given(st.integers(0, 10 ** 6), st.sampled_from(("basket", "logistic")),
       st.sampled_from(("none", "some", "all")), st.sampled_from(("none", "some", "all")),
       st.floats(1e-4, 10.0), st.booleans())
@settings(max_examples=120, deadline=None)
def test_newton_direction_matches_dense_solve(seed, kind, live, free, h, faces):
    rng = np.random.default_rng(seed)
    n, d = 14, 6
    A = AtomicMatrix.from_dense(rng.random((n, d)))
    if kind == "basket":
        obj = basket_dual(BasketSpec(tau_target=2.0, gamma=float(rng.uniform(0.01, 2.0))), A)
        alpha = rng.uniform(0.0, 3.0, n)
    else:
        y = (rng.random(n) < 0.5).astype(float)
        obj = logistic_dual(LogisticSpec(labels=y, tau_l2=float(rng.uniform(0.1, 5.0))), A)
        alpha = y - rng.uniform(0.0, 1.0, n)
        if faces:  # curvature 1/s + 1/(1 - s) reaches 1e12 at the box faces
            at = rng.random(n) < 0.5
            alpha[at] = np.where(rng.random(at.sum()) < 0.5, y[at], y[at] - 1.0)
    red = _reduced_with_live(obj, A, alpha, _picks(rng, live, d))
    mask = _picks(rng, free, n)
    grad = rng.standard_normal(n)
    x = red.newton_direction(alpha, grad, mask, h)
    assert np.all(x[~mask] == 0.0)
    if not mask.any():
        return
    M = oc.dense_hessian(red, alpha)[np.ix_(mask, mask)] + h * np.eye(mask.sum())
    g = grad[mask]
    ref = np.linalg.solve(M, g)
    assert np.linalg.norm(M @ x[mask] - g) <= 1e-8 * np.linalg.norm(g)
    assert np.linalg.norm(x[mask] - ref) <= 1e-8 * np.linalg.norm(ref)


def test_newton_direction_falls_back_to_masked_gradient(monkeypatch):
    A = AtomicMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    y = np.array([1.0, 0.0, 1.0])
    obj = logistic_dual(LogisticSpec(labels=y), A)
    alpha = y - 0.3
    grad = np.array([0.5, -1.0, 2.0])
    mask = np.array([True, False, True])
    for live in (np.zeros(2, dtype=bool), np.ones(2, dtype=bool)):
        red = _reduced_with_live(obj, A, alpha, live)
        # a negative curvature makes the solve descend (no live column) or
        # leaves it non-finite (live columns scaled by sqrt of negative weights)
        monkeypatch.setattr(red, "_curvature", lambda a, live=live: (-np.ones(3), live, 1.0))
        with np.errstate(invalid="ignore"):
            x = red.newton_direction(alpha, grad, mask, 1e-4)
        assert np.array_equal(x, np.where(mask, grad, 0.0))


def test_basket_and_logistic_never_reach_cg(monkeypatch, rng):
    def no_cg(*args, **kwargs):
        raise RuntimeError("cg_solve called")

    monkeypatch.setattr(prodscreen.solver, "cg_solve", no_cg)
    X = (rng.random((30, 6)) < 0.4).astype(float)
    A = AtomicMatrix.from_dense(X)
    res = solve(basket_dual(BasketSpec(tau_target=2.0), A), A, PenaltySchedule.flat(3.0))
    assert res.state.converged and res.model.n_active > 0
    y = (rng.random(30) < 0.5).astype(float)
    pr = run_path(logistic_dual(LogisticSpec(labels=y), A), A,
                  PathConfig(n_lambdas=5, lambda_min_ratio=0.1),
                  schedule=PenaltySchedule.flat(1.0))
    assert all(p.converged for p in pr.points)
    assert pr.points[-1].active_count > 0
    # the matrix objective still solves through CG
    mobj = matrix_dual(MatrixSpec(responses=rng.standard_normal((30, 2)), eta_l2=1e-2), A)
    with pytest.raises(RuntimeError, match="cg_solve called"):
        solve(mobj, A, PenaltySchedule.flat(0.5))


# ------------------------------------------------------ certificate screen --

def _near_copies(seed):
    """Logistic data whose columns 1 and 3 copy columns 0 and 2 with 8% of
    the bits flipped, so the child-parent shortcut skips their products."""
    rng = np.random.default_rng(seed)
    n = 120
    X = (rng.random((n, 6)) < 0.5).astype(float)
    for dst, src in ((1, 0), (3, 2)):
        flip = rng.random(n) < 0.08
        X[:, dst] = np.where(flip, 1.0 - X[:, src], X[:, src])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(1.5 - 3.0 * X[:, 0] * X[:, 1]))).astype(float)
    return AtomicMatrix.from_dense(X), y


@pytest.mark.parametrize("seed", range(4))
def test_child_parent_prune_keeps_certificate_exact(seed):
    A, y = _near_copies(seed)
    obj = logistic_dual(LogisticSpec(labels=y), A)
    flat = PenaltySchedule.flat(1.0)
    sched = flat.with_base(0.2 * lambda_max(obj, A, flat))
    res = solve(obj, A, sched, scfg=ScreenConfig(child_parent_prune=0.8))
    assert res.state.converged
    exact = screen(A, obj.screen_weights(res.state.alpha), sched, obj.screen_config())
    model = {fs.atoms for fs in res.model.active}
    assert [e.feature_set.atoms for e in exact.emitted if e.feature_set.atoms not in model] == []
    # at the starting dual with nothing active the shortcut skips sets the
    # exact screen emits; verify_kkt, given the pruning config, still
    # returns every one of them
    w = obj.screen_weights(obj.project(np.asarray(obj.alpha0(), dtype=float)))
    exact = screen(A, w, sched, obj.screen_config())
    pruning = obj.screen_config(ScreenConfig(child_parent_prune=0.8))
    assert len(screen(A, w, sched, pruning).emitted) < len(exact.emitted)
    check, missing = verify_kkt(A, w, sched, pruning, [])
    assert [e.feature_set.atoms for e in missing] == [e.feature_set.atoms for e in exact.emitted]
    assert check.explored_count == exact.explored_count


# ------------------------------------------------------------ stop reasons --

def test_stop_reasons(rng):
    X = (rng.random((20, 5)) < 0.5).astype(float)
    A = AtomicMatrix.from_dense(X)
    obj = basket_dual(BasketSpec(tau_target=2.0), A)
    res = solve(obj, A, PenaltySchedule.flat(3.0))
    assert res.state.stop_reason == "converged" and res.state.converged
    res = solve(obj, A, PenaltySchedule.flat(3.0), cfg=SolverConfig(max_outer=1, max_inner=1))
    assert res.state.stop_reason == "max_outer" and not res.state.converged
    assert res.state.outer_iterations == 1


def test_one_reduced_dual_per_outer_round():
    A, y = _near_copies(0)
    flat = PenaltySchedule.flat(1.0)
    for obj, rounds in ((basket_dual(BasketSpec(tau_target=2.0), A), 1),
                        (logistic_dual(LogisticSpec(labels=y), A), 2)):
        builds = []
        build = obj.reduced
        obj.reduced = lambda active, build=build: builds.append(1) or build(active)
        res = solve(obj, A, flat.with_base(0.5 * lambda_max(obj, A, flat)))
        assert res.state.converged and res.state.outer_iterations == rounds
        assert len(builds) == rounds
