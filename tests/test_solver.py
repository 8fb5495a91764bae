import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from prodscreen import (AtomicMatrix, BasketSpec, LogisticSpec, MatrixSpec,
                        PenaltySchedule, ScreenConfig, SolverConfig, basket_dual,
                        cg_solve, lambda_max, line_search, logistic_dual, matrix_dual,
                        qn_step, solve, synth_planted)
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


def test_cg_zero_rhs():
    x = cg_solve(lambda v: v, np.zeros(4))
    assert np.allclose(x, 0.0)


def test_cg_nonfinite_raises():
    with pytest.raises(ValueError, match="non-finite"):
        cg_solve(lambda v: v * np.nan, np.ones(3))


def test_qn_step_limits():
    cfg = SolverConfig()
    g = np.array([1.0, -2.0, 0.5])
    mask = np.ones(3, dtype=bool)
    # zero curvature, h = 1: direction equals the gradient
    d = qn_step(g, lambda v: np.zeros_like(v), mask, 1.0, cfg)
    assert np.allclose(d, g, atol=1e-10)
    # identity curvature, h = 1: direction halves
    d = qn_step(g, lambda v: v, mask, 1.0, cfg)
    assert np.allclose(d, g / 2.0, atol=1e-10)
    # masked coordinates never move
    mask2 = np.array([True, False, True])
    d = qn_step(g, lambda v: v, mask2, 1.0, cfg)
    assert d[1] == 0.0
    # CG blowing up falls back to the gradient
    d = qn_step(g, lambda v: v * np.nan, mask, 1.0, cfg)
    assert np.allclose(d, g)


class _Quad:
    """Concave 1-D toy: f(a) = -(a - 3)^2 / 2, maximized at 3."""

    def value(self, a):
        return float(-0.5 * (a[0] - 3.0) ** 2)

    def project(self, a):
        return a


def test_line_search_accepts_and_shrinks_h():
    cfg = SolverConfig(h_init=1e-4)
    red = _Quad()
    a = np.array([0.0])
    res = line_search(red, a, red.value(a), np.array([3.0]), np.array([3.0]), 0.1, cfg)
    assert not res.stalled
    assert res.value > red.value(a)
    assert res.h == pytest.approx(0.05)  # first-try success halves h
    assert np.allclose(res.alpha, [3.0])


def test_line_search_h_floor():
    cfg = SolverConfig(h_init=1e-4)
    res = line_search(_Quad(), np.array([0.0]), -4.5, np.array([3.0]),
                      np.array([3.0]), 1e-4, cfg)
    assert res.h == pytest.approx(1e-4)  # never shrinks below h_init


def test_line_search_stalls_at_optimum():
    cfg = SolverConfig()
    red = _Quad()
    a = np.array([3.0])  # already optimal; no strict increase exists
    res = line_search(red, a, red.value(a), np.array([1.0]), np.array([0.0]), 0.1, cfg)
    assert res.stalled
    assert np.allclose(res.alpha, a)
    assert res.h == pytest.approx(1.0)  # grown once on the quasi-Newton failure


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


def test_progress_log_schema(rng):
    X = (rng.random((15, 5)) < 0.5).astype(float)
    A = AtomicMatrix.from_dense(X)
    obj = basket_dual(BasketSpec(tau_target=2.0), A)
    res = solve(obj, A, PenaltySchedule.flat(3.0))
    assert len(res.log) == res.state.outer_iterations
    outer, inner, dval, gap, active, explored = res.log[-1]
    assert outer == res.state.outer_iterations
    assert inner == res.state.inner_iterations
    assert dval == res.state.dual_value
    assert gap == res.state.gap
    assert explored == res.screen_result.explored_count


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
