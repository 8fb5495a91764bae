import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import oracles as oc
import prodscreen.objectives
import prodscreen.path
import prodscreen.solver
from prodscreen import (AtomicMatrix, BasketSpec, FeatureSet, LogisticSpec, MatrixSpec,
                        PathConfig, PenaltySchedule, PrimalModel, ScreenConfig,
                        SolverConfig, basket_dual, interaction_column, interaction_matrix,
                        lambda_max, logistic_dual, matrix_dual, rank_report, run_path, screen,
                        solve, synth_planted)
from prodscreen.screening import Emitted
from prodscreen.solver import LineSearchResult, cg_solve, line_search, qn_step


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
    # zero curvature, h = 1: direction equals the gradient
    d = qn_step(g, lambda v: np.zeros_like(v), 1.0)
    assert np.allclose(d, g, atol=1e-10)
    # identity curvature, h = 1: direction halves
    d = qn_step(g, lambda v: v, 1.0)
    assert np.allclose(d, g / 2.0, atol=1e-10)
    # CG blowing up falls back to the gradient
    d = qn_step(g, lambda v: v * np.nan, 1.0)
    assert np.allclose(d, g)


class _Quad:
    """Concave 1-D toy: f(a) = -(a - 3)^2 / 2, maximized at 3."""

    def value(self, a):
        return float(-0.5 * (a[0] - 3.0) ** 2)

    def step_along(self, a, value, direction):
        return prodscreen.solver.backtrack(self, a, value, direction)


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


class _Flat:
    """A dual whose value never rises while its gradient -a halves along
    each Newton step: the line search stalls at once, and every polish
    step is accepted until the gradient vanishes."""

    def value(self, a):
        return 0.0

    def gradient(self, a):
        return -a

    def newton_direction(self, a, grad, h):
        return 0.5 * grad

    def project(self, a):
        return a

    def step_along(self, a, value, direction):
        return prodscreen.solver.backtrack(self, a, value, direction)


def test_polish_stays_inside_the_inner_cap():
    """Polish steps count as inner steps, so a round that stalls and then
    polishes still takes at most max_inner of them."""
    cfg = SolverConfig(max_inner=5)
    *_, iters, stop = prodscreen.solver._inner_ascent(_Flat(), np.ones(2), cfg, 1e-12)
    assert stop == "stalled"
    assert iters == cfg.max_inner


def _basket_primal_case(rng, nonneg, wide):
    """A basket reduced dual over every product column of dense atoms, m of
    them against n rows: m > n when ``wide``, m < n otherwise.  Each
    threshold is a random share of its column's dot with the empty model's
    dual point, so the optimum has coefficients at 0, at 1 and between."""
    n, d = (12, 5) if wide else (60, 4)
    A = AtomicMatrix.from_dense(rng.random((n, d)))
    spec = BasketSpec(tau_target=float(rng.uniform(0.5, 3.0)),
                      gamma=float(10.0 ** rng.uniform(-3.0, 0.0)))
    obj = basket_dual(spec, A, enforce_nonneg=nonneg)
    sets = [FeatureSet(atoms) for atoms in oc.all_subsets(d)]
    cols = interaction_matrix(A, sets)
    thr = rng.uniform(0.05, 1.0, len(sets)) * spec.tau_target * cols.sum(axis=0)
    red = obj.reduced([Emitted(fs, float(t), 0.0) for fs, t in zip(sets, thr)])
    assert red.F.shape == (n, len(sets)) and (red.F.shape[1] > n) == wide
    return red


@given(st.integers(0, 10 ** 6), st.booleans(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_basket_reduced_solve_reaches_the_primal_optimum(seed, nonneg, wide):
    """The basket's reduced solve, a projected Newton method on the boxed
    primal, ends at a primal value within 1e-9 relative of
    ``oracles.solve_basket_primal``'s, hinged or not, from a random start,
    with more columns than rows (Woodbury over the rows) and fewer (the
    direct solve).  The dual point it hands back is project(tau - F beta)
    at its last iterate beta, with that point's dual value."""
    rng = np.random.default_rng(seed)
    red = _basket_primal_case(rng, nonneg, wide)
    start = np.abs(rng.normal(0.0, red.tau, red.F.shape[0]))
    if not nonneg:
        start -= 0.5 * red.tau
    iterates = []
    dual_point = red._dual_point
    red._dual_point = lambda beta: iterates.append(beta) or dual_point(beta)
    alpha, value, steps, stop = red.ascend(start, SolverConfig(), 1e-9)
    assert stop == "tol" and steps == len(iterates) - 1
    beta = iterates[-1]
    assert np.all((beta >= 0.0) & (beta <= 1.0))
    assert np.array_equal(alpha, red.project(red.tau - red.F @ beta))
    assert value == red.value(alpha)
    _, best = oc.solve_basket_primal(red.F, red.tau, red.thr, red.gamma, hinge=nonneg)
    r = red.tau - red.F @ beta
    loss = r if not nonneg else np.maximum(r, 0.0)
    got = 0.5 * loss @ loss + red.thr @ beta + 0.5 * red.gamma * beta @ beta
    assert abs(got - best) <= 1e-9 * (1.0 + abs(best))


@pytest.mark.parametrize("rows", [3, 40])
def test_basket_newton_solve_on_either_side(rng, rows):
    """(G^T G + gamma I)^-1 v through 20 columns: directly when the rows
    are as many or more, by Woodbury over 3 rows."""
    red = _basket_primal_case(rng, True, False)
    G = rng.random((rows, 20))
    v = rng.standard_normal(20)
    x = red._newton_solve(G, v)
    M = G.T @ G + red.gamma * np.eye(20)
    assert np.linalg.norm(M @ x - v) <= 1e-9 * np.linalg.norm(v)


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


@given(st.integers(0, 10 ** 6), st.floats(0.05, 0.9), st.floats(1.0, 2.0),
       st.floats(0.1, 5.0))
@settings(max_examples=120, deadline=None)
def test_logistic_iterates_keep_off_the_box_faces(seed, share, base, tau):
    """Every step a logistic solve accepts leaves each s = y - alpha inside
    (0, 1) with at least a tenth of its distance to the face it moves
    toward, so the entropy's curvature 1/s + 1/(1 - s) stays finite.
    Every point whose value the solve takes, rejected backtracking trials,
    gradient retries and polish trials included, lies in the closed box
    [y - 1, y]: ``value`` clips s, so a trial outside would be scored as
    another point, and ``backtrack`` does not project its trials."""
    rng = np.random.default_rng(seed)
    n, d = 14, 6
    A = AtomicMatrix.from_dense((rng.random((n, d)) < rng.uniform(0.2, 0.8)).astype(float))
    y = (rng.random(n) < 0.5).astype(float)
    obj = logistic_dual(LogisticSpec(labels=y, tau_l2=tau), A)
    sched = PenaltySchedule.geometric(1.0, base)
    lm = lambda_max(obj, A, sched)
    assume(lm > 0.0)
    steps, scored = [], []
    search = prodscreen.solver.line_search
    reduced = prodscreen.objectives._LogisticReduced
    value = reduced.value

    def recording(red, alpha, *args):
        res = search(red, alpha, *args)
        if not res.stalled:
            steps.append((alpha, res.alpha))
        return res

    def scoring(red, alpha):
        scored.append(alpha.copy())
        return value(red, alpha)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prodscreen.solver, "line_search", recording)
        mp.setattr(reduced, "value", scoring)
        solve(obj, A, sched.with_base(share * lm))
    assert steps
    assert len(scored) > len(steps)
    for alpha in scored:
        assert np.all((alpha >= y - 1.0) & (alpha <= y))
    for before, after in steps:
        s0, s1 = y - before, y - after
        assert np.all((s1 > 0.0) & (s1 < 1.0))
        falls = s1 < s0
        assert np.all(s1[falls] >= 0.1 * s0[falls] - 1e-15)
        assert np.all(1.0 - s1[~falls] >= 0.1 * (1.0 - s0[~falls]) - 1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_logistic_solve_from_a_box_face(seed):
    """A start on a face of the box, every s = 0 (alpha = y) or every s = 1
    (alpha = y - 1), steps inward and ends where the default start ends."""
    rng = np.random.default_rng(seed)
    A = AtomicMatrix.from_dense((rng.random((60, 6)) < 0.4).astype(float))
    y = (rng.random(60) < 0.5).astype(float)
    obj = logistic_dual(LogisticSpec(labels=y), A)
    sched = PenaltySchedule.geometric(1.0, 1.5)
    sched = sched.with_base(0.3 * lambda_max(obj, A, sched))
    ref = solve(obj, A, sched)
    assert ref.state.converged and ref.model.n_active > 0
    for face in (y, y - 1.0):
        res = solve(obj, A, sched, face)
        assert res.state.converged
        assert {fs.atoms for fs in res.model.active} == {fs.atoms for fs in ref.model.active}
        assert res.state.primal_value == pytest.approx(ref.state.primal_value, rel=1e-9)


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
    hv = oc.hessian_matvec(red, alpha)
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
    well inside the cap: no outer round ends at max_inner.  The two rank
    readouts agree at every weight, also where a residual singular value
    ends a damped step above rho."""
    ds, rhos = _rank_sweep_instance()
    for rho in rhos:
        res = _rank_sweep_solve(ds, rho, SolverConfig(kkt_tol=1e-8, max_inner=2000))
        assert res.state.converged, rho
        assert res.state.inner_cap_hits == 0, rho
        assert res.state.inner_iterations <= 200, rho
        spec = MatrixSpec(responses=ds.response, rho_nuclear=float(rho), eta_l2=1e-2)
        pred_rank, retained = rank_report(spec, ds.matrix, res.state.alpha, res.model)
        assert pred_rank == retained, rho


# ------------------------------------------------- direct Newton direction --

def _picks(rng, kind, size):
    return {"none": np.zeros(size, dtype=bool), "all": np.ones(size, dtype=bool),
            "some": rng.random(size) < 0.5}[kind]


def _reduced_with_live(obj, A, alpha, want):
    """Logistic reduced dual over every atom column, with thresholds placed
    so that exactly the columns flagged in ``want`` are live (|dots| > thr)
    at alpha."""
    cols = [interaction_column(A, (j,)) for j in range(A.n_cols)]
    dots = np.array([c @ alpha for c in cols])
    thr = np.where(want, 0.5 * np.abs(dots), np.abs(dots) + 1.0)
    red = obj.reduced([Emitted(FeatureSet((j,)), float(t), 0.0)
                       for j, (c, t) in enumerate(zip(cols, thr))])
    assert np.array_equal(red._curvature(alpha)[1], want)
    return red


@given(st.integers(0, 10 ** 6), st.sampled_from(("none", "some", "all")),
       st.floats(1e-4, 10.0), st.booleans())
@settings(max_examples=120, deadline=None)
def test_newton_direction_matches_dense_solve(seed, live, h, faces):
    """The logistic dual's direct Newton direction solves the dense damped
    system, also where rows sit on the box faces."""
    rng = np.random.default_rng(seed)
    n, d = 14, 6
    A = AtomicMatrix.from_dense(rng.random((n, d)))
    y = (rng.random(n) < 0.5).astype(float)
    obj = logistic_dual(LogisticSpec(labels=y, tau_l2=float(rng.uniform(0.1, 5.0))), A)
    alpha = y - rng.uniform(0.0, 1.0, n)
    if faces:  # curvature 1/s + 1/(1 - s) reaches 1e12 at the box faces
        at = rng.random(n) < 0.5
        alpha[at] = np.where(rng.random(at.sum()) < 0.5, y[at], y[at] - 1.0)
    red = _reduced_with_live(obj, A, alpha, _picks(rng, live, d))
    grad = rng.standard_normal(n)
    x = red.newton_direction(alpha, grad, h)
    M = oc.dense_hessian(red, alpha) + h * np.eye(n)
    ref = np.linalg.solve(M, grad)
    assert np.linalg.norm(M @ x - grad) <= 1e-8 * np.linalg.norm(grad)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


def test_newton_direction_falls_back_to_the_gradient(monkeypatch):
    A = AtomicMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    y = np.array([1.0, 0.0, 1.0])
    obj = logistic_dual(LogisticSpec(labels=y), A)
    alpha = y - 0.3
    grad = np.array([0.5, -1.0, 2.0])
    for live in (np.zeros(2, dtype=bool), np.ones(2, dtype=bool)):
        red = _reduced_with_live(obj, A, alpha, live)
        # a negative curvature makes the solve descend (no live column) or
        # leaves it non-finite (live columns scaled by sqrt of negative weights)
        monkeypatch.setattr(red, "_curvature", lambda a, live=live: (-np.ones(3), live, 1.0))
        with np.errstate(invalid="ignore"):
            x = red.newton_direction(alpha, grad, 1e-4)
        assert np.array_equal(x, grad)


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
    the bits flipped."""
    rng = np.random.default_rng(seed)
    n = 120
    X = (rng.random((n, 6)) < 0.5).astype(float)
    for dst, src in ((1, 0), (3, 2)):
        flip = rng.random(n) < 0.08
        X[:, dst] = np.where(flip, 1.0 - X[:, src], X[:, src])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(1.5 - 3.0 * X[:, 0] * X[:, 1]))).astype(float)
    return AtomicMatrix.from_dense(X), y


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


def test_logistic_path_does_not_stall(monkeypatch):
    """perfbench's ``logistic_cli`` instance at seed 1: 5,000 binary rows
    over 60 atoms with three planted sets, fitted along its 10-level path.
    A Newton step that drove rows of s = y - alpha against the box faces
    left the ascent crawling there, and the crawl ended in a stall that
    reached ``_polish``; this instance did, before each step was kept a
    tenth of its distance from the faces.  Now every level converges
    without one.  Rounding stalls are not gone in general: seeds 6 and 8
    of the same generator still stall once, with a predicted ascent below
    the value's rounding scale."""
    rng = np.random.default_rng(1)
    X = rng.random((7000, 60)) < 0.3  # 5,000 fit rows and 2,000 held out
    planted = (((0, 1), 6.0), ((4, 5, 6), 5.5), ((10,), 5.0))
    for atoms, _ in planted:
        rows = rng.choice(7000, size=700, replace=False)
        X[np.ix_(rows, list(atoms))] = True
    logit = sum(w * X[:, list(atoms)].all(axis=1) for atoms, w in planted) - 3.0
    y = (rng.random(7000) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    A = AtomicMatrix.from_dense(X[:5000].astype(float))

    def no_polish(*args, **kwargs):
        raise AssertionError("_polish reached")

    logs = []
    path_solve = prodscreen.path.solve

    def logging_solve(*args, **kwargs):
        res = path_solve(*args, **kwargs)
        logs.append(res.log)
        return res

    monkeypatch.setattr(prodscreen.solver, "_polish", no_polish)
    monkeypatch.setattr(prodscreen.path, "solve", logging_solve)
    pr = run_path(logistic_dual(LogisticSpec(labels=y[:5000], tau_l2=1.0), A), A,
                  PathConfig(n_lambdas=10, lambda_min_ratio=0.05), ScreenConfig(max_order=20),
                  schedule=PenaltySchedule.geometric(1.0, 1.5))
    assert len(pr.points) == len(logs) == 10
    assert all(p.converged for p in pr.points)
    assert all(row[-1] != "stalled" for log in logs for row in log)


def _basket_path_logs(X, tau, base, n_lambdas, ratio, monkeypatch):
    """The basket path on binary atoms X (gamma = 1e-3) with every level's
    solve log and state."""
    A = AtomicMatrix(X)
    solves = []
    path_solve = prodscreen.path.solve

    def logging_solve(*args, **kwargs):
        res = path_solve(*args, **kwargs)
        solves.append(res)
        return res

    monkeypatch.setattr(prodscreen.path, "solve", logging_solve)
    pr = run_path(basket_dual(BasketSpec(tau_target=tau, gamma=1e-3), A), A,
                  PathConfig(n_lambdas=n_lambdas, lambda_min_ratio=ratio),
                  ScreenConfig(max_order=20), schedule=PenaltySchedule.geometric(1.0, base))
    assert len(pr.points) == len(solves) == n_lambdas
    assert all(p.converged for p in pr.points)
    return pr, solves


def test_basket_path_stays_under_the_inner_cap(monkeypatch):
    """1,000 binary rows over 15 atoms at density 0.6, tau = 12, along a
    10-level path down to 0.05 lambda_max.  The dual ascent spent all 500
    inner steps of one level's round here, with a projected gradient of
    39.4 left, and 942 steps over the path; the primal Newton solve needs
    a few per level."""
    X = np.random.default_rng(102).random((1000, 15)) < 0.6
    pr, solves = _basket_path_logs(X, 12.0, 1.15, 10, 0.05, monkeypatch)
    assert all(res.state.inner_cap_hits == 0 for res in solves)
    assert sum(res.state.inner_iterations for res in solves) <= 100
    assert [p.active_count for p in pr.points] == [0, 9, 14, 15, 15, 15, 15, 18, 37, 41]


def test_basket_path_never_reaches_the_dual_line_search(monkeypatch):
    """perfbench's ``basket_path`` instance at seed 1: 300 transactions over
    20 items at density 0.65, item 0 in every basket, rows and items
    permuted by the seed, fitted along its 14-level path.  The basket's
    reduced problem is solved in its primal, so the dual's line search
    and ``_polish`` are never reached; every level converges and the last
    one keeps 35 sets."""
    X = np.random.default_rng(11).random((300, 20)) < 0.65
    X[:, 0] = True
    rng = np.random.default_rng(1)
    X = X[rng.permutation(300)][:, rng.permutation(20)]

    def unreachable(*args, **kwargs):
        raise AssertionError("dual line search reached")

    monkeypatch.setattr(prodscreen.solver, "line_search", unreachable)
    monkeypatch.setattr(prodscreen.solver, "_polish", unreachable)
    pr, _ = _basket_path_logs(X, 18.0, 1.15, 14, 0.02, monkeypatch)
    assert pr.points[-1].active_count == 35


def _sign_free_basket(seed, n, d, tau, gamma, share, cfg):
    """A sign-free basket solve at share * lambda_max of the constrained
    dual, on an overcovered binary instance whose sign-free peak has a
    negative gap."""
    X = np.random.default_rng(seed).random((n, d)) < 0.5
    A = AtomicMatrix(X)
    spec = BasketSpec(tau_target=tau, gamma=gamma)
    lm = lambda_max(basket_dual(spec, A), A, PenaltySchedule.flat(1.0))
    return solve(basket_dual(spec, A, enforce_nonneg=False), A,
                 PenaltySchedule.flat(share * lm), cfg=cfg)


@pytest.mark.parametrize("seed", range(24))
def test_sign_free_basket_stalls_in_few_steps(seed):
    """The sign-free solve reaches its peak in a few projected Newton steps
    on the primal and stops there, stalled on its uncertified gap, within a
    few dozen steps instead of creeping up on rounding noise for
    thousands."""
    res = _sign_free_basket(seed, 60, 7, 3.0, 2e-3, 0.1,
                            SolverConfig(kkt_tol=1e-8, max_outer=20))
    assert res.state.stop_reason == "stalled"
    assert res.state.inner_iterations <= 40


@pytest.mark.parametrize("seed", [10, 18, 19, 26, 34])
def test_round_without_step_at_tol_floor_stalls(seed):
    """Once the inner tolerance is at its floor, a round that takes no step
    and finds nothing missing would repeat itself: the solve stops there,
    stalled, instead of walking the lattice until max_outer."""
    res = _sign_free_basket(seed, 40, 6, 4.0, 1e-3, 0.05, SolverConfig())
    assert res.state.stop_reason == "stalled"
    assert res.state.outer_iterations <= 10
    assert res.log[-1][1] == res.log[-2][1]  # no step in the last round


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


def _matrix_instance(seed, rho):
    rng = np.random.default_rng(seed)
    A = AtomicMatrix(rng.random((60, 6)) < 0.4)
    spec = MatrixSpec(responses=rng.standard_normal((60, 3)), rho_nuclear=rho, eta_l2=1e-3)
    obj = matrix_dual(spec, A)
    sched = PenaltySchedule.geometric(1.0, 1.5)
    return obj, A, sched.with_base(0.2 * lambda_max(obj, A, sched))


def test_reduced_dual_rebuilt_only_after_expansion():
    """Rounds that only tighten the inner tolerance keep the reduced dual;
    a solve builds one at its start and one after each expansion."""
    obj, A, sched = _matrix_instance(7, 3.0)
    builds = []
    build = obj.reduced
    obj.reduced = lambda active: builds.append(1) or build(active)
    res = solve(obj, A, sched, cfg=SolverConfig(kkt_tol=1e-10, max_inner=40))
    assert res.state.converged
    assert res.state.outer_iterations > 1 + res.expansions
    assert len(builds) == 1 + res.expansions


def test_model_pairs_with_its_sets_when_max_outer_ends_an_expansion():
    """A solve whose last allowed round expands the active set returns the
    model of the sets its final dual point was solved over, not the grown set."""
    obj, A, sched = _matrix_instance(4, 0.0)
    res = solve(obj, A, sched, cfg=SolverConfig(kkt_tol=1e-10, max_inner=40, max_outer=1))
    assert res.state.stop_reason == "max_outer" and res.expansions == 1
    first = screen(A, obj.screen_weights(obj.project(obj.alpha0())), sched)
    red = obj.reduced(list(first.emitted))
    want = PrimalModel.from_coefficients(
        "matrix", red.feature_sets(), red.primal_map(res.state.alpha), obj.intercept)
    assert res.model.active == want.active
    assert np.array_equal(res.model.coefficients, want.coefficients)
