import numpy as np
import pytest

import oracles as oc
from prodscreen import (AtomicMatrix, BasketSpec, LogisticSpec, MatrixSpec,
                        PenaltySchedule, ScreenConfig, SolverConfig, basket_dual,
                        lambda_max, logistic_dual, matrix_dual, rank_report,
                        screen, solve)
from prodscreen import screening
from conftest import random_binary


def _fd_gradient(red, alpha, eps=1e-6):
    g = np.zeros_like(alpha)
    it = np.nditer(alpha, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        hi = alpha.copy()
        lo = alpha.copy()
        hi[idx] += eps
        lo[idx] -= eps
        g[idx] = (red.value(hi) - red.value(lo)) / (2 * eps)
        it.iternext()
    return g


def _reduced_at(obj, A, sched, alpha):
    scr = screen(A, obj.screen_weights(alpha), sched, obj.screen_config())
    return obj.reduced(list(scr.emitted))


def test_spec_validation(rng):
    with pytest.raises(ValueError):
        BasketSpec(tau_target=-1.0)
    with pytest.raises(ValueError):
        BasketSpec(gamma=0.0)
    with pytest.raises(ValueError):
        LogisticSpec(labels=np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        MatrixSpec(responses=np.zeros((3, 2)), rho_nuclear=-0.1)
    with pytest.raises(ValueError):
        MatrixSpec(responses=np.zeros(3))


def test_matrix_spec_rejects_no_response_columns():
    """An (n, 0) response matrix would fit nothing and certify the empty model."""
    with pytest.raises(ValueError, match="T >= 1"):
        MatrixSpec(responses=np.zeros((3, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("make", [
    lambda v: BasketSpec(tau_target=v), lambda v: BasketSpec(gamma=v),
    lambda v: LogisticSpec(labels=np.zeros(3), tau_l2=v),
    lambda v: MatrixSpec(responses=np.zeros((3, 2)), rho_nuclear=v),
    lambda v: MatrixSpec(responses=np.zeros((3, 2)), eta_l2=v),
], ids=["basket-tau", "basket-gamma", "logistic-tau", "matrix-rho", "matrix-eta"])
def test_spec_rejects_non_finite(make, bad):
    """NaN fails every comparison, so a bare ``x <= 0`` check lets it through."""
    with pytest.raises(ValueError, match="finite"):
        make(bad)


def test_screen_modes_per_objective(rng):
    """Each objective's screen config is the caller's, unchanged; the
    statistic follows from the screen weights of its dual."""
    _, A = random_binary(rng, 10, 4)
    base = ScreenConfig(max_order=3)
    b = basket_dual(BasketSpec(), A)
    lo = logistic_dual(LogisticSpec(labels=np.zeros(10)), A)
    m = matrix_dual(MatrixSpec(responses=np.zeros((10, 2)), eta_l2=1.0), A)
    for obj, mode in ((b, "signed"), (lo, "signed"), (m, "group")):
        assert obj.screen_config() == ScreenConfig()
        assert obj.screen_config(base) is base
        assert screening._mode(obj.screen_weights(obj.alpha0())) == mode


def test_basket_gradient_fd(rng):
    X, A = random_binary(rng, 14, 5)
    obj = basket_dual(BasketSpec(tau_target=2.0, gamma=0.05), A)
    sched = PenaltySchedule.flat(1.0)
    for _ in range(5):
        alpha = 2.0 * rng.random(14) + 0.05
        red = _reduced_at(obj, A, sched, alpha)
        g = red.gradient(alpha)
        fd = _fd_gradient(red, alpha)
        assert np.max(np.abs(g - fd)) <= 1e-5 * (1 + np.max(np.abs(g)))


def test_logistic_gradient_fd(rng):
    X, A = random_binary(rng, 14, 5)
    y = (rng.random(14) < 0.5).astype(float)
    obj = logistic_dual(LogisticSpec(labels=y, tau_l2=0.7), A)
    sched = PenaltySchedule.geometric(0.3, 1.5)
    for _ in range(5):
        alpha = y - np.clip(rng.random(14), 0.1, 0.9)
        red = _reduced_at(obj, A, sched, alpha)
        g = red.gradient(alpha)
        fd = _fd_gradient(red, alpha)
        assert np.max(np.abs(g - fd)) <= 1e-5 * (1 + np.max(np.abs(g)))


def test_matrix_gradient_fd_through_clipping(rng):
    """The residual spectrum is placed below, straddling, and above the
    nuclear threshold, so every branch of the singular-value clipping
    contributes to at least one finite-difference comparison."""
    from prodscreen.objectives import _gram_singulars
    X, A = random_binary(rng, 12, 4)
    Y = rng.standard_normal((12, 3))
    rho = 0.8
    spec = MatrixSpec(responses=Y, rho_nuclear=rho, eta_l2=0.05)
    obj = matrix_dual(spec, A)
    sched = PenaltySchedule.geometric(0.5, 1.5)
    U = rng.standard_normal((12, 3))
    sig_u, _ = _gram_singulars(U)
    s_mixed = rho / np.sqrt(sig_u.max() * sig_u.min())
    regimes = {"below": 0.1 * rho / sig_u.max(),
               "mixed": s_mixed,
               "above": 10.0 * rho / sig_u.min()}
    seen = set()
    for name, s in regimes.items():
        alpha = obj.Yc - s * U
        sig, _ = _gram_singulars(obj.Yc - alpha)
        if np.all(sig < rho):
            seen.add("below")
        elif np.all(sig > rho):
            seen.add("above")
        else:
            seen.add("mixed")
        red = _reduced_at(obj, A, sched, alpha)
        g = red.gradient(alpha)
        fd = _fd_gradient(red, alpha)
        assert np.max(np.abs(g - fd)) <= 1e-5 * (1 + np.max(np.abs(g))), name
    assert seen == {"below", "mixed", "above"}


def test_hessian_symmetry(rng):
    X, A = random_binary(rng, 10, 4)
    y = (rng.random(10) < 0.5).astype(float)
    Y = rng.standard_normal((10, 2))
    cases = [
        (basket_dual(BasketSpec(tau_target=2.0, gamma=0.05), A),
         PenaltySchedule.flat(0.8), 2.0 * rng.random(10) + 0.01),
        (logistic_dual(LogisticSpec(labels=y, tau_l2=1.0), A),
         PenaltySchedule.flat(0.3), y - np.clip(rng.random(10), 0.2, 0.8)),
        (matrix_dual(MatrixSpec(responses=Y, rho_nuclear=0.4, eta_l2=0.05), A),
         PenaltySchedule.flat(0.5), 0.5 * rng.standard_normal((10, 2))),
    ]
    for obj, sched, alpha in cases:
        red = _reduced_at(obj, A, sched, alpha)
        H = oc.dense_hessian(red, alpha)
        assert np.max(np.abs(H - H.T)) < 1e-10


def _fd_curvature(red, alpha, eps=1e-6):
    """Central-difference Jacobian of -gradient, one column per entry."""
    H = np.zeros((alpha.size, alpha.size))
    for i in range(alpha.size):
        e = np.zeros(alpha.shape)
        e.flat[i] = eps
        H[:, i] = (red.gradient(alpha - e) - red.gradient(alpha + e)).ravel() / (2 * eps)
    return H


@pytest.mark.parametrize("n, T", [(12, 3), (5, 7)])
def test_matrix_hessian_matches_fd_jacobian(rng, n, T):
    """hessian_matvec is the exact negative Hessian of the reduced matrix
    dual, away from kinks: singular values below, straddling and above the
    nuclear weight, the weight at zero, and rows with n < T; every case has
    live group rows.  The operator is also symmetric PSD."""
    X, A = random_binary(rng, n, 3, density=0.6)
    Y = rng.standard_normal((n, T))
    U = rng.standard_normal((n, T))
    sig_u = np.linalg.svd(U, compute_uv=False)
    rho = 0.8
    regimes = {"below": 0.1 * rho / sig_u.max(),
               "mixed": rho / np.sqrt(sig_u.max() * sig_u.min()),
               "above": 10.0 * rho / sig_u.min()}
    seen = set()
    for weight in (rho, 0.0):
        obj = matrix_dual(MatrixSpec(responses=Y, rho_nuclear=weight, eta_l2=0.05), A)
        for name, s in regimes.items():
            alpha = obj.Yc - s * U  # residual Yc - alpha = s U
            sig = np.linalg.svd(obj.Yc - alpha, compute_uv=False)
            assert np.min(np.abs(sig - weight)) > 1e-3
            if not weight:
                seen.add("zero weight")
            elif np.all(sig < weight):
                seen.add("below")
            elif np.all(sig > weight):
                seen.add("above")
            else:
                seen.add("mixed")
            top = np.linalg.norm(X.T @ alpha, axis=1).max()
            red = _reduced_at(obj, A, PenaltySchedule.flat(0.5 * top), alpha)
            norms = np.linalg.norm(red.dots(alpha), axis=1)
            assert np.any(norms > red.thr)
            assert np.min(np.abs(norms - red.thr)) > 1e-3
            H = oc.dense_hessian(red, alpha)
            fd = _fd_curvature(red, alpha)
            assert np.max(np.abs(H - fd)) <= 1e-6 * (1 + np.max(np.abs(fd))), name
            assert np.max(np.abs(H - H.T)) < 1e-10
            assert np.linalg.eigvalsh(0.5 * (H + H.T)).min() >= -1e-10
    assert seen == {"below", "mixed", "above", "zero weight"}


@pytest.mark.parametrize("spectrum, rho, wide", [
    ([3.0, 3.0, 1.0], 2.0, False),   # tied singular values above rho
    ([3.0, 1.5, 0.0], 1.0, False),   # a zero singular value
    ([3.0, 0.0, 0.0], 1.0, False),   # tied zeros
    ([2.5, 2.5, 0.5], 1.0, True),    # n < T, with a tie
])
def test_sv_excess_jacobian_ties_and_zeros(rng, spectrum, rho, wide):
    """Ties and zero singular values are no kinks of the singular-value
    soft threshold, so its Jacobian there matches central differences."""
    from prodscreen.objectives import _sv_excess_jacobian
    Uo = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    Vo = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    R = (Uo * spectrum) @ Vo.T
    if wide:
        R = R.T
    jv = _sv_excess_jacobian(R, rho)
    eps = 1e-6
    for i in range(R.size):
        E = np.zeros(R.shape)
        E.flat[i] = 1.0
        fd = (oc.svt(R + eps * E, rho) - oc.svt(R - eps * E, rho)) / (2 * eps)
        assert np.max(np.abs(jv(E) - fd)) < 1e-7


def test_dual_value_constants_at_empty_model(rng):
    """With nothing active, the dual optimum equals the zero-model primal:
    the additive constants are kept, so values match across the gap."""
    X, A = random_binary(rng, 9, 3)
    obj = basket_dual(BasketSpec(tau_target=3.0), A)
    red = obj.reduced([])
    assert red.value(obj.alpha0()) == pytest.approx(red.primal_value(np.zeros(0)))
    assert red.value(obj.alpha0()) == pytest.approx(0.5 * 9 * 3.0 ** 2)

    y = (rng.random(9) < 0.5).astype(float)
    lobj = logistic_dual(LogisticSpec(labels=y), A)
    lred = lobj.reduced([])
    assert lred.value(lobj.alpha0()) == pytest.approx(9 * np.log(2.0))
    assert lred.value(lobj.alpha0()) == pytest.approx(lred.primal_value(np.zeros(0)))

    Y = rng.standard_normal((9, 2))
    for rho in (0.0, 0.8, 100.0):
        mobj = matrix_dual(MatrixSpec(responses=Y, rho_nuclear=rho, eta_l2=1e-2), A)
        mred = mobj.reduced([])
        assert mred.value(mobj.alpha0()) == pytest.approx(
            mred.primal_value(np.zeros((0, 2))))


def _model_scores(A, model):
    from prodscreen.data import interaction_column
    if not model.n_active:
        return None
    F = np.column_stack([interaction_column(A, fs) for fs in model.active])
    return F @ model.coefficients


def test_kkt_pairing_at_optimum(rng):
    """Where the loss gradient is single-valued, the optimal dual variable
    is the loss residual of the fitted scores."""
    X, A = random_binary(rng, 20, 6)
    cfg = SolverConfig(kkt_tol=1e-10)

    def pairing_tol(res):
        # a certified gap g localizes alpha within O(sqrt(g)) of the optimum
        return max(1e-6, 20.0 * np.sqrt(max(res.state.gap, 0.0)))

    obj = basket_dual(BasketSpec(tau_target=2.0, gamma=1e-3), A)
    sched = PenaltySchedule.flat(0.35 * lambda_max(obj, A, PenaltySchedule.flat(1.0)))
    res = solve(obj, A, sched, cfg=cfg)
    assert res.state.converged and res.model.n_active
    paired = np.maximum(2.0 - _model_scores(A, res.model), 0.0)
    assert np.max(np.abs(res.state.alpha - paired)) < pairing_tol(res)

    y = (rng.random(20) < 0.5).astype(float)
    lobj = logistic_dual(LogisticSpec(labels=y, tau_l2=1.0), A)
    lsched = PenaltySchedule.flat(0.3 * lambda_max(lobj, A, PenaltySchedule.flat(1.0)))
    lres = solve(lobj, A, lsched, cfg=cfg)
    assert lres.state.converged and lres.model.n_active
    paired = y - 1.0 / (1.0 + np.exp(-_model_scores(A, lres.model)))
    assert np.max(np.abs(lres.state.alpha - paired)) < pairing_tol(lres)

    Y = rng.standard_normal((20, 3))
    mobj = matrix_dual(MatrixSpec(responses=Y, rho_nuclear=0.0, eta_l2=1e-2), A)
    msched = PenaltySchedule.geometric(
        0.3 * lambda_max(mobj, A, PenaltySchedule.geometric(1.0, 1.5)), 1.5)
    mres = solve(mobj, A, msched, cfg=cfg)
    assert mres.state.converged and mres.model.n_active
    paired = mobj.Yc - _model_scores(A, mres.model)
    assert np.max(np.abs(mres.state.alpha - paired)) < pairing_tol(mres)


def test_nonneg_emerges_unconstrained(rng):
    """With the covering target at its default (well above any achievable
    per-row coverage here), the basket dual solved without the sign
    constraint still lands in the non-negative orthant."""
    for d in (4, 5, 6, 7, 8):
        X, A = random_binary(rng, 20, d)
        obj = basket_dual(BasketSpec(), A, enforce_nonneg=False)
        lm = lambda_max(obj, A, PenaltySchedule.flat(1.0))
        for frac in (0.3, 0.6):
            res = solve(obj, A, PenaltySchedule.flat(frac * lm),
                        cfg=SolverConfig(kkt_tol=1e-8))
            assert res.state.converged
            assert res.state.alpha.min() >= -1e-8


def test_unconstrained_certificate_refused_when_overcovered(rng):
    """A small covering target with heavily overlapping columns lets the
    sign-free dual surface peak outside the orthant; there the dual value
    exceeds the true optimum, so the solver must not report convergence.
    The constrained solve on the same instance certifies normally."""
    rng = np.random.default_rng(20260821)
    X, A = random_binary(rng, 15, 6)
    spec = BasketSpec(tau_target=2.0, gamma=1e-2)
    sched = PenaltySchedule.flat(
        0.4 * lambda_max(basket_dual(spec, A), A, PenaltySchedule.flat(1.0)))
    free = solve(basket_dual(spec, A, enforce_nonneg=False), A, sched,
                 cfg=SolverConfig(kkt_tol=1e-8))
    assert not free.state.converged
    # at the flat sign-free peak no step is certified, so the solve stalls
    # there instead of stepping on rounding noise until max_outer
    assert free.state.stop_reason == "stalled"
    assert free.state.gap < -1e-6
    assert free.state.alpha.min() < -1e-3
    pinned = solve(basket_dual(spec, A), A, sched, cfg=SolverConfig(kkt_tol=1e-8))
    assert pinned.state.converged
    assert pinned.state.alpha.min() >= 0.0
    # the sign-free stationary value overstates the certified optimum
    assert free.state.dual_value > pinned.state.dual_value + 1e-5


def test_hierarchy_under_increasing_penalty(rng):
    """Non-negative dual + strictly increasing rho: active sets are downward
    closed, so every subset of an active interaction is itself active."""
    for _ in range(5):
        X, A = random_binary(rng, 25, 6, density=0.5)
        obj = basket_dual(BasketSpec(tau_target=2.0, gamma=1e-2), A)
        shape = PenaltySchedule.geometric(1.0, 1.5)
        lm = lambda_max(obj, A, shape)
        res = solve(obj, A, shape.with_base(0.3 * lm))
        assert res.state.converged
        active = {fs.atoms for fs in res.model.active}
        for atoms in active:
            if len(atoms) > 1:
                for drop in range(len(atoms)):
                    sub = atoms[:drop] + atoms[drop + 1:]
                    assert sub in active, (atoms, sub)


@pytest.mark.parametrize("n, d, T, rho, eta, share, scale", [
    pytest.param(12, 4, 1, 0.5, 0.05, 0.35, 2.0, id="12-4-1-0.5-0.05-0.35"),
    pytest.param(10, 3, 3, 0.6, 0.1, 0.4, 2.0, id="10-3-3-0.6-0.1-0.4"),
    pytest.param(10, 3, 3, 0.6, 0.1, 0.4, 1.0, id="10-3-3-0.6-0.1-0.4-unit"),
])
def test_matrix_against_fista_oracle(rng, n, d, T, rho, eta, share, scale):
    """Full objective value against the offline dual-FISTA oracle on the
    materialized lattice; T = 1 makes the nuclear term a plain l2 norm of
    the scores, T = 3 is a genuine nuclear norm, at two response scales."""
    X, A = random_binary(rng, n, d)
    Y = scale * rng.standard_normal((n, T))
    spec = MatrixSpec(responses=Y, rho_nuclear=rho, eta_l2=eta, fit_intercept=False)
    obj = matrix_dual(spec, A)
    sched = PenaltySchedule.flat(share * lambda_max(obj, A, PenaltySchedule.flat(1.0)))
    res = solve(obj, A, sched, cfg=SolverConfig(kkt_tol=1e-8))
    assert res.state.converged and res.model.n_active

    subsets, P = oc.materialize(X)
    lam_vec = oc.threshold_vector(subsets, sched)
    _, primal, dual = oc.solve_matrix_primal(P, Y, lam_vec, eta, rho)
    assert primal - dual <= 1e-7 * (1.0 + abs(primal))
    emb = oc.embed_model(res.model, subsets, T=T)
    ours = oc.matrix_objective(P, Y, lam_vec, eta, rho, emb)
    assert ours == pytest.approx(primal, rel=1e-6, abs=1e-6)
    assert ours >= dual - 1e-9 * (1.0 + abs(dual))


def test_intercept_centering(rng):
    X, A = random_binary(rng, 16, 4)
    Y = rng.standard_normal((16, 2)) + np.array([3.0, -1.0])
    spec = MatrixSpec(responses=Y, eta_l2=0.05, fit_intercept=True)
    obj = matrix_dual(spec, A)
    assert np.allclose(obj.intercept, Y.mean(axis=0))
    spec0 = MatrixSpec(responses=Y - Y.mean(axis=0), eta_l2=0.05, fit_intercept=False)
    obj0 = matrix_dual(spec0, A)
    sched = PenaltySchedule.flat(1.0)
    r1 = solve(obj, A, sched)
    r0 = solve(obj0, A, sched)
    assert np.allclose(r1.state.alpha, r0.state.alpha, atol=1e-9)
    assert np.allclose(r1.model.coefficients, r0.model.coefficients, atol=1e-9)
    assert np.allclose(r1.model.intercept, Y.mean(axis=0))
    assert r0.model.intercept.size == 0 or np.allclose(r0.model.intercept, 0.0)


def test_rank_report_consistency(rng):
    """At an (essentially) exact optimum the fitted prediction matrix has
    exactly as many numerical singular values as the residual retains above
    the nuclear threshold, across threshold regimes."""
    from prodscreen.data import interaction_column
    from prodscreen import FeatureSet
    rng = np.random.default_rng(7)
    X, A = random_binary(rng, 30, 5)
    c1 = interaction_column(A, FeatureSet((0, 1)))
    c2 = interaction_column(A, FeatureSet((2,)))
    B = (np.outer(c1, [3.0, 1.0, 0.0, 0.0])
         + np.outer(c2, [0.0, 0.0, 2.5, -1.5]))
    Y = B + 0.05 * rng.standard_normal((30, 4))
    shape = PenaltySchedule.geometric(1.0, 2.0)
    ranks = []
    for rho in (0.0, 0.3, 1.0):
        spec = MatrixSpec(responses=Y, rho_nuclear=rho, eta_l2=1e-2)
        obj = matrix_dual(spec, A)
        sched = shape.with_base(0.15 * lambda_max(obj, A, shape))
        res = solve(obj, A, sched, cfg=SolverConfig(kkt_tol=1e-8, max_inner=2000))
        assert res.state.converged
        pred_rank, retained = rank_report(spec, A, res.state.alpha, res.model)
        assert pred_rank == retained
        ranks.append(pred_rank)
    assert ranks[0] == 4        # no nuclear shrinkage: full response rank
    assert ranks[1] == ranks[2] == 2   # threshold recovers the planted rank


def test_rank_report_reads_exact_rank_one():
    """A prediction matrix that is exactly rank 1 reads as rank 1.  Squared
    through P^T P, its zero singular values come back near sqrt(eps) times
    the top one, above the 1e-8 relative cutoff, in about half of these
    draws."""
    from prodscreen import FeatureSet, PrimalModel
    rng = np.random.default_rng(11)
    X, A = random_binary(rng, 60, 4, density=0.5)
    sets = [FeatureSet((j,)) for j in range(4)]
    for _ in range(40):
        W = np.outer(rng.standard_normal(4), rng.standard_normal(4))
        model = PrimalModel.from_coefficients("matrix", sets, W)
        Y = rng.standard_normal((60, 4))
        spec = MatrixSpec(responses=Y, rho_nuclear=0.0, eta_l2=1e-2, fit_intercept=False)
        pred_rank, _ = rank_report(spec, A, Y, model)
        assert pred_rank == 1
