import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles as oc
from prodscreen import (AtomicMatrix, BasketSpec, FeatureSet, LogisticSpec,
                        MatrixSpec, PathConfig, PenaltySchedule, PrimalModel,
                        ScreenConfig, SolverConfig, basket_dual, lambda_max,
                        logistic_dual, matrix_dual, metrics_auc, metrics_r2,
                        predict, run_path, screen, solve, synth_planted)
from prodscreen import path as path_module
from prodscreen import screening
from prodscreen import solver as solver_module
from prodscreen.data import interaction_column
from conftest import random_binary


def _dense_of(A):
    return A.atom_matrix().astype(float)


# ------------------------------------------------------------- lambda_max --

def _brute_lambda_max(X, weights, schedule, mode):
    subsets, P = oc.materialize(X)
    stats = oc.enumerate_stats(P, weights, mode)
    return max(s / schedule.rho(len(u)) for u, s in zip(subsets, stats))


def test_lambda_max_matches_enumeration(rng):
    for _ in range(8):
        X, A = random_binary(rng, 12, 5)
        alpha = rng.standard_normal(12)

        obj = basket_dual(BasketSpec(tau_target=1.5), A)
        for sched in (PenaltySchedule.flat(1.0), PenaltySchedule.geometric(1.0, 1.7),
                      PenaltySchedule.supergeometric(1.0, 1.3, 1.4)):
            got = lambda_max(obj, A, sched)
            want = _brute_lambda_max(X, np.full(12, 1.5), sched, "nonneg")
            assert got == pytest.approx(want, rel=1e-12)

        y = (rng.random(12) < 0.5).astype(float)
        lobj = logistic_dual(LogisticSpec(labels=y), A)
        got = lambda_max(lobj, A, PenaltySchedule.geometric(1.0, 1.7))
        want = _brute_lambda_max(X, y - 0.5, PenaltySchedule.geometric(1.0, 1.7),
                                 "signed")
        assert got == pytest.approx(want, rel=1e-12)

        Y = rng.standard_normal((12, 3))
        mobj = matrix_dual(MatrixSpec(responses=Y, rho_nuclear=0.4), A)
        got = lambda_max(mobj, A, PenaltySchedule.flat(1.0))
        want = _brute_lambda_max(X, np.asarray(mobj.alpha0()),
                                 PenaltySchedule.flat(1.0), "group")
        assert got == pytest.approx(want, rel=1e-12)


def test_lambda_max_zero_weights():
    A = AtomicMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
    lobj = logistic_dual(LogisticSpec(labels=np.array([0.0, 1.0])), A)
    # y - 1/2 = (-.5, .5): dots are -.5 and .5, pair column dot 0
    assert lambda_max(lobj, A, PenaltySchedule.flat(1.0)) == pytest.approx(0.5)


def test_lambda_max_single_column(rng):
    A = AtomicMatrix.from_dense(np.ones((4, 1)))
    obj = basket_dual(BasketSpec(tau_target=2.0), A)
    # alpha0 = tau 1; single column stat = 4 tau
    assert lambda_max(obj, A, PenaltySchedule.flat(1.0)) == pytest.approx(8.0)


def test_above_lambda_max_solves_empty(rng):
    X, A = random_binary(rng, 10, 4)
    obj = basket_dual(BasketSpec(tau_target=2.0), A)
    lm = lambda_max(obj, A, PenaltySchedule.flat(1.0))
    res = solve(obj, A, PenaltySchedule.flat(lm * 1.01))
    assert res.state.converged
    assert res.model.n_active == 0


def _lambda_max_instance(seed, kind, shape):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(6, 30)), int(rng.integers(2, 7))
    if seed % 2:
        X = rng.random((n, d))
    else:
        X = (rng.random((n, d)) < 0.5).astype(float)
    A = AtomicMatrix.from_dense(X)
    if kind == "basket":
        obj = basket_dual(BasketSpec(tau_target=float(rng.uniform(1.0, 10.0))), A)
    elif kind == "logistic":
        obj = logistic_dual(LogisticSpec(labels=(rng.random(n) < 0.5).astype(float)), A)
    else:
        obj = matrix_dual(MatrixSpec(responses=rng.standard_normal((n, 2)),
                                     rho_nuclear=float(rng.uniform(0.0, 1.0))), A)
    base = float(rng.uniform(1.0, 2.0))
    sched = {"flat": PenaltySchedule.flat(1.0),
             "geometric": PenaltySchedule.geometric(1.0, base),
             "supergeometric": PenaltySchedule.supergeometric(
                 1.0, base, float(rng.uniform(1.0, 2.0)))}[shape]
    return A, obj, sched


@given(st.integers(0, 10 ** 6), st.sampled_from(("basket", "logistic", "matrix")),
       st.sampled_from(("flat", "geometric", "supergeometric")))
@example(734, "logistic", "geometric")
@example(666, "matrix", "supergeometric")
@settings(max_examples=60, deadline=None)
def test_screen_at_lambda_max_is_empty(seed, kind, shape):
    """lambda_max and screen run the same walk: at lambda_max the screen
    emits nothing, and a hair below it emits at least one set.  The two
    examples are instances where the ratio stat / rho rounds down, so the
    quotient alone would let its own set through."""
    A, obj, sched = _lambda_max_instance(seed, kind, shape)
    lm = lambda_max(obj, A, sched)
    assume(lm > 0.0)
    w = obj.screen_weights(obj.alpha0())
    cfg = obj.screen_config()
    assert screen(A, w, sched.with_base(lm), cfg).emitted == ()
    assert screen(A, w, sched.with_base(lm * (1.0 - 1e-9)), cfg).emitted


# --------------------------------------------------------------- run_path --

def test_path_grid_and_warm_start(rng):
    X, A = random_binary(rng, 25, 6, density=0.4)
    obj = basket_dual(BasketSpec(tau_target=2.0, gamma=1e-2), A)
    pr = run_path(obj, A, PathConfig(n_lambdas=8, lambda_min_ratio=0.05),
                  schedule=PenaltySchedule.flat(1.0))
    lams = [p.lam for p in pr.points]
    lm = lambda_max(obj, A, PenaltySchedule.flat(1.0))
    assert lams[0] == pytest.approx(lm)
    assert lams[-1] == pytest.approx(lm * 0.05)
    steps = [lams[i + 1] / lams[i] for i in range(len(lams) - 1)]
    assert np.allclose(steps, steps[0])
    assert pr.points[0].active_count == 0
    assert all(p.converged for p in pr.points)
    assert all(np.isfinite(p.ratio) for p in pr.points)
    assert all(p.ratio >= 0.0 for p in pr.points)
    counts = [p.active_count for p in pr.points]
    assert counts[-1] >= counts[0]
    assert pr.final is not None
    assert pr.final.model.n_active == pr.points[-1].active_count
    # the stored final solve is exactly the last grid point's
    assert pr.final.state.gap == pr.points[-1].gap


def test_path_single_point(rng):
    X, A = random_binary(rng, 10, 4)
    obj = basket_dual(BasketSpec(tau_target=2.0), A)
    pr = run_path(obj, A, PathConfig(n_lambdas=1),
                  schedule=PenaltySchedule.flat(1.0))
    assert len(pr.points) == 1
    assert pr.points[0].active_count == 0


def test_path_rejects_dead_data():
    A = AtomicMatrix.from_dense(np.zeros((4, 2)))
    lobj = logistic_dual(LogisticSpec(labels=np.array([0.0, 1.0, 0.0, 1.0])), A)
    with pytest.raises(ValueError):
        run_path(lobj, A, PathConfig(n_lambdas=3))


def test_path_tsv_rows_schema(rng):
    X, A = random_binary(rng, 12, 4)
    obj = basket_dual(BasketSpec(tau_target=2.0), A)
    pr = run_path(obj, A, PathConfig(n_lambdas=3, lambda_min_ratio=0.2),
                  schedule=PenaltySchedule.flat(1.0))
    rows = list(pr.tsv_rows())
    assert rows[0] == ("lambda", "active", "predicted", "explored", "expansions",
                       "gap", "converged", "seconds", "predicted_to_active", "stop_reason")
    assert len(rows) == 4
    for row, p in zip(rows[1:], pr.points):
        assert len(row) == len(rows[0])
        float(row[0]), int(row[1]), float(row[5])
        assert row[9] in ("converged", "stalled", "max_outer")
        assert row[6] == str(int(row[9] == "converged"))
        assert row[9] == p.stop_reason


def _path_instance(kind):
    """A small path whose later levels predict, and for the logistic and
    matrix duals also expand, their active sets."""
    rng = np.random.default_rng(3)
    n, d = 40, 6
    X = (rng.random((n, d)) < 0.5).astype(float)
    A = AtomicMatrix.from_dense(X)
    signal = X[:, 0] * X[:, 1] + 0.5 * X[:, 2]
    if kind == "basket":
        obj = basket_dual(BasketSpec(tau_target=2.0, gamma=1e-2), A)
    elif kind == "logistic":
        y = (signal + 0.3 * rng.standard_normal(n) > 0.6).astype(float)
        obj = logistic_dual(LogisticSpec(labels=y, tau_l2=1.0), A)
    else:
        Y = np.column_stack([signal, X[:, 3] - signal]) + 0.1 * rng.standard_normal((n, 2))
        obj = matrix_dual(MatrixSpec(responses=Y, rho_nuclear=0.1), A)
    return A, obj, PenaltySchedule.geometric(1.0, 1.3)


@pytest.mark.parametrize("kind", ["basket", "logistic", "matrix"])
def test_run_path_equals_solve_per_level(kind, monkeypatch):
    """Handing each level's last walk on as the next prediction changes no
    answer: run_path equals a loop of plain solves, warm-started the same
    way, in every alpha bit, model, prediction and certificate, and every
    reduced dual it builds carries its own level's thresholds."""
    A, obj, shape = _path_instance(kind)
    pcfg = PathConfig(n_lambdas=4, lambda_min_ratio=0.02)
    reds = []
    build = obj.reduced
    monkeypatch.setattr(obj, "reduced", lambda active: reds.append(build(active)) or reds[-1])
    levels = []

    def recording_solve(obj_, A_, schedule, *args, **kwargs):
        start = len(reds)
        res = solve(obj_, A_, schedule, *args, **kwargs)
        levels.append((schedule, res, reds[start:]))
        return res

    monkeypatch.setattr(path_module, "solve", recording_solve)
    pr = run_path(obj, A, pcfg, schedule=shape)
    alpha = obj.project(np.asarray(obj.alpha0(), dtype=float))
    assert len(levels) == len(pr.points) == pcfg.n_lambdas
    assert all(p.predicted_count for p in pr.points[1:])
    assert kind == "basket" or any(p.expansions for p in pr.points[1:])
    for (schedule, res, built), point in zip(levels, pr.points):
        ref = solve(obj, A, schedule, alpha, None, None)
        alpha = ref.state.alpha
        assert np.array_equal(res.state.alpha, ref.state.alpha)
        assert res.model.to_json_dict() == ref.model.to_json_dict()
        assert res.predicted == ref.predicted
        assert point.predicted_sets == tuple(fs.atoms for fs in ref.predicted)
        assert [(e.feature_set.atoms, e.stat, e.threshold) for e in res.screen_result.emitted] \
            == [(e.feature_set.atoms, e.stat, e.threshold) for e in ref.screen_result.emitted]
        assert (res.expansions, res.state.stop_reason) == (ref.expansions, ref.state.stop_reason)
        assert built
        for red in built:
            want = [schedule.threshold(fs.order) for fs in red.feature_sets()]
            assert red.thr.tolist() == want


@pytest.mark.parametrize("kind", ["basket", "logistic", "matrix"])
def test_path_walks_once_per_certificate(kind, monkeypatch):
    """A path walks the lattice once per certificate and never to predict:
    the first level predicts nothing at lambda_max, and every later level
    predicts with the previous level's last walk."""
    A, obj, shape = _path_instance(kind)
    calls = []
    real = screening.screen

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(screening, "screen", counted)
    monkeypatch.setattr(solver_module, "screen", counted)
    pr = run_path(obj, A, PathConfig(n_lambdas=4, lambda_min_ratio=0.02), schedule=shape)
    assert all(p.converged for p in pr.points)
    assert len(calls) == len(pr.points) + sum(p.expansions for p in pr.points)


def test_path_best_model(rng):
    X, A = random_binary(rng, 20, 5)
    y = (X[:, 0] > 0.5).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    obj = logistic_dual(LogisticSpec(labels=y, tau_l2=1.0), A)
    pr = run_path(obj, A, PathConfig(n_lambdas=6, lambda_min_ratio=0.05),
                  schedule=PenaltySchedule.flat(1.0))
    best = pr.best_model(lambda m: metrics_auc(predict(m, A), y)
                         if m.n_active else 0.0)
    assert metrics_auc(predict(best, A), y) >= 0.9


# ---------------------------------------------------------------- predict --

def test_predict_reproduces_training_scores(rng):
    X, A = random_binary(rng, 18, 5)
    y = (rng.random(18) < 0.5).astype(float)
    obj = logistic_dual(LogisticSpec(labels=y, tau_l2=1.0), A)
    sched = PenaltySchedule.flat(0.25 * lambda_max(obj, A, PenaltySchedule.flat(1.0)))
    res = solve(obj, A, sched)
    assert res.model.n_active
    probs = predict(res.model, A)
    # rebuild scores from the model alone
    scores = np.zeros(18)
    for fs, coef in zip(res.model.active, res.model.coefficients):
        scores += coef * interaction_column(A, fs).dense()
    assert np.allclose(probs, 1.0 / (1.0 + np.exp(-scores)), atol=1e-10)
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_predict_empty_models(rng):
    X, A = random_binary(rng, 6, 3)
    basket = PrimalModel.from_coefficients("basket", (), np.zeros(0))
    assert np.array_equal(predict(basket, A), np.zeros(6))
    logistic = PrimalModel.from_coefficients("logistic", (), np.zeros(0))
    assert np.allclose(predict(logistic, A), 0.5)
    matrix = PrimalModel.from_coefficients(
        "matrix", (), np.zeros((0, 2)), intercept=np.array([1.5, -2.0]))
    out = predict(matrix, A)
    assert out.shape == (6, 2)
    assert np.allclose(out, np.array([1.5, -2.0]))


def test_predict_matrix_adds_intercept(rng):
    X, A = random_binary(rng, 12, 4)
    fs = FeatureSet((0, 1))
    model = PrimalModel.from_coefficients(
        "matrix", (fs,), np.array([[2.0, -1.0]]), intercept=np.array([0.5, 0.5]))
    out = predict(model, A)
    col = interaction_column(A, fs).dense()
    assert np.allclose(out, np.outer(col, [2.0, -1.0]) + [0.5, 0.5])


# ---------------------------------------------------------------- metrics --

def test_metrics_auc_values():
    assert metrics_auc(np.array([0.1, 0.2, 0.8, 0.9]),
                       np.array([0.0, 0.0, 1.0, 1.0])) == 1.0
    assert metrics_auc(np.array([0.9, 0.8, 0.2, 0.1]),
                       np.array([0.0, 0.0, 1.0, 1.0])) == 0.0
    # all scores tied: every positive-negative pair counts half
    assert metrics_auc(np.zeros(4), np.array([0.0, 1.0, 0.0, 1.0])) == 0.5
    # one tie across the class boundary out of 4 pairs: 3.5/4
    got = metrics_auc(np.array([0.1, 0.5, 0.5, 0.9]),
                      np.array([0.0, 0.0, 1.0, 1.0]))
    assert got == pytest.approx(0.875)
    with pytest.raises(ValueError):
        metrics_auc(np.array([0.1, 0.2]), np.array([1.0, 1.0]))


def test_metrics_r2_values(rng):
    truth = rng.standard_normal((20, 3))
    per, mean = metrics_r2(truth, truth)
    assert np.allclose(per, 1.0) and mean == pytest.approx(1.0)
    per, mean = metrics_r2(np.tile(truth.mean(axis=0), (20, 1)), truth)
    assert np.allclose(per, 0.0, atol=1e-12)
    v = rng.standard_normal(20)
    per, mean = metrics_r2(v, v)  # 1-D accepted
    assert mean == pytest.approx(1.0)
    with pytest.raises(ValueError):
        metrics_r2(np.zeros((5, 2)), np.ones((5, 2)))
    with pytest.raises(ValueError):
        metrics_r2(np.zeros((5, 2)), np.zeros((4, 2)))


# ------------------------------------------------------------------ synth --

def test_synth_deterministic():
    a = synth_planted(3, 40, 8, [((0, 1), 5.0), ((2, 3, 4), 6.0)],
                      noise=0.05, kind="logistic")
    b = synth_planted(3, 40, 8, [((0, 1), 5.0), ((2, 3, 4), 6.0)],
                      noise=0.05, kind="logistic")
    assert np.array_equal(_dense_of(a.matrix), _dense_of(b.matrix))
    assert np.array_equal(a.response, b.response)
    assert a.truth == (FeatureSet((0, 1)), FeatureSet((2, 3, 4)))
    assert a.weights == (5.0, 6.0)


def test_synth_matrix_latent_rank():
    ds = synth_planted(11, 60, 6, [((0,), 4.0), ((1, 2), 5.0), ((3,), 4.5)],
                       noise=0.0, kind="matrix", n_tasks=5, latent_rank=2)
    assert ds.response.shape == (60, 5)
    sig = np.linalg.svd(ds.response, compute_uv=False)
    assert (sig > 1e-8 * sig[0]).sum() <= 2
    full = synth_planted(11, 60, 6, [((0,), 4.0), ((1, 2), 5.0), ((3,), 4.5)],
                         noise=0.0, kind="matrix", n_tasks=5)
    sig = np.linalg.svd(full.response, compute_uv=False)
    assert (sig > 1e-8 * sig[0]).sum() == 3


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_planted(0, 10, 3, [((5,), 1.0)])
    with pytest.raises(ValueError):
        synth_planted(0, 10, 3, [], kind="nope")
    with pytest.raises(ValueError):
        synth_planted(0, 10, 3, [], density=1.5)


def test_synth_basket_has_planted_cooccurrence():
    ds = synth_planted(5, 50, 6, [((0, 1, 2), 1.0)], kind="basket")
    assert ds.response is None
    X = _dense_of(ds.matrix)
    support = (X[:, [0, 1, 2]].prod(axis=1) > 0).mean()
    base = _dense_of(synth_planted(5, 50, 6, [], kind="basket").matrix)
    base_support = (base[:, [0, 1, 2]].prod(axis=1) > 0).mean()
    assert support > base_support


# ------------------------------------------ path over a planted instance --

def test_path_recovers_planted_logistic():
    ds = synth_planted(21, 200, 10, [((0, 1), 6.0), ((4,), 5.0)],
                       noise=0.05, kind="logistic")
    obj = logistic_dual(LogisticSpec(labels=ds.response, tau_l2=1.0,
                                     penalty=PenaltySchedule.geometric(1.0, 1.5)),
                        ds.matrix)
    pr = run_path(obj, ds.matrix, PathConfig(n_lambdas=10, lambda_min_ratio=0.02))
    hit = [p for p in pr.points
           if set(ds.truth) <= {fs for fs in p.model.active}]
    assert hit, "no path point recovered every planted set"
    assert all(np.isfinite(p.ratio) for p in pr.points)
    # warm-start prediction contains the converged support when no
    # mid-solve expansion was needed
    for p in pr.points:
        if p.expansions == 0:
            assert {fs.atoms for fs in p.model.active} <= set(p.predicted_sets)
