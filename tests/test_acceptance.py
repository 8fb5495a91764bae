"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every check
recomputes its certificate independently of the solver's bookkeeping: primal
values come from the materialized-column oracle objectives, dual values from
full-lattice formulas written here, and screening truth from exhaustive
enumeration.
"""

import time

import numpy as np
import pytest

import oracles as oc
from prodscreen import (AtomicMatrix, BasketSpec, FeatureSet,
                        LogisticSpec, MatrixSpec, PathConfig, PenaltySchedule,
                        ScreenConfig, SolverConfig, basket_dual, frequent_itemsets,
                        interaction_column, lambda_max, logistic_dual, matrix_dual,
                        metrics_auc, metrics_r2, predict, rank_report, run_path,
                        screen, solve, synth_planted, verify_kkt)

TIGHT = SolverConfig(kkt_tol=1e-8, max_inner=2000)


def _report(num, label, ok, detail):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _dense_of(A):
    return A.atom_matrix().astype(float)


def _random_binary(rng, n, d, density=0.35):
    X = (rng.random((n, d)) < density).astype(float)
    return X, AtomicMatrix.from_dense(X)


def _schedule_shapes():
    while True:
        yield PenaltySchedule.flat(1.0)
        yield PenaltySchedule.geometric(1.0, 1.4)
        yield PenaltySchedule.supergeometric(1.0, 1.25, 1.2)


def _excess(z, gamma):
    # conjugate of a box-constrained l1+ridge penalty column: flat, then
    # quadratic for gamma past the threshold, then linear
    return np.where(z <= 0.0, 0.0,
                    np.where(z <= gamma, z * z / (2.0 * gamma), z - 0.5 * gamma))


def _dual_basket(P, tau, thr, gamma, alpha):
    z = P.T @ alpha - thr
    return float(tau * alpha.sum() - 0.5 * alpha @ alpha - _excess(z, gamma).sum())


def _dual_logistic(P, y, thr, tau, alpha):
    p = y - alpha
    ent = -(np.where(p > 0, p * np.log(p), 0.0)
            + np.where(p < 1, (1 - p) * np.log1p(-p), 0.0))
    shr = np.maximum(np.abs(P.T @ alpha) - thr, 0.0)
    return float(ent.sum() - 0.5 * shr @ shr / tau)


def _dual_matrix(P, Yc, thr, eta, rho, Lam):
    sig = np.linalg.svd(Yc - Lam, compute_uv=False)
    shr = np.maximum(np.linalg.norm(P.T @ Lam, axis=1) - thr, 0.0)
    return float(0.5 * np.sum(Yc * Yc)
                 - 0.5 * np.sum(np.maximum(sig - rho, 0.0) ** 2)
                 - 0.5 * shr @ shr / eta)


def _make_instance(rng, kind, n, d, shape):
    X, A = _random_binary(rng, n, d)
    if kind == "basket":
        spec = BasketSpec(tau_target=float(2 + rng.integers(0, 3)), gamma=1e-3)
        return X, A, spec, basket_dual(spec, A)
    if kind == "logistic":
        y = (rng.random(n) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        spec = LogisticSpec(labels=y, tau_l2=1.0)
        return X, A, spec, logistic_dual(spec, A)
    Y = rng.standard_normal((n, 2))
    spec = MatrixSpec(responses=Y, rho_nuclear=0.0, eta_l2=1e-2, fit_intercept=False)
    return X, A, spec, matrix_dual(spec, A)


def _oracle_fit(kind, P, spec, lam_vec):
    if kind == "basket":
        return oc.solve_basket_primal(P, spec.tau_target, lam_vec, spec.gamma)
    if kind == "logistic":
        return oc.solve_logistic_primal(P, spec.labels, lam_vec, spec.tau_l2)
    return oc.solve_group_primal(P, spec.responses, lam_vec, spec.eta_l2)


def _oracle_value(kind, P, spec, lam_vec, b):
    if kind == "basket":
        return oc.basket_objective(P, spec.tau_target, lam_vec, spec.gamma, b)
    if kind == "logistic":
        return oc.logistic_objective(P, spec.labels, lam_vec, spec.tau_l2, b)
    return oc.matrix_objective(P, spec.responses, lam_vec, spec.eta_l2,
                               spec.rho_nuclear, b)


MODES = {"basket": "nonneg", "logistic": "signed", "matrix": "group"}


def test_1_small_scale_oracle_equivalence():
    tick = time.perf_counter()
    rng = np.random.default_rng(101)
    shapes = _schedule_shapes()
    max_val_err = 0.0
    mismatches = 0
    margin_sets = 0
    for kind in ("basket", "logistic", "matrix"):
        for i in range(25):
            d = 4 + i % 4
            n = 12 + (3 * i) % 19
            X, A, spec, obj = _make_instance(rng, kind, n, d, None)
            shape = next(shapes)
            frac = (0.25, 0.45, 0.65)[i % 3]
            schedule = shape.with_base(frac * lambda_max(obj, A, shape))
            res = solve(obj, A, schedule, None, None, TIGHT)
            assert res.state.converged, f"{kind} instance {i} did not converge"

            subsets, P = oc.materialize(X)
            lam_vec = oc.threshold_vector(subsets, schedule)
            b_star, val_star = _oracle_fit(kind, P, spec, lam_vec)
            T = 2 if kind == "matrix" else None
            ours = _oracle_value(kind, P, spec, lam_vec,
                                 oc.embed_model(res.model, subsets, T))
            err = abs(ours - val_star) / (1.0 + abs(val_star))
            max_val_err = max(max_val_err, err)

            alpha = res.state.alpha
            stats = oc.enumerate_stats(P, alpha, MODES[kind])
            oracle_nz = (np.linalg.norm(b_star, axis=1) if kind == "matrix"
                         else np.abs(b_star)) > 1e-8
            have = {fs.atoms for fs in res.model.active}
            for u, s, t, nz in zip(subsets, stats, lam_vec, oracle_nz):
                if abs(s - t) < 1e-4:
                    continue
                margin_sets += 1
                if (u in have) != bool(nz):
                    mismatches += 1
    elapsed = time.perf_counter() - tick
    ok = max_val_err <= 1e-6 and mismatches == 0 and elapsed < 120.0
    _report(1, "materialized-oracle equivalence", ok,
            f"75 instances, max rel value err {max_val_err:.2e}, "
            f"{mismatches}/{margin_sets} support mismatches off the boundary, "
            f"{elapsed:.1f}s")


def test_2_screen_equals_enumeration():
    tick = time.perf_counter()
    rng = np.random.default_rng(202)
    shapes = _schedule_shapes()
    worst_stat_err = 0.0
    closed_checked = 0
    for i in range(100):
        d = 4 + i % 6
        n = 8 + i % 11
        X, A = _random_binary(rng, n, d, density=0.4)
        mode = ("signed", "nonneg", "group")[i % 3]
        if mode == "group":
            alpha = rng.standard_normal((n, 2))
        elif mode == "nonneg":
            alpha = np.abs(rng.standard_normal(n))
        else:
            alpha = rng.standard_normal(n)

        subsets, P = oc.materialize(X)
        stats = oc.enumerate_stats(P, alpha, mode)
        base = float(rng.uniform(0.2, 0.8)) * stats[:d].max()
        if base <= 0.0:
            continue
        schedule = next(shapes).with_base(base)
        thr = oc.threshold_vector(subsets, schedule)

        cfg = ScreenConfig(max_order=d)
        res = screen(A, alpha, schedule, cfg)

        want = {u for u, s, t in zip(subsets, stats, thr) if s > t}
        got = {e.feature_set.atoms for e in res.emitted}
        assert got == want, f"instance {i}: screen disagrees with enumeration"
        by_set = dict(zip(subsets, stats))
        for e in res.emitted:
            worst_stat_err = max(worst_stat_err,
                                 abs(e.stat - by_set[e.feature_set.atoms])
                                 / (1.0 + abs(e.stat)))
        # every node whose bound is at most the next order's threshold, a
        # superset of the nodes the walk closes, has no superset above its own
        bounds = oc.closure_bounds(P, alpha, mode)
        for v, b in zip(subsets, bounds):
            if b > schedule.threshold(len(v) + 1):
                continue
            below = set(v)
            for u, s, t in zip(subsets, stats, thr):
                if below < set(u):
                    closed_checked += 1
                    assert s <= t, f"instance {i}: closed subtree of {v} held {u}"
    elapsed = time.perf_counter() - tick
    ok = worst_stat_err <= 1e-9 and elapsed < 60.0
    _report(2, "screening soundness and completeness", ok,
            f"100 instances exact, {closed_checked} supersets of closable nodes "
            f"verified empty, stat err {worst_stat_err:.1e}, {elapsed:.1f}s")


def test_3_itemset_mining_reduction(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a b\na b c\nb c\na\n")
    from prodscreen import load_transactions

    A = load_transactions(p)
    X = _dense_of(A)
    subsets, P = oc.materialize(X)
    counts = P.sum(axis=0)

    frozen = {
        0.5: {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)},
        1.5: {(0,), (1,), (2,), (0, 1), (1, 2)},
        2.5: {(0,), (1,)},
    }
    ok = True
    for lam, want in frozen.items():
        derived = {u for u, c in zip(subsets, counts) if c > lam}
        assert derived == want  # the hand enumeration agrees with brute force
        got = frequent_itemsets(A, lam)
        ok &= {fs.atoms for fs, _ in got} == want
        ok &= all(sup == dict(zip(subsets, counts))[fs.atoms] for fs, sup in got)
    _report(3, "frequent-itemset reduction", ok,
            "4-row example, thresholds 0.5/1.5/2.5 emit 7/5/2 itemsets exactly")


def _fd_gradient(red, alpha, eps=1e-6):
    g = np.zeros_like(np.asarray(alpha, dtype=float))
    it = np.nditer(alpha, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        up = alpha.copy()
        dn = alpha.copy()
        up[idx] += eps
        dn[idx] -= eps
        g[idx] = (red.value(up) - red.value(dn)) / (2.0 * eps)
        it.iternext()
    return g


def test_4_gradient_and_curvature_suite():
    rng = np.random.default_rng(404)
    max_rel = 0.0
    max_asym = 0.0
    clip_regimes = set()
    for kind in ("basket", "logistic", "matrix"):
        n, d = 12, 5
        X, A, spec, obj = _make_instance(rng, kind, n, d, None)
        if kind == "matrix":
            spec = MatrixSpec(responses=spec.responses, rho_nuclear=0.8,
                              eta_l2=1e-3, fit_intercept=False)
            obj = matrix_dual(spec, A)
        shape = PenaltySchedule.geometric(1.0, 1.3)
        schedule = shape.with_base(0.3 * lambda_max(obj, A, shape))
        scr = screen(A, obj.screen_weights(obj.alpha0()), schedule,
                     obj.screen_config(None))
        red = obj.reduced(list(scr.emitted))

        if kind == "matrix":
            U = rng.standard_normal((n, spec.responses.shape[1]))
            sig_u = np.linalg.svd(U, compute_uv=False)
            scales = np.geomspace(0.05 * spec.rho_nuclear / sig_u.max(),
                                  20.0 * spec.rho_nuclear / sig_u.min(), 20)
            # residual Y - alpha = s U, so s sweeps its spectrum through rho
            points = [spec.responses - s * U for s in scales]
        elif kind == "basket":
            points = [np.abs(rng.standard_normal(n)) for _ in range(20)]
        else:
            points = [spec.labels - 1.0 / (1.0 + np.exp(-rng.standard_normal(n)))
                      for _ in range(20)]

        for alpha in points:
            if kind == "matrix":
                sig = np.linalg.svd(spec.responses - alpha, compute_uv=False)
                above = int((sig > spec.rho_nuclear).sum())
                clip_regimes.add("below" if above == 0 else
                                 "above" if above == len(sig) else "mixed")
            g = red.gradient(alpha)
            fd = _fd_gradient(red, alpha)
            scale = 1.0 + float(np.max(np.abs(g)))
            max_rel = max(max_rel, float(np.max(np.abs(fd - g))) / scale)
        for alpha in points[:3]:
            H = oc.dense_hessian(red, alpha)
            max_asym = max(max_asym, float(np.max(np.abs(H - H.T))))
    ok = max_rel <= 1e-5 and max_asym <= 1e-10 and clip_regimes == {
        "below", "mixed", "above"}
    _report(4, "gradient and curvature checks", ok,
            f"20 points per objective, max FD err {max_rel:.1e}, "
            f"max matvec asymmetry {max_asym:.1e}, spectrum-clipping regimes "
            f"{sorted(clip_regimes)}")


def test_5_gap_and_kkt_certificates():
    rng = np.random.default_rng(505)
    n_solves = 0
    worst_gap = -np.inf
    worst_kkt = 0
    for kind in ("basket", "logistic", "matrix"):
        for i in range(8):
            d = 4 + i % 3
            n = 12 + 2 * i
            X, A, spec, obj = _make_instance(rng, kind, n, d, None)
            if kind == "matrix" and i % 2:
                spec = MatrixSpec(responses=spec.responses, rho_nuclear=0.5,
                                  eta_l2=1e-2, fit_intercept=bool(i % 4 == 1))
                obj = matrix_dual(spec, A)
            shape = (PenaltySchedule.flat(1.0) if i % 2
                     else PenaltySchedule.geometric(1.0, 1.5))
            schedule = shape.with_base(
                (0.3 if i % 2 else 0.6) * lambda_max(obj, A, shape))
            res = solve(obj, A, schedule, None, None, TIGHT)
            assert res.state.converged, f"{kind} instance {i} did not converge"
            n_solves += 1

            subsets, P = oc.materialize(X)
            thr = oc.threshold_vector(subsets, schedule)
            alpha = res.state.alpha
            if kind == "basket":
                pval = oc.basket_objective(P, spec.tau_target, thr, spec.gamma,
                                           oc.embed_model(res.model, subsets))
                dval = _dual_basket(P, spec.tau_target, thr, spec.gamma, alpha)
            elif kind == "logistic":
                pval = oc.logistic_objective(P, spec.labels, thr, spec.tau_l2,
                                             oc.embed_model(res.model, subsets))
                dval = _dual_logistic(P, spec.labels, thr, spec.tau_l2, alpha)
            else:
                Y = spec.responses
                Yc = Y - Y.mean(axis=0) if spec.fit_intercept else Y
                W = oc.embed_model(res.model, subsets, Y.shape[1])
                pval = oc.matrix_objective(P, Yc, thr, spec.eta_l2,
                                           spec.rho_nuclear, W)
                dval = _dual_matrix(P, Yc, thr, spec.eta_l2, spec.rho_nuclear,
                                    alpha)
            gap = (pval - dval) / (1.0 + abs(pval))
            worst_gap = max(worst_gap, gap)
            _, missing = verify_kkt(A, obj.screen_weights(alpha), schedule,
                                    obj.screen_config(None), res.model.active)
            worst_kkt += len(missing)
    ok = worst_gap <= 1e-6 and worst_kkt == 0
    _report(5, "independent gap and KKT certificates", ok,
            f"{n_solves} converged solves, worst recomputed relative gap "
            f"{worst_gap:.2e}, {worst_kkt} threshold-clearing sets missing "
            f"from active supports")


def test_6_orthant_free_optima_and_hierarchy():
    rng = np.random.default_rng(606)
    min_alpha = np.inf
    n_free = 0
    for d in (4, 5, 6, 7, 8):
        X, A = _random_binary(rng, 20, d)
        spec = BasketSpec()
        free = basket_dual(spec, A, enforce_nonneg=False)
        shape = PenaltySchedule.flat(1.0)
        lm = lambda_max(free, A, shape)
        for frac in (0.3, 0.6):
            res = solve(free, A, shape.with_base(frac * lm), None, None, TIGHT)
            assert res.state.converged
            min_alpha = min(min_alpha, float(res.state.alpha.min()))
            n_free += 1

    n_checked = 0
    max_order = 0
    for trial in range(5):
        X, A = _random_binary(rng, 22, 6, density=0.8)
        obj = basket_dual(BasketSpec(tau_target=12.0), A)
        shape = PenaltySchedule.geometric(1.0, 1.1)
        schedule = shape.with_base(0.02 * lambda_max(obj, A, shape))
        res = solve(obj, A, schedule, None, None, TIGHT)
        emitted = {e.feature_set.atoms for e in res.screen_result.emitted}
        max_order = max(max_order, max(len(a) for a in emitted))
        for atoms in emitted:
            for drop in range(len(atoms)):
                sub = atoms[:drop] + atoms[drop + 1:]
                if sub:
                    n_checked += 1
                    assert sub in emitted, f"{atoms} emitted without {sub}"
    ok = min_alpha >= -1e-8 and n_checked > 0 and max_order >= 3
    _report(6, "orthant-free dual optima and hierarchy", ok,
            f"{n_free} unconstrained solves, min dual coordinate "
            f"{min_alpha:.2e}; downward closure verified on {n_checked} "
            f"subset emissions up to order {max_order}")


def test_7_warm_start_prediction_superset():
    planted = [((0, 1, 2), 6.0), ((5, 6, 7), 5.5), ((12, 13, 14), 5.0)]
    ds = synth_planted(717, 300, 30, planted, noise=0.05, kind="logistic")
    obj = logistic_dual(LogisticSpec(labels=ds.response, tau_l2=1.0,
                                     penalty=PenaltySchedule.geometric(1.0, 1.5)),
                        ds.matrix)
    pr = run_path(obj, ds.matrix, PathConfig(n_lambdas=12, lambda_min_ratio=0.01))
    n_contained = 0
    n_free = 0
    total_expansions = 0
    for p in pr.points:
        assert np.isfinite(p.ratio)
        assert p.converged
        total_expansions += p.expansions
        if p.expansions == 0:
            n_free += 1
            active = {fs.atoms for fs in p.model.active}
            assert active <= set(p.predicted_sets), \
                f"prediction missed {active - set(p.predicted_sets)} at lam {p.lam:.3g}"
            assert p.predicted_count >= p.active_count
            n_contained += 1
    final_active = {fs.atoms for fs in pr.points[-1].model.active}
    recovered = sum(1 for atoms, _ in planted if atoms in final_active)
    ok = (n_contained == n_free and recovered == 3
          and pr.points[-1].active_count > 100)
    _report(7, "warm-start support prediction", ok,
            f"30 atoms, 12 levels down to {pr.points[-1].lam:.3g}: predicted "
            f"set contained the converged support at all {n_contained} "
            f"expansion-free points, {total_expansions} expansion events "
            f"logged, {recovered}/3 planted triples active at the densest "
            f"level ({pr.points[-1].active_count} sets)")


def test_8_planted_recovery():
    tick = time.perf_counter()
    truth_l = [((0, 1), 6.0), ((3, 4, 5), 5.5), ((8,), 5.0)]
    ds = synth_planted(808, 600, 14, truth_l, noise=0.05, kind="logistic")
    X = _dense_of(ds.matrix)
    y = ds.response
    A_tr, A_te = AtomicMatrix.from_dense(X[:400]), AtomicMatrix.from_dense(X[400:])
    y_tr, y_te = y[:400], y[400:]
    obj = logistic_dual(LogisticSpec(labels=y_tr, tau_l2=1.0,
                                     penalty=PenaltySchedule.geometric(1.0, 1.5)),
                        A_tr)
    pr = run_path(obj, A_tr, PathConfig(n_lambdas=12, lambda_min_ratio=0.01))
    want = {atoms for atoms, _ in truth_l}
    best_auc = 0.0
    for p in pr.points:
        if want <= {fs.atoms for fs in p.model.active}:
            best_auc = max(best_auc,
                           metrics_auc(predict(p.model, A_te), y_te))
    t_logistic = time.perf_counter() - tick

    tick = time.perf_counter()
    truth_m = [((0, 1), 6.0), ((4,), 5.0), ((6, 7), 5.5)]
    ds = synth_planted(809, 400, 10, truth_m, noise=0.05, kind="matrix", n_tasks=3)
    X = _dense_of(ds.matrix)
    Y = ds.response
    A_tr, A_te = AtomicMatrix.from_dense(X[:280]), AtomicMatrix.from_dense(X[280:])
    Y_tr, Y_te = Y[:280], Y[280:]
    obj = matrix_dual(MatrixSpec(responses=Y_tr, rho_nuclear=0.0, eta_l2=1e-2,
                                 penalty=PenaltySchedule.geometric(1.0, 1.5)),
                      A_tr)
    pr = run_path(obj, A_tr, PathConfig(n_lambdas=8, lambda_min_ratio=0.05))
    want = {atoms for atoms, _ in truth_m}
    best_r2 = -np.inf
    for p in pr.points:
        if want <= {fs.atoms for fs in p.model.active}:
            _, mean_r2 = metrics_r2(predict(p.model, A_te), Y_te)
            best_r2 = max(best_r2, mean_r2)
    t_matrix = time.perf_counter() - tick

    ok = (best_auc >= 0.95 and best_r2 >= 0.9
          and t_logistic < 300.0 and t_matrix < 300.0)
    _report(8, "planted-interaction recovery", ok,
            f"logistic held-out AUC {best_auc:.3f} with all planted sets "
            f"active ({t_logistic:.1f}s); matrix held-out mean R^2 "
            f"{best_r2:.4f} ({t_matrix:.1f}s)")


def test_9_rank_control_sweep():
    planted = [((0, 1), 6.0), ((2,), 5.0), ((3, 4), 5.5), ((6, 7), 6.0)]
    ds = synth_planted(909, 96, 8, planted, noise=0.02, kind="matrix",
                       n_tasks=6, latent_rank=2)
    A = ds.matrix
    hits = []
    shape = PenaltySchedule.geometric(1.0, 2.0)
    for rho in np.geomspace(0.05, 30.0, 10):
        spec = MatrixSpec(responses=ds.response, rho_nuclear=float(rho),
                          eta_l2=1e-2)
        obj = matrix_dual(spec, A)
        lm = lambda_max(obj, A, shape)
        if lm <= 0.0:
            # the whole response spectrum sits below rho: empty dual start
            continue
        schedule = shape.with_base(0.15 * lm)
        res = solve(obj, A, schedule, None, None, TIGHT)
        if not res.state.converged:
            continue
        pred_rank, retained = rank_report(spec, A, res.state.alpha, res.model)
        if pred_rank == 2 and retained == 2:
            hits.append(float(rho))
    ok = bool(hits)
    _report(9, "rank control over the nuclear sweep", ok,
            f"rank-2 planted responses over 6 tasks: fitted rank and retained "
            f"spectrum both 2 at nuclear weights {[f'{h:.3g}' for h in hits]}"
            if hits else
            "no nuclear weight in the sweep produced matching rank-2 readouts")
