"""Prediction-rank control via the nuclear penalty on the matrix objective.

Sweeps the nuclear-norm weight on a low-rank multi-task instance and
reports two independent rank readouts at each weight: the numerical rank
of the fitted prediction matrix, and the count of residual singular
values left above the shrinkage level by the dual solve. At an exact
optimum the two coincide, and raising the weight should step the rank
down toward the planted latent rank. Each row also gives the solve's inner
iterations and how many of its outer rounds ended at max_inner.

Usage:
    python3 scripts/rank_sweep.py [--n 60] [--d 8] [--tasks 4]
"""
import argparse
import time

import numpy as np

from prodscreen import (
    MatrixSpec,
    PenaltySchedule,
    SolverConfig,
    lambda_max,
    matrix_dual,
    rank_report,
    solve,
    synth_planted,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=60)
    ap.add_argument("--d", type=int, default=8)
    ap.add_argument("--tasks", type=int, default=4)
    ap.add_argument("--latent-rank", type=int, default=2)
    ap.add_argument("--seed", type=int, default=909)
    ap.add_argument("--n-weights", type=int, default=6)
    args = ap.parse_args()

    planted = [((0, 1), 6.0), ((2,), 5.0), ((3, 4), 5.5), ((6, 7), 6.0)]
    ds = synth_planted(args.seed, args.n, args.d, planted, noise=0.02,
                       kind="matrix", n_tasks=args.tasks,
                       latent_rank=args.latent_rank)
    A = ds.matrix
    shape = PenaltySchedule.geometric(1.0, 2.0)
    cfg = SolverConfig(kkt_tol=1e-8, max_inner=2000)

    sig = np.linalg.svd(ds.response - ds.response.mean(axis=0),
                        compute_uv=False)
    print(f"n={args.n} d={args.d} tasks={args.tasks} "
          f"planted latent rank {args.latent_rank}")
    print("centered response spectrum:",
          " ".join(f"{s:.2f}" for s in sig))
    print(f"{'nuclear wt':>10} {'lambda':>9} {'active':>6} "
          f"{'pred rank':>9} {'retained':>8} {'gap':>9} {'inner':>6} "
          f"{'cap hits':>8} {'time':>6}")
    for rho in np.geomspace(0.05, 0.8 * sig[0], args.n_weights):
        spec = MatrixSpec(responses=ds.response, rho_nuclear=float(rho),
                          eta_l2=1e-2)
        obj = matrix_dual(spec, A)
        lm = lambda_max(obj, A, shape)
        if lm <= 0.0:
            print(f"{rho:10.3f}  response spectrum fully below the weight, "
                  "dual start empty")
            continue
        t0 = time.perf_counter()
        res = solve(obj, A, shape.with_base(0.15 * lm), None, None, cfg)
        dt = time.perf_counter() - t0
        pred_rank, retained = rank_report(spec, A, res.state.alpha, res.model)
        agree = "=" if pred_rank == retained else " "
        print(f"{rho:10.3f} {0.15 * lm:9.3f} {len(res.model.active):6d} "
              f"{pred_rank:7d} {agree} {retained:8d} {res.state.gap:9.2e} "
              f"{res.state.inner_iterations:6d} {res.state.inner_cap_hits:8d} "
              f"{dt:5.1f}s")


if __name__ == "__main__":
    main()
