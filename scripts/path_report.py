"""Homotopy path economics on a synthetic item-covering instance.

Runs the warm-started geometric path on basket data and reports, per
penalty level, how the screened prediction compares with the converged
support (the prediction should contain it whenever no mid-solve
expansion was needed) and how little of the interaction lattice the
search actually visited.

Usage:
    python3 scripts/path_report.py [--n 300] [--d 20] [--tau 6.0]
"""
import argparse
import os
import time

# one BLAS thread unless the environment says otherwise, set before numpy
# loads: at two threads the solver's small matrix products make timings jumpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from prodscreen import (  # noqa: E402
    AtomicMatrix,
    BasketSpec,
    PathConfig,
    PenaltySchedule,
    basket_dual,
    run_path,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--d", type=int, default=20)
    ap.add_argument("--tau", type=float, default=18.0)
    ap.add_argument("--density", type=float, default=0.65)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--n-lambdas", type=int, default=14)
    ap.add_argument("--min-ratio", type=float, default=0.02)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    X = (rng.random((args.n, args.d)) < args.density).astype(float)
    X[:, 0] = 1.0  # guarantee at least one live column
    A = AtomicMatrix.from_dense(X)

    spec = BasketSpec(tau_target=args.tau,
                      penalty=PenaltySchedule.geometric(1.0, 1.15))
    obj = basket_dual(spec, A)
    pcfg = PathConfig(n_lambdas=args.n_lambdas,
                      lambda_min_ratio=args.min_ratio)

    t0 = time.perf_counter()
    pr = run_path(obj, A, pcfg)
    wall = time.perf_counter() - t0

    lattice = 2 ** args.d - 1
    print(f"n={args.n} d={args.d} tau={args.tau} lattice={lattice}")
    print(f"path: {len(pr.points)} levels in {wall:.1f}s")
    print(f"{'lambda':>10} {'active':>6} {'pred':>6} {'ratio':>6} "
          f"{'expand':>6} {'explored':>8} {'visited%':>8} {'gap':>9}")
    contained = 0
    free = 0
    for pt in pr.points:
        ratio = f"{pt.ratio:.2f}" if np.isfinite(pt.ratio) else "inf"
        frac = 100.0 * pt.explored_count / lattice
        print(f"{pt.lam:10.4f} {pt.active_count:6d} {pt.predicted_count:6d} "
              f"{ratio:>6} {pt.expansions:6d} {pt.explored_count:8d} "
              f"{frac:8.4f} {pt.gap:9.2e}")
        if pt.expansions == 0:
            free += 1
            active = {tuple(fs.atoms) for fs in pt.model.active}
            if active <= set(pt.predicted_sets):
                contained += 1
    print(f"prediction contained the support at {contained}/{free} "
          f"expansion-free levels")
    orders = {}
    for fs in pr.points[-1].model.active:
        orders[fs.order] = orders.get(fs.order, 0) + 1
    print(f"final support by interaction order: {dict(sorted(orders.items()))}")


if __name__ == "__main__":
    main()
