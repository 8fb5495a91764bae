"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py JOB.json T0

The parent writes JOB.json, reads its monotonic clock just before it starts
this process and passes that reading as T0.  The worker drives the program
the way its users do (the CLI's ``main`` for three workloads, the library's
``solve`` for ``matrix_rank``), marks when the inputs are loaded, the time
spent in the fit calls and when the last output is written, and writes
those marks to the job's result file.  With ``trace`` set it also installs
the span wrappers of ``tracing.py`` and writes the spans.  With
``setup_only`` set it stops once the inputs are loaded.

BLAS thread counts are set by the parent in the environment, before numpy
loads here.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class _SetupDone(Exception):
    """Raised out of the loader when the job asks for set-up only."""


class Marks:
    """Loader end, fit windows and output end, on the perf_counter clock."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.loaded = None
        self.fits: list[tuple[float, float]] = []

    def loader(self, fn):
        def timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.loaded is None:
                self.loaded = time.perf_counter()
                if self.setup_only:
                    raise _SetupDone
            return out

        return timed

    def fit(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.fits.append((start, time.perf_counter()))

        return timed


def cli_argv(workload: str, inputs: Path, desc: dict, out: Path) -> list[list[str]]:
    """The prodscreen command lines a round runs, in order."""
    from inputs import (BASKET_GAMMA, BASKET_GEO, BASKET_LEVELS, BASKET_RATIO, BASKET_TAU,
                        ITEM_D, ITEM_MIN_SUPPORT, LOGIT_GEO, LOGIT_L2, LOGIT_LEVELS, LOGIT_RATIO,
                        MAX_ORDER)

    data = str(inputs / desc["data"])
    if workload == "basket_path":
        return [["fit-basket", "--data", data, "--format", "transactions", "--path",
                 "--n-lambdas", str(BASKET_LEVELS), "--min-ratio", str(BASKET_RATIO),
                 "--penalty", f"geo:{BASKET_GEO}", "--tau", str(BASKET_TAU),
                 "--gamma", str(BASKET_GAMMA), "--max-order", str(MAX_ORDER),
                 "--out", str(out)]]
    if workload == "logistic_cli":
        return [["fit-logistic", "--data", data, "--format", "csv", "--path",
                 "--n-lambdas", str(LOGIT_LEVELS), "--min-ratio", str(LOGIT_RATIO),
                 "--penalty", f"geo:{LOGIT_GEO}", "--tau", str(LOGIT_L2),
                 "--max-order", str(MAX_ORDER), "--out", str(out)],
                ["predict", "--model", str(out / "model.json"),
                 "--data", str(inputs / desc["heldout"]), "--format", "csv"]]
    if workload == "itemset_lattice":
        return [["screen", "--data", data, "--format", "transactions",
                 "--alpha", str(inputs / desc["alpha"]), "--lambda", str(ITEM_MIN_SUPPORT),
                 "--penalty", "flat", "--mode", "nonneg",
                 "--max-order", str(ITEM_D), "--out", str(out)]]
    raise ValueError(f"no command line for {workload}")


def run_cli(workload, inputs, desc, out, marks) -> list[int]:
    import contextlib

    from prodscreen import cli

    cli.load_dense = marks.loader(cli.load_dense)
    cli.load_transactions = marks.loader(cli.load_transactions)
    for name in ("run_path", "solve", "screen"):
        setattr(cli, name, marks.fit(getattr(cli, name)))
    codes = []
    for argv in cli_argv(workload, inputs, desc, out):
        target = out / ("predictions.tsv" if argv[0] == "predict" else "stdout.txt")
        with open(target, "w") as fh, contextlib.redirect_stdout(fh):
            codes.append(cli.main(argv))
    return codes


def run_matrix(inputs, desc, out, marks) -> list[int]:
    """Two library solves of the matrix objective, one per nuclear weight."""
    import numpy as np

    from inputs import (MATRIX_ETA, MATRIX_GEO, MATRIX_KKT_TOL, MATRIX_LAMBDA_SHARE,
                        MATRIX_MAX_INNER)
    from prodscreen import (AtomicMatrix, MatrixSpec, PenaltySchedule, SolverConfig,
                            lambda_max, matrix_dual, rank_report, solve)

    arrays = np.load(inputs / desc["data"])
    X, Y = arrays["X"], arrays["Y"]
    A = marks.loader(AtomicMatrix.from_dense)(X)
    shape = PenaltySchedule.geometric(1.0, MATRIX_GEO)
    cfg = SolverConfig(kkt_tol=MATRIX_KKT_TOL, max_inner=MATRIX_MAX_INNER)
    fit_lambda_max = marks.fit(lambda_max)
    fit_solve = marks.fit(solve)
    codes = []
    for k, rho in enumerate(desc["rhos"]):
        spec = MatrixSpec(responses=Y, rho_nuclear=rho, eta_l2=MATRIX_ETA)
        obj = matrix_dual(spec, A)
        lam = MATRIX_LAMBDA_SHARE * fit_lambda_max(obj, A, shape)
        res = fit_solve(obj, A, shape.with_base(lam), None, None, cfg)
        pred_rank, retained = rank_report(spec, A, res.state.alpha, res.model)
        res.model.save(out / f"model{k}.json")
        np.save(out / f"alpha{k}.npy", res.state.alpha)
        (out / f"solve{k}.json").write_text(json.dumps({
            "rho": rho, "lambda": lam, "converged": bool(res.state.converged),
            "gap": res.state.gap, "primal": res.state.primal_value,
            "pred_rank": pred_rank, "retained": retained}) + "\n")
        codes.append(0 if res.state.converged else 2)
    return codes


def peak_rss_mb() -> float:
    """High-water resident set of this process, from /proc/self/status."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    t0 = float(sys.argv[2])
    sys.path.insert(0, job["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import prodscreen.cli  # noqa: F401  (numpy and scipy load here)

    # t0 was read on the parent's monotonic clock; map it onto perf_counter
    start = time.perf_counter() - (time.monotonic() - t0)
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    marks = Marks(job["setup_only"])
    workload = job["workload"]
    inputs, out = Path(job["inputs"]), Path(job["out"])
    out.mkdir(parents=True, exist_ok=True)
    desc = json.loads((inputs / "inputs.json").read_text())
    try:
        if workload == "matrix_rank":
            codes = run_matrix(inputs, desc, out, marks)
        else:
            codes = run_cli(workload, inputs, desc, out, marks)
    except _SetupDone:
        codes = []
    done = time.perf_counter()
    result = {
        "codes": codes,
        "setup_s": marks.loaded - start,
        "fit_s": sum(b - a for a, b in marks.fits),
        "wall_s": done - start,
        "peak_rss_mb": peak_rss_mb(),
        "fit_windows": marks.fits,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
