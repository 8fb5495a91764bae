"""Benchmark of prodscreen: time and memory to a checked fit, split by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run draws its inputs from the seed,
times a few set-up-only worker starts, then runs rounds of the workload,
each in a fresh worker process, until the rounds have taken S seconds (at
least one round).  Every round's outputs are checked against numpy
recomputations (checks.py).  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over rounds.
With --trace 1 traced rounds, which run with the span wrappers of
tracing.py, alternate with untraced ones, and the metrics are the per-layer
ones: counts of one traced round (every traced round must give the same
counts), times as medians over traced rounds, and the tracing overhead as
the traced over the untraced median fit time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed, check_round  # noqa: E402
from inputs import generate  # noqa: E402
from tracing import layer_metrics  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# per-layer times are medians over traced rounds; the other per-layer
# metrics are counts or ratios of counts and must repeat exactly
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
TIME_UNITS = ("s", "us")
SETUPS = 3           # set-up-only worker starts per run, for the setup_s median
WORKER_TIMEOUT = 150
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Runner:
    """Starts worker processes for one workload, one after another."""

    def __init__(self, root: Path, workload: str, work: Path):
        self.root = root
        self.workload = workload
        self.work = work
        self.inputs = work / "inputs"
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.update({var: "1" for var in ONE_THREAD})
        # an installed program imports from cached bytecode; let the warm-up
        # round write it, whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0

    def round(self, trace: bool = False, setup_only: bool = False) -> tuple[dict, Path]:
        """Run one worker; return its result and its output directory."""
        self.count += 1
        out = self.work / f"round{self.count}"
        out.mkdir(parents=True)
        job = out / "job.json"
        result = out / "result.json"
        job.write_text(json.dumps({
            "workload": self.workload, "inputs": str(self.inputs), "out": str(out),
            "src": str(self.root / "src"), "trace": trace,
            "setup_only": setup_only, "result": str(result)}))
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job), repr(t0)],
                              env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(result.read_text()), out


class Checker:
    """Checks each round's outputs and keeps the tally.

    An operation is one program call: a CLI command or a library solve.
    The known fault (see checks.py) fails its operation; any other check
    that does not hold, or a call that exits non-zero, makes the run
    incorrect.
    """

    def __init__(self, workload: str, inputs: Path, desc: dict):
        self.workload = workload
        self.inputs = inputs
        self.desc = desc
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def __call__(self, result: dict, out: Path) -> None:
        self.attempted += len(result["codes"])
        if any(result["codes"]):
            self._incorrect(f"program exit codes {result['codes']}")
            return
        try:
            faults = check_round(self.workload, self.inputs, self.desc, out)
        except CheckFailed as e:
            self._incorrect(str(e))
            return
        for fault in faults:
            print(f"failed operation (known fault): {fault}", file=sys.stderr)
        self.failed += len(faults)

    def _incorrect(self, why: str) -> None:
        print(f"check failed: {why}", file=sys.stderr)
        self.correct = False
        self.failed += 1


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(runner: Runner, check: Checker, seconds: float) -> dict:
    setups = [runner.round(setup_only=True)[0]["setup_s"] for _ in range(SETUPS)]
    rounds = []
    spent = 0.0
    while not rounds or spent < seconds:
        res, out = runner.round()
        spent += res["wall_s"]
        check(res, out)
        rounds.append(res)
    setups += [r["setup_s"] for r in rounds]
    values = {
        "setup_s": median(setups),
        "fit_s": median(r["fit_s"] for r in rounds),
        "wall_s": median(r["wall_s"] for r in rounds),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in rounds),
    }
    print(f"{len(rounds)} rounds, fit_s " + " ".join(f"{r['fit_s']:.3f}" for r in rounds)
          + f"; {len(setups)} set-ups", file=sys.stderr)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(runner: Runner, check: Checker, seconds: float) -> dict:
    plain_fits, per_round = [], []
    spent = 0.0
    while not per_round or spent < seconds:
        for trace in (False, True):  # alternate, so drift hits both alike
            res, out = runner.round(trace=trace)
            spent += res["wall_s"]
            check(res, out)
            if trace:
                per_round.append(layer_metrics(res["trace"], res["fit_windows"]))
            else:
                plain_fits.append(res["fit_s"])
    values = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_pct":
            continue
        seen = [m[name] for m in per_round]
        if unit in TIME_UNITS:
            values[name] = median(seen)
        elif len(set(seen)) == 1:
            values[name] = seen[0]
        else:
            print(f"{name} differs between traced rounds: {seen}", file=sys.stderr)
            check.correct = False
            values[name] = median(seen)
    values["trace.overhead_pct"] = 100.0 * (values["trace.fit_s"] / median(plain_fits) - 1.0)
    print(f"{len(per_round)} traced and {len(plain_fits)} untraced rounds", file=sys.stderr)
    return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "prodscreen" / "cli.py").is_file():
        print(f"error: {root} holds no src/prodscreen; run from the repository root",
              file=sys.stderr)
        return 2
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(root, args.workload, work)
        desc = generate(args.workload, args.seed, runner.inputs)
        runner.round(setup_only=True)  # warm-up: bytecode and file caches
        check = Checker(args.workload, runner.inputs, desc)
        if args.trace:
            metrics = per_layer(runner, check, args.seconds)
        else:
            metrics = end_to_end(runner, check, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            work.parent.rmdir()
    print(json.dumps({"correct": check.correct, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
