"""Reference figures: ten seeded runs per workload plus traced runs.

    python3 perfbench/reference.py

Run from the root of a checkout.  For each workload of BENCHMARK.json it
runs run.py with --trace 0 on seeds 1 to 10 at BENCHMARK.json's
run_seconds, and reports, per end-to-end metric, the median of the runs,
their spread (distance between the first and third quartile as
statistics.quantiles gives them, over the median) and the median wall time
of one run.  Then it runs --trace 1 twice on seed 1 and reports the
per-layer figures of the first traced run, flagging any count that differs
between the two.  Prints Markdown tables.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, SPEC, TIME_UNITS, WORKLOADS  # noqa: E402

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed"] = time.monotonic() - start
    return result


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    seconds = SPEC["run_seconds"]

    print("| workload | metric | median | spread | runs | failed/attempted | correct | s per run |")
    print("|---|---|---|---|---|---|---|---|")
    for w in WORKLOADS:
        runs = [run_once(w, s, seconds, 0) for s in SEEDS]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        correct = all(r["correct"] for r in runs)
        per_run = statistics.median(r["elapsed"] for r in runs)
        for m, unit in END_TO_END.items():
            vals = [r["metrics"][m]["value"] for r in runs]
            print(f"| {w} | {m} ({unit}) | {statistics.median(vals):.4g} | "
                  f"{spread(vals):.3f} | {len(vals)} | {' '.join(shares)} | {correct} | "
                  f"{per_run:.1f} |",
                  flush=True)

    traced = {w: [run_once(w, 1, seconds, 1) for _ in range(2)] for w in WORKLOADS}
    print()
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for m, unit in PER_LAYER.items():
        cells = []
        for w in WORKLOADS:
            a, b = (t["metrics"][m]["value"] for t in traced[w])
            same = unit in TIME_UNITS or m == "trace.overhead_pct" or a == b
            cells.append(f"{a:.4g}" + ("" if same else f" (2nd run {b:.4g})"))
        print(f"| {m} | {unit} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
