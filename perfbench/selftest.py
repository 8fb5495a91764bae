"""Self-test of the benchmark: its checks must catch corrupted outputs.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For each workload it runs one round on
seed 1, confirms that the checks accept the program's own outputs, then
corrupts a copy of those outputs (one emitted itemset dropped, one model
coefficient perturbed, one held-out score changed) and confirms that the
checks reject each copy.  It also confirms that run.py exits non-zero
without printing a result in a directory that holds no program.  Exit status 0 means every
case behaved as expected.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed, check_round  # noqa: E402
from inputs import generate  # noqa: E402
from run import WORKLOADS, Runner  # noqa: E402

SEED = 1


def drop_itemset(out: Path) -> None:
    f = out / "interactions.jsonl"
    lines = f.read_text().splitlines()
    del lines[len(lines) // 2]
    f.write_text("\n".join(lines) + "\n")


def perturb_coefficient(out: Path, name: str = "model.json") -> None:
    """Scale by 1.01 one coefficient strictly inside its box, if any."""
    f = out / name
    model = json.loads(f.read_text())
    entries = model["entries"]
    if "coef_row" in entries[0]:
        entries[0]["coef_row"][0] *= 1.01
    else:
        inner = [e for e in entries if 0.0 < abs(e["coef"]) < 1.0] or entries
        inner[0]["coef"] *= 1.01
    f.write_text(json.dumps(model, indent=1) + "\n")


def change_score(out: Path) -> None:
    f = out / "predictions.tsv"
    lines = f.read_text().splitlines()
    lines[0] = repr(1.0 - float(lines[0]))
    f.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "basket_path": [("coefficient perturbed", perturb_coefficient)],
    "logistic_cli": [("coefficient perturbed", perturb_coefficient),
                     ("held-out score changed", change_score)],
    "itemset_lattice": [("itemset dropped", drop_itemset)],
    "matrix_rank": [("coefficient perturbed",
                     lambda out: perturb_coefficient(out, "model0.json"))],
}


def verdict(workload, inputs, desc, out) -> str:
    try:
        faults = check_round(workload, inputs, desc, out)
    except CheckFailed as e:
        return f"rejected: {e}"
    return f"accepted, {len(faults)} known fault(s)"


def check_workload(root: Path, workload: str, work: Path) -> bool:
    runner = Runner(root, workload, work / workload)
    desc = generate(workload, SEED, runner.inputs)
    result, out = runner.round()
    clean = verdict(workload, runner.inputs, desc, out)
    ok = clean.startswith("accepted")
    print(f"{'ok  ' if ok else 'FAIL'} {workload}: own outputs {clean}")
    for label, corrupt in CORRUPTIONS[workload]:
        bad = out.with_name(out.name + "-" + label.split()[0])
        shutil.copytree(out, bad)
        corrupt(bad)
        seen = verdict(workload, runner.inputs, desc, bad)
        hit = seen.startswith("rejected")
        ok &= hit
        print(f"{'ok  ' if hit else 'FAIL'} {workload}: {label} -> {seen}")
    return ok


def check_no_program(root: Path, work: Path) -> bool:
    bare = work / "bare"
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"{'ok  ' if ok else 'FAIL'} without src/, run.py exits {proc.returncode} "
          "and prints no result")
    return ok


def main() -> int:
    root = Path.cwd()
    work = HERE / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ok = check_no_program(root, work)
        for workload in WORKLOADS:
            ok &= check_workload(root, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
