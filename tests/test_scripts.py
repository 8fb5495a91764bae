"""The scripts in scripts/ run end to end on small inputs and print their
header line, the README's library quick start runs as written, and the
benchmark's self-test passes.  Each runs in its own interpreter, as a user
would run it."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("path_report.py", ["--n", "120", "--d", "10"], "n=120 d=10 tau=18.0 lattice=1023"),
    ("planted_recovery.py", ["--n", "200", "--d", "12", "--n-lambdas", "4"],
     "n=200 d=12 lattice size 2^12-1 = 4095"),
    ("rank_sweep.py", ["--n-weights", "2"], "n=60 d=8 tasks=4 planted latent rank 2"),
])
def test_script_runs(script, args, header):
    proc = _run([str(ROOT / "scripts" / script), *args])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


def test_readme_quick_start_runs():
    """The README's python block fits the planted path and prints both
    planted sets, so an API change that breaks it fails here."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    proc = _run(["-c", blocks[0]])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "(0, 1)" in lines and "(4, 5, 6)" in lines


def test_perfbench_selftest_passes():
    """The benchmark's checks accept the program's own seed-1 outputs on
    every workload and reject corrupted copies.  A kernel change that moves
    a statistic's bits far enough to flip a checked readout, such as
    matrix_rank's rank, fails here.  It runs from the repository root, as
    the benchmark does, and writes only under perfbench/work/."""
    proc = _run([str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _run(args, cwd=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
