"""perfbench drives prodscreen by name.  Its tracer wraps functions and
classes: a renamed function or class makes ``--trace 1`` fail when it
installs, and a renamed objective method silently loses its span.  Its
hooks read fields of what the wrapped calls return: a renamed field makes
``--trace 1`` fail mid-run.  Its worker runs CLI command lines: a removed
flag or choice makes a workload exit 1.  It calls ``solve`` by position: a
reordered signature would silently hand its arguments to other
parameters.  The perfbench modules are compiled from their files, so no
bytecode cache lands in perfbench/, and the tracer is not installed.
"""

import ast
import importlib
import inspect
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import prodscreen.objectives
from prodscreen import LogisticSpec, PathConfig, PenaltySchedule, logistic_dual, run_path
from prodscreen.cli import build_parser
from prodscreen.data import AtomicMatrix
from prodscreen.solver import SolverConfig, line_search, solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CLI_WORKLOADS = ("basket_path", "logistic_cli", "itemset_lattice")


def _load(name):
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_traced_names_exist():
    tracing = _load("tracing")
    for layer, names in tracing.FUNCTIONS.items():
        module = importlib.import_module(f"prodscreen.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"prodscreen.{layer}.{name}"
    classes = tracing.REDUCED_CLASSES + tracing.DUAL_CLASSES
    for cname in classes:
        assert isinstance(getattr(prodscreen.objectives, cname, None), type), cname
    for meth in tracing.OBJECTIVE_METHODS:
        assert any(meth in vars(getattr(prodscreen.objectives, c)) for c in classes), meth
    assert isinstance(vars(AtomicMatrix).get("from_dense"), classmethod)


def test_tracer_hooks_read_real_results():
    """The tracer's counting hooks take what a tiny logistic path, one of
    its solves, its last walk, a reduced dual and a line search return, and
    count what those results hold.  The hooks are called directly, so
    nothing is installed."""
    rng = np.random.default_rng(0)
    A = AtomicMatrix.from_dense((rng.random((40, 5)) < 0.5).astype(float))
    y = (rng.random(40) < 0.5).astype(float)
    obj = logistic_dual(LogisticSpec(labels=y), A)
    schedule = PenaltySchedule.geometric(1.0, 1.5)
    pr = run_path(obj, A, PathConfig(n_lambdas=3, lambda_min_ratio=0.2), schedule=schedule)
    res = pr.final
    red = obj.reduced(res.screen_result.emitted)
    alpha = obj.project(obj.alpha0())
    grad = red.gradient(alpha)
    ls = line_search(red, alpha, red.value(alpha), red.newton_direction(alpha, grad, 1e-4),
                     grad, 1e-4)

    tracer = _load("tracing").Tracer()
    tracer._after_run_path(pr, (), {})
    # read against a cap of one step, every round that stepped hit the cap
    tracer._after_solve(res, (obj, A, schedule), {"cfg": SolverConfig(max_inner=1)})
    tracer._after_screen(res.walk, (), {})
    tracer._after_reduced(red, (), {})
    tracer._after_line_search(ls, (), {})
    counts, maxima = tracer.counts, tracer.maxima
    assert counts["path.levels"] == len(pr.points) == 3
    assert counts["path.active"] == sum(p.active_count for p in pr.points) > 0
    assert counts["solver.inner_iters"] == res.state.inner_iterations
    assert counts["solver.outer_iters"] == res.state.outer_iterations
    inner = [row[1] for row in res.log]
    assert counts["solver.inner_cap_hits"] == sum(b > a for a, b in zip([0] + inner, inner)) > 0
    assert counts["screening.nodes"] == res.walk.explored_count > 0
    assert counts["screening.emitted"] == len(res.walk.emitted)
    assert maxima["objectives.active_max"] == red.F.shape[1] > 0
    assert counts["solver.stalls"] == int(ls.stalled) == 0
    assert counts["solver.ls_gradient_fallbacks"] == int(ls.used_gradient) == 0


@pytest.mark.parametrize("workload", CLI_WORKLOADS)
def test_worker_command_lines_parse(workload, tmp_path, monkeypatch):
    """Every command line a CLI workload runs parses, on seed-1 inputs."""
    before = sorted(PERFBENCH.rglob("*"))
    inputs = _load("inputs")
    monkeypatch.setitem(sys.modules, "inputs", inputs)  # cli_argv imports it by name
    desc = inputs.generate(workload, 1, tmp_path / "inputs")
    argvs = _load("worker").cli_argv(workload, tmp_path / "inputs", desc, tmp_path / "out")
    assert argvs
    for argv in argvs:
        build_parser().parse_args(argv)
    assert sorted(PERFBENCH.rglob("*")) == before


def test_worker_solve_call_binds_by_position():
    """The matrix workload calls ``solve`` positionally as
    ``fit_solve(obj, A, schedule, None, None, cfg)``.  Its arguments must
    still land on ``alpha0``, ``scfg`` and ``cfg``; a reordered signature
    would pass the solver settings as something else without an error."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "fit_solve"]
    assert calls
    for call in calls:
        bound = inspect.signature(solve).bind(
            *[ast.unparse(a) for a in call.args],
            **{kw.arg: ast.unparse(kw.value) for kw in call.keywords})
        assert bound.arguments["alpha0"] == "None"
        assert bound.arguments["scfg"] == "None"
        assert bound.arguments["cfg"] == "cfg"


@pytest.mark.parametrize("workload", CLI_WORKLOADS)
def test_worker_marks_cli_fits(workload, tmp_path, monkeypatch):
    """The worker times a CLI fit by rebinding the loaders and fit calls
    that ``prodscreen.cli`` reaches as module globals.  Were the CLI to
    reach them another way, ``fit_s`` would read 0 without an error; here
    every workload's run marks a load and at least one fit."""
    from prodscreen import cli

    before = sorted(PERFBENCH.rglob("*"))
    for name in ("load_dense", "load_transactions", "run_path", "solve", "screen"):
        monkeypatch.setattr(cli, name, getattr(cli, name))  # restored after the test
    inputs = _load("inputs")
    monkeypatch.setitem(sys.modules, "inputs", inputs)
    desc = inputs.generate(workload, 1, tmp_path / "inputs")
    worker = _load("worker")
    marks = worker.Marks(False)
    out = tmp_path / "out"
    out.mkdir()
    assert worker.run_cli(workload, tmp_path / "inputs", desc, out, marks) in ([0], [0, 0])
    assert marks.loaded is not None
    assert marks.fits
    assert sorted(PERFBENCH.rglob("*")) == before


def test_matrix_rank_solves_pass_the_benchmark_checks(tmp_path, monkeypatch):
    """Both ``matrix_rank`` solves, written by the worker, pass perfbench's
    independent recomputation, rank recount included.  The rho = 0.165
    solve's third residual singular value ends just below rho, where a
    change of rounding can carry it across the recount's strict
    ``sigma > rho`` while ``rank_report`` does not count it."""
    before = sorted(PERFBENCH.rglob("*"))
    inputs = _load("inputs")
    monkeypatch.setitem(sys.modules, "inputs", inputs)
    X, Y, rhos = inputs.matrix_instance()
    np.savez(tmp_path / "matrix.npz", X=X, Y=Y)
    desc = {"data": "matrix.npz", "rhos": rhos}
    out = tmp_path / "out"
    out.mkdir()
    worker, checks = _load("worker"), _load("checks")
    assert worker.run_matrix(tmp_path, desc, out, worker.Marks(False)) == [0, 0]
    for k in range(len(rhos)):
        checks.check_matrix(tmp_path, desc, out, k)
    assert sorted(PERFBENCH.rglob("*")) == before
