"""perfbench's tracer wraps prodscreen's functions and classes by name: a
renamed function or class makes ``--trace 1`` fail when it installs, and a
renamed objective method silently loses its span.  The tracer module is
loaded from its file and not installed.
"""

import importlib
import types
from pathlib import Path

import prodscreen.objectives
from prodscreen.data import AtomicMatrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # compiled from source, so no bytecode cache lands in perfbench/
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_names_exist():
    tracing = _tracing()
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
