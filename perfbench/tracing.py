"""Spans and counts around the public calls of each prodscreen module.

The program carries no instrument of its own yet, so the traced run wraps
the module-level functions and the reduced-dual methods from outside.  Each
wrapped call records a span (name, start, end, parent index) in memory; the
worker writes them out when the round ends.  ``layer_metrics`` turns one
round's spans and counts into the per-layer metrics.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of every span inside the fit calls add
up to the fit time; ``trace.unattributed_s`` reports what is left over, the
time between a fit call's own timer and its outermost span.  It bounds the
cost of the wrappers only: time in a callee that is not wrapped (numpy, the
duality maps, ``dots``) counts in the self time of its innermost wrapped
caller's layer.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# module -> public functions wrapped as spans named "<layer>.<function>"
FUNCTIONS = {
    "data": ("load_dense", "load_transactions"),
    "screening": ("screen",),
    "path": ("lambda_max", "run_path", "predict"),
    "solver": ("solve", "line_search", "cg_solve", "qn_step", "_polish"),
    "objectives": ("rank_report",),
    "cli": ("main",),
}
# public methods of the objective classes, wrapped as "objectives.<method>" in
# every class that defines them.  Two stay unwrapped: `dots`, which the
# value and gradient calls make on every evaluation, and ReducedDual.project,
# which only hands over to the objective's wrapped `project`.
OBJECTIVE_METHODS = ("value", "gradient", "primal_map", "primal_value", "free_mask",
                     "feature_sets", "screen_config", "screen_weights", "project",
                     "alpha0")
REDUCED_CLASSES = ("ReducedDual", "_BasketReduced", "_LogisticReduced", "_MatrixReduced")
DUAL_CLASSES = ("DualObjective", "BasketDual", "LogisticDual", "MatrixDual")
LAYERS = ("data", "screening", "path", "solver", "objectives", "cli")


class Tracer:
    """Installs the wrappers and holds the spans and counts of one round."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (name, start, clock(), parent)
            if after is not None:
                after(out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _peak(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    # -- hooks that count what a call returned or was given ---------------

    def _after_screen(self, res, args, kwargs):
        self.counts["screening.nodes"] += res.explored_count
        self.counts["screening.emitted"] += len(res.emitted)
        self.counts["screening.pruned"] += res.pruned_by_closure

    def _after_run_path(self, pr, args, kwargs):
        self.counts["path.levels"] += len(pr.points)
        self.counts["path.expansions"] += sum(p.expansions for p in pr.points)
        self.counts["path.predicted"] += sum(p.predicted_count for p in pr.points)
        self.counts["path.active"] += sum(p.active_count for p in pr.points)

    def _after_solve(self, res, args, kwargs):
        from prodscreen.solver import SolverConfig

        cfg = kwargs.get("cfg", args[5] if len(args) > 5 else None) or SolverConfig()
        self.counts["solver.outer_iters"] += res.state.outer_iterations
        self.counts["solver.inner_iters"] += res.state.inner_iterations
        done = 0
        for row in res.log:  # row[1] is the running inner count
            if row[1] - done >= cfg.max_inner:
                self.counts["solver.inner_cap_hits"] += 1
            done = row[1]

    def _after_line_search(self, res, args, kwargs):
        self.counts["solver.stalls"] += int(res.stalled)
        self.counts["solver.ls_gradient_fallbacks"] += int(res.used_gradient)

    def _after_reduced(self, red, args, kwargs):
        n, m = red.F.shape
        self._peak("objectives.active_max", m)
        self._peak("objectives.F_mb", 8.0 * n * m / 1e6)

    def _cg_solve(self, fn):
        counts = self.counts

        def counted_cg(matvec, *args, **kwargs):
            def op(v):
                counts["solver.cg_matvecs"] += 1
                return matvec(v)

            return fn(op, *args, **kwargs)

        return self._span("solver.cg_solve", counted_cg)

    def _hessian_matvec(self, fn):
        make_span = self._span

        def hessian_matvec(red, alpha):
            return make_span("objectives.matvec", fn(red, alpha))

        return self._span("objectives.hessian_matvec", hessian_matvec)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import prodscreen  # noqa: F401  (loads every module)

        modules = [m for name, m in sys.modules.items()
                   if name == "prodscreen" or name.startswith("prodscreen.")]
        after = {"screen": self._after_screen, "run_path": self._after_run_path,
                 "solve": self._after_solve, "line_search": self._after_line_search}
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"prodscreen.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                label = f"{layer}.{fname.lstrip('_')}"
                if fname == "cg_solve":
                    new = self._cg_solve(orig)
                else:
                    new = self._span(label, orig, after.get(fname))
                for m in modules:  # rebind every `from .x import f` copy too
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, new)
        data = sys.modules["prodscreen.data"]
        from_dense = data.AtomicMatrix.__dict__["from_dense"].__func__
        data.AtomicMatrix.from_dense = classmethod(
            self._span("data.from_dense", from_dense))
        objectives = sys.modules["prodscreen.objectives"]
        for cname in REDUCED_CLASSES + DUAL_CLASSES:
            cls = getattr(objectives, cname)
            for meth in OBJECTIVE_METHODS:
                if meth in cls.__dict__ and (cname, meth) != ("ReducedDual", "project"):
                    setattr(cls, meth, self._span(f"objectives.{meth}", cls.__dict__[meth]))
            if "hessian_matvec" in cls.__dict__:
                cls.hessian_matvec = self._hessian_matvec(cls.__dict__["hessian_matvec"])
            if "reduced" in cls.__dict__:
                cls.reduced = self._span("objectives.reduced", cls.__dict__["reduced"],
                                         self._after_reduced)

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
                "counts": dict(self.counts), "maxima": self.maxima}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, fit_windows: list) -> dict:
    """Per-layer metrics of one traced round.

    ``fit_windows`` are the (start, end) perf_counter times of the fit calls;
    self time that falls in spans outside them (the loader, predict, cli
    glue) is reported under its own layer but not in the accounting of
    ``trace.unattributed_s``.
    """
    names = trace["names"]
    spans = trace["spans"]
    counts = Counter(trace["counts"])
    child = [0.0] * len(spans)
    for nid, a, b, parent in spans:
        if parent >= 0:
            child[parent] += b - a
    total = Counter()
    calls = Counter()
    layer_self = Counter()
    top_data = 0.0
    in_ls_values = 0
    fit_self = 0.0
    for i, (nid, a, b, parent) in enumerate(spans):
        name = names[nid]
        layer = name.split(".", 1)[0]
        dur = b - a
        own = dur - child[i]
        total[name] += dur
        calls[name] += 1
        layer_self[layer] += own
        pname = names[spans[parent][0]] if parent >= 0 else ""
        if layer == "data" and not pname.startswith("data."):
            top_data += dur
        if name == "objectives.value" and pname == "solver.line_search":
            in_ls_values += 1
        if any(lo <= a and b <= hi for lo, hi in fit_windows):
            fit_self += own
    fit_s = sum(hi - lo for lo, hi in fit_windows)
    nodes = counts["screening.nodes"]
    steps = calls["solver.line_search"]
    m = {
        "data.load_s": top_data,
        "screening.calls": calls["screening.screen"],
        "screening.s": total["screening.screen"],
        "screening.nodes": nodes,
        "screening.emitted": counts["screening.emitted"],
        "screening.pruned": counts["screening.pruned"],
        "screening.us_per_node": 1e6 * _ratio(total["screening.screen"], nodes),
        "screening.emit_per_node": _ratio(counts["screening.emitted"], nodes),
        "path.lambda_max_s": total["path.lambda_max"],
        "path.levels": counts["path.levels"],
        "path.expansions": counts["path.expansions"],
        "path.pred_to_active": _ratio(counts["path.predicted"], counts["path.active"]),
        "path.predict_s": total["path.predict"],
        "solver.solve_calls": calls["solver.solve"],
        "solver.outer_iters": counts["solver.outer_iters"],
        "solver.inner_iters": counts["solver.inner_iters"],
        "solver.inner_cap_hits": counts["solver.inner_cap_hits"],
        "solver.qn_steps": calls["solver.qn_step"],
        "solver.cg_s": total["solver.cg_solve"],
        "solver.cg_matvecs": counts["solver.cg_matvecs"],
        "solver.cg_matvecs_per_step": _ratio(counts["solver.cg_matvecs"],
                                             calls["solver.cg_solve"]),
        "solver.ls_s": total["solver.line_search"],
        "solver.value_evals_per_step": _ratio(in_ls_values, steps),
        "solver.ls_gradient_fallbacks": counts["solver.ls_gradient_fallbacks"],
        "solver.stalls": counts["solver.stalls"],
        "solver.polish_calls": calls["solver.polish"],
        "solver.polish_s": total["solver.polish"],
        "objectives.value_evals": calls["objectives.value"],
        "objectives.value_s": total["objectives.value"],
        "objectives.gradient_evals": calls["objectives.gradient"],
        "objectives.gradient_s": total["objectives.gradient"],
        "objectives.matvec_s": total["objectives.matvec"],
        "objectives.reduced_builds": calls["objectives.reduced"],
        "objectives.reduced_s": total["objectives.reduced"],
        "objectives.active_max": int(trace["maxima"].get("objectives.active_max", 0)),
        "objectives.F_mb": trace["maxima"].get("objectives.F_mb", 0.0),
        "trace.spans": len(spans),
        "trace.fit_s": fit_s,
        "trace.unattributed_s": fit_s - fit_self,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
