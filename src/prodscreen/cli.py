"""Command-line front end.

Subcommands: fit-basket, fit-logistic, fit-matrix, screen, predict, synth.
Fits write model.json, interactions.jsonl, and log.tsv into --out (plus
path.tsv when --path is given).  Exit status is 0 for a converged fit, 2
for a best-effort fit that did not certify convergence, 1 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import AtomicMatrix, load_dense, load_transactions
from .duality import PrimalModel
from .objectives import (BasketSpec, LogisticSpec, MatrixSpec, basket_dual,
                         logistic_dual, matrix_dual)
from .path import PathConfig, predict, run_path
from .screening import PenaltySchedule, ScreenConfig, screen
from .solver import LOG_HEADER, SolverConfig, solve


def _parse_penalty(text: str, lam: float) -> PenaltySchedule:
    parts = text.split(":")
    if parts[0] == "flat" and len(parts) == 1:
        return PenaltySchedule.flat(lam)
    if parts[0] == "geo" and len(parts) == 2:
        return PenaltySchedule.geometric(lam, float(parts[1]))
    if parts[0] == "supergeo" and len(parts) == 3:
        return PenaltySchedule.supergeometric(lam, float(parts[1]), float(parts[2]))
    raise ValueError(
        f"bad --penalty {text!r}: expected flat, geo:BASE, or supergeo:BASE:EXP")


def _load_matrix(args, response_cols: int = 0):
    if args.format == "transactions":
        if response_cols:
            raise ValueError("transaction data carries no response columns; use --format csv")
        return load_transactions(args.data), None
    A, resp = load_dense(args.data, response_cols)
    return A, resp


def _add_common(p, fit=True):
    """Flags of the fits and of screen; ``fit`` adds those only a fit reads."""
    p.add_argument("--data", required=True, help="input path")
    p.add_argument("--format", choices=("transactions", "csv"), default="transactions")
    if fit:
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="single penalty level (mutually exclusive with --path)")
        p.add_argument("--path", action="store_true", help="trace a full path")
        p.add_argument("--n-lambdas", type=int, default=50)
        p.add_argument("--min-ratio", type=float, default=1e-3)
        p.add_argument("--dedup", type=float, default=None,
                       help="drop atom columns at least this similar to an earlier one")
    p.add_argument("--penalty", default="flat",
                   help="flat | geo:BASE | supergeo:BASE:EXP")
    p.add_argument("--max-order", type=int, default=20)
    p.add_argument("--out", default=None, help="output directory")


def _outdir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_items(A: AtomicMatrix, out: Path):
    if A.item_names is not None:
        (out / "items.json").write_text(
            json.dumps({str(i): t for i, t in enumerate(A.item_names)}, indent=0) + "\n")


def _write_fit(out: Path, res, A: AtomicMatrix):
    doc = res.model.to_json_dict()
    if A.item_names is not None:  # so that predict can map new data by name
        doc["item_names"] = list(A.item_names)
    (out / "model.json").write_text(json.dumps(doc, indent=1) + "\n")
    with open(out / "interactions.jsonl", "w") as fh:
        for line in res.screen_result.to_jsonl(A.item_names):
            fh.write(line + "\n")
    with open(out / "log.tsv", "w") as fh:
        fh.write("\t".join(LOG_HEADER) + "\n")
        for row in res.log:
            fh.write("\t".join(
                f"{v:.10g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_path(out: Path, path_result):
    with open(out / "path.tsv", "w") as fh:
        for row in path_result.tsv_rows():
            fh.write("\t".join(row) + "\n")


def _run_fit(args, obj, A, schedule_shape, kept=None):
    """Fit, then write --out: a fit that fails leaves no output behind."""
    scfg = ScreenConfig(max_order=args.max_order)
    cfg = SolverConfig()
    if args.path == (args.lam is not None):
        raise ValueError("give exactly one of --lambda and --path")
    if args.path:
        pr = run_path(obj, A, PathConfig(n_lambdas=args.n_lambdas,
                                         lambda_min_ratio=args.min_ratio),
                      scfg, cfg, schedule_shape)
        res = pr.final
    else:
        res = solve(obj, A, schedule_shape.with_base(args.lam), None, scfg, cfg)
    out = _outdir(args)
    if kept is not None:
        (out / "kept_columns.json").write_text(json.dumps(kept) + "\n")
    _write_items(A, out)
    _write_fit(out, res, A)
    if args.path:
        _write_path(out, pr)
        ok = all(p.converged for p in pr.points)
        print(f"path: {len(pr.points)} levels, lambda in "
              f"[{pr.points[-1].lam:.4g}, {pr.points[0].lam:.4g}], "
              f"final active {pr.points[-1].active_count}")
        return 0 if ok else 2
    st = res.state
    print(f"lambda {args.lam:g}: active {res.model.n_active}, gap {st.gap:.3e}, "
          f"{st.stop_reason}")
    return 0 if st.converged else 2


def _dedup_if_asked(args, A):
    """A without its near-duplicate atoms under --dedup, and the kept atom
    indices, which the fit writes once its input has passed every check."""
    if args.dedup is None:
        return A, None
    from .screening import dedup_atoms

    B, kept = dedup_atoms(A, args.dedup)
    print(f"dedup: kept {len(kept)} of {A.n_cols} atom columns", file=sys.stderr)
    return B, kept


def _cmd_fit_basket(args):
    A, _ = _load_matrix(args)
    shape = _parse_penalty(args.penalty, 1.0)
    spec = BasketSpec(tau_target=args.tau, penalty=shape, gamma=args.gamma)
    A, kept = _dedup_if_asked(args, A)
    return _run_fit(args, basket_dual(spec, A), A, shape, kept)


def _cmd_fit_logistic(args):
    A, resp = _load_matrix(args, response_cols=1)
    shape = _parse_penalty(args.penalty, 1.0)
    spec = LogisticSpec(labels=resp[:, 0], penalty=shape, tau_l2=args.tau)
    A, kept = _dedup_if_asked(args, A)
    return _run_fit(args, logistic_dual(spec, A), A, shape, kept)


def _cmd_fit_matrix(args):
    A, resp = _load_matrix(args, response_cols=args.responses)
    shape = _parse_penalty(args.penalty, 1.0)
    spec = MatrixSpec(responses=resp, rho_nuclear=args.rho, penalty=shape,
                      eta_l2=args.eta, fit_intercept=not args.no_intercept)
    A, kept = _dedup_if_asked(args, A)
    return _run_fit(args, matrix_dual(spec, A), A, shape, kept)


def _cmd_screen(args):
    A, _ = _load_matrix(args)
    alpha = np.loadtxt(args.alpha, ndmin=2 if args.mode == "group" else 1)
    if args.mode != "group":  # the statistic follows from the dual; --mode checks the file
        alpha = np.atleast_1d(alpha.squeeze())
        if alpha.ndim != 1 or (args.mode == "nonneg" and np.any(alpha < 0)):
            raise ValueError(f"{args.alpha}: --mode {args.mode} takes one dual column"
                             + (" without negative entries" if args.mode == "nonneg" else ""))
    schedule = _parse_penalty(args.penalty, args.lam)
    cfg = ScreenConfig(max_order=args.max_order)
    res = screen(A, alpha, schedule, cfg)
    lines = list(res.to_jsonl(A.item_names))
    if args.out:
        out = _outdir(args)
        (out / "interactions.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    print(f"emitted {len(res.emitted)}, explored {res.explored_count}, "
          f"closure-pruned {res.pruned_by_closure}", file=sys.stderr)
    return 0


def _transactions_by_name(A: AtomicMatrix, names) -> AtomicMatrix:
    """New transactions with their columns in the order of a model's item
    names; a token absent from the new data is a zero column."""
    index = {t: j for j, t in enumerate(A.item_names)}
    X = np.hstack([A.atom_matrix(), np.zeros((A.n_rows, 1), dtype=bool)])
    return AtomicMatrix(X[:, [index.get(t, A.n_cols) for t in names]], item_names=names)


def _cmd_predict(args):
    doc = json.loads(Path(args.model).read_text())
    model = PrimalModel.from_json_dict(doc)
    names = doc.get("item_names")  # models built in the library map by position
    if names is not None and not (isinstance(names, list) and all(isinstance(t, str) for t in names)
                                  and len(set(names)) == len(names)):
        raise ValueError(f"{args.model}: 'item_names' must be a list of distinct strings")
    if args.format == "transactions":
        A = load_transactions(args.data)
        if names is not None:
            A = _transactions_by_name(A, names)
    else:  # only the named columns are read, so response columns may stay in the file
        A, _ = load_dense(args.data, 0, columns=names)
    scores = predict(model, A)
    np.savetxt(sys.stdout, np.atleast_2d(scores.T).T, fmt="%.10g", delimiter="\t")
    return 0


def _cmd_synth(args):
    from .synth import synth_planted

    planted = []
    if args.planted:
        for part in args.planted.split(";"):
            atoms_txt, w = part.split(":")
            planted.append((tuple(int(a) for a in atoms_txt.split(",")), float(w)))
    ds = synth_planted(args.seed, args.n, args.d, planted, noise=args.noise,
                       kind=args.kind, n_tasks=args.tasks, latent_rank=args.rank)
    out = _outdir(args)
    A = ds.matrix
    X = A.atom_matrix()
    if ds.kind == "basket":
        with open(out / "data.txt", "w") as fh:
            for row in X:
                fh.write(" ".join(str(j) for j in np.flatnonzero(row)) + "\n")
        data_path = out / "data.txt"
    else:
        resp = np.atleast_2d(ds.response.T).T
        header = [f"x{j}" for j in range(A.n_cols)] + [f"y{t}" for t in range(resp.shape[1])]
        with open(out / "data.csv", "w") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(A.n_rows):
                fh.write(",".join(f"{v:.10g}" for v in np.concatenate([X[i], resp[i]])) + "\n")
        data_path = out / "data.csv"
    (out / "truth.json").write_text(json.dumps({
        "kind": ds.kind,
        "planted": [{"atoms": list(fs.atoms), "weight": w}
                    for fs, w in zip(ds.truth, ds.weights)],
    }, indent=1) + "\n")
    print(f"wrote {data_path} and truth.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="prodscreen", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-basket", help="fit the covering objective")
    _add_common(p)
    p.add_argument("--tau", type=float, default=10.0)
    p.add_argument("--gamma", type=float, default=1e-3)
    p.set_defaults(fn=_cmd_fit_basket)

    p = sub.add_parser("fit-logistic", help="fit the logistic objective (csv, last column = labels)")
    _add_common(p)
    p.add_argument("--tau", type=float, default=1.0, help="l2 weight")
    p.set_defaults(fn=_cmd_fit_logistic)

    p = sub.add_parser("fit-matrix", help="fit the multi-response objective")
    _add_common(p)
    p.add_argument("--responses", type=int, required=True, help="trailing response columns")
    p.add_argument("--eta", type=float, default=1e-3, help="ridge weight")
    p.add_argument("--rho", type=float, default=0.0, help="nuclear-norm weight")
    p.add_argument("--no-intercept", action="store_true")
    p.set_defaults(fn=_cmd_fit_matrix)

    p = sub.add_parser("screen", help="one-shot screening at a supplied dual vector")
    _add_common(p, fit=False)
    p.add_argument("--alpha", required=True, help="text file with the dual, one row per data row")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mode", choices=("signed", "nonneg", "group"), default="signed",
                   help="dual file check: one column, one without negatives, or n x T")
    p.set_defaults(fn=_cmd_screen)

    p = sub.add_parser("predict", help="score new data with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("transactions", "csv"), default="transactions")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("synth", help="generate planted-interaction data")
    p.add_argument("--kind", choices=("basket", "logistic", "matrix"), default="logistic")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=20)
    p.add_argument("--planted", default="", help='e.g. "0,1:5;2,3,4:6"')
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--tasks", type=int, default=1)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=_cmd_synth)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
