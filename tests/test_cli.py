import argparse
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import oracles as oc
import prodscreen
from prodscreen import AtomicMatrix, PenaltySchedule, PrimalModel, predict
from prodscreen.cli import build_parser, main
from prodscreen.data import load_dense, load_transactions
from prodscreen.solver import LOG_HEADER


def _synth_csv(tmp_path, kind="logistic", n=80, d=8, tasks=1, seed=7):
    out = tmp_path / "data"
    code = main(["synth", "--kind", kind, "--n", str(n), "--d", str(d),
                 "--planted", "0,1:6;3:5", "--noise", "0.02",
                 "--tasks", str(tasks), "--seed", str(seed), "--out", str(out)])
    assert code == 0
    return out / ("data.txt" if kind == "basket" else "data.csv"), out / "truth.json"


def test_synth_writes_expected_files(tmp_path, capsys):
    data, truth = _synth_csv(tmp_path)
    assert "truth.json" in capsys.readouterr().out
    header = data.read_text().splitlines()[0].split(",")
    assert header == [f"x{j}" for j in range(8)] + ["y0"]
    meta = json.loads(truth.read_text())
    assert meta["kind"] == "logistic"
    assert [p["atoms"] for p in meta["planted"]] == [[0, 1], [3]]
    assert [p["weight"] for p in meta["planted"]] == [6.0, 5.0]


def test_fit_logistic_path_end_to_end(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path)
    fit = tmp_path / "fit"
    code = main(["fit-logistic", "--data", str(data), "--format", "csv",
                 "--path", "--n-lambdas", "6", "--min-ratio", "0.05",
                 "--penalty", "geo:1.5", "--out", str(fit)])
    assert code == 0
    assert "path: 6 levels" in capsys.readouterr().out

    model = PrimalModel.load(fit / "model.json")
    assert model.kind == "logistic"
    assert model.n_active > 0

    lines = (fit / "interactions.jsonl").read_text().splitlines()
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"atoms", "items", "stat", "threshold"}
        assert rec["stat"] > rec["threshold"]
        assert rec["items"] == [f"x{a}" for a in rec["atoms"]]

    log = (fit / "log.tsv").read_text().splitlines()
    assert log[0].split("\t") == list(LOG_HEADER)
    assert len(log) > 1

    path_rows = [r.split("\t") for r in (fit / "path.tsv").read_text().splitlines()]
    assert path_rows[0][0] == "lambda"
    assert len(path_rows) == 7
    lams = [float(r[0]) for r in path_rows[1:]]
    assert lams == sorted(lams, reverse=True)
    assert all(r[6] == "1" for r in path_rows[1:])  # converged flag
    assert all(r[-1] == "converged" for r in path_rows[1:])  # stop reason


def test_fit_basket_transactions(tmp_path, capsys):
    trans = tmp_path / "trans.txt"
    trans.write_text("milk bread eggs\nbread eggs\nmilk eggs\nbread\nmilk bread eggs\n"
                     "eggs milk\nbread eggs milk\n")
    fit = tmp_path / "fit"
    code = main(["fit-basket", "--data", str(trans), "--lambda", "1.0",
                 "--tau", "2.0", "--out", str(fit)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda 1" in out and "converged" in out

    items = json.loads((fit / "items.json").read_text())
    assert items == {"0": "milk", "1": "bread", "2": "eggs"}
    model = PrimalModel.load(fit / "model.json")
    assert model.kind == "basket"
    assert model.n_active > 0
    # named interactions in the screen report use the item tokens
    recs = [json.loads(l) for l in (fit / "interactions.jsonl").read_text().splitlines()]
    names = {items[str(a)] for rec in recs for a in rec["atoms"]}
    assert names <= {"milk", "bread", "eggs"}


def test_fit_matrix_csv(tmp_path):
    data, _ = _synth_csv(tmp_path, kind="matrix", n=60, d=6, tasks=3)
    fit = tmp_path / "fit"
    code = main(["fit-matrix", "--data", str(data), "--format", "csv",
                 "--responses", "3", "--lambda", "2.0", "--rho", "0.0",
                 "--out", str(fit)])
    assert code == 0
    model = PrimalModel.load(fit / "model.json")
    assert model.kind == "matrix"
    assert model.intercept.shape == (3,)
    if model.n_active:
        assert model.coefficients.shape[1] == 3


@pytest.mark.parametrize("extra", [[], ["--dedup", "0.99"]], ids=["plain", "dedup"])
def test_fit_matrix_rejects_zero_responses(tmp_path, capsys, extra):
    """--responses 0 would read the response column as a feature and fit
    an empty response matrix; it exits 1 before --out is made."""
    data = tmp_path / "d.csv"
    data.write_text("x0,x1,y0\n1,0,0.5\n0,1,0.25\n1,1,0.75\n0,0,1\n")
    out = tmp_path / "out"
    assert main(["fit-matrix", "--data", str(data), "--format", "csv", "--responses", "0",
                 "--lambda", "0.5", "--out", str(out)] + extra) == 1
    assert "error: responses must be" in capsys.readouterr().err
    assert not out.exists()


def test_fit_flag_validation(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path)
    out = tmp_path / "rejected"
    both = main(["fit-logistic", "--data", str(data), "--format", "csv",
                 "--lambda", "1.0", "--path", "--out", str(out)])
    assert both == 1
    neither = main(["fit-logistic", "--data", str(data), "--format", "csv",
                    "--out", str(out)])
    assert neither == 1
    err = capsys.readouterr().err
    assert err.count("exactly one of --lambda and --path") == 2
    # a rejected invocation must not touch the filesystem
    assert not out.exists()


def test_input_errors_exit_1(tmp_path, capsys):
    assert main(["fit-basket", "--data", str(tmp_path / "missing.txt"),
                 "--lambda", "1.0"]) == 1
    trans = tmp_path / "t.txt"
    trans.write_text("a b\nb a\n")
    assert main(["fit-basket", "--data", str(trans), "--lambda", "1.0",
                 "--penalty", "bogus:x"]) == 1
    # logistic needs a response column, which transactions cannot carry
    assert main(["fit-logistic", "--data", str(trans), "--lambda", "1.0"]) == 1
    dup = tmp_path / "dup.txt"
    dup.write_text("a a b\n")
    assert main(["fit-basket", "--data", str(dup), "--lambda", "1.0"]) == 1
    err = capsys.readouterr().err
    assert "duplicate item" in err
    assert err.count("error:") == 4


def test_unknown_command_and_help(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["--help"]) == 0
    assert main(["fit-basket"]) == 1  # --data is required
    capsys.readouterr()


def test_fit_commands_take_no_seed(tmp_path, capsys):
    trans = tmp_path / "t.txt"
    trans.write_text("a b\na b c\nb c\na\n")
    out = tmp_path / "out"
    assert main(["fit-basket", "--data", str(trans), "--lambda", "1.0",
                 "--seed", "3", "--out", str(out)]) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not out.exists()


def test_screen_matches_enumeration(tmp_path, capsys):
    rng = np.random.default_rng(13)
    d, n = 5, 14
    X = (rng.random((n, d)) < 0.45).astype(float)
    X[0] = 1.0  # first row lists every item, pinning first-seen column order
    trans = tmp_path / "trans.txt"
    trans.write_text("\n".join(
        " ".join(str(j) for j in range(d) if X[i, j]) for i in range(n)) + "\n")
    alpha = rng.standard_normal(n)
    alpha_file = tmp_path / "alpha.txt"
    np.savetxt(alpha_file, alpha)

    lam = 1.2
    out = tmp_path / "screened"
    code = main(["screen", "--data", str(trans), "--alpha", str(alpha_file),
                 "--lambda", str(lam), "--penalty", "geo:1.4",
                 "--mode", "signed", "--out", str(out)])
    assert code == 0
    assert "emitted" in capsys.readouterr().err

    got = [tuple(json.loads(l)["atoms"])
           for l in (out / "interactions.jsonl").read_text().splitlines()]
    subsets, P = oc.materialize(X)
    sched = PenaltySchedule.geometric(lam, 1.4)
    stats = oc.enumerate_stats(P, alpha, "signed")
    want = [u for u, s in zip(subsets, stats) if s > sched.threshold(len(u))]
    assert sorted(got) == sorted(want)


def test_screen_without_out_prints_jsonl(tmp_path, capsys):
    trans = tmp_path / "t.txt"
    trans.write_text("a b\na\nb\n")
    alpha_file = tmp_path / "alpha.txt"
    np.savetxt(alpha_file, np.array([1.0, 1.0, -0.5]))
    assert main(["screen", "--data", str(trans), "--alpha", str(alpha_file),
                 "--lambda", "0.4", "--mode", "signed"]) == 0
    out = capsys.readouterr().out
    recs = [json.loads(l) for l in out.strip().splitlines()]
    assert all({"atoms", "items", "stat", "threshold"} == set(r) for r in recs)
    # output is sorted by atom tuple
    assert [r["items"] for r in recs] == [["a"], ["a", "b"], ["b"]]


def test_predict_cli_roundtrip(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path)
    fit = tmp_path / "fit"
    assert main(["fit-logistic", "--data", str(data), "--format", "csv",
                 "--path", "--n-lambdas", "5", "--min-ratio", "0.05",
                 "--out", str(fit)]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", str(fit / "model.json"),
                 "--data", str(data), "--format", "csv"]) == 0
    got = np.array([float(v) for v in capsys.readouterr().out.split()])
    A, _ = load_dense(data, 1)
    model = PrimalModel.load(fit / "model.json")
    assert np.allclose(got, predict(model, A), atol=1e-9)


@pytest.mark.parametrize("doc, field", [
    ({"intercept": [], "entries": []}, "'kind'"),
    ({"kind": "logistic", "intercept": []}, "'entries'"),
    ({"kind": "matrix", "intercept": [0.0, 0.0],
      "entries": [{"atoms": [0], "coef": 1.0}, {"atoms": [1], "coef_row": [1.0, 2.0]}]},
     "'coef_row'"),
    ([{"atoms": [0], "coef": 1.0}], "JSON object"),
    ({"kind": "basket", "intercept": [], "entries": [{"atoms": [0], "coef": None}]},
     "'coef'"),
    ({"kind": "basket", "intercept": [], "entries": [{"atoms": [0], "coef": "inf"}]},
     "'coef'"),
    ({"kind": "logistic", "intercept": [],
      "entries": [{"atoms": [0], "coef": float("inf")}]}, "'coef'"),
    ({"kind": "basket", "intercept": [], "entries": [{"atoms": [0], "coef_row": [1.0, 2.0]}]},
     "'coef_row'"),
    ({"kind": "basket", "intercept": [0.5], "entries": [{"atoms": [0], "coef": 1.0}]},
     "'intercept'"),
    ({"kind": "matrix", "entries": [{"atoms": [0], "coef": 1.0}]}, "'coef_row'"),
    ({"kind": "matrix", "entries": [{"atoms": [0], "coef_row": [1.0]}]}, "'intercept'"),
    ({"kind": "matrix", "intercept": [0.0, 0.0],
      "entries": [{"atoms": [0], "coef_row": [1.0, 2.0]}, {"atoms": [1], "coef_row": [1.0]}]},
     "'coef_row'"),
    ({"kind": "matrix", "intercept": [0.0],
      "entries": [{"atoms": [0], "coef_row": [float("nan")]}]}, "'coef_row'"),
    ({"kind": "basket", "intercept": [], "entries": [{"atoms": 0, "coef": 1.0}]}, "'atoms'"),
    ({"kind": "basket", "intercept": [], "entries": [{"atoms": [0.5], "coef": 1.0}]},
     "'atoms'"),
    ({"kind": "basket", "intercept": [], "entries": [{"atoms": [0, 1], "coef": 1.0}],
      "item_names": ["a", "a", "b"]}, "'item_names'"),
    ({"kind": "basket", "intercept": [], "entries": [], "item_names": "ab"}, "'item_names'"),
    ({"kind": "basket", "intercept": [], "entries": [], "item_names": ["a", 1]},
     "'item_names'"),
], ids=["no-kind", "no-entries", "mixed-coef", "top-level-list", "null-coef", "string-coef",
        "infinite-coef", "basket-coef-row", "basket-intercept", "matrix-coef",
        "matrix-no-intercept", "ragged-coef-row", "nan-coef-row", "scalar-atoms",
        "fractional-atom", "repeated-item-name", "string-item-names", "non-string-item-name"])
def test_predict_rejects_malformed_model(tmp_path, capsys, doc, field):
    """A malformed model.json exits 1 with one error line, not a traceback.
    Repeated item names would map two atoms to one column of new data."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = tmp_path / "t.txt"
    data.write_text("a b\nb\n")
    assert main(["predict", "--model", str(model), "--data", str(data)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]


@pytest.mark.parametrize("doc, want", [
    ({"kind": "basket", "intercept": [], "entries": []}, [[0.0], [0.0]]),
    ({"kind": "logistic", "entries": []}, [[0.5], [0.5]]),
    ({"kind": "matrix", "intercept": [1.5, -2.0], "entries": []}, [[1.5, -2.0]] * 2),
], ids=["basket", "logistic", "matrix"])
def test_predict_loads_model_without_entries(tmp_path, capsys, doc, want):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    data = tmp_path / "t.txt"
    data.write_text("a b\nb\n")
    assert main(["predict", "--model", str(model), "--data", str(data)]) == 0
    assert np.loadtxt(capsys.readouterr().out.splitlines(), ndmin=2).tolist() == want


@pytest.mark.parametrize("argv, message", [
    (["--planted", "0,1:nan"], "weights must be finite"),
    (["--planted", "0,1:inf;2:3"], "weights must be finite"),
    (["--noise", "nan"], "noise must be finite"),
    (["--kind", "matrix", "--tasks", "3", "--rank", "0"], "latent_rank"),
    (["--d", "0", "--planted", ""], "d must be >= 1"),
], ids=["nan-weight", "inf-weight", "nan-noise", "rank-0", "d-0"])
def test_synth_rejects_invalid_values(tmp_path, capsys, argv, message):
    """Non-finite weights or noise would write NaN into truth.json (not
    JSON) and zero every label; rank 0 would drop the planted signal; d 0
    would write a data.csv with no feature column."""
    out = tmp_path / "out"
    assert main(["synth", "--n", "20", "--d", "4", "--planted", "0,1:6", "--out", str(out),
                 *argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]
    assert not out.exists()


def test_predict_maps_items_by_name(tmp_path, capsys):
    """New transactions whose first-seen item order differs from the training
    file's are scored by item name; an unknown token adds nothing."""
    train = tmp_path / "train.txt"
    train.write_text("a b\na b c\nb c\na\na b\na\nc\na b\n")
    fit = tmp_path / "fit"
    assert main(["fit-basket", "--data", str(train), "--lambda", "1.0", "--tau", "1.0",
                 "--out", str(fit)]) == 0
    doc = json.loads((fit / "model.json").read_text())
    assert doc["item_names"] == ["a", "b", "c"]
    coef = {frozenset(doc["item_names"][a] for a in e["atoms"]): e["coef"]
            for e in doc["entries"]}
    assert len(coef) > 1 and len(set(coef.values())) == len(coef)  # a mix-up shows
    rows = [["c"], ["b"], ["a"], ["b", "a"], ["d", "c"], []]
    new = tmp_path / "new.txt"
    new.write_text("\n".join(" ".join(r) for r in rows) + "\n")
    capsys.readouterr()
    assert main(["predict", "--model", str(fit / "model.json"), "--data", str(new)]) == 0
    got = [float(v) for v in capsys.readouterr().out.split()]
    want = [sum(c for items, c in coef.items() if items <= set(r)) for r in rows]
    assert got == pytest.approx(want, abs=1e-9)


def test_predict_maps_csv_headers_by_name(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path)
    fit = tmp_path / "fit"
    assert main(["fit-logistic", "--data", str(data), "--format", "csv",
                 "--lambda", "2.0", "--out", str(fit)]) == 0
    A, _ = load_dense(data, 1)
    want = predict(PrimalModel.load(fit / "model.json"), A)
    lines = [line.split(",") for line in data.read_text().splitlines()]
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("".join(",".join(row[::-1]) + "\n" for row in lines))
    capsys.readouterr()
    assert main(["predict", "--model", str(fit / "model.json"),
                 "--data", str(shuffled), "--format", "csv"]) == 0
    got = np.array([float(v) for v in capsys.readouterr().out.split()])
    assert np.allclose(got, want, atol=1e-9)
    short = tmp_path / "short.csv"
    short.write_text("".join(",".join(row[1:]) + "\n" for row in lines))
    assert main(["predict", "--model", str(fit / "model.json"),
                 "--data", str(short), "--format", "csv"]) == 1
    assert "'x0'" in capsys.readouterr().err


def test_predict_reads_only_model_columns(tmp_path, capsys):
    """A fit-matrix model scores the CSV it was fitted on: the response
    columns, whose values lie outside [0, 1], are not read."""
    data, _ = _synth_csv(tmp_path, kind="matrix", n=60, d=6, tasks=2)
    fit = tmp_path / "fit"
    assert main(["fit-matrix", "--data", str(data), "--format", "csv",
                 "--responses", "2", "--lambda", "2.0", "--out", str(fit)]) == 0
    assert np.any(load_dense(data, 2)[1] < 0.0)
    capsys.readouterr()
    assert main(["predict", "--model", str(fit / "model.json"),
                 "--data", str(data), "--format", "csv"]) == 0
    got = np.loadtxt(capsys.readouterr().out.splitlines())
    features = tmp_path / "features.csv"
    features.write_text("".join(",".join(line.split(",")[:-2]) + "\n"
                                for line in data.read_text().splitlines()))
    assert main(["predict", "--model", str(fit / "model.json"),
                 "--data", str(features), "--format", "csv"]) == 0
    want = np.loadtxt(capsys.readouterr().out.splitlines())
    assert got.shape == (60, 2)
    assert np.array_equal(got, want)


def test_fit_rejects_a_repeated_csv_feature_name(tmp_path, capsys):
    """Two feature columns named alike would make predict score both atoms
    from one of them: the fit exits 1 before making --out."""
    data = tmp_path / "d.csv"
    data.write_text("a,a,b,y\n1,0,1,1\n0,1,1,0\n1,1,0,1\n0,0,1,0\n")
    out = tmp_path / "fit"
    assert main(["fit-logistic", "--data", str(data), "--format", "csv",
                 "--lambda", "0.5", "--out", str(out)]) == 1
    assert "'a' is named more than once" in capsys.readouterr().err
    assert not out.exists()


def test_readme_documents_every_cli_flag():
    """The README's command-line section names in its prose, not only in
    the example block, every long flag of every subcommand, and names no
    flag that no subcommand takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Command line"):readme.index("## Tests")]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", prose))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {(cmd, opt) for cmd, p in sub.choices.items() for a in p._actions
             for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
    assert sorted((cmd, opt) for cmd, opt in flags if opt not in named) == []
    assert sorted(named - {opt for _, opt in flags}) == []


def test_screen_nonneg_rejects_negative_dual(tmp_path, capsys):
    trans = tmp_path / "t.txt"
    trans.write_text("0 1 2 3\n3\n1 2\n0\n0 1 3\n1 2 3\n")
    alpha_file = tmp_path / "alpha.txt"
    np.savetxt(alpha_file, np.array([2.0, 2.0, -2.0, 0.0, -3.0, -3.0]))
    assert main(["screen", "--data", str(trans), "--alpha", str(alpha_file),
                 "--lambda", "1", "--mode", "nonneg"]) == 1
    assert "negative" in capsys.readouterr().err
    np.savetxt(alpha_file, np.array([2.0, 2.0, 2.0, 0.0, 3.0, 3.0]))
    assert main(["screen", "--data", str(trans), "--alpha", str(alpha_file),
                 "--lambda", "1", "--mode", "nonneg"]) == 0


def test_screen_mode_checks_dual_columns(tmp_path, capsys):
    """signed and nonneg take one dual column; group screens the row norms
    of an n x T dual over every column."""
    trans = tmp_path / "t.txt"
    trans.write_text("0 1 2 3\n3\n1 2\n0\n0 1 3\n1 2 3\n")
    alpha = np.array([[2.0, 1.0], [0.5, -1.0], [1.0, 2.0],
                      [0.0, 1.5], [1.5, 0.5], [1.0, -2.0]])
    alpha_file = tmp_path / "alpha.txt"
    np.savetxt(alpha_file, alpha)
    args = ["screen", "--data", str(trans), "--alpha", str(alpha_file), "--lambda", "1"]
    for mode in ("signed", "nonneg"):
        assert main(args + ["--mode", mode]) == 1
        assert "one dual column" in capsys.readouterr().err
    out = tmp_path / "group"
    assert main(args + ["--mode", "group", "--out", str(out)]) == 0
    got = [tuple(json.loads(l)["atoms"])
           for l in (out / "interactions.jsonl").read_text().splitlines()]
    X = load_transactions(trans).atom_matrix().astype(float)
    subsets, P = oc.materialize(X)
    want = [u for u, s in zip(subsets, oc.enumerate_stats(P, alpha, "group")) if s > 1.0]
    assert got == want and len(want) > 0


def test_screen_rejects_nan_dual(tmp_path, capsys):
    trans = tmp_path / "t.txt"
    trans.write_text("a b\na\nb c\n")
    alpha_file = tmp_path / "alpha.txt"
    alpha_file.write_text("1.0\nnan\n1.0\n")
    assert main(["screen", "--data", str(trans), "--alpha", str(alpha_file),
                 "--lambda", "0.5"]) == 1
    assert "finite" in capsys.readouterr().err


def test_fit_rejects_nan_parameters(tmp_path, capsys):
    trans = tmp_path / "t.txt"
    trans.write_text("a b\na b c\nb c\na\n")
    out = tmp_path / "out"
    base = ["fit-basket", "--data", str(trans), "--out", str(out)]
    assert main(base + ["--lambda", "nan"]) == 1
    assert main(base + ["--lambda", "1.0", "--tau", "nan"]) == 1
    assert main(base + ["--lambda", "1.0", "--gamma", "nan"]) == 1
    assert capsys.readouterr().err.count("finite") == 3
    assert not out.exists()


@pytest.mark.parametrize("command, bad", [("fit-matrix", "nan"), ("fit-logistic", "inf")])
def test_fit_rejects_non_finite_response(tmp_path, capsys, command, bad):
    """A non-finite response cell exits 1 naming its row and column, before
    any output is written."""
    data = tmp_path / "d.csv"
    data.write_text(f"x0,x1,y0\n1,0,1\n0,1,0\n1,1,{bad}\n0,0,1\n")
    out = tmp_path / "out"
    extra = ["--responses", "1"] if command == "fit-matrix" else []
    assert main([command, "--data", str(data), "--format", "csv", "--lambda", "0.5",
                 "--out", str(out)] + extra) == 1
    assert "row 4, column 'y0'" in capsys.readouterr().err
    assert not out.exists()


def test_dedup_writes_kept_columns(tmp_path, capsys):
    trans = tmp_path / "t.txt"
    # b duplicates a exactly; c is distinct
    trans.write_text("a b\na b c\nc\na b\na b c\nc\na b c\n")
    fit = tmp_path / "fit"
    code = main(["fit-basket", "--data", str(trans), "--lambda", "0.5",
                 "--tau", "2.0", "--dedup", "0.99", "--out", str(fit)])
    assert code == 0
    assert "kept 2 of 3" in capsys.readouterr().err
    kept = json.loads((fit / "kept_columns.json").read_text())
    assert kept == [0, 2]


def test_dedup_without_out_writes_kept_columns(tmp_path, monkeypatch):
    """With no --out a --dedup fit writes kept_columns.json next to
    model.json, in the current directory."""
    monkeypatch.chdir(tmp_path)
    Path("t.txt").write_text("a b\na b c\nc\na b\na b c\nc\na b c\n")
    assert main(["fit-basket", "--data", "t.txt", "--lambda", "0.5",
                 "--tau", "2.0", "--dedup", "0.99"]) == 0
    assert (tmp_path / "model.json").is_file()
    assert json.loads((tmp_path / "kept_columns.json").read_text()) == [0, 2]


@pytest.mark.parametrize("argv", [
    ["fit-logistic", "--format", "csv", "--lambda", "0.5", "--dedup", "0.99"],
    ["fit-basket", "--lambda", "0.5", "--tau", "-1", "--dedup", "0.9"],
    ["fit-basket", "--path", "--n-lambdas", "0"],
    ["fit-basket", "--max-order", "0", "--lambda", "0.5", "--dedup", "0.9"],
], ids=["logistic-label-2-dedup", "basket-tau-dedup", "basket-path-levels",
        "basket-order-dedup"])
def test_fit_input_errors_leave_no_out(tmp_path, capsys, argv):
    """A fit whose input fails a check exits 1 before it makes --out."""
    data = tmp_path / "d.csv"
    data.write_text("x0,x1,y\n1,0,1\n0,1,2\n1,1,0\n")
    trans = tmp_path / "t.txt"
    trans.write_text("a b\na b c\nc\na b\n")
    out = tmp_path / "out"
    source = data if argv[0] == "fit-logistic" else trans
    assert main(argv + ["--data", str(source), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_failed_path_fit_leaves_no_out(tmp_path, capsys):
    """A path on data without signal passes every input check and fails at
    lambda_max; it too leaves no --out behind."""
    blank = tmp_path / "blank.txt"
    blank.write_text("\n\n\n")
    out = tmp_path / "o1"
    assert main(["fit-basket", "--data", str(blank), "--path", "--n-lambdas", "3",
                 "--out", str(out)]) == 1
    assert "lambda_max is zero" in capsys.readouterr().err
    assert not out.exists()


def test_screen_rejects_dedup(tmp_path, capsys):
    """--dedup belongs to the fits, which apply it; screen rejects it rather
    than screen the duplicate atoms it names."""
    trans = tmp_path / "t.txt"
    trans.write_text("a b\na b\nc\n")
    alpha_file = tmp_path / "alpha.txt"
    np.savetxt(alpha_file, np.ones(3))
    assert main(["screen", "--data", str(trans), "--alpha", str(alpha_file),
                 "--lambda", "0.5", "--mode", "nonneg", "--dedup", "0.9"]) == 1
    assert "--dedup" in capsys.readouterr().err


def test_basket_synth_roundtrips_through_transactions(tmp_path):
    data, truth = _synth_csv(tmp_path, kind="basket", n=50, d=6)
    A = load_transactions(data)
    assert A.n_rows == 50
    assert A.n_cols <= 6
    fit = tmp_path / "fit"
    code = main(["fit-basket", "--data", str(data), "--lambda", "3.0",
                 "--tau", "2.0", "--out", str(fit)])
    assert code in (0, 2)
    assert (fit / "model.json").exists()


def test_runtime_loads_no_scipy(tmp_path):
    """numpy is the one runtime dependency: in a fresh interpreter, importing
    the package, a logistic path fit, predict and metrics_auc load no scipy."""
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        import numpy as np
        import prodscreen
        from prodscreen.cli import main
        from prodscreen.data import load_dense
        out = {str(tmp_path)!r}
        data = out + "/data.csv"
        assert main(["synth", "--n", "80", "--d", "6", "--planted", "0,1:6;3:5",
                     "--seed", "7", "--out", out]) == 0
        assert main(["fit-logistic", "--data", data, "--format", "csv", "--path",
                     "--n-lambdas", "4", "--min-ratio", "0.1", "--out", out + "/fit"]) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["predict", "--model", out + "/fit/model.json",
                         "--data", data, "--format", "csv"]) == 0
        _, y = load_dense(data, 1)
        assert prodscreen.metrics_auc(np.loadtxt(io.StringIO(buf.getvalue())), y[:, 0]) > 0.5
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    src = str(Path(prodscreen.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
