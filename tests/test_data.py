import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as oc
from prodscreen import (AtomicMatrix, BasketSpec, FeatureSet,
                        PenaltySchedule, basket_dual, interaction_column,
                        interaction_matrix, load_dense, load_transactions, screen)


# ------------------------------------------------------------- FeatureSet --

def test_feature_set_invariants():
    fs = FeatureSet((0, 3, 7))
    assert fs.order == 3
    with pytest.raises(ValueError):
        FeatureSet(())
    with pytest.raises(ValueError):
        FeatureSet((3, 1))
    with pytest.raises(ValueError):
        FeatureSet((1, 1))
    with pytest.raises(ValueError):
        FeatureSet((-1, 2))
    assert FeatureSet.of(5, 2).atoms == (2, 5)


# ----------------------------------------------------------- transactions --

def test_load_transactions_example(four_transactions):
    A = four_transactions
    assert A.is_binary
    assert (A.n_rows, A.n_cols) == (4, 3)
    assert A.item_names == ["a", "b", "c"]  # first-seen order
    assert list(A.column(0)) == [0, 1, 3]
    assert list(A.column(1)) == [0, 1, 2]
    assert list(A.column(2)) == [1, 2]


def test_load_transactions_blank_line_is_empty_row(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a b\n\nb\n")
    A = load_transactions(p)
    assert A.n_rows == 3
    assert list(A.column(0)) == [0]


def test_load_transactions_errors(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("a a\n")
    with pytest.raises(ValueError, match="duplicate item"):
        load_transactions(p)
    q = tmp_path / "empty.txt"
    q.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_transactions(q)


# ------------------------------------------------------------------- dense --

def test_load_dense_with_responses(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text('x0,"x,1",y\n0.5,1,3.5\n0,0.25,-2\n')
    A, resp = load_dense(p, response_cols=1)
    assert not A.is_binary
    assert A.item_names == ["x0", "x,1"]
    assert resp.shape == (2, 1)
    assert resp[1, 0] == -2.0


def test_load_dense_binary_autodetect(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("u,v\n1,0\n0,1\n1,1\n")
    A, resp = load_dense(p, 0)
    assert A.is_binary
    assert resp.shape == (3, 0)
    assert list(A.column(0)) == [0, 2]


def test_load_dense_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("u,v\n1.5,0\n")
    with pytest.raises(ValueError, match=r"row 2.*'u'.*outside"):
        load_dense(p, 0)
    p.write_text("u,v\nx,0\n")
    with pytest.raises(ValueError, match="not a number"):
        load_dense(p, 0)
    p.write_text("u,v\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_dense(p, 0)
    # a name must pick out one feature column; a response may share it
    p.write_text("a,a,b,y\n1,0,1,1\n0,1,1,0\n")
    for response_cols, columns in ((1, None), (0, ["a", "b"]), (0, ["b", "y", "b"])):
        with pytest.raises(ValueError, match="'[ab]' is named more than once"):
            load_dense(p, response_cols, columns=columns)
    assert load_dense(p, 0, columns=["b", "y"])[0].item_names == ["b", "y"]
    p.write_text("a,b,a\n1,0,1\n")
    assert load_dense(p, 1)[0].item_names == ["a", "b"]


# ----------------------------------------------------------------- columns --

def test_interaction_column_binary_intersection():
    A = AtomicMatrix(np.array([[1, 0], [1, 1], [0, 0], [1, 1], [0, 1]], dtype=bool))
    c = interaction_column(A, (0, 1))
    assert c.dtype == np.float64 and list(c) == [0.0, 1.0, 0.0, 1.0, 0.0]


def test_interaction_column_dense_product():
    A = AtomicMatrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
    c = interaction_column(A, (0, 1))
    assert np.allclose(c, [0.25, 0.0])


def test_interaction_column_out_of_range(four_transactions):
    with pytest.raises(ValueError, match="out of range"):
        interaction_column(four_transactions, (0, 9))


def test_column_dot_shapes(four_transactions):
    c = interaction_column(four_transactions, (0,))  # rows {0,1,3}
    v = np.array([1.0, 2.0, 4.0, 8.0])
    assert oc.column_dot(c, v) == 11.0
    M = np.column_stack([v, -v])
    assert np.allclose(oc.column_dot(c, M), [11.0, -11.0])
    with pytest.raises(ValueError):
        oc.column_dot(c, np.ones(3))


def test_split_dots_example():
    c = np.array([1.0, 1.0, 1.0, 0.0])
    w = np.array([1.0, -0.5, 0.25, 7.0])
    p, m = oc.split_dots(c, w)
    assert p == pytest.approx(1.25)
    assert m == pytest.approx(0.5)


def test_jaccard():
    a = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    assert oc.jaccard(a, b) == pytest.approx(0.5)
    assert oc.jaccard(np.zeros(5), np.zeros(5)) == 1.0
    dense = np.full(5, 0.5)
    with pytest.raises(ValueError, match="binary"):
        oc.jaccard(a, dense)


def test_atomic_matrix_range_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        AtomicMatrix(np.array([[1.2], [0.0]]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        AtomicMatrix(np.array([[np.nan], [0.0]]))
    with pytest.raises(ValueError, match="2-dimensional"):
        AtomicMatrix(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="at least one row"):
        AtomicMatrix(np.zeros((0, 2), dtype=bool))


# -------------------------------------------------------------- properties --

@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_superset_columns_shrink(seed):
    """A column of a superset is entrywise dominated by any subset's column."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 15)), int(rng.integers(2, 6))
    binary = rng.random() < 0.5
    X = (rng.random((n, d)) < 0.4).astype(float) if binary else rng.random((n, d))
    A = AtomicMatrix.from_dense(X)
    atoms = sorted(rng.choice(d, size=int(rng.integers(2, d + 1)), replace=False))
    u = tuple(atoms[:-1])
    t = tuple(atoms)
    cu = interaction_column(A, u)
    ct = interaction_column(A, t)
    assert np.all(ct <= cu + 1e-15)
    # and the product column agrees with the explicit dense product
    assert np.allclose(ct, X[:, list(t)].prod(axis=1))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_split_dots_reconstruction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 20))
    alpha = rng.standard_normal(n) * 3
    w = alpha
    tid = np.flatnonzero(rng.random(n) < 0.5)
    c = np.zeros(n)
    c[tid] = 1.0
    p, m = oc.split_dots(c, w)
    direct = float(alpha[tid].sum()) if len(tid) else 0.0
    assert p - m == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_load_dense_rejects_non_finite_response(tmp_path):
    p = tmp_path / "r.csv"
    for bad in ("nan", "inf", "-inf"):
        p.write_text(f"u,y0,y1\n1,0.5,2\n0,1.5,{bad}\n")
        with pytest.raises(ValueError, match=r"row 3, column 'y1'.*not finite"):
            load_dense(p, response_cols=2)


_FEATURE_CELLS = ["0", "1", " 0.5", "0.25 ", "1e-1", "+.5", "1.", "-0", "0_5e-1", "\u0661"]
_RESPONSE_CELLS = ["-3", "1_0", " 7.5 ", "2e2", "-.25", "1e308", "0"]


@given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 6), n_feat=st.integers(1, 4),
       n_resp=st.integers(0, 2), pick=st.booleans())
@settings(max_examples=60, deadline=None)
def test_load_dense_matches_cell_by_cell_parse(seed, n, n_feat, n_resp, pick):
    """The whole-table parse reads every cell as Python's float() does.
    With ``columns`` the named features are read in their order, and a
    column left out may hold anything."""
    rng = np.random.default_rng(seed)
    feats = [[str(rng.choice(_FEATURE_CELLS)) for _ in range(n_feat)] for _ in range(n)]
    resps = [[str(rng.choice(_RESPONSE_CELLS)) for _ in range(n_resp)] for _ in range(n)]
    header = [f"f{j}" for j in range(n_feat)] + ["junk"] + [f"y{j}" for j in range(n_resp)]
    rows = [f + ["not a number"] + r for f, r in zip(feats, resps)]
    order = rng.permutation(n_feat).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        A, resp = load_dense(path, n_resp, columns=[f"f{j}" for j in order])
        if not pick:
            with pytest.raises(ValueError, match="column 'junk': not a number"):
                load_dense(path, n_resp)
    want = np.array([[float(c) for c in f] for f in feats])[:, order]
    assert A.item_names == [f"f{j}" for j in order]
    assert np.array_equal(A.atom_matrix().astype(float), want)
    assert np.array_equal(resp, np.array([[float(c) for c in r] for r in resps]).reshape(n, n_resp))


@pytest.mark.parametrize("row", [0, 2])
@pytest.mark.parametrize("col, cell, message", [
    (0, "x", "not a number: 'x'"), (1, "", "not a number: ''"),
    (2, "0x1", "not a number: '0x1'"), (2, "nan(1)", "not a number: 'nan(1)'"),
    (0, "1.5", "value 1.5 outside [0, 1]"), (1, "-0.25", "value -0.25 outside [0, 1]"),
    (1, "NaN", "value nan outside [0, 1]"), (0, "inf", "value inf outside [0, 1]"),
    (2, "nan", "value nan is not finite"), (2, "-Infinity", "value -inf is not finite"),
    (2, "1e400", "value inf is not finite"),
])
def test_load_dense_reports_the_bad_cell(tmp_path, row, col, cell, message):
    """A table with one bad cell names its row, column and fault."""
    cells = [["1", "0.5", "-2"], ["0", "0.25", "3"], ["1", "1", "0"]]
    cells[row][col] = cell
    p = tmp_path / "bad.csv"
    p.write_text("u,v,y\n" + "".join(",".join(r) + "\n" for r in cells))
    with pytest.raises(ValueError) as err:
        load_dense(p, 1)
    assert str(err.value) == f"{p}: row {row + 2}, column {'uvy'[col]!r}: {message}"


@pytest.mark.parametrize("rows, where", [
    (["0,1.5,1", "x,0,1"], "row 2, column 'v': value 1.5 outside"),
    (["0,0,x", "2,0,1"], "row 2, column 'y': not a number"),
    (["0,0,inf", "2,0,1"], "row 3, column 'u': value 2.0 outside"),
    (["0,0,inf", "0,0,nan"], "row 2, column 'y': value inf is not finite"),
])
def test_load_dense_reports_the_first_bad_cell(tmp_path, rows, where):
    """Unparsed cells and out-of-range features are reported in row-major
    order; non-finite responses only when every other cell is good."""
    p = tmp_path / "bad.csv"
    p.write_text("u,v,y\n" + "".join(r + "\n" for r in rows))
    with pytest.raises(ValueError, match=re.escape(where)):
        load_dense(p, 1)


def test_interaction_matrix_stacks_interaction_columns(rng):
    """Column k of ``interaction_matrix`` is set k's ``interaction_column``,
    on binary and dense data; no sets give an n x 0 float matrix."""
    X = rng.random((9, 4))
    sets = [FeatureSet((0, 2)), (3,), (1, 2, 3)]
    for A in (AtomicMatrix(X < 0.5), AtomicMatrix(X)):
        F = interaction_matrix(A, sets)
        assert F.shape == (9, 3) and F.dtype == np.float64
        for k, u in enumerate(sets):
            assert np.array_equal(F[:, k], interaction_column(A, u))
        empty = interaction_matrix(A, [])
        assert empty.shape == (9, 0) and empty.dtype == np.float64


@given(seed=st.integers(0, 10 ** 6),
       values=st.sampled_from(["bool", "float01", "quarters", "uniform"]))
@settings(max_examples=80, deadline=None)
def test_screen_columns_are_interaction_columns(seed, values):
    """A model's columns are the ones ``interaction_column`` builds for its
    sets, bit for bit: the reduced dual over a screen's emissions stacks
    exactly the columns that ``predict`` and ``rank_report`` rebuild, on
    binary and on dense data alike."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 25)), int(rng.integers(1, 7))
    X = rng.random((n, d)) < rng.uniform(0.3, 0.9)
    if values == "float01":
        X = X.astype(float)
    elif values == "quarters":
        X = X * rng.integers(1, 5, size=(n, d)) / 4
    elif values == "uniform":
        X = X * rng.random((n, d))
    A = AtomicMatrix(X)
    assert A.is_binary == (values == "bool")
    for j in range(d):
        col = A.column(j)
        if A.is_binary:
            assert np.array_equal(col, np.flatnonzero(X[:, j]))
        else:
            assert np.array_equal(col, X[:, j])
    w = rng.standard_normal(n)
    res = screen(A, w, PenaltySchedule.flat(1e-9))
    assert res.emitted or not X.any()  # an all-zero draw emits nothing
    F = basket_dual(BasketSpec(), A).reduced(res.emitted).F
    assert F.shape == (n, len(res.emitted))
    for k, e in enumerate(res.emitted):
        assert np.array_equal(F[:, k], interaction_column(A, e.feature_set))
