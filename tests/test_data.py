import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodscreen import (AtomicMatrix, Column, DualWeights, FeatureSet,
                        interaction_column, jaccard, load_dense,
                        load_transactions, split_dots)


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
    assert A.kind == "binary"
    assert (A.n_rows, A.n_cols) == (4, 3)
    assert A.item_names == ["a", "b", "c"]  # first-seen order
    assert list(A.tidlist(0)) == [0, 1, 3]
    assert list(A.tidlist(1)) == [0, 1, 2]
    assert list(A.tidlist(2)) == [1, 2]


def test_load_transactions_blank_line_is_empty_row(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("a b\n\nb\n")
    A = load_transactions(p)
    assert A.n_rows == 3
    assert list(A.tidlist(0)) == [0]


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
    assert A.kind == "dense"
    assert A.item_names == ["x0", "x,1"]
    assert resp.shape == (2, 1)
    assert resp[1, 0] == -2.0


def test_load_dense_binary_autodetect(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("u,v\n1,0\n0,1\n1,1\n")
    A, resp = load_dense(p, 0)
    assert A.kind == "binary"
    assert resp.shape == (3, 0)
    assert list(A.tidlist(0)) == [0, 2]


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


# ----------------------------------------------------------------- columns --

def test_interaction_column_binary_intersection():
    A = AtomicMatrix.from_tidlists([np.array([0, 1, 3]), np.array([1, 3, 4])], 5)
    c = interaction_column(A, (0, 1))
    assert list(c.tidlist) == [1, 3]
    assert c.owner.atoms == (0, 1)


def test_interaction_column_dense_product():
    A = AtomicMatrix(2, dense=np.array([[0.5, 0.5], [1.0, 0.0]]))
    c = interaction_column(A, (0, 1))
    assert np.allclose(c.values, [0.25, 0.0])


def test_interaction_column_out_of_range(four_transactions):
    with pytest.raises(ValueError, match="out of range"):
        interaction_column(four_transactions, (0, 9))


def test_column_dot_shapes(four_transactions):
    c = four_transactions.column(0)  # rows {0,1,3}
    v = np.array([1.0, 2.0, 4.0, 8.0])
    assert c.dot(v) == 11.0
    M = np.column_stack([v, -v])
    assert np.allclose(c.dot(M), [11.0, -11.0])
    with pytest.raises(ValueError):
        c.dot(np.ones(3))


def test_split_dots_example():
    c = Column(FeatureSet((0,)), 4, tidlist=np.array([0, 1, 2]))
    w = DualWeights.from_alpha(np.array([1.0, -0.5, 0.25, 7.0]))
    p, m = split_dots(c, w)
    assert p == pytest.approx(1.25)
    assert m == pytest.approx(0.5)


def test_jaccard():
    a = Column(FeatureSet((0,)), 5, tidlist=np.array([0, 1, 2]))
    b = Column(FeatureSet((1,)), 5, tidlist=np.array([1, 2, 3]))
    assert jaccard(a, b) == pytest.approx(0.5)
    e1 = Column(FeatureSet((0,)), 5, tidlist=np.array([], dtype=np.int64))
    e2 = Column(FeatureSet((1,)), 5, tidlist=np.array([], dtype=np.int64))
    assert jaccard(e1, e2) == 1.0
    dense = Column(FeatureSet((0,)), 5, values=np.zeros(5))
    with pytest.raises(ValueError, match="binary"):
        jaccard(a, dense)


def test_dual_weights_invariants():
    w = DualWeights.from_alpha(np.array([2.0, -3.0, 0.0]))
    assert np.allclose(w.pos, [2, 0, 0])
    assert np.allclose(w.neg, [0, 3, 0])
    assert np.allclose(w.alpha, [2, -3, 0])
    with pytest.raises(ValueError, match="disjoint"):
        DualWeights(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="non-negative"):
        DualWeights(np.array([-1.0]), np.array([0.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            DualWeights.from_alpha(np.array([1.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        DualWeights(np.zeros((2, 2)), np.array([[0.0, np.nan], [0.0, 0.0]]))


def test_atomic_matrix_range_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        AtomicMatrix(2, dense=np.array([[1.2], [0.0]]))
    with pytest.raises(ValueError, match="increasing"):
        AtomicMatrix(3, tidlists=[np.array([2, 1])])


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
    cu = interaction_column(A, u).dense()
    ct = interaction_column(A, t).dense()
    assert np.all(ct <= cu + 1e-15)
    # and the product column agrees with the explicit dense product
    assert np.allclose(ct, X[:, list(t)].prod(axis=1))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_split_dots_reconstruction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 20))
    alpha = rng.standard_normal(n) * 3
    w = DualWeights.from_alpha(alpha)
    tid = np.flatnonzero(rng.random(n) < 0.5).astype(np.int64)
    c = Column(FeatureSet((0,)), n, tidlist=tid)
    p, m = split_dots(c, w)
    direct = float(alpha[tid].sum()) if len(tid) else 0.0
    assert p - m == pytest.approx(direct, rel=1e-12, abs=1e-12)
