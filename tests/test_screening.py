import json
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as oc
from prodscreen import (AtomicMatrix, FeatureSet, PenaltySchedule,
                        ScreenConfig, dedup_atoms,
                        frequent_itemsets, interaction_column, screen, verify_kkt)
from prodscreen import screening


# --------------------------------------------------------------- schedule --

def test_schedule_values():
    assert PenaltySchedule.flat(2.0).threshold(5) == 2.0
    geo = PenaltySchedule.geometric(1.0, 1.5)
    assert geo.threshold(1) == 1.0
    assert geo.threshold(3) == pytest.approx(2.25)
    sup = PenaltySchedule.supergeometric(1.0, 1.5, 1.5)
    assert sup.threshold(2) == pytest.approx(1.5)
    assert sup.threshold(1) == 1.0
    assert sup.threshold(3) > geo.threshold(3)


def test_schedule_validation():
    with pytest.raises(ValueError):
        PenaltySchedule.flat(0.0)
    with pytest.raises(ValueError):
        PenaltySchedule.geometric(1.0, 0.5)
    assert PenaltySchedule.flat(1.0).with_base(3.0).base_lambda == 3.0


@pytest.mark.parametrize("base", [1.0, 1.05, 1.3, 1.5, 2.0, 2.5, 3.0, 3.7])
def test_schedule_thresholds_match_per_kind_formulas(base):
    """rho(k) = base**((k-1)**exponent) gives each classmethod's thresholds
    bit for bit: 1 for flat, base**(k-1) for geometric, and
    base**((k-1)**exponent) for supergeometric."""
    lam = 0.37
    flat = PenaltySchedule.flat(lam)
    geo = PenaltySchedule.geometric(lam, base)
    for k in range(1, 21):
        assert flat.threshold(k) == lam * 1.0
        assert geo.threshold(k) == lam * base ** (k - 1)
        for exponent in (1.0, 1.25, 1.5, 2.0):
            sup = PenaltySchedule.supergeometric(lam, base, exponent)
            assert sup.threshold(k) == lam * base ** float((k - 1) ** exponent)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_schedule_rejects_non_finite(bad):
    """NaN fails every comparison, so a bare ``x <= 0`` check lets it through."""
    with pytest.raises(ValueError, match="finite"):
        PenaltySchedule.flat(bad)
    with pytest.raises(ValueError, match="finite"):
        PenaltySchedule.geometric(1.0, bad)
    with pytest.raises(ValueError, match="finite"):
        PenaltySchedule.supergeometric(1.0, 1.5, bad)
    with pytest.raises(ValueError, match="finite"):
        PenaltySchedule.flat(1.0).with_base(bad)


def test_screen_config_validation():
    with pytest.raises(ValueError):
        ScreenConfig(max_order=0)


# ----------------------------------------------------------- closure bound --

def test_closure_bound_modes():
    c = np.array([1.0, 1.0, 1.0, 0.0])
    w = np.array([1.0, -0.5, 0.25, 7.0])
    assert oc.closure_bound(c, w) == pytest.approx(1.25)
    w2 = np.array([1.0, 1.0, 0.0, 0.0])
    c2 = np.array([1.0, 1.0, 0.0, 0.0])
    assert oc.closure_bound(c2, w2) == pytest.approx(2.0)
    # group: per-column maxima (3, 4) -> 5
    w3 = np.array([[3.0, -4.0], [0.0, 0.0]])
    c3 = np.array([1.0, 0.0])
    assert oc.closure_bound(c3, w3) == pytest.approx(5.0)


def test_matrix_dual_screens_row_norms(rng):
    """An (n, T) dual screens the row norms of C^T alpha over all T columns."""
    X = (rng.random((12, 5)) < 0.5).astype(float)
    alpha = rng.standard_normal((12, 2))
    subsets, P = oc.materialize(X)
    stats = oc.enumerate_stats(P, alpha, "group")
    sched = PenaltySchedule.flat(0.5 * float(np.sort(stats)[-5]))
    want = [(u, v) for u, v in zip(subsets, stats) if v > sched.base_lambda]
    mats = (AtomicMatrix.from_dense(X), AtomicMatrix(X))
    assert [A.is_binary for A in mats] == [True, False]
    for A in mats:
        res = screen(A, alpha, sched)
        got = [(e.feature_set.atoms, e.stat) for e in res.emitted]
        assert [u for u, _ in got] == [u for u, _ in want]
        assert [v for _, v in got] == pytest.approx([v for _, v in want], rel=1e-12)


# ------------------------------------------------------------ worked cases --

def test_screen_four_transactions(four_transactions):
    A = four_transactions
    w = np.ones(4)
    res = screen(A, w, PenaltySchedule.flat(1.5))
    got = [e.feature_set.atoms for e in res.emitted]
    assert got == [(0,), (0, 1), (1,), (1, 2), (2,)]
    assert res.explored_count == 6          # 3 singletons + 3 pairs
    assert res.pruned_by_closure == 1       # {a,c} closes its subtree
    X = A.atom_matrix().astype(float)
    subsets, P = oc.materialize(X)
    low = [u for u, b in zip(subsets, oc.closure_bounds(P, np.ones(4), "nonneg")) if b <= 1.5]
    assert low == [(0, 1, 2), (0, 2)]       # {a,c} and its one superset, never built
    stats = {e.feature_set.atoms: e.stat for e in res.emitted}
    assert stats[(0, 1)] == pytest.approx(2.0)
    assert all(e.threshold == 1.5 for e in res.emitted)


def test_screen_zero_alpha_explores_atoms_only(rng):
    """Every atom's bound is 0, so each closes its subtree and no pair is scored."""
    X = (rng.random((10, 6)) < 0.5).astype(float)
    for A in (AtomicMatrix.from_dense(X), AtomicMatrix(X * rng.random(X.shape))):
        res = screen(A, np.zeros(10), PenaltySchedule.flat(1.0))
        assert res.emitted == ()
        assert (res.explored_count, res.pruned_by_closure) == (6, 6)


def test_screen_emits_sorted_and_deterministic(rng):
    X = (rng.random((30, 8)) < 0.5).astype(float)
    A = AtomicMatrix.from_dense(X)
    w = rng.standard_normal(30)
    sched = PenaltySchedule.geometric(0.8, 1.3)
    r1 = screen(A, w, sched)
    r2 = screen(A, w, sched)
    atoms = [e.feature_set.atoms for e in r1.emitted]
    assert atoms == sorted(atoms)
    assert atoms == [e.feature_set.atoms for e in r2.emitted]
    assert [e.stat for e in r1.emitted] == [e.stat for e in r2.emitted]
    assert list(r1.to_jsonl()) == list(r2.to_jsonl())


def test_screen_max_order_cap(rng):
    X = np.ones((6, 5))  # worst case: every subset has full support
    A = AtomicMatrix.from_dense(X)
    w = np.ones(6)
    res = screen(A, w, PenaltySchedule.flat(0.5),
                 ScreenConfig(max_order=2))
    orders = {e.feature_set.order for e in res.emitted}
    assert orders == {1, 2}
    assert res.explored_count == 5 + 10


def test_jsonl_format(four_transactions):
    A = four_transactions
    res = screen(A, np.ones(4), PenaltySchedule.flat(1.5))
    lines = list(res.to_jsonl(A.item_names))
    first = json.loads(lines[0])
    assert set(first) == {"atoms", "items", "stat", "threshold"}
    assert first["atoms"] == [0] and first["items"] == ["a"]
    assert first["stat"] == 3.0 and first["threshold"] == 1.5


def test_jsonl_lines_are_json_dumps_bytes():
    """Each line is byte for byte what ``json.dumps`` writes for the set's
    dict, with names that need escaping (quotes, backslashes, control and
    non-ASCII characters) and stats whose repr takes all 17 digits."""
    names = ['plain', 'qu"ote', 'back\\slash', 'tab\tnew\nline', 'caf\u00e9', '\u6f22\u5b57',
             '\U0001f600', '']
    stats = [0.1 + 0.2, 1.0 / 3.0, 2.0 ** -1074, 1e16, 123456789.12345679, 7.0, 1e-7,
             1.7976931348623157e308]
    emitted = tuple(
        screening.Emitted(FeatureSet(atoms), thr, stat)
        for atoms, thr, stat in zip([(0,), (1, 2), (3, 4, 5), (6, 7), (0, 7), (2,), (5, 6), (1,)],
                                    [0.7 * (1.0 + 2.0 ** -52), 1.5 ** 2] + stats[:6], stats))
    res = screening.ScreenResult(emitted, 10, 0)
    for item_names in (names, None):
        want = []
        for e in emitted:
            atoms = list(e.feature_set.atoms)
            items = [item_names[a] if item_names else str(a) for a in atoms]
            want.append(json.dumps({"atoms": atoms, "items": items, "stat": e.stat,
                                    "threshold": e.threshold}))
        assert list(res.to_jsonl(item_names)) == want


# ------------------------------------------------------------- verify_kkt --

def test_verify_kkt(four_transactions):
    A = four_transactions
    w = np.ones(4)
    sched = PenaltySchedule.flat(1.5)
    cfg = ScreenConfig()
    full = screen(A, w, sched, cfg)
    check, missing = verify_kkt(A, w, sched, cfg, full.emitted)
    assert missing == [] and check.feature_sets() == full.feature_sets()
    partial = [e for e in full.emitted if e.feature_set.order == 1]
    check, missing = verify_kkt(A, w, sched, cfg, partial)
    assert [e.feature_set.atoms for e in missing] == [(0, 1), (1, 2)]
    assert check.feature_sets() == full.feature_sets()


# ------------------------------------------------------------------- dedup --

def test_dedup_replicated_column():
    A = AtomicMatrix(np.tile(np.array([[1], [0], [1], [0], [1], [0]], dtype=bool), 23))
    B, kept = dedup_atoms(A, 0.999)
    assert kept == [0]
    assert B.n_cols == 1


def test_dedup_distinct_columns_survive_at_one():
    A = AtomicMatrix(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]], dtype=bool))
    B, kept = dedup_atoms(A, 1.0)
    assert kept == [0, 1, 2]
    # identical copies still collapse at sim = 1.0
    C = AtomicMatrix(np.array([[1, 1], [1, 1], [0, 0]], dtype=bool))
    _, kept2 = dedup_atoms(C, 1.0)
    assert kept2 == [0]


def test_dedup_dense_cosine(rng):
    base = rng.random(20)
    X = np.column_stack([base, base * 0.5, rng.random(20)])
    X = np.clip(X, 0.0, 1.0)
    A = AtomicMatrix(X)
    B, kept = dedup_atoms(A, 0.999)
    assert kept == [0, 2]  # scaled copy is cosine-identical


@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.sampled_from([0.5, 0.9, 0.999, 1.0]))
@settings(max_examples=200, deadline=None)
def test_dedup_matches_pairwise_greedy(seed, binary, sim):
    """dedup_atoms keeps exactly the atoms a pairwise greedy pass keeps, by
    jaccard for binary data and cosine for dense data, on matrices with
    empty, duplicated, near-duplicated and (dense) half-scaled columns."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 25)), int(rng.integers(1, 9))
    if binary:
        X = rng.random((n, d)) < rng.uniform(0.1, 0.9)
    elif rng.random() < 0.3:
        X = rng.integers(0, 2, (n, d)).astype(float)  # 0/1 values held dense
    else:
        X = rng.random((n, d)) * (rng.random((n, d)) < 0.8)
    for j in range(1, d):
        src = X[:, rng.integers(j)]
        r = rng.random()
        if r < 0.15:
            X[:, j] = 0
        elif r < 0.35:
            X[:, j] = src
        elif r < 0.5:
            X[:, j] = src
            i = rng.integers(n)
            X[i, j] = not X[i, j] if binary else rng.random()
        elif r < 0.65 and not binary:
            X[:, j] = 0.5 * src
    A = AtomicMatrix(X)
    B, kept = dedup_atoms(A, sim)
    assert kept == oc.dedup_kept(A, sim)
    assert np.array_equal(B.atom_matrix(), X[:, kept])


# -------------------------------------------------------------- invariants --

@given(st.integers(0, 10 ** 6), st.sampled_from(["signed", "nonneg", "group"]))
@settings(max_examples=60, deadline=None)
def test_screen_matches_enumeration(seed, mode):
    """Soundness and completeness against the materialized lattice."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 16)), int(rng.integers(2, 7))
    X = (rng.random((n, d)) < 0.45).astype(float)
    if rng.random() < 0.25:
        X *= rng.random((n, d))  # dense kind
    A = AtomicMatrix.from_dense(X)
    if mode == "group":
        alpha = rng.standard_normal((n, 3))
        w = alpha
    elif mode == "nonneg":
        alpha = np.abs(rng.standard_normal(n))
        w = alpha
    else:
        alpha = rng.standard_normal(n)
        w = alpha
    kind = rng.integers(0, 3)
    lam = float(0.2 + 2.0 * rng.random())
    sched = (PenaltySchedule.flat(lam) if kind == 0
             else PenaltySchedule.geometric(lam, 1.5) if kind == 1
             else PenaltySchedule.supergeometric(lam, 1.5, 1.5))
    res = screen(A, w, sched)
    subsets, P = oc.materialize(X)
    stats = oc.enumerate_stats(P, alpha, mode)
    thr = oc.threshold_vector(subsets, sched)
    expected = [s for s, v, t in zip(subsets, stats, thr) if v > t]
    assert [e.feature_set.atoms for e in res.emitted] == expected


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_pruned_subtrees_are_empty(seed):
    """Any node whose bound is at most the next order's threshold, which
    includes every node the walk closes, has all its supersets below
    threshold; and the walk closes no more nodes than there are of these."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 16)), int(rng.integers(3, 7))
    X = (rng.random((n, d)) < 0.5).astype(float)
    A = AtomicMatrix.from_dense(X)
    alpha = rng.standard_normal(n)
    sched = PenaltySchedule.geometric(float(0.3 + rng.random()), 1.4)
    res = screen(A, alpha, sched)
    subsets, P = oc.materialize(X)
    stats = oc.enumerate_stats(P, alpha, "signed")
    bounds = oc.closure_bounds(P, alpha, "signed")
    closable = [v for v, b in zip(subsets, bounds) if b <= sched.threshold(len(v) + 1)]
    assert res.pruned_by_closure <= sum(len(v) >= 2 for v in closable)
    for v in closable:
        for s, stat in zip(subsets, stats):
            if set(v) < set(s):
                assert stat <= sched.threshold(len(s)) + 1e-9


def test_explored_bounded_by_emitted_subtrees(four_transactions):
    """With a non-negative dual and low threshold, exploration stays within
    the union of power sets of emitted interactions."""
    A = four_transactions
    w = np.ones(4)
    res = screen(A, w, PenaltySchedule.flat(0.5))
    budget = sum(2 ** e.feature_set.order for e in res.emitted)
    assert res.explored_count <= budget


def test_frequent_itemsets_match_enumeration(four_transactions):
    A = four_transactions
    X = A.atom_matrix().astype(float)
    subsets, P = oc.materialize(X)
    support = P.sum(axis=0)
    for lam in (0.5, 1.5, 2.5):
        got = frequent_itemsets(A, lam)
        expect = [(s, c) for s, c in zip(subsets, support) if c > lam]
        assert [(fs.atoms, s) for fs, s in got] == [(s, c) for s, c in expect]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_frequent_itemsets_at_zero_support_match_enumeration(seed):
    """Support > 0 is the plain Apriori query: every itemset that occurs in
    some transaction, with its count, on data with empty rows and columns."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 20)), int(rng.integers(1, 8))
    X = rng.random((n, d)) < rng.uniform(0.1, 0.7)
    X[rng.random(n) < 0.2] = False
    X[:, rng.random(d) < 0.2] = False
    subsets, P = oc.materialize(X.astype(float))
    support = P.sum(axis=0)
    want = [(u, c) for u, c in zip(subsets, support) if c > 0]
    got = frequent_itemsets(AtomicMatrix(X), 0.0)
    assert [(fs.atoms, s) for fs, s in got] == want


@pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf])
def test_frequent_itemsets_rejects_bad_support(four_transactions, bad):
    with pytest.raises(ValueError, match="min_support"):
        frequent_itemsets(four_transactions, bad)


# ------------------------------------------------------------ batched walk --

def _weights(rng, n, mode, integer, sparse=False):
    """A signed, nonneg, nonpositive or (n, T) group dual.  ``sparse`` sets
    half the rows to exactly 0, as a basket dual's rows at the bound are,
    so the walk skips rows within each half."""
    shape = (n, int(rng.integers(1, 4))) if mode == "group" else (n,)
    alpha = rng.integers(-3, 4, size=shape).astype(float) if integer \
        else rng.standard_normal(shape)
    if sparse:
        alpha[rng.permutation(n)[:n // 2]] = 0.0
    if mode == "nonneg":
        alpha = np.abs(alpha)
    elif mode == "nonpositive":
        alpha = -np.abs(alpha)
    return alpha


@given(seed=st.integers(0, 10 ** 6), values=st.sampled_from(["binary", "quarters", "uniform"]),
       mode=st.sampled_from(["signed", "nonneg", "nonpositive", "group"]),
       kind=st.sampled_from(["flat", "geometric", "supergeometric"]), integer=st.booleans(),
       max_order=st.sampled_from([20, 1, 2, 3]), frac=st.floats(0.05, 0.95), sparse=st.booleans())
@settings(max_examples=120, deadline=None)
def test_batched_walk_matches_reference(seed, values, mode, kind, integer, max_order, frac,
                                        sparse):
    """screen and critical_lambda against the per-node reference walk: the
    same emitted sets, thresholds and counts; stats exact where the
    arithmetic is (integer weights on 0/1 or quarter values), else to 1e-12.
    0/1 data runs both as tidlists and as a dense matrix.  Group stats of
    tidlists with T >= 2 are exact too: both walks sum the rows in order
    and take each norm with one BLAS dot."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(3, 30)), int(rng.integers(1, 7))
    X = (rng.random((n, d)) < rng.uniform(0.3, 0.8)).astype(float)
    if values == "quarters":
        X *= rng.integers(1, 5, size=(n, d)) / 4
    elif values == "uniform":
        X *= rng.random((n, d))
    mats = [AtomicMatrix(X)]
    if values == "binary":
        mats.append(AtomicMatrix.from_dense(X))
    assert [A.is_binary for A in mats] == [False, True][:len(mats)]
    w = _weights(rng, n, mode, integer, sparse)
    shape = {"flat": PenaltySchedule.flat(1.0), "geometric": PenaltySchedule.geometric(1.0, 1.3),
             "supergeometric": PenaltySchedule.supergeometric(1.0, 1.4, 1.5)}[kind]
    cfg = ScreenConfig(max_order=max_order)
    for A in mats:
        exact = (integer and values != "uniform") or \
            (A.is_binary and mode == "group" and w.shape[1] >= 2)
        lam_ref = oc.reference_critical_lambda(A, w, shape, cfg)
        lam = screening.critical_lambda(A, w, shape, cfg)
        if exact:
            assert lam == lam_ref
        else:
            assert lam == pytest.approx(lam_ref, rel=1e-12, abs=0.0)
        sched = shape.with_base(frac * lam_ref if lam_ref > 0 else 1.0)
        want, explored, pruned = oc.reference_screen(A, w, sched, cfg)
        res = screen(A, w, sched, cfg)
        assert [e.feature_set.atoms for e in res.emitted] == [u for u, _, _ in want]
        assert [e.threshold for e in res.emitted] == [t for _, _, t in want]
        assert (res.explored_count, res.pruned_by_closure) == (explored, pruned)
        got = [e.stat for e in res.emitted]
        if exact:
            assert got == [v for _, v, _ in want]
        else:
            assert got == pytest.approx([v for _, v, _ in want], rel=1e-12, abs=0.0)


@given(seed=st.integers(0, 10 ** 6), values=st.sampled_from(["binary", "uniform"]),
       sign=st.sampled_from(["signed", "nonneg"]))
@settings(max_examples=60, deadline=None)
def test_one_column_dual_matches_vector_dual(seed, values, sign):
    """A one-column (n, 1) dual takes the group path and a vector dual the
    signed or non-negative one; the two agree bit for bit: the same emitted
    sets and stats, and the same explored and pruned counts."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(3, 30)), int(rng.integers(1, 7))
    X = (rng.random((n, d)) < rng.uniform(0.3, 0.8)).astype(float)
    if values == "uniform":
        X *= rng.random((n, d))
    alpha = rng.standard_normal(n)
    if sign == "nonneg":
        alpha = np.abs(alpha)
    vec, col = alpha, alpha[:, None]
    sched = PenaltySchedule.geometric(float(rng.uniform(0.05, 1.0)) * np.abs(alpha).sum(), 1.3)
    mats = [AtomicMatrix(X)] + ([AtomicMatrix.from_dense(X)] if values == "binary" else [])
    assert [A.is_binary for A in mats] == [False, True][:len(mats)]
    for A in mats:
        a, b = screen(A, vec, sched), screen(A, col, sched)
        assert [(e.feature_set.atoms, e.stat) for e in a.emitted] == \
            [(e.feature_set.atoms, e.stat) for e in b.emitted]
        assert (a.explored_count, a.pruned_by_closure) == (b.explored_count, b.pruned_by_closure)


@given(seed=st.integers(0, 10 ** 6),
       mode=st.sampled_from(["signed", "nonneg", "nonpositive", "group"]), sparse=st.booleans())
@settings(max_examples=120, deadline=None)
def test_binary_stats_equal_running_sums_over_every_row(seed, mode, sparse):
    """On binary data a node's statistic equals the oracle's running sums
    over all n rows in row order, bit for bit, though the walk sums each
    half of the dual only over the node's rows where that half is nonzero.
    At a base of 1e-9 the screen emits every node with a nonzero statistic.
    (Dense data builds its products in join order, so it is checked against
    the reference walk to 1e-12 instead.)"""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(3, 60)), int(rng.integers(1, 8))
    A = AtomicMatrix(rng.random((n, d)) < rng.uniform(0.3, 0.9))
    w = _weights(rng, n, mode, integer=False, sparse=sparse)
    sched = PenaltySchedule.geometric(1e-9, 1.2)
    want = {}
    for u in oc.all_subsets(d):
        stat = oc.running_stat(interaction_column(A, u), w)
        if stat > sched.threshold(len(u)):
            want[u] = stat
    got = {e.feature_set.atoms: e.stat for e in screen(A, w, sched).emitted}
    assert got == want


@pytest.mark.parametrize("mode", ["nonneg", "signed", "sparse", "group"])
def test_large_batches_keep_running_sums(mode):
    """Batches wider than numpy's 8,192-entry iterator buffer (up to 3,000
    rows x 8 atoms) still give every binary node the oracle's running sums
    over all n rows, bit for bit.  "sparse" is a signed dual with half its
    rows at 0; the group dual has T = 3."""
    rng = np.random.default_rng(23)
    n, d = 3000, 8
    A = AtomicMatrix(rng.random((n, d)) < 0.7)
    alpha = rng.standard_normal((n, 3) if mode == "group" else n)
    if mode == "nonneg":
        alpha = np.abs(alpha)
    elif mode == "sparse":
        alpha[rng.permutation(n)[:n // 2]] = 0.0
    w = alpha
    res = screen(A, w, PenaltySchedule.geometric(1e-9, 1.2))
    assert len(res.emitted) == 2 ** d - 1
    for e in res.emitted:
        assert e.stat == oc.running_stat(interaction_column(A, e.feature_set), w)


@pytest.mark.parametrize("mode", ["nonneg", "signed", "group"])
def test_dense_stats_equal_running_sums_in_join_order(mode):
    """On dense data each node the walk yields has the running row-order
    statistic of its product column, bit for bit, when that column is
    multiplied out in the walk's join order (the order of the yielded
    atoms).  At level 0 and a flat schedule the walk yields every node."""
    rng = np.random.default_rng(29)
    for _ in range(4):
        n, d = int(rng.integers(20, 80)), int(rng.integers(4, 8))
        X = rng.random((n, d)) * (rng.random((n, d)) < 0.8)
        A = AtomicMatrix(X)
        alpha = rng.standard_normal((n, 3) if mode == "group" else n)
        w = np.abs(alpha) if mode == "nonneg" else alpha
        walk = list(screening._Walk(A, w, PenaltySchedule.flat(1.0), ScreenConfig(), 0.0))
        assert len(walk) == 2 ** d - 1
        for atoms, stat, _ in walk:
            col = A.column(atoms[0])
            for a in atoms[1:]:
                col = A.extend(col, a)
            assert stat == oc.running_stat(col, w)


@pytest.mark.parametrize("call", [screen, screening.critical_lambda])
@pytest.mark.parametrize("alpha, message", [
    (np.array([1.0, np.nan, 0.0]), "finite"),
    (np.array([1.0, 0.0, -np.inf]), "finite"),
    (np.ones(4), "rows"),
    (np.array(1.0), r"\(\)"),
    (np.ones((3, 2, 2)), r"\(3, 2, 2\)"),
], ids=["nan", "inf", "rows", "0-d", "3-d"])
def test_screen_rejects_bad_dual(call, alpha, message):
    """A dual that is not finite, has a row count unlike A's, or is not a
    vector or an (n, T) matrix is rejected.  A 3-D dual was screened on its
    first column alone, and a 0-d one ended in IndexError."""
    A = AtomicMatrix(np.array([[1], [1], [0]], dtype=bool))
    with pytest.raises(ValueError, match=message):
        call(A, alpha, PenaltySchedule.flat(1.0))


def test_screen_rejects_a_duplicate_emission(monkeypatch, four_transactions):
    """The duplicate check holds under ``python -O`` too: it raises, it is
    not an assert."""
    twice = [((0, 1), 2.0, 1.0), ((1, 0), 2.0, 1.0)]
    monkeypatch.setattr(screening._Walk, "__iter__", lambda self: iter(twice))
    with pytest.raises(RuntimeError, match="duplicate emission"):
        screen(four_transactions, np.ones(4), PenaltySchedule.flat(1.0))


@pytest.mark.parametrize("chunk", [1, 1000, 5000])
@pytest.mark.parametrize("mode", ["signed", "group", "nonneg", "nonpositive", "sparse"])
@pytest.mark.parametrize("binary", [True, False])
def test_node_stats_do_not_depend_on_batch_width(monkeypatch, chunk, mode, binary):
    """A node scores the same bits in a slice of any width: a screen whose
    prefix classes are cut into slices of parents (one parent each at
    chunk=1, so that every call of ``_stat_bound`` after the atoms' scores
    one parent's children) equals the unsliced one, and critical_lambda,
    whose closure tests wait for a slice's yields, finds exactly the
    largest ratio of a full screen.  The last parent of a class reduces
    its one child beside its own atom's column, which must stay a running
    sum too; "sparse" is a signed dual with half its rows at 0."""
    rng = np.random.default_rng(11)
    n, d = 300, 8
    X = (rng.random((n, d)) < 0.7).astype(float)
    A = AtomicMatrix.from_dense(X if binary else X * rng.random((n, d)))
    assert A.is_binary == binary
    w = _weights(rng, n, "signed" if mode == "sparse" else mode, integer=False,
                 sparse=mode == "sparse")
    shape = PenaltySchedule.geometric(1.0, 1.2)
    whole = screen(A, w, shape.with_base(1e-9))
    assert len(whole.emitted) == 2 ** d - 1  # every node scored in a full batch
    calls = {"slices": 0, "parents": 0}
    stat_bound, column, extend = screening._stat_bound, AtomicMatrix.column, AtomicMatrix.extend

    def counting(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    monkeypatch.setattr(screening, "_CHUNK", chunk)
    monkeypatch.setattr(screening, "_stat_bound", counting("slices", stat_bound))
    monkeypatch.setattr(AtomicMatrix, "column", counting("parents", column))
    monkeypatch.setattr(AtomicMatrix, "extend", counting("parents", extend))
    cut = screen(A, w, shape.with_base(1e-9))
    if chunk == 1:
        assert calls["slices"] == 1 + calls["parents"]
    else:
        assert calls["slices"] < 1 + calls["parents"]
    assert [(e.feature_set.atoms, e.stat) for e in cut.emitted] == \
        [(e.feature_set.atoms, e.stat) for e in whole.emitted]
    best = max(whole.emitted, key=lambda e: e.stat / shape.rho(e.feature_set.order))
    rho = shape.rho(best.feature_set.order)
    lam = best.stat / rho
    while best.stat > lam * rho:
        lam = np.nextafter(lam, np.inf)
    assert screening.critical_lambda(A, w, shape) == lam


@given(seed=st.integers(0, 10 ** 6), values=st.sampled_from(["binary", "quarters", "uniform"]),
       mode=st.sampled_from(["signed", "nonneg", "nonpositive", "group"]),
       kind=st.sampled_from(["flat", "geometric", "supergeometric"]), integer=st.booleans(),
       max_order=st.sampled_from([20, 2, 3]), sparse=st.booleans())
@settings(max_examples=80, deadline=None)
def test_critical_lambda_matches_reference_at_any_slice_width(seed, values, mode, kind, integer,
                                                             max_order, sparse):
    """At a rising level the walk's closure tests run after a slice's
    yields, at a level no lower than the reference walk's, which tests each
    child at its own turn.  critical_lambda still equals the reference's,
    with slices of one parent and with whole classes: exactly where the
    arithmetic is (integer weights on 0/1 or quarter values), else to 1e-12,
    and the two widths agree bit for bit."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(3, 30)), int(rng.integers(1, 8))
    X = (rng.random((n, d)) < rng.uniform(0.3, 0.9)).astype(float)
    if values == "quarters":
        X *= rng.integers(1, 5, size=(n, d)) / 4
    elif values == "uniform":
        X *= rng.random((n, d))
    A = AtomicMatrix.from_dense(X)
    w = _weights(rng, n, mode, integer, sparse)
    shape = {"flat": PenaltySchedule.flat(1.0), "geometric": PenaltySchedule.geometric(1.0, 1.3),
             "supergeometric": PenaltySchedule.supergeometric(1.0, 1.4, 1.5)}[kind]
    cfg = ScreenConfig(max_order=max_order)
    want = oc.reference_critical_lambda(A, w, shape, cfg)
    got = []
    for chunk in (1, sys.maxsize):
        with mock.patch.object(screening, "_CHUNK", chunk):
            got.append(screening.critical_lambda(A, w, shape, cfg))
    assert got[0] == got[1]
    if integer and values != "uniform":
        assert got[0] == want
    else:
        assert got[0] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_critical_lambda_scores_no_pair_when_every_atom_closes(monkeypatch):
    """With a dual without negative entries an atom's bound is its
    statistic, so under a geometric schedule no atom's bound exceeds the
    best atom ratio times rho(2): the level risen through the atoms closes
    every atom's subtree, and only the atom pass is reduced."""
    calls = []
    dots = screening._Walk._dots
    monkeypatch.setattr(screening._Walk, "_dots",
                        lambda self, col, *args: calls.append(col) or dots(self, col, *args))
    rng = np.random.default_rng(3)
    shape = PenaltySchedule.geometric(1.0, 1.5)
    for _ in range(20):
        n, d = int(rng.integers(5, 40)), int(rng.integers(2, 9))
        X = (rng.random((n, d)) < rng.uniform(0.3, 0.9)).astype(float)
        w = np.abs(rng.standard_normal(n))
        for A in (AtomicMatrix.from_dense(X), AtomicMatrix(X * rng.random((n, d)))):
            calls.clear()
            lam = screening.critical_lambda(A, w, shape)
            assert calls == [None]
            assert lam == pytest.approx(oc.reference_critical_lambda(A, w, shape, ScreenConfig()),
                                        rel=1e-12, abs=0.0)
            atoms = screen(A, w, shape.with_base(lam))
            assert atoms.emitted == () and atoms.explored_count == d


def test_walk_builds_a_column_only_for_a_parent(monkeypatch):
    """``column`` and ``extend`` run once per parent, of order 1 and of
    order >= 2: a node gets a column only when its row of the class matrix
    is reduced, so the last member of a prefix class, which has no later
    sibling, never gets one.  Of the reductions, one scores the atoms, and
    the atom parents are the atoms whose bound clears the pair threshold,
    all but the last of them."""
    calls = {"column": 0, "extend": 0, "dots": 0}
    column, extend, dots = AtomicMatrix.column, AtomicMatrix.extend, screening._Walk._dots

    def counting_column(self, j):
        calls["column"] += 1
        return column(self, j)

    def counting_extend(self, col, j):
        calls["extend"] += 1
        return extend(self, col, j)

    def counting_dots(self, *args):
        calls["dots"] += 1
        return dots(self, *args)

    monkeypatch.setattr(AtomicMatrix, "column", counting_column)
    monkeypatch.setattr(AtomicMatrix, "extend", counting_extend)
    monkeypatch.setattr(screening._Walk, "_dots", counting_dots)
    rng = np.random.default_rng(5)
    deep = closed = 0
    for _ in range(60):
        n, d = int(rng.integers(3, 40)), int(rng.integers(2, 8))
        X = rng.random((n, d)) < rng.uniform(0.4, 0.9)
        A = AtomicMatrix(X if rng.random() < 0.5 else X * rng.random((n, d)))
        alpha = rng.standard_normal(n)
        sched = PenaltySchedule.geometric(float(rng.uniform(0.01, 0.2)) * np.abs(alpha).sum(), 1.2)
        cfg = ScreenConfig(max_order=int(rng.integers(2, 6)))
        calls.update(column=0, extend=0, dots=0)
        screen(A, alpha, sched, cfg)
        Xf = A.atom_matrix().astype(float)
        open_atoms = sum(oc.closure_bound(Xf[:, j], alpha) > sched.threshold(2) for j in range(d))
        assert calls["column"] == max(open_atoms - 1, 0)
        assert calls["dots"] == 1 + calls["column"] + calls["extend"]
        deep += calls["extend"]
        closed += d - open_atoms
    assert deep > 100  # the instances do descend past the pairs
    assert closed > 0  # and some atoms close their subtrees


def test_negative_dual_screens_signed():
    """A dual with a negative entry gets the signed statistic and bound,
    because c^T alpha does not bound the supersets then: {0, 1} and {0, 3}
    score -1 (their row 4 carries -3) while their supersets {0,1,2},
    {0,2,3} and {0,1,2,3} score 2, so a walk that trusted c^T alpha would
    miss them."""
    X = np.array([[1, 1, 1, 1], [0, 0, 0, 1], [0, 1, 1, 0],
                  [1, 0, 0, 0], [1, 1, 0, 1], [0, 1, 1, 1]], dtype=float)
    alpha = np.array([2.0, 2.0, -2.0, 0.0, -3.0, -3.0])
    subsets, P = oc.materialize(X)
    stats = dict(zip(subsets, oc.enumerate_stats(P, alpha, "nonneg")))
    assert [stats[u] for u in [(0, 1), (0, 3)]] == [-1.0, -1.0]
    assert [stats[u] for u in [(0, 1, 2), (0, 2, 3), (0, 1, 2, 3)]] == [2.0, 2.0, 2.0]
    signed = dict(zip(subsets, oc.enumerate_stats(P, alpha, "signed")))
    want = [(u, v) for u, v in signed.items() if v > 1.0]
    w = alpha
    flat = PenaltySchedule.flat(1.0)
    mats = (AtomicMatrix.from_dense(X), AtomicMatrix(X))
    assert [A.is_binary for A in mats] == [True, False]
    for A in mats:
        res = screen(A, w, flat)
        got = [(e.feature_set.atoms, e.stat) for e in res.emitted]
        assert {(0, 1, 2), (0, 2, 3), (0, 1, 2, 3)} <= {u for u, _ in got}
        assert got == want
        assert screening.critical_lambda(A, w, flat) == max(signed.values())


@given(seed=st.integers(0, 10 ** 6),
       values=st.sampled_from(["bool", "float01", "quarters", "uniform"]),
       mode=st.sampled_from(["signed", "nonneg", "nonpositive", "group"]),
       kind=st.sampled_from(["flat", "geometric", "supergeometric"]),
       frac=st.floats(0.05, 1.0), lower=st.sampled_from([1.0, 0.999, 0.9, 0.5, 0.1]),
       sparse=st.booleans())
@settings(max_examples=120, deadline=None)
def test_restrict_equals_screen_at_higher_level(seed, values, mode, kind, frac, lower, sparse):
    """An exact screen at lam' <= lam, restricted to lam, is the screen at
    lam: the same sets, stats and thresholds, bit for bit.  The node counts
    stay those of the walk at lam'."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(3, 30)), int(rng.integers(1, 7))
    X = (rng.random((n, d)) < rng.uniform(0.3, 0.8)).astype(float)
    if values == "quarters":
        X *= rng.integers(1, 5, size=(n, d)) / 4
    elif values == "uniform":
        X *= rng.random((n, d))
    A = AtomicMatrix.from_dense(X) if values == "bool" else AtomicMatrix(X)
    assert A.is_binary == (values == "bool")
    w = _weights(rng, n, mode, integer=False, sparse=sparse)
    shape = {"flat": PenaltySchedule.flat(1.0), "geometric": PenaltySchedule.geometric(1.0, 1.3),
             "supergeometric": PenaltySchedule.supergeometric(1.0, 1.4, 1.5)}[kind]
    top = screening.critical_lambda(A, w, shape)
    lam = frac * top if top > 0 else 1.0
    high, low = shape.with_base(lam), shape.with_base(lam * lower)
    want = screen(A, w, high)
    walk = screen(A, w, low)
    got = screening.restrict(walk, high)
    assert [e.feature_set.atoms for e in got.emitted] == [e.feature_set.atoms for e in want.emitted]
    assert [e.stat for e in got.emitted] == [e.stat for e in want.emitted]
    assert [e.threshold for e in got.emitted] == [e.threshold for e in want.emitted]
    assert (got.explored_count, got.pruned_by_closure) == \
        (walk.explored_count, walk.pruned_by_closure)
