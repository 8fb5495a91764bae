"""Depth-first screening of the interaction lattice.

Given a dual vector alpha, every interaction column c_u has an inclusion
statistic (|c_u^T alpha| in the signed case) and an order-dependent
threshold lambda * rho(|u|).  Interactions whose statistic clears their
threshold are emitted; everything else is certifiably inactive.  Because
c_t <= c_u entrywise whenever t is a superset of u, the quantity

    bound(u) = max(c_u^T alpha_+, c_u^T alpha_-)

dominates the statistic of every superset of u, so a node whose bound falls
below the next order's threshold closes its whole subtree.  The walk mirrors
frequent-itemset mining (Eclat): the children of a node are its unions with
each later sibling of its prefix class, and all of them are scored in one
batch.  The batch gathers the atom matrix at the parent's support rows
(its tidlist for binary data, every row times the parent's values for
dense data) and the siblings' atoms, and reduces that block against
[alpha_+, alpha_-] in a fixed order, so a node's statistic does not
depend on its batch.  The atoms themselves are one such batch.  Only
children that stay open get a column, their tidlist or values, which
feeds their own children's batches.  The walk emits atom sets, each with
its statistic and threshold; a model builds the columns of those sets
with ``interaction_column``.  The same walk, with a level that rises to
the best ratio found so far, gives the critical penalty at which nothing
is emitted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import AtomicMatrix, Column, DualWeights, FeatureSet, cosine, jaccard, split_dots

__all__ = [
    "PenaltySchedule",
    "ScreenConfig",
    "Emitted",
    "ScreenResult",
    "closure_bound",
    "screen",
    "critical_lambda",
    "verify_kkt",
    "restrict",
    "dedup_atoms",
    "frequent_itemsets",
]


@dataclass(frozen=True)
class PenaltySchedule:
    """Order-dependent penalty lambda * rho(k), rho(k) = base**((k-1)**exponent).

    rho(1) = 1 always.  "flat" is base 1, so rho = 1; "geometric" is
    exponent 1, base**(k-1); "supergeometric" has an exponent above 1,
    which grows fast enough to choke off high orders entirely.
    """

    base_lambda: float
    base: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.base_lambda < math.inf:
            raise ValueError("base_lambda must be positive and finite")
        if not 1.0 <= self.base < math.inf:
            raise ValueError("base must be finite and >= 1, so thresholds never fall with order")
        if not 1.0 <= self.exponent < math.inf:
            raise ValueError("exponent must be finite and >= 1")

    @classmethod
    def flat(cls, lam: float) -> "PenaltySchedule":
        return cls(lam)

    @classmethod
    def geometric(cls, lam: float, base: float = 1.5) -> "PenaltySchedule":
        return cls(lam, base=base)

    @classmethod
    def supergeometric(cls, lam: float, base: float = 1.5, exponent: float = 1.5) -> "PenaltySchedule":
        return cls(lam, base=base, exponent=exponent)

    def rho(self, k: int) -> float:
        if k < 1:
            raise ValueError("order must be >= 1")
        return self.base ** float((k - 1) ** self.exponent)

    def threshold(self, k: int) -> float:
        """Penalty weight for an interaction of order k."""
        return self.base_lambda * self.rho(k)

    def with_base(self, lam: float) -> "PenaltySchedule":
        return replace(self, base_lambda=lam)


@dataclass(frozen=True)
class ScreenConfig:
    """Knobs for the lattice walk.

    child_parent_prune drops a candidate when it is more than that similar
    to both of its generating parents (0 disables; it trades exactness for
    speed on data with heavily correlated columns, so it is off by default).
    The statistic is not configured: it follows from the dual (see _mode).
    """

    max_order: int = 20
    child_parent_prune: float = 0.0

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")
        if not 0.0 <= self.child_parent_prune <= 1.0:
            raise ValueError("child_parent_prune must lie in [0, 1]")


@dataclass(frozen=True)
class Emitted:
    """One screened-in atom set, its statistic and the threshold it cleared."""

    feature_set: FeatureSet
    threshold: float
    stat: float


@dataclass(frozen=True)
class ScreenResult:
    emitted: tuple[Emitted, ...]
    explored_count: int
    pruned_by_closure: int

    def feature_sets(self) -> tuple[FeatureSet, ...]:
        return tuple(e.feature_set for e in self.emitted)

    def to_jsonl(self, item_names=None):
        """One JSON object per emitted interaction, in emission order."""
        for e in self.emitted:
            atoms = list(e.feature_set.atoms)
            items = [item_names[a] if item_names else str(a) for a in atoms]
            yield json.dumps(
                {"atoms": atoms, "items": items, "stat": e.stat, "threshold": e.threshold}
            )


def _mode(w: DualWeights) -> str:
    """The statistic a dual calls for: row norms for an (n, T) dual, c^T alpha
    for a vector without negative entries (it bounds its supersets), else |c^T alpha|."""
    return "group" if w.pos.ndim == 2 else "signed" if np.any(w.neg > 0) else "nonneg"


def _stat_bound(p: np.ndarray, m: np.ndarray, mode: str):
    """Inclusion statistics and superset bounds of k columns from their dots
    p = C^T pos and m = C^T neg, both (k, T) with T = 1 outside group mode.
    Group norms are one BLAS dot per row, the same bits as ``v @ v``."""
    if mode == "group":
        diff = p - m
        hi = np.maximum(p, m)
        return (np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]),
                np.sqrt(np.matmul(hi[:, None, :], hi[:, :, None])[:, 0, 0]))
    t = (p - m)[:, 0]
    if mode == "nonneg":  # m = 0, so these are the signed statistic and bound
        return t, t
    return np.abs(t), np.maximum(p, m)[:, 0]


def closure_bound(col: Column, w: DualWeights) -> float:
    """Upper bound on the statistic of every superset of the column's atom set."""
    p, m = split_dots(col, w)
    _, bound = _stat_bound(np.reshape(p, (1, -1)), np.reshape(m, (1, -1)), _mode(w))
    return float(bound[0])


@dataclass
class _Cand:
    atoms: tuple[int, ...]  # in join order, not sorted
    ext: int  # the atom this candidate added to its class prefix
    column: Column


_CHUNK = 1 << 18  # float64 entries per product temporary, 2 MB


class _Walk:
    """One depth-first pass over the prefix classes at penalty level ``lam``.

    Iterating yields ``(atoms, stat, threshold)`` for every node whose
    statistic exceeds lam * rho(k), with atoms in join order.  All
    atoms seed the walk; a node of order k >= 2 closes its subtree when its
    bound is at most lam * rho(k + 1).  A parent's children are scored in
    one batch.  The caller may raise ``lam`` between yields: each yield is
    tested at the level current at its turn, and a batch's closure tests
    run after its yields.  Only a child that stays open gets a column.
    ``explored`` counts the nodes whose statistic was computed and
    ``pruned`` the subtrees closed.
    """

    def __init__(self, A: AtomicMatrix, weights: DualWeights, schedule: PenaltySchedule,
                 cfg: ScreenConfig, lam: float):
        if weights.n_rows != A.n_rows:
            raise ValueError("dual weights and matrix disagree on row count")
        self.A, self.schedule, self.cfg = A, schedule, cfg
        self._mode = _mode(weights)
        self.lam = lam
        self.explored = 0
        self.pruned = 0
        n = A.n_rows
        self._W = np.hstack([weights.pos.reshape(n, -1), weights.neg.reshape(n, -1)])
        self._X = A.atom_matrix()

    def _batch(self, parent: _Cand | None, sibs: list[_Cand]):
        """Statistics, bounds and child-parent skip mask of the children
        parent + sibling.ext, one per sibling; no parent means the atoms.

        The gather takes the siblings' atoms at the parent's support rows:
        its tidlist for binary data, every row times the parent's values
        for dense data.  One product with [pos, neg] and a sum over rows
        follow.  Each child's dots are running sums in row order, so they
        do not depend on how many children share the batch or on the
        chunking.
        """
        col = parent.column if parent is not None else None
        rows = col.tidlist if col is not None else None
        W = self._W if rows is None else self._W[rows]
        exts = np.array([s.ext for s in sibs], dtype=np.int64)
        k, K = len(sibs), W.shape[1]
        dots = np.empty((k, K))
        level = self.cfg.child_parent_prune if parent is not None else 0.0
        skip = np.zeros(k, dtype=bool)
        step = max(1, _CHUNK // max(1, W.size))
        X = self._X if rows is None else self._X.take(rows, axis=0)
        for a in range(0, k, step):
            G = X.take(exts[a:a + step], axis=1)  # (rows, children), C order
            G = G * col.values[:, None] if rows is None and col is not None \
                else G.astype(np.float64)
            # K >= 2 keeps every reduction a running sum, even for one child
            dots[a:a + step] = (W[:, :, None] * G[:, None, :]).sum(axis=0).T
            if level > 0.0:
                skip[a:a + step] = _too_similar(G, col, sibs[a:a + step], level)
        T = K // 2
        stat, bound = _stat_bound(dots[:, :T], dots[:, T:], self._mode)
        return stat, bound, skip

    def _emit(self, parent: _Cand | None, sibs: list[_Cand], stat, live, rho_k: float):
        """Yield the live children whose statistic clears lam * rho_k, each
        tested at the level current at its turn."""
        prefix = parent.atoms if parent is not None else ()
        for i in np.nonzero(live & (stat > self.lam * rho_k))[0].tolist():
            thr = self.lam * rho_k
            if stat[i] > thr:
                yield prefix + (sibs[i].ext,), float(stat[i]), thr

    def __iter__(self):
        A, cfg, rho = self.A, self.cfg, self.schedule.rho
        atoms = [_Cand((j,), j, A.column(j)) for j in range(A.n_cols)]
        stat, bound, _ = self._batch(None, atoms)
        self.explored += A.n_cols
        yield from self._emit(None, atoms, stat, np.ones(A.n_cols, dtype=bool), rho(1))
        seeds = [atoms[j] for j in np.lexsort((np.arange(A.n_cols), -bound)).tolist()]

        stack = [seeds] if A.n_cols > 1 and cfg.max_order > 1 else []
        while stack:
            cls = stack.pop()
            order = len(cls[0].atoms) + 1
            rho_k = rho(order)
            rho_next = rho(order + 1) if order < cfg.max_order else None
            for k, parent in enumerate(cls[:-1]):
                sibs = cls[k + 1:]
                stat, bound, skip = self._batch(parent, sibs)
                self.explored += len(sibs)
                live = ~skip
                yield from self._emit(parent, sibs, stat, live, rho_k)
                if rho_next is None:
                    continue
                keep = np.nonzero(live & (bound > self.lam * rho_next))[0].tolist()
                self.pruned += int(np.count_nonzero(live)) - len(keep)
                if len(keep) > 1:
                    stack.append([_Cand(parent.atoms + (sibs[i].ext,), sibs[i].ext,
                                        A.extend(parent.column, sibs[i].ext)) for i in keep])


def _too_similar(G: np.ndarray, parent: Column, sibs: list[_Cand], level: float) -> np.ndarray:
    """Which children, the columns of G, are more than ``level`` similar to
    both of their generating parents: by support ratio for binary data (a
    child's support is nested in each parent's), by cosine for dense data."""
    if parent.tidlist is not None:
        counts = G.sum(axis=0)
        sizes = np.array([s.column.support_size for s in sibs])
        pn = parent.support_size
        to_parent = counts / pn if pn else np.ones(len(sibs))
        to_sib = np.divide(counts, sizes, out=np.ones(len(sibs)), where=sizes > 0)
    else:
        children = np.ascontiguousarray(G.T)
        to_parent = cosine(children, parent.values)
        to_sib = cosine(children, np.stack([s.column.values for s in sibs]))
    return (to_parent > level) & (to_sib > level)


def screen(A: AtomicMatrix, weights: DualWeights, schedule: PenaltySchedule,
           cfg: ScreenConfig | None = None) -> ScreenResult:
    """Emit every interaction whose statistic exceeds its threshold.

    The walk seeds on all atoms (heaviest first), joins pairs within prefix
    classes, and descends into a candidate's class only while the closure
    bound clears the next order's threshold.  Output is sorted by atom tuple
    and identical across runs on identical input.
    """
    walk = _Walk(A, weights, schedule, cfg or ScreenConfig(), schedule.base_lambda)
    emitted: list[Emitted] = []
    for atoms, stat, thr in walk:
        emitted.append(Emitted(FeatureSet(tuple(sorted(atoms))), thr, stat))
    emitted.sort(key=lambda e: e.feature_set.atoms)
    for a, b in zip(emitted, emitted[1:]):
        assert a.feature_set.atoms != b.feature_set.atoms, "duplicate emission"
    return ScreenResult(tuple(emitted), walk.explored, walk.pruned)


def critical_lambda(A: AtomicMatrix, weights: DualWeights, schedule: PenaltySchedule,
                    cfg: ScreenConfig | None = None) -> float:
    """Smallest base penalty at which ``screen`` emits nothing: the largest
    statistic(u) / rho(|u|) over the lattice.

    The walk starts at level 0 and rises to each ratio it meets, so a
    subtree closes once its bound cannot beat the best ratio so far; the
    result does not depend on traversal order.  The child-parent shortcut
    is off here, so the level is exact.
    """
    cfg = replace(cfg or ScreenConfig(), child_parent_prune=0.0)
    walk = _Walk(A, weights, schedule, cfg, 0.0)
    for atoms, stat, _ in walk:
        rho = schedule.rho(len(atoms))
        lam = stat / rho
        while stat > lam * rho:  # the quotient rounded down: step up to the screen's test
            lam = math.nextafter(lam, math.inf)
        walk.lam = lam
    return walk.lam


def verify_kkt(A: AtomicMatrix, weights: DualWeights, schedule: PenaltySchedule,
               cfg: ScreenConfig, active) -> tuple[ScreenResult, list[Emitted]]:
    """Re-screen at the given dual point and return the screen with the
    emissions missing from ``active`` (an iterable of FeatureSet or of
    Emitted).  An empty list certifies that no interaction outside the
    active set carries weight.  The screen runs without the child-parent
    shortcut, whatever ``cfg`` says, so the certificate is exact.
    """
    have = set()
    for a in active:
        fs = a.feature_set if isinstance(a, Emitted) else a
        have.add(fs.atoms)
    res = screen(A, weights, schedule, replace(cfg, child_parent_prune=0.0))
    return res, [e for e in res.emitted if e.feature_set.atoms not in have]


def restrict(result: ScreenResult, schedule: PenaltySchedule) -> ScreenResult:
    """The screen at ``schedule`` from an exact screen at the same dual and
    a base penalty no higher: the emissions whose statistic exceeds
    ``schedule``'s threshold, with that threshold.  The lower walk visits
    every node the higher one does, a node's statistic does not depend on
    its batch, and the test is the walk's own product and comparison, so
    the sets, statistics and thresholds equal ``screen``'s at ``schedule``
    bit for bit; the node counts stay the lower walk's.
    """
    kept = []
    for e in result.emitted:
        thr = schedule.threshold(len(e.feature_set.atoms))
        if e.stat > thr:
            kept.append(replace(e, threshold=thr))
    return replace(result, emitted=tuple(kept))


def dedup_atoms(A: AtomicMatrix, sim: float):
    """Greedy left-to-right removal of near-duplicate atom columns.

    A column is dropped when its similarity to an already-kept column is
    >= sim (Jaccard for binary data, cosine for dense).  Returns the reduced
    matrix and the kept original indices; apply the same selection to any
    future data before using a model trained on the reduced matrix.
    """
    if not 0.0 < sim <= 1.0:
        raise ValueError("sim must lie in (0, 1]")
    kept: list[int] = []
    for j in range(A.n_cols):
        cj = A.column(j)
        dup = False
        for i in kept:
            ci = A.column(i)
            if A.is_binary:
                s = jaccard(ci, cj)
            else:
                s = cosine(ci.values, cj.values)
            if s >= sim:
                dup = True
                break
        if not dup:
            kept.append(j)
    return A.select(kept), kept


def frequent_itemsets(A: AtomicMatrix, min_support: float, max_order: int = 20):
    """Itemsets whose support strictly exceeds ``min_support``.

    This is the special case of screening with a linear covering loss and
    all-ones dual: the statistic of a set is its support count.  Returns
    (FeatureSet, support) pairs sorted by atom tuple.
    """
    w = DualWeights.from_alpha(np.ones(A.n_rows))
    res = screen(A, w, PenaltySchedule.flat(min_support),
                 ScreenConfig(max_order=max_order))
    return [(e.feature_set, e.stat) for e in res.emitted]
