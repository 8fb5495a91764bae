"""Depth-first screening of the interaction lattice.

Given a dual alpha, every interaction column c_u has an inclusion
statistic, |c_u^T alpha| (c_u^T alpha when no entry of alpha is negative;
the norm of that row for an n x T dual), and an order-dependent threshold
lambda * rho(|u|).  Interactions whose statistic clears their threshold
are emitted; everything else is certifiably inactive.  Because
c_t <= c_u entrywise whenever t is a superset of u, the quantity

    bound(u) = max(c_u^T alpha_+, c_u^T alpha_-)

(its norm for an n x T dual) dominates the statistic of every superset of
u, so a node whose bound falls below the next order's threshold closes its
whole subtree.  The walk mirrors frequent-itemset mining (Eclat): the
children of a node are its unions with each later sibling of its prefix
class, and all of them are scored in one batch.  A prefix class is its
prefix, the prefix's column and the array of atoms that extend it.  For
each half of the dual, alpha_+ and alpha_-, that has a nonzero entry, the
batch gathers the siblings' atoms at the parent's support rows where that
half is nonzero (the parent's tidlist for binary data, every row times
the parent's values for dense data) and reduces that block against each
weight column of the half in one pass, with no product temporary.  Each
child's dot is a running sum in row order, so a node's statistic does not
depend on its batch.  An all-zero half, such as alpha_- of a dual without
negative entries, costs nothing.  The atoms themselves are one such
batch.  Only a node that becomes a parent gets a column, built from its
prefix's column and the atom's row of the column-major atom store just
before its children's batch.  The walk emits atom sets, each with its
statistic and threshold; a model builds the columns of those sets with
``interaction_matrix``.  The same walk, with a level that rises to the
best ratio found so far, gives the critical penalty at which nothing is
emitted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import AtomicMatrix, DualWeights, FeatureSet, cosine

__all__ = [
    "PenaltySchedule",
    "ScreenConfig",
    "Emitted",
    "ScreenResult",
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
    """Settings of the lattice walk: the highest order it visits.  The
    statistic is not configured: it follows from the dual (see _mode)."""

    max_order: int = 20

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")


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
    """The statistic a dual calls for: row norms for an (n, T) dual, else
    |c^T alpha|, which is c^T alpha for a dual without negative entries."""
    return "group" if w.pos.ndim == 2 else "signed"


def _stat_bound(p: np.ndarray, m: np.ndarray, mode: str):
    """Inclusion statistics and superset bounds of k columns from their dots
    p = C^T pos and m = C^T neg, both (k, T) with T = 1 outside group mode.
    Group norms are one BLAS dot per row, the same bits as ``v @ v``."""
    if mode == "group":
        diff = p - m
        hi = np.maximum(p, m)
        return (np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]),
                np.sqrt(np.matmul(hi[:, None, :], hi[:, :, None])[:, 0, 0]))
    p, m = p[:, 0], m[:, 0]
    return np.abs(p - m), np.maximum(p, m)


_CHUNK = 1 << 18  # entries per gathered block (rows x children): 256 KB bool, 2 MB float


class _Walk:
    """One depth-first pass over the prefix classes at penalty level ``lam``.

    Iterating yields ``(atoms, stat, threshold)`` for every node whose
    statistic exceeds lam * rho(k), with atoms in join order.  All
    atoms seed the walk; a node of order k >= 2 closes its subtree when its
    bound is at most lam * rho(k + 1).  A parent's children are scored in
    one batch.  The caller may raise ``lam`` between yields: each yield is
    tested at the level current at its turn, and a batch's closure tests
    run after its yields.  A stack entry is one prefix class: its prefix
    atoms in join order, the prefix's column (None for the atoms) and the
    int array of atoms that extend it.  A node's column is built when it
    becomes a parent, so the last member of a class never gets one.
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
        pos, neg = weights.pos.reshape(n, -1), weights.neg.reshape(n, -1)
        self._T = pos.shape[1]
        # each half of the dual that has a nonzero entry: its index, its (T, n)
        # weights, which rows are nonzero (None if all are) and their indices
        self._halves = []
        for i, h in enumerate((pos, neg)):
            nz = np.any(h > 0.0, axis=1)
            if nz.any():
                self._halves.append((i, np.ascontiguousarray(h.T), None if nz.all() else nz,
                                     np.flatnonzero(nz)))
        self._X = A.atom_matrix()

    def _batch(self, col: np.ndarray | None, exts: np.ndarray):
        """Statistics and bounds of the children parent + e for each atom e
        of ``exts``, where ``col`` is the parent's column; no column means
        the atoms.

        Each half of the dual, pos and neg, is reduced only over the
        parent's support rows where that half is nonzero: the parent's
        tidlist for binary data, every row for dense data.  The gather takes
        the siblings' atoms at those rows (times the parent's values there
        for dense data).  Each weight column of the half is then reduced
        against that block in one pass, ``einsum('r,rk->k')``, with no
        product temporary.  A half that is all zero scores zero, and a half
        nonzero on every row takes the parent's rows as they are.  Each
        child's dots are running sums in row order, and a skipped row adds
        +0.0, so they equal the sums over every row and do not depend on how
        many children share the batch or on the chunking.
        """
        rows, scale = (col, None) if self.A.is_binary else (None, col)
        k = len(exts)
        dots = np.zeros((2, k, self._T))
        for half, wt, nz, support in self._halves:
            r = support if rows is None else rows if nz is None else rows[nz[rows]]
            W = wt.take(r, axis=1)
            X = self._X.take(r, axis=0)
            v = scale[r][:, None] if scale is not None else None
            step = max(1, _CHUNK // max(1, len(r)))
            for a in range(0, k, step):
                e = exts[a:a + step]
                # a one-column reduction would not be summed in row order:
                # pad it to two children so that every dot stays a running sum
                G = X.take(e if len(e) > 1 else e.repeat(2), axis=1)
                if v is not None:
                    G = G * v
                for t, w_t in enumerate(W):
                    dots[half, a:a + len(e), t] = np.einsum('r,rk->k', w_t, G)[:len(e)]
        return _stat_bound(dots[0], dots[1], self._mode)

    def _emit(self, prefix: tuple[int, ...], exts: np.ndarray, stat, rho_k: float):
        """Yield the children prefix + e whose statistic clears
        lam * rho_k, each tested at the level current at its turn."""
        for i in np.nonzero(stat > self.lam * rho_k)[0].tolist():
            thr = self.lam * rho_k
            if stat[i] > thr:
                yield prefix + (int(exts[i]),), float(stat[i]), thr

    def __iter__(self):
        A, cfg, rho = self.A, self.cfg, self.schedule.rho
        atoms = np.arange(A.n_cols)
        stat, bound = self._batch(None, atoms)
        self.explored += A.n_cols
        yield from self._emit((), atoms, stat, rho(1))
        seeds = np.lexsort((atoms, -bound))

        stack = [((), None, seeds)] if A.n_cols > 1 and cfg.max_order > 1 else []
        while stack:
            prefix, pcol, exts = stack.pop()
            order = len(prefix) + 2
            rho_k = rho(order)
            rho_next = rho(order + 1) if order < cfg.max_order else None
            for k, e in enumerate(exts[:-1].tolist()):
                parent = prefix + (e,)
                col = A.column(e) if pcol is None else A.extend(pcol, e)
                sibs = exts[k + 1:]
                stat, bound = self._batch(col, sibs)
                self.explored += len(sibs)
                yield from self._emit(parent, sibs, stat, rho_k)
                if rho_next is None:
                    continue
                keep = np.flatnonzero(bound > self.lam * rho_next)
                self.pruned += len(sibs) - len(keep)
                if len(keep) > 1:
                    stack.append((parent, col, sibs[keep]))


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
        if a.feature_set.atoms == b.feature_set.atoms:
            raise RuntimeError(f"duplicate emission of {a.feature_set.atoms}")
    return ScreenResult(tuple(emitted), walk.explored, walk.pruned)


def critical_lambda(A: AtomicMatrix, weights: DualWeights, schedule: PenaltySchedule,
                    cfg: ScreenConfig | None = None) -> float:
    """Smallest base penalty at which ``screen`` emits nothing: the largest
    statistic(u) / rho(|u|) over the lattice.

    The walk starts at level 0 and rises to each ratio it meets, so a
    subtree closes once its bound cannot beat the best ratio so far; the
    result does not depend on traversal order.
    """
    walk = _Walk(A, weights, schedule, cfg or ScreenConfig(), 0.0)
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
    active set carries weight.
    """
    have = set()
    for a in active:
        fs = a.feature_set if isinstance(a, Emitted) else a
        have.add(fs.atoms)
    res = screen(A, weights, schedule, cfg)
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
    >= sim.  The d x d similarity matrix is built once: Jaccard from the
    Gram matrix X^T X for binary data (its counts are exact; two empty
    columns score 1.0), cosine for dense data.  Returns the reduced matrix
    and the kept original indices; apply the same selection to any future
    data before using a model trained on the reduced matrix.
    """
    if not 0.0 < sim <= 1.0:
        raise ValueError("sim must lie in (0, 1]")
    X = A.atom_matrix()
    if A.is_binary:
        Xf = X.astype(float)
        inter = Xf.T @ Xf
        size = np.diag(inter)
        union = size[:, None] + size[None, :] - inter
        S = np.divide(inter, union, out=np.ones_like(inter), where=union > 0.0)
    else:
        Xt = np.ascontiguousarray(X.T)
        S = np.array([cosine(Xt, Xt[j]) for j in range(A.n_cols)])
    kept: list[int] = []
    for j in range(A.n_cols):
        if not np.any(S[j, kept] >= sim):
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
