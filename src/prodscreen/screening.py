"""Depth-first screening of the interaction lattice.

Given a dual alpha, a vector or an n x T matrix, every interaction column
c_u has an inclusion statistic, |c_u^T alpha| (c_u^T alpha when no entry
of alpha is negative; the norm of that row for an n x T dual), and an
order-dependent threshold lambda * rho(|u|).  Interactions whose statistic
clears their threshold are emitted; everything else is certifiably
inactive.  With alpha_+ = max(alpha, 0) and alpha_- = max(-alpha, 0), and
because c_t <= c_u entrywise whenever t is a superset of u, the quantity

    bound(u) = max(c_u^T alpha_+, c_u^T alpha_-)

(its norm for an n x T dual) dominates the statistic of every superset of
u, so a node whose bound falls below the next order's threshold closes its
whole subtree.  The walk mirrors frequent-itemset mining (Eclat): the
children of a node are its unions with each later sibling of its prefix
class, and a prefix class is scored as one unit.  A prefix class is its
prefix, the prefix's column and the array of atoms that extend it.  The
walk gathers the class's atom columns once.  Every member but the last is
a parent: it gets its column, built from the prefix's column and the
atom's row of the column-major atom store, and for each half of the dual,
alpha_+ and alpha_-, that has a nonzero entry, its support rows where that
half is nonzero (its tidlist for binary data, every row times its values
for dense data) are taken from the class block and reduced against all T
weight columns of the half in one pass, with no product temporary.  The
dots fill the parent's row of a class matrix, whose strict upper triangle
gives the statistics and bounds of all the class's children in one call.
Each dot is a running sum in row order, so a node's statistic does not
depend on which parents or siblings share its pass.  An all-zero half,
such as alpha_- of a dual without negative entries, costs nothing.  The
atoms themselves are one such pass.  The walk emits atom sets, each with
its statistic and threshold; a model builds the columns of those sets with
``interaction_matrix``.  The same walk, with a level that rises to the
best ratio found so far, gives the critical penalty at which nothing is
emitted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import AtomicMatrix, FeatureSet, cosine

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
        """One JSON object per emitted interaction, in emission order: the
        bytes ``json.dumps`` gives {"atoms", "items", "stat", "threshold"},
        written directly, with each item name escaped once."""
        quoted = [json.dumps(name) for name in item_names] if item_names else None
        for e in self.emitted:
            atoms = e.feature_set.atoms
            items = [quoted[a] for a in atoms] if quoted else [f'"{a}"' for a in atoms]
            yield (f'{{"atoms": [{", ".join(map(str, atoms))}], "items": [{", ".join(items)}], '
                   f'"stat": {_json_float(e.stat)}, "threshold": {_json_float(e.threshold)}}}')


def _json_float(x: float) -> str:
    """``json.dumps(x)`` for a float: its repr, or NaN / Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _mode(alpha: np.ndarray) -> str:
    """The statistic a dual calls for: row norms for an (n, T) dual, else
    |c^T alpha|, which is c^T alpha for a dual without negative entries."""
    return "group" if alpha.ndim == 2 else "signed"


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


# entries of one half of a slice's class matrix (parents x members x T), 32 KB:
# a class is scored in slices of parents so that the matrix stays small when d is large
_CHUNK = 1 << 12


class _Walk:
    """One depth-first pass over the prefix classes at penalty level ``lam``.

    ``alpha`` is the dual, a vector or an (n, T) matrix of finite values
    with A's n rows (anything else raises ValueError); the walk splits it
    into alpha_+ = max(alpha, 0) and alpha_- = max(-alpha, 0).  Iterating
    yields ``(atoms, stat, threshold)`` for every node whose statistic
    exceeds lam * rho(k), with atoms in join order.  A node of any order k,
    an atom too, closes its subtree when its bound is at most
    lam * rho(k + 1); the atoms' tests run after all their yields, and the
    atoms left open seed the walk lightest first (ascending bound, ties by
    index: Eclat's item order), so the widest class is the lightest atom's,
    whose children close soonest.  A stack entry is one prefix class: its
    prefix atoms in join order, the prefix's column (None for the atoms)
    and the int array of its m member atoms.  The class's atom columns are gathered
    once, and its m - 1 parents, every member but the last, are scored in
    slices of at most max(1, ``_CHUNK`` // (m * T)).  In a slice, each
    parent gets its column and fills its row of the class matrix with its
    dots with the later members; the strict upper triangle then gives the
    statistics and bounds of the slice's children in one call, and they
    are emitted row by row.  The caller may raise ``lam`` between yields:
    each yield is tested at the level current at its turn, and a slice's
    closure tests run after all its yields.  A test at a higher level than
    the node's turn closes no subtree that holds a node above the final
    level, so ``critical_lambda`` keeps its value.  The last member of a
    class never gets a column.  ``explored`` counts the nodes whose
    statistic was computed and ``pruned`` the subtrees closed.
    """

    def __init__(self, A: AtomicMatrix, alpha, schedule: PenaltySchedule,
                 cfg: ScreenConfig, lam: float):
        alpha = np.asarray(alpha, dtype=float)
        if alpha.ndim not in (1, 2) or alpha.shape[0] != A.n_rows:
            raise ValueError(f"the dual must have shape (n,) or (n, T) for the matrix's "
                             f"n = {A.n_rows} rows, not {alpha.shape}")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("the dual must be finite")
        self.A, self.schedule, self.cfg = A, schedule, cfg
        self._mode = _mode(alpha)
        self.lam = lam
        self.explored = 0
        self.pruned = 0
        a = alpha.reshape(A.n_rows, -1)
        self._T = a.shape[1]
        # each half of the dual that has a nonzero entry: its index, its (T, n)
        # weights, which rows are nonzero (None if all are) and their indices
        self._halves = []
        for i, h in enumerate((np.maximum(a, 0.0), np.maximum(-a, 0.0))):
            nz = np.any(h > 0.0, axis=1)
            if nz.any():
                self._halves.append((i, np.ascontiguousarray(h.T), None if nz.all() else nz,
                                     np.flatnonzero(nz)))
        self._X = A.atom_matrix()

    def _dots(self, col: np.ndarray | None, Xc: np.ndarray, first: int, out: np.ndarray):
        """Fill ``out[h, first:]``, each (T,) row, with the dots of half h
        of the dual with the products of ``col`` and the columns ``first:``
        of ``Xc``, at least two of them; no column means the atoms
        themselves.

        Each half is reduced only over the column's support rows where that
        half is nonzero: the tidlist for binary data, every row for dense
        data, whose taken rows are scaled by the column's values there.
        All T weight columns of the half are reduced against that block in
        one ``einsum('tr,rk->kt')``, with no product temporary.  With at
        least two columns each dot is a running sum in row order, and a
        skipped row adds +0.0, so a dot equals the sum over every row and
        does not depend on which other columns share the block.
        """
        rows, scale = (col, None) if self.A.is_binary else (None, col)
        for half, wt, nz, support in self._halves:
            r = support if rows is None else rows if nz is None else rows[nz[rows]]
            G = Xc.take(r, axis=0)[:, first:]
            # a contiguous copy: einsum reduces a strided bool view more slowly
            G = np.ascontiguousarray(G) if scale is None else G * scale[r][:, None]
            # einsum's out= reorders its loops, and the dots then lose their row order
            out[half, first:] = np.einsum('tr,rk->kt', wt.take(r, axis=1), G)

    def _passing(self, stat: np.ndarray, rho_k: float, where=True):
        """The indices i, in order, whose statistic clears lam * rho_k (and
        ``where`` holds), each with its threshold, tested at the level
        current at its turn."""
        for i in np.flatnonzero((stat > self.lam * rho_k) & where).tolist():
            thr = self.lam * rho_k
            if stat[i] > thr:
                yield i, thr

    def __iter__(self):
        A, cfg, rho, T = self.A, self.cfg, self.schedule.rho, self._T
        d = A.n_cols
        # a lone atom is reduced beside a copy of itself, so that its dot is a running sum too
        Xa = self._X.repeat(2, axis=1) if d == 1 else self._X
        D = np.zeros((2, Xa.shape[1], T))
        self._dots(None, Xa, 0, D)
        stat, bound = _stat_bound(D[0, :d], D[1, :d], self._mode)
        self.explored += d
        for j, thr in self._passing(stat, rho(1)):
            yield (j,), float(stat[j]), thr
        stack = []
        if d > 1 and cfg.max_order > 1:
            seeds = np.lexsort((np.arange(d), bound))
            seeds = seeds[bound[seeds] > self.lam * rho(2)]
            self.pruned += d - len(seeds)
            if len(seeds) > 1:
                stack.append(((), None, seeds))
        while stack:
            prefix, pcol, exts = stack.pop()
            order = len(prefix) + 2
            rho_k = rho(order)
            rho_next = rho(order + 1) if order < cfg.max_order else None
            m = len(exts)
            Xc = self._X.take(exts, axis=1)
            step = max(1, _CHUNK // (m * T))
            for a in range(0, m - 1, step):
                p = min(step, m - 1 - a)
                D = np.zeros((2, p, m, T))
                cols = []
                for i in range(p):
                    e = int(exts[a + i])
                    cols.append(A.column(e) if pcol is None else A.extend(pcol, e))
                    # the later members; the last parent also takes itself, for two columns
                    self._dots(cols[i], Xc, min(a + i + 1, m - 2), D[:, i])
                # row i is parent a + i; its children join the later members l > a + i
                upper = np.arange(m) > np.arange(a, a + p)[:, None]
                stat, bound = _stat_bound(D[0].reshape(-1, T), D[1].reshape(-1, T), self._mode)
                children = int(np.count_nonzero(upper))
                self.explored += children
                for f, thr in self._passing(stat, rho_k, upper.ravel()):
                    i, l = divmod(f, m)
                    yield prefix + (int(exts[a + i]), int(exts[l])), float(stat[f]), thr
                if rho_next is None:
                    continue
                keep = (bound.reshape(p, m) > self.lam * rho_next) & upper
                self.pruned += children - int(np.count_nonzero(keep))
                for i in np.flatnonzero(np.count_nonzero(keep, axis=1) > 1).tolist():
                    stack.append((prefix + (int(exts[a + i]),), cols[i], exts[keep[i]]))


def screen(A: AtomicMatrix, alpha, schedule: PenaltySchedule,
           cfg: ScreenConfig | None = None) -> ScreenResult:
    """Emit every interaction whose statistic exceeds its threshold.

    The walk scores every atom, seeds on those whose closure bound clears
    the pair threshold (lightest first), joins pairs within prefix classes,
    and descends into a candidate's class only while its bound clears the
    next order's threshold.  Output is sorted by atom tuple and identical
    across runs on identical input.
    """
    return _collect(_Walk(A, alpha, schedule, cfg or ScreenConfig(), schedule.base_lambda))


def _collect(walk: _Walk) -> ScreenResult:
    """Run a walk at a fixed level; its emissions sorted by atom tuple."""
    emitted: list[Emitted] = []
    for atoms, stat, thr in walk:
        emitted.append(Emitted(FeatureSet(tuple(sorted(atoms))), thr, stat))
    emitted.sort(key=lambda e: e.feature_set.atoms)
    for a, b in zip(emitted, emitted[1:]):
        if a.feature_set.atoms == b.feature_set.atoms:
            raise RuntimeError(f"duplicate emission of {a.feature_set.atoms}")
    return ScreenResult(tuple(emitted), walk.explored, walk.pruned)


def critical_lambda(A: AtomicMatrix, alpha, schedule: PenaltySchedule,
                    cfg: ScreenConfig | None = None) -> float:
    """Smallest base penalty at which ``screen`` emits nothing: the largest
    statistic(u) / rho(|u|) over the lattice.

    The walk starts at level 0 and rises to each ratio it meets, so a
    subtree closes once its bound cannot beat the best ratio so far; the
    result does not depend on traversal order.
    """
    walk = _Walk(A, alpha, schedule, cfg or ScreenConfig(), 0.0)
    for atoms, stat, _ in walk:
        rho = schedule.rho(len(atoms))
        lam = stat / rho
        while stat > lam * rho:  # the quotient rounded down: step up to the screen's test
            lam = math.nextafter(lam, math.inf)
        walk.lam = lam
    return walk.lam


def verify_kkt(A: AtomicMatrix, alpha, schedule: PenaltySchedule,
               cfg: ScreenConfig, active) -> tuple[ScreenResult, list[Emitted]]:
    """Re-screen at the given dual point and return the screen with the
    emissions missing from ``active`` (an iterable of FeatureSet or of
    Emitted).  An empty list certifies that no interaction outside the
    active set carries weight.
    """
    have = {(a.feature_set if isinstance(a, Emitted) else a).atoms for a in active}
    res = screen(A, alpha, schedule, cfg)
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
    all-ones dual: the statistic of a set is its support count.  The walk
    runs at level ``min_support`` itself, as ``critical_lambda``'s runs at
    0, so ``min_support`` = 0 asks for every itemset that occurs at all.
    Returns (FeatureSet, support) pairs sorted by atom tuple.
    """
    if not 0.0 <= min_support < math.inf:
        raise ValueError("min_support must be non-negative and finite")
    walk = _Walk(A, np.ones(A.n_rows), PenaltySchedule.flat(1.0),
                 ScreenConfig(max_order=max_order), float(min_support))
    return [(e.feature_set, e.stat) for e in _collect(walk).emitted]
