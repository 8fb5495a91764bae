"""Depth-first screening of the interaction lattice.

Given a dual vector alpha, every interaction column c_u has an inclusion
statistic (|c_u^T alpha| in the signed case) and an order-dependent
threshold lambda * rho(|u|).  Interactions whose statistic clears their
threshold are emitted; everything else is certifiably inactive.  Because
c_t <= c_u entrywise whenever t is a superset of u, the quantity

    bound(u) = max(c_u^T alpha_+, c_u^T alpha_-)

dominates the statistic of every superset of u, so a node whose bound falls
below the next order's threshold closes its whole subtree.  The walk mirrors
frequent-itemset mining: candidates of order k+1 are unions of two order-k
sets sharing a prefix, and binary columns are intersected tidlists.  The
same walk, with a level that rises to the best ratio found so far, gives
the critical penalty at which nothing is emitted.
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
    "dedup_atoms",
    "frequent_itemsets",
]


@dataclass(frozen=True)
class PenaltySchedule:
    """Order-dependent penalty lambda * rho(k).

    rho(1) = 1 always.  "flat" keeps rho = 1; "geometric" uses base**(k-1);
    "supergeometric" uses base**((k-1)**exponent), which grows fast enough to
    choke off high orders entirely.
    """

    base_lambda: float
    kind: str = "flat"
    base: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.base_lambda <= 0:
            raise ValueError("base_lambda must be positive")
        if self.kind not in ("flat", "geometric", "supergeometric"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.base < 1.0:
            raise ValueError("base must be >= 1 so thresholds never decrease with order")
        if self.exponent < 1.0:
            raise ValueError("exponent must be >= 1")

    @classmethod
    def flat(cls, lam: float) -> "PenaltySchedule":
        return cls(lam, "flat")

    @classmethod
    def geometric(cls, lam: float, base: float = 1.5) -> "PenaltySchedule":
        return cls(lam, "geometric", base=base)

    @classmethod
    def supergeometric(cls, lam: float, base: float = 1.5, exponent: float = 1.5) -> "PenaltySchedule":
        return cls(lam, "supergeometric", base=base, exponent=exponent)

    def rho(self, k: int) -> float:
        if k < 1:
            raise ValueError("order must be >= 1")
        if self.kind == "flat":
            return 1.0
        if self.kind == "geometric":
            return self.base ** (k - 1)
        return self.base ** float((k - 1) ** self.exponent)

    def threshold(self, k: int) -> float:
        """Penalty weight for an interaction of order k."""
        return self.base_lambda * self.rho(k)

    def with_base(self, lam: float) -> "PenaltySchedule":
        return replace(self, base_lambda=lam)

    @property
    def strictly_increasing(self) -> bool:
        return self.kind != "flat" and self.base > 1.0


@dataclass(frozen=True)
class ScreenConfig:
    """Knobs for the lattice walk.

    child_parent_prune drops a candidate when it is more than that similar
    to both of its generating parents (0 disables; it trades exactness for
    speed on data with heavily correlated columns, so it is off by default).
    nonneg_dual asserts alpha >= 0, which tightens the closure bound to
    c^T alpha.  group_mode treats the dual as (n, T) and screens row norms.
    """

    max_order: int = 20
    child_parent_prune: float = 0.0
    nonneg_dual: bool = False
    group_mode: bool = False

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")
        if not 0.0 <= self.child_parent_prune <= 1.0:
            raise ValueError("child_parent_prune must lie in [0, 1]")


@dataclass(frozen=True)
class Emitted:
    """One screened-in interaction with the threshold it cleared."""

    feature_set: FeatureSet
    column: Column
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


def _stat_bound(col: Column, w: DualWeights, cfg: ScreenConfig):
    """Inclusion statistic and superset bound for one column."""
    p, m = split_dots(col, w)
    if cfg.group_mode:
        p = np.atleast_1d(np.asarray(p, dtype=float))
        m = np.atleast_1d(np.asarray(m, dtype=float))
        diff = p - m
        stat = float(math.sqrt(float(diff @ diff)))
        hi = np.maximum(p, m)
        bound = float(math.sqrt(float(hi @ hi)))
        return stat, bound
    p = float(p)
    m = float(m)
    if cfg.nonneg_dual:
        t = p - m
        return t, t
    return abs(p - m), max(p, m)


def closure_bound(col: Column, w: DualWeights, cfg: ScreenConfig | None = None) -> float:
    """Upper bound on the statistic of every superset of the column's owner."""
    return _stat_bound(col, w, cfg or ScreenConfig())[1]


@dataclass
class _Cand:
    atoms: tuple[int, ...]  # in join order, not sorted
    ext: int  # the atom this candidate added to its class prefix
    column: Column
    bound: float


def _combine(A: AtomicMatrix, parent: _Cand, sibling: _Cand) -> Column:
    if A.is_binary:
        tid = np.intersect1d(parent.column.tidlist, sibling.column.tidlist, assume_unique=True)
        return Column(None, A.n_rows, tidlist=tid)
    vals = parent.column.values * A.atom_values(sibling.ext)
    return Column(None, A.n_rows, values=vals)


def _too_similar(child: Column, parent: _Cand, level: float) -> bool:
    if child.tidlist is not None:
        pn = parent.column.support_size
        cn = child.support_size
        sim = 1.0 if pn == 0 else cn / pn  # child support is nested in parent support
        return sim > level
    return cosine(child.values, parent.column.values) > level


class _Walk:
    """One depth-first pass over the prefix classes at penalty level ``lam``.

    Iterating yields ``(atoms, column, stat, threshold)`` for every node
    whose statistic exceeds lam * rho(k), with atoms in join order.  All
    atoms seed the walk; a node of order k >= 2 closes its subtree when its
    bound is at most lam * rho(k + 1).  The caller may raise ``lam`` between
    yields, and every later comparison uses the new level.  ``explored``
    counts the nodes built and ``pruned`` the subtrees closed.
    """

    def __init__(self, A: AtomicMatrix, weights: DualWeights, schedule: PenaltySchedule,
                 cfg: ScreenConfig, lam: float):
        if weights.n_rows != A.n_rows:
            raise ValueError("dual weights and matrix disagree on row count")
        self.A, self.weights, self.schedule, self.cfg = A, weights, schedule, cfg
        self.lam = lam
        self.explored = 0
        self.pruned = 0

    def __iter__(self):
        A, w, cfg, rho = self.A, self.weights, self.cfg, self.schedule.rho
        prune_level = cfg.child_parent_prune
        seeds: list[_Cand] = []
        rho_1 = rho(1)
        for j in range(A.n_cols):
            col = A.column(j)
            stat, bound = _stat_bound(col, w, cfg)
            self.explored += 1
            thr = self.lam * rho_1
            if stat > thr:
                yield (j,), col, stat, thr
            seeds.append(_Cand((j,), j, col, bound))
        seeds.sort(key=lambda c: (-c.bound, c.ext))

        stack = [seeds] if A.n_cols > 1 and cfg.max_order > 1 else []
        while stack:
            cls = stack.pop()
            order = len(cls[0].atoms) + 1
            rho_k = rho(order)
            rho_next = rho(order + 1) if order < cfg.max_order else None
            for k, parent in enumerate(cls):
                children: list[_Cand] = []
                for sib in cls[k + 1:]:
                    col = _combine(A, parent, sib)
                    self.explored += 1
                    if prune_level > 0.0 and _too_similar(col, parent, prune_level) \
                            and _too_similar(col, sib, prune_level):
                        continue
                    stat, bound = _stat_bound(col, w, cfg)
                    atoms = parent.atoms + (sib.ext,)
                    thr = self.lam * rho_k
                    if stat > thr:
                        yield atoms, col, stat, thr
                    if rho_next is None:
                        continue
                    if bound > self.lam * rho_next:
                        children.append(_Cand(atoms, sib.ext, col, bound))
                    else:
                        self.pruned += 1
                if len(children) > 1:
                    stack.append(children)


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
    for atoms, col, stat, thr in walk:
        col.owner = FeatureSet(tuple(sorted(atoms)))
        emitted.append(Emitted(col.owner, col, thr, stat))
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
    for atoms, _, stat, _ in walk:
        rho = schedule.rho(len(atoms))
        lam = stat / rho
        while stat > lam * rho:  # the quotient rounded down: step up to the screen's test
            lam = math.nextafter(lam, math.inf)
        walk.lam = lam
    return walk.lam


def verify_kkt(A: AtomicMatrix, weights: DualWeights, schedule: PenaltySchedule,
               cfg: ScreenConfig, active) -> list[Emitted]:
    """Re-screen at the given dual point and return emissions missing from
    ``active`` (an iterable of FeatureSet or of Emitted).  An empty return
    certifies that no interaction outside the active set carries weight.
    """
    have = set()
    for a in active:
        fs = a.feature_set if isinstance(a, Emitted) else a
        have.add(fs.atoms)
    res = screen(A, weights, schedule, cfg)
    return [e for e in res.emitted if e.feature_set.atoms not in have]


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
                 ScreenConfig(max_order=max_order, nonneg_dual=True))
    return [(e.feature_set, e.stat) for e in res.emitted]
