"""Atomic feature storage and on-demand interaction columns.

The base data is an n x d matrix with entries in [0, 1].  A feature of the
model is a non-empty set of atoms u, and its column is the elementwise
product of the atom columns.  Those product columns are never materialized
as a matrix: they are built one at a time, and for binary data a column is
represented by its tidlist (the sorted indices of rows where it equals 1),
so that products become sorted-array intersections.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "FeatureSet",
    "Column",
    "AtomicMatrix",
    "DualWeights",
    "load_transactions",
    "load_dense",
    "interaction_column",
    "split_dots",
    "jaccard",
    "cosine",
]


@dataclass(frozen=True)
class FeatureSet:
    """A non-empty set of atom indices, stored as a strictly increasing tuple."""

    atoms: tuple[int, ...]

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise ValueError("feature set must contain at least one atom")
        if any(a < 0 for a in self.atoms):
            raise ValueError("atom indices must be non-negative")
        if any(b <= a for a, b in zip(self.atoms, self.atoms[1:])):
            raise ValueError(f"atoms must be strictly increasing, got {self.atoms}")

    @classmethod
    def of(cls, *atoms: int) -> "FeatureSet":
        return cls(tuple(sorted(atoms)))

    @property
    def order(self) -> int:
        return len(self.atoms)

    def union(self, other: "FeatureSet") -> "FeatureSet":
        return FeatureSet(tuple(sorted(set(self.atoms) | set(other.atoms))))

    def add(self, atom: int) -> "FeatureSet":
        if atom in self.atoms:
            raise ValueError(f"atom {atom} already present in {self.atoms}")
        return FeatureSet(tuple(sorted(self.atoms + (atom,))))

    def issubset(self, other: "FeatureSet") -> bool:
        return set(self.atoms) <= set(other.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)


class Column:
    """One interaction column, in tidlist or dense form.

    Exactly one of ``tidlist`` / ``values`` is set.  ``dot`` works against a
    vector of length n_rows or a matrix with n_rows rows.
    """

    __slots__ = ("owner", "n_rows", "tidlist", "values", "_dense")

    def __init__(self, owner, n_rows, tidlist=None, values=None):
        if (tidlist is None) == (values is None):
            raise ValueError("exactly one of tidlist/values must be given")
        self.owner = owner
        self.n_rows = int(n_rows)
        self.tidlist = tidlist
        self.values = values
        self._dense = None
        if tidlist is not None:
            if len(tidlist) and (tidlist[0] < 0 or tidlist[-1] >= n_rows):
                raise ValueError("tidlist entries out of row range")
        else:
            if values.shape != (self.n_rows,):
                raise ValueError("values must have shape (n_rows,)")

    @property
    def is_binary(self) -> bool:
        return self.tidlist is not None

    @property
    def support_size(self) -> int:
        if self.tidlist is not None:
            return len(self.tidlist)
        return int(np.count_nonzero(self.values))

    def dense(self) -> np.ndarray:
        if self._dense is None:
            if self.tidlist is not None:
                v = np.zeros(self.n_rows)
                v[self.tidlist] = 1.0
                self._dense = v
            else:
                self._dense = self.values
        return self._dense

    def dot(self, w: np.ndarray):
        """c^T w; for an (n, T) argument returns the length-T vector of dots."""
        if w.shape[0] != self.n_rows:
            raise ValueError(
                f"weight has {w.shape[0]} rows, column has {self.n_rows}"
            )
        if self.tidlist is not None:
            if len(self.tidlist) == 0:
                return 0.0 if w.ndim == 1 else np.zeros(w.shape[1])
            s = w[self.tidlist].sum(axis=0)
            return float(s) if w.ndim == 1 else s
        out = self.values @ w
        return float(out) if w.ndim == 1 else out


class AtomicMatrix:
    """The atom columns of the data, with binary columns held as tidlists.

    ``kind`` is "binary" (every entry 0/1, tidlist storage) or "dense"
    (float columns in [0, 1]).  ``item_names`` optionally maps column index
    to the source token for transaction data.
    """

    def __init__(self, n_rows, tidlists=None, dense=None, item_names=None):
        if (tidlists is None) == (dense is None):
            raise ValueError("exactly one of tidlists/dense must be given")
        self.n_rows = int(n_rows)
        if self.n_rows <= 0:
            raise ValueError("matrix must have at least one row")
        if tidlists is not None:
            self._tidlists = [np.asarray(t, dtype=np.int64) for t in tidlists]
            for t in self._tidlists:
                if len(t) and (np.any(np.diff(t) <= 0) or t[0] < 0 or t[-1] >= n_rows):
                    raise ValueError("tidlists must be strictly increasing row indices")
            self._dense = None
            self.n_cols = len(self._tidlists)
        else:
            arr = np.asarray(dense, dtype=float)
            if arr.ndim != 2:
                raise ValueError("dense data must be 2-dimensional")
            if arr.shape[0] != self.n_rows:
                raise ValueError("row count mismatch")
            if np.any(arr < 0.0) or np.any(arr > 1.0):
                raise ValueError("dense entries must lie in [0, 1]")
            self._dense = arr
            self._tidlists = None
            self.n_cols = arr.shape[1]
        if item_names is not None and len(item_names) != self.n_cols:
            raise ValueError("item_names length must equal column count")
        self.item_names = list(item_names) if item_names is not None else None
        self._bits = None

    @classmethod
    def from_tidlists(cls, tidlists, n_rows, item_names=None):
        return cls(n_rows, tidlists=tidlists, item_names=item_names)

    @classmethod
    def from_dense(cls, dense, item_names=None):
        """Build from a dense array; exact 0/1 data is converted to tidlists."""
        arr = np.asarray(dense, dtype=float)
        if arr.ndim != 2:
            raise ValueError("dense data must be 2-dimensional")
        if np.all((arr == 0.0) | (arr == 1.0)):
            tidlists = [np.flatnonzero(arr[:, j]).astype(np.int64) for j in range(arr.shape[1])]
            return cls(arr.shape[0], tidlists=tidlists, item_names=item_names)
        return cls(arr.shape[0], dense=arr, item_names=item_names)

    @property
    def kind(self) -> str:
        return "binary" if self._tidlists is not None else "dense"

    @property
    def is_binary(self) -> bool:
        return self._tidlists is not None

    def tidlist(self, j: int) -> np.ndarray:
        if self._tidlists is None:
            raise ValueError("dense matrix has no tidlists")
        return self._tidlists[j]

    def atom_matrix(self) -> np.ndarray:
        """The n x d atom matrix: bool for binary data, float for dense.

        Binary data builds it from the tidlists on first use and keeps it;
        dense data returns its own array.  Do not write to it.
        """
        if self._dense is not None:
            return self._dense
        if self._bits is None:
            bits = np.zeros((self.n_rows, self.n_cols), dtype=bool)
            for j, t in enumerate(self._tidlists):
                bits[t, j] = True
            self._bits = bits
        return self._bits

    def column(self, j: int) -> Column:
        if not 0 <= j < self.n_cols:
            raise ValueError(f"column index {j} out of range [0, {self.n_cols})")
        owner = FeatureSet((j,))
        if self._tidlists is not None:
            return Column(owner, self.n_rows, tidlist=self._tidlists[j])
        return Column(owner, self.n_rows, values=self._dense[:, j])

    def select(self, columns) -> "AtomicMatrix":
        """New matrix keeping the given columns, in the given order."""
        names = [self.item_names[j] for j in columns] if self.item_names else None
        if self._tidlists is not None:
            return AtomicMatrix(self.n_rows, tidlists=[self._tidlists[j] for j in columns],
                                item_names=names)
        return AtomicMatrix(self.n_rows, dense=self._dense[:, list(columns)], item_names=names)


@dataclass(frozen=True)
class DualWeights:
    """Split of a dual vector into non-negative parts, pos - neg = alpha.

    For the matrix objective pos/neg are (n, T) with one pair per response
    column.  The parts never overlap: pos_i * neg_i = 0.
    """

    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        if self.pos.shape != self.neg.shape:
            raise ValueError("pos and neg must have the same shape")
        if np.any(self.pos < 0) or np.any(self.neg < 0):
            raise ValueError("pos and neg must be non-negative")
        if np.any((self.pos > 0) & (self.neg > 0)):
            raise ValueError("pos and neg must have disjoint supports")

    @classmethod
    def from_alpha(cls, alpha: np.ndarray) -> "DualWeights":
        alpha = np.asarray(alpha, dtype=float)
        return cls(np.maximum(alpha, 0.0), np.maximum(-alpha, 0.0))

    @property
    def alpha(self) -> np.ndarray:
        return self.pos - self.neg

    @property
    def n_rows(self) -> int:
        return self.pos.shape[0]


def load_transactions(path) -> AtomicMatrix:
    """Read whitespace-separated transactions, one row per line.

    Tokens are assigned column indices in first-seen order and the mapping is
    kept on the result as ``item_names``.  A blank line is an empty row.  A
    repeated token within one line is an error, as is a file with no lines.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty transaction file")
    index: dict[str, int] = {}
    rows: list[list[int]] = []
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        seen = set()
        row = []
        for tok in tokens:
            if tok in seen:
                raise ValueError(f"{path}:{lineno}: duplicate item {tok!r} in transaction")
            seen.add(tok)
            if tok not in index:
                index[tok] = len(index)
            row.append(index[tok])
        rows.append(row)
    n = len(rows)
    buckets: list[list[int]] = [[] for _ in range(len(index))]
    for i, row in enumerate(rows):
        for j in row:
            buckets[j].append(i)
    tidlists = [np.asarray(b, dtype=np.int64) for b in buckets]
    names = [None] * len(index)
    for tok, j in index.items():
        names[j] = tok
    return AtomicMatrix(n, tidlists=tidlists, item_names=names)


def load_dense(path, response_cols: int = 0, columns=None):
    """Read a CSV with a header row; the last ``response_cols`` columns are
    responses, and the others are features unless ``columns`` names the
    feature headers to read, in its order (other columns are then not
    read).  Feature entries must lie in [0, 1]; exact 0/1 feature data is
    stored as tidlists.  Returns ``(AtomicMatrix, responses)`` with responses
    of shape (n, response_cols).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        raw = list(reader)
    if not raw:
        raise ValueError(f"{path}: no data rows")
    width = len(header)
    if response_cols < 0 or response_cols >= width:
        raise ValueError(f"response_cols={response_cols} out of range for {width} columns")
    if columns is None:
        feats = list(range(width - response_cols))
    else:
        index = {name: j for j, name in enumerate(header)}
        missing = [c for c in columns if c not in index]
        if missing:
            raise ValueError(f"{path}: no column {missing[0]!r}")
        feats = [index[c] for c in columns]
    take = feats + list(range(width - response_cols, width))
    n_feat = len(feats)
    data = np.empty((len(raw), len(take)))
    for i, row in enumerate(raw):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 2} has {len(row)} fields, expected {width}")
        for k, j in enumerate(take):
            cell = row[j]
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {i + 2}, column {header[j]!r}: not a number: {cell!r}"
                ) from None
            if k < n_feat and not 0.0 <= v <= 1.0:
                raise ValueError(
                    f"{path}: row {i + 2}, column {header[j]!r}: value {v} outside [0, 1]"
                )
            data[i, k] = v
    A = AtomicMatrix.from_dense(data[:, :n_feat], item_names=[header[j] for j in feats])
    return A, data[:, n_feat:]


def interaction_column(A: AtomicMatrix, u) -> Column:
    """The product column for atom set u, built by folding atom columns."""
    fs = u if isinstance(u, FeatureSet) else FeatureSet(tuple(sorted(u)))
    for a in fs.atoms:
        if a >= A.n_cols:
            raise ValueError(f"atom {a} out of range for {A.n_cols} columns")
    if A.is_binary:
        # intersect shortest-first to keep intermediate lists small
        tids = sorted((A.tidlist(a) for a in fs.atoms), key=len)
        acc = tids[0]
        for t in tids[1:]:
            acc = np.intersect1d(acc, t, assume_unique=True)
        return Column(fs, A.n_rows, tidlist=acc)
    X = A.atom_matrix()
    acc = X[:, fs.atoms[0]].copy()
    for a in fs.atoms[1:]:
        acc *= X[:, a]
    return Column(fs, A.n_rows, values=acc)


def split_dots(col: Column, w: DualWeights):
    """Return (c^T pos, c^T neg); both are length-T vectors for matrix weights."""
    return col.dot(w.pos), col.dot(w.neg)


def jaccard(a: Column, b: Column) -> float:
    """Intersection over union of two binary columns; 1.0 when both empty."""
    if a.tidlist is None or b.tidlist is None:
        raise ValueError("jaccard is defined for binary columns only")
    na, nb = len(a.tidlist), len(b.tidlist)
    if na == 0 and nb == 0:
        return 1.0
    inter = len(np.intersect1d(a.tidlist, b.tidlist, assume_unique=True))
    return inter / (na + nb - inter)


def cosine(a: np.ndarray, b: np.ndarray):
    """Cosine similarity of two dense vectors, or of each row of ``a`` with
    ``b`` (one vector, or an array of the same shape); 1.0 where both are
    zero and 0.0 where only one is.  Every sum runs along the last axis, so
    a row scores the same alone and in a batch.
    """
    dot = (a * b).sum(axis=-1)
    na, nb = np.broadcast_arrays(np.sqrt((a * a).sum(axis=-1)), np.sqrt((b * b).sum(axis=-1)))
    out = np.where((na == 0.0) & (nb == 0.0), 1.0, 0.0)
    np.divide(dot, na * nb, out=out, where=(na != 0.0) & (nb != 0.0))
    return float(out) if out.ndim == 0 else out
