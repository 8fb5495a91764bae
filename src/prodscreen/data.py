"""Atomic feature storage and on-demand interaction columns.

The base data is an n x d atom matrix X with entries in [0, 1], held as one
array: bool for binary data, float for dense data.  A feature of the model
is a non-empty set of atoms u, and its column is the elementwise product of
the atom columns.  Those product columns are never materialized as a
matrix: they are built one at a time by ``AtomicMatrix.extend``, which
multiplies a column by one atom.  A binary column is its tidlist (the
sorted indices of rows where it equals 1), so a product keeps the rows
where the atom is set; a dense column is its values.  No other module
knows how binary atoms are stored.
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

    def __iter__(self):
        return iter(self.atoms)

    def __len__(self):
        return len(self.atoms)


class Column:
    """One interaction column, in tidlist or dense form.

    Exactly one of ``tidlist`` / ``values`` is set.  ``dot`` works against a
    vector of length n_rows or a matrix with n_rows rows.
    """

    __slots__ = ("n_rows", "tidlist", "values")

    def __init__(self, n_rows, tidlist=None, values=None):
        if (tidlist is None) == (values is None):
            raise ValueError("exactly one of tidlist/values must be given")
        self.n_rows = int(n_rows)
        self.tidlist = tidlist
        self.values = values
        if tidlist is not None:
            if len(tidlist) and (tidlist[0] < 0 or tidlist[-1] >= n_rows):
                raise ValueError("tidlist entries out of row range")
        else:
            if values.shape != (self.n_rows,):
                raise ValueError("values must have shape (n_rows,)")

    @property
    def support_size(self) -> int:
        if self.tidlist is not None:
            return len(self.tidlist)
        return int(np.count_nonzero(self.values))

    def dense(self) -> np.ndarray:
        if self.tidlist is None:
            return self.values
        v = np.zeros(self.n_rows)
        v[self.tidlist] = 1.0
        return v

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
    """The n x d atom matrix X: bool for binary data, float in [0, 1] for
    dense data.  The array's dtype decides which: a float array of 0/1
    values stays dense (``from_dense`` is the constructor that detects 0/1).

    The d atom columns are built once: a binary atom is the tidlist of its
    rows, a dense atom its column of X.  ``extend`` is the one product of a
    column with an atom.  ``item_names`` optionally maps column index to
    the source token for transaction data.
    """

    def __init__(self, X, item_names=None):
        X = np.asarray(X)
        if X.dtype != bool:
            X = np.asarray(X, dtype=float)
            if not np.all((X >= 0.0) & (X <= 1.0)):
                raise ValueError("dense entries must lie in [0, 1]")
        if X.ndim != 2:
            raise ValueError("atom data must be 2-dimensional")
        if X.shape[0] == 0:
            raise ValueError("matrix must have at least one row")
        self.n_rows, self.n_cols = X.shape
        if item_names is not None and len(item_names) != self.n_cols:
            raise ValueError("item_names length must equal column count")
        self.item_names = list(item_names) if item_names is not None else None
        self._X = X
        if self.is_binary:
            self._columns = [Column(self.n_rows, tidlist=np.flatnonzero(X[:, j]))
                             for j in range(self.n_cols)]
        else:
            self._columns = [Column(self.n_rows, values=X[:, j]) for j in range(self.n_cols)]

    @classmethod
    def from_tidlists(cls, tidlists, n_rows, item_names=None):
        X = np.zeros((n_rows, len(tidlists)), dtype=bool)
        for j, t in enumerate(tidlists):
            t = np.asarray(t, dtype=np.int64)
            if len(t) and (np.any(np.diff(t) <= 0) or t[0] < 0 or t[-1] >= n_rows):
                raise ValueError("tidlists must be strictly increasing row indices")
            X[t, j] = True
        return cls(X, item_names)

    @classmethod
    def from_dense(cls, dense, item_names=None):
        """Build from a dense array; exact 0/1 data is stored as bool."""
        arr = np.asarray(dense, dtype=float)
        if np.all((arr == 0.0) | (arr == 1.0)):
            arr = arr == 1.0
        return cls(arr, item_names)

    @property
    def is_binary(self) -> bool:
        return self._X.dtype == bool

    def atom_matrix(self) -> np.ndarray:
        """The n x d atom matrix X.  Do not write to it."""
        return self._X

    def column(self, j: int) -> Column:
        if not 0 <= j < self.n_cols:
            raise ValueError(f"column index {j} out of range [0, {self.n_cols})")
        return self._columns[j]

    def extend(self, col: Column, j: int) -> Column:
        """The product of ``col`` with atom j: its support rows where atom j
        is set for binary data, its values times atom j for dense data."""
        if col.tidlist is not None:
            rows = col.tidlist
            return Column(self.n_rows, tidlist=rows[self._X[rows, j]])
        return Column(self.n_rows, values=col.values * self._X[:, j])

    def select(self, columns) -> "AtomicMatrix":
        """New matrix keeping the given columns, in the given order."""
        names = [self.item_names[j] for j in columns] if self.item_names else None
        return AtomicMatrix(self._X[:, list(columns)], item_names=names)


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
        if not (np.all(np.isfinite(self.pos)) and np.all(np.isfinite(self.neg))):
            raise ValueError("pos and neg must be finite")
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
    X = np.zeros((len(rows), len(index)), dtype=bool)
    for i, row in enumerate(rows):
        X[i, row] = True
    return AtomicMatrix(X, item_names=list(index))


def load_dense(path, response_cols: int = 0, columns=None):
    """Read a CSV with a header row; the last ``response_cols`` columns are
    responses, and the others are features unless ``columns`` names the
    feature headers to read, in its order (other columns are then not
    read).  Feature entries must lie in [0, 1] and responses must be
    finite; exact 0/1 feature data is stored as bool.  Returns
    ``(AtomicMatrix, responses)`` with responses of shape (n, response_cols).
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
    for i, row in enumerate(raw):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 2} has {len(row)} fields, expected {width}")
    cells = raw if take == list(range(width)) else [[row[j] for j in take] for row in raw]
    try:
        data = np.array(cells, dtype=float)
        unparsed = np.zeros(data.shape, dtype=bool)
    except ValueError:
        data, unparsed = _parse_cells(cells)
    # the first unparsed cell or out-of-range feature in row-major order,
    # then the first non-finite response (NaN features fail the range test)
    bad = unparsed.copy()
    bad[:, :n_feat] |= ~((data[:, :n_feat] >= 0.0) & (data[:, :n_feat] <= 1.0))
    if bad.any():
        i, k = np.argwhere(bad)[0]
        where = f"{path}: row {i + 2}, column {header[take[k]]!r}"
        if unparsed[i, k]:
            raise ValueError(f"{where}: not a number: {cells[i][k]!r}")
        raise ValueError(f"{where}: value {float(data[i, k])} outside [0, 1]")
    bad = np.argwhere(~np.isfinite(data[:, n_feat:]))
    if len(bad):
        i, k = bad[0] + (0, n_feat)
        raise ValueError(
            f"{path}: row {i + 2}, column {header[take[k]]!r}: value {data[i, k]} is not finite"
        )
    A = AtomicMatrix.from_dense(data[:, :n_feat], item_names=[header[j] for j in feats])
    return A, data[:, n_feat:]


def _parse_cells(cells):
    """Cell-by-cell ``float`` of a table that does not parse as a whole:
    the values, NaN where a cell is not a number, and that mask."""
    data = np.full((len(cells), len(cells[0])), np.nan)
    unparsed = np.zeros(data.shape, dtype=bool)
    for i, row in enumerate(cells):
        for k, cell in enumerate(row):
            try:
                data[i, k] = float(cell)
            except ValueError:
                unparsed[i, k] = True
    return data, unparsed


def interaction_column(A: AtomicMatrix, u) -> Column:
    """The product column for atom set u: ``A.extend`` folded over its atoms."""
    fs = u if isinstance(u, FeatureSet) else FeatureSet(tuple(sorted(u)))
    if fs.atoms[-1] >= A.n_cols:
        raise ValueError(f"atom {fs.atoms[-1]} out of range for {A.n_cols} columns")
    col = A.column(fs.atoms[0])
    for a in fs.atoms[1:]:
        col = A.extend(col, a)
    return col


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
