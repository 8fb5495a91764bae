"""Atomic feature storage and on-demand interaction columns.

The base data is an n x d atom matrix X with entries in [0, 1], held as one
array: bool for binary data, float for dense data.  A feature of the model
is a non-empty set of atoms u, and its column is the elementwise product of
the atom columns.  The 2^d - 1 product columns are never materialized:
``AtomicMatrix.extend`` builds one when needed by multiplying a column by
one atom.  A column is a plain array: for binary data its tidlist (the
sorted int rows where it is 1), so a product keeps the rows where the atom
is set; for dense data its float values.  The atoms are also held
column-major, one row per atom (a contiguous bool copy for binary data, a
view for dense data), so a product reads its atom from one row.
``interaction_column`` gives a set's column as n floats, and
``interaction_matrix`` stacks a model's columns into the n x m float matrix
that fitting, prediction and the rank readout use.  No other module but the
lattice walk knows how a column is stored.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "FeatureSet",
    "AtomicMatrix",
    "load_transactions",
    "load_dense",
    "interaction_column",
    "interaction_matrix",
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


class AtomicMatrix:
    """The n x d atom matrix X: bool for binary data, float in [0, 1] for
    dense data.  The array's dtype decides which: a float array of 0/1
    values stays dense (``from_dense`` is the constructor that detects 0/1).

    The atoms are held column-major: a d x n bool copy for binary data
    (1 byte an entry), the view X.T for dense data.  ``column(j)`` reads
    atom j from its row: a binary atom is the tidlist of its rows, a dense
    atom its column of X.  ``extend`` is the one product of a column with
    an atom.  ``item_names`` optionally maps column index to
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
        self._Xt = np.ascontiguousarray(X.T) if self.is_binary else X.T

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

    def column(self, j: int) -> np.ndarray:
        """Atom j's column: its tidlist for binary data, its values for
        dense data.  Do not write to it."""
        if not 0 <= j < self.n_cols:
            raise ValueError(f"column index {j} out of range [0, {self.n_cols})")
        return np.flatnonzero(self._Xt[j]) if self.is_binary else self._Xt[j]

    def extend(self, col: np.ndarray, j: int) -> np.ndarray:
        """The product of ``col`` with atom j: its tidlist rows where atom j
        is set for binary data, its values times atom j for dense data."""
        if self.is_binary:
            return col[self._Xt[j][col]]
        return col * self._Xt[j]

    def select(self, columns) -> "AtomicMatrix":
        """New matrix keeping the given columns, in the given order."""
        names = [self.item_names[j] for j in columns] if self.item_names else None
        return AtomicMatrix(self._X[:, list(columns)], item_names=names)


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
    finite; exact 0/1 feature data is stored as bool.  A feature name must
    pick out one column, so a name repeated among the features read (or in
    the header, for a name in ``columns``) is an error.  Returns
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
    names = [header[j] for j in feats]
    in_header = Counter(header if columns is not None else names)
    repeated = [c for c, k in Counter(names).items() if k > 1 or in_header[c] > 1]
    if repeated:
        raise ValueError(f"{path}: feature column {repeated[0]!r} is named more than once")
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


def interaction_column(A: AtomicMatrix, u) -> np.ndarray:
    """The product column for atom set u as n floats: ``A.extend`` folded
    over its sorted atoms."""
    fs = u if isinstance(u, FeatureSet) else FeatureSet(tuple(sorted(u)))
    if fs.atoms[-1] >= A.n_cols:
        raise ValueError(f"atom {fs.atoms[-1]} out of range for {A.n_cols} columns")
    col = A.column(fs.atoms[0])
    for a in fs.atoms[1:]:
        col = A.extend(col, a)
    if not A.is_binary:
        return col
    dense = np.zeros(A.n_rows)
    dense[col] = 1.0
    return dense


def interaction_matrix(A: AtomicMatrix, sets) -> np.ndarray:
    """The n x m float matrix whose column k is the product column of
    ``sets[k]``, as ``interaction_column`` builds it; n x 0 for no sets."""
    F = np.zeros((A.n_rows, len(sets)))
    for k, u in enumerate(sets):
        F[:, k] = interaction_column(A, u)
    return F


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
