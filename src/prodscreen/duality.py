"""The fitted primal model and its JSON form.

Each objective's conjugate pair, its dual value and the primal map that is
that value's gradient, lives with its reduced dual in ``objectives``; a solve
ends by mapping its dual point to the coefficients kept here.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import FeatureSet

__all__ = ["PrimalModel"]


@dataclass(frozen=True)
class PrimalModel:
    """A fitted sparse model: interaction sets with nonzero coefficients.

    ``coefficients`` is (m,) for scalar objectives and (m, T) for the matrix
    objective; ``intercept`` is length T (empty when the objective has no
    intercept).  Rows that are exactly zero are never stored.
    """

    kind: str
    active: tuple[FeatureSet, ...]
    coefficients: np.ndarray
    intercept: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if self.kind not in ("basket", "logistic", "matrix"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if len(self.active) != self.coefficients.shape[0]:
            raise ValueError("active sets and coefficient rows disagree")

    @classmethod
    def from_coefficients(cls, kind, active, coefficients, intercept=None) -> "PrimalModel":
        """Build a model, dropping rows whose coefficients are exactly zero."""
        coefficients = np.asarray(coefficients, dtype=float)
        active = tuple(active)
        if coefficients.ndim == 1:
            keep = np.flatnonzero(coefficients != 0.0)
        else:
            keep = np.flatnonzero(np.any(coefficients != 0.0, axis=1))
        inter = np.zeros(0) if intercept is None else np.asarray(intercept, dtype=float)
        return cls(kind, tuple(active[i] for i in keep), coefficients[keep], inter)

    @property
    def n_active(self) -> int:
        return len(self.active)

    def to_json_dict(self) -> dict:
        entries = []
        for fs, coef in zip(self.active, self.coefficients):
            e = {"atoms": list(fs.atoms)}
            if self.coefficients.ndim == 1:
                e["coef"] = float(coef)
            else:
                e["coef_row"] = [float(v) for v in coef]
            entries.append(e)
        return {
            "kind": self.kind,
            "intercept": [float(v) for v in self.intercept],
            "entries": entries,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PrimalModel":
        """The model ``to_json_dict`` wrote; a malformed document raises
        ValueError naming the field at fault.  Atoms are lists of integers.
        A basket or logistic entry has a finite ``coef`` and the model no
        intercept; a matrix entry has a ``coef_row`` of finite numbers as
        wide as the model's non-empty intercept.  ``entries`` may be empty.
        """
        if not isinstance(d, dict):
            raise ValueError("model: expected a JSON object")
        for key in ("kind", "entries"):
            if key not in d:
                raise ValueError(f"model: no {key!r} field")
        kind, entries = d["kind"], d["entries"]
        if kind not in ("basket", "logistic", "matrix"):
            raise ValueError(f"model: unknown 'kind' {kind!r}")
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and "atoms" in e for e in entries):
            raise ValueError("model: 'entries' must be a list of objects with 'atoms'")
        key = "coef_row" if kind == "matrix" else "coef"
        wrong = {k for e in entries for k in ("coef", "coef_row") if k in e} - {key}
        if wrong:
            raise ValueError(f"model: {kind} entries take {key!r}, not {wrong.pop()!r}")
        intercept = d.get("intercept", [])
        _check_finite(intercept, "intercept")
        if (kind == "matrix") != bool(intercept):
            size = "a non-empty" if kind == "matrix" else "no"
            raise ValueError(f"model: a {kind} model takes {size} 'intercept'")
        for e in entries:
            if not isinstance(e["atoms"], list) or not all(type(a) is int for a in e["atoms"]):
                raise ValueError("model: 'atoms' must be a list of integers")
            if key not in e:
                raise ValueError(f"model: an entry has no {key!r}")
            _check_finite(e[key] if kind == "matrix" else [e[key]], key)
            if kind == "matrix" and len(e[key]) != len(intercept):
                raise ValueError(f"model: a 'coef_row' has {len(e[key])} entries, "
                                 f"the intercept {len(intercept)}")
        active = tuple(FeatureSet(tuple(e["atoms"])) for e in entries)
        coef = np.array([e[key] for e in entries], dtype=float)
        return cls(kind, active, coef, np.asarray(intercept, dtype=float))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=1) + "\n")

    @classmethod
    def load(cls, path) -> "PrimalModel":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _check_finite(values, field: str) -> None:
    """Raise ValueError naming ``field`` unless ``values`` is a JSON list of
    numbers (not bools) that floats hold finitely."""
    if not isinstance(values, list) or not all(
            type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values):
        raise ValueError(f"model: {field!r} must hold finite numbers only")
