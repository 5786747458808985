"""Probability-vector arithmetic, sampling, and labeled datasets.

Points on the simplex are plain float64 numpy arrays; :func:`as_simplex_point`
is the single validation/renormalization gate.  Datasets are column arrays of
(x_id, label) pairs with optional nonnegative row weights, so that exact
synthetic scenarios (irrational conditionals included) can be represented
without sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ordelic.errors import SimplexError, SpecError

SIMPLEX_TOL = 1e-12

NormKind = int | float | str  # 1, 2, inf / "l1", "l2", "linf"


def norm_order(kind: NormKind) -> float:
    """Map a norm spec (1, 2, inf, 'l1', 'l2', 'linf') to a numpy ord."""
    if isinstance(kind, str):
        table = {"l1": 1.0, "l2": 2.0, "linf": np.inf, "1": 1.0, "2": 2.0, "inf": np.inf}
        try:
            return table[kind.strip().lower()]
        except KeyError:
            raise SpecError(f"unknown norm kind {kind!r}") from None
    value = float(kind)
    if value not in (1.0, 2.0, np.inf):
        raise SpecError(f"norm order must be 1, 2 or inf, got {kind!r}")
    return value


def as_simplex_point(x, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Validate and renormalize a probability vector.

    Entries within ``tol`` of [0, 1] and a total within ``tol`` of 1 are
    accepted and renormalized exactly; anything further out, and any NaN,
    is rejected, since the downstream ratio formulas are sensitive to
    constraint violation.
    """
    p = np.asarray(x, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise SimplexError(f"expected a 1-d vector with >= 2 entries, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise SimplexError(f"entries are not all finite: {p}")
    if np.any(p < -tol) or np.any(p > 1.0 + tol):
        raise SimplexError(f"entries outside [0, 1] beyond tolerance: {p}")
    total = p.sum()
    if abs(total - 1.0) > tol:
        raise SimplexError(f"entries sum to {total}, not 1 within {tol}")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def as_simplex_points(x, tol: float = SIMPLEX_TOL) -> np.ndarray:
    """Batch variant of :func:`as_simplex_point` for an (m, n) array."""
    P = np.asarray(x, dtype=np.float64)
    if P.ndim != 2:
        raise SimplexError(f"expected a 2-d array, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise SimplexError("entries are not all finite")
    if np.any(P < -tol) or np.any(P > 1.0 + tol):
        raise SimplexError("entries outside [0, 1] beyond tolerance")
    totals = P.sum(axis=1)
    if np.any(np.abs(totals - 1.0) > tol):
        raise SimplexError("row sums differ from 1 beyond tolerance")
    P = np.clip(P, 0.0, None)
    return P / P.sum(axis=1, keepdims=True)


def ternary_plot_coords(p) -> np.ndarray:
    """Embed an n=3 simplex point into the standard ternary plot plane.

    Vertices map to (0,0) for outcome 1, (1,0) for outcome 3 and
    (1/2, sqrt(3)/2) for outcome 2, i.e. p -> (p3 + p2/2, p2*sqrt(3)/2).
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != 3:
        raise SimplexError("ternary plot coordinates require 3 outcomes")
    x = p[..., 2] + 0.5 * p[..., 1]
    y = p[..., 1] * (np.sqrt(3.0) / 2.0)
    return np.stack([x, y], axis=-1)


def sample_simplex(n: int, count: int, seed: int) -> np.ndarray:
    """Uniform points on the (n-1)-simplex via exponential spacings.

    Deterministic for a fixed seed; returns an (count, n) array.
    """
    if n < 2:
        raise SpecError("need at least 2 outcomes")
    if count < 1:
        raise SpecError("need at least 1 sample")
    rng = np.random.default_rng(seed)
    e = rng.standard_exponential(size=(count, n))
    return e / e.sum(axis=1, keepdims=True)


def first_appearance(codes, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Renumber codes in 0..size-1 by first appearance: (old code of each new
    code, new code of each entry).  Codes that never appear get none."""
    first = np.full(size, len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    order = np.argsort(first, kind="stable")[:np.count_nonzero(first < len(codes))]
    remap = np.empty(size, dtype=np.int64)
    remap[order] = np.arange(len(order))
    return order, remap[codes]


@dataclass(frozen=True, init=False)
class LabeledDataset:
    """(x_id, label) rows held as columns, with 1-based labels and optional
    row weights.

    Row i has x_id ``keys[codes[i]]``.  ``keys`` lists each distinct x_id
    once, in order of first appearance, which fixes the order in which
    audits sum over features.  ``LabeledDataset(x_ids, y, n, weights)``
    factorizes the ids; producers that already hold codes use
    :meth:`from_codes`.
    """

    codes: np.ndarray  # int64 per row, indexes keys
    keys: tuple
    y: np.ndarray      # int64 per row, values in 1..n
    n: int
    weights: np.ndarray | None = None

    def __init__(self, x_ids, y, n: int, weights=None):
        index: dict = {}
        codes = [index.setdefault(x, len(index)) for x in x_ids]
        self._init(np.asarray(codes, dtype=np.int64), tuple(index), y, n, weights)

    @classmethod
    def from_codes(cls, codes, keys, y, n: int, weights=None) -> "LabeledDataset":
        """Dataset from feature codes; ``keys`` must be in first-appearance
        order of ``codes`` and every key must occur."""
        data = cls.__new__(cls)
        data._init(np.asarray(codes, dtype=np.int64), tuple(keys), y, n, weights)
        return data

    def _init(self, codes: np.ndarray, keys: tuple, y, n: int, weights) -> None:
        y = np.asarray(y, dtype=np.int64)
        if len(y) == 0:
            raise SpecError("dataset must be nonempty")
        if len(codes) != len(y):
            raise SpecError("x_ids and y lengths differ")
        if codes.min() < 0 or codes.max() >= len(keys):
            raise SpecError("feature codes must index the keys")
        if y.min() < 1 or y.max() > n:
            raise SpecError(f"labels must lie in 1..{n}")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if len(weights) != len(y) or np.any(weights < 0) or weights.sum() <= 0:
                raise SpecError("weights must be nonnegative with positive total")
        for name, value in (("codes", codes), ("keys", keys), ("y", y),
                            ("n", n), ("weights", weights)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.y)

    @property
    def x_ids(self) -> np.ndarray:
        """Object array of the x_id of every row."""
        return np.fromiter(self.keys, dtype=object, count=len(self.keys))[self.codes]

    @classmethod
    def from_exact_scenario(cls, feature_ids, feature_weights, conditionals) -> "LabeledDataset":
        """Weighted dataset reproducing a finite scenario with zero sampling noise.

        One row per (feature, label) pair of positive mass, weighted by
        feature_weight * conditional probability; feature ids are distinct.
        """
        cond = as_simplex_points(conditionals)
        mass = np.asarray(feature_weights, dtype=np.float64)[:, None] * cond
        f, label = np.nonzero(mass > 0)
        order, codes = first_appearance(f, len(mass))
        return cls.from_codes(codes, [feature_ids[i] for i in order], label + 1,
                              cond.shape[1], weights=mass[f, label])
