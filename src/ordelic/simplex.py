"""Probability-vector arithmetic, sampling, and label-count tables.

Points on the simplex are plain float64 numpy arrays; :func:`as_simplex_points`
is the single validation/renormalization gate.  An audit's data is a table of
weighted label counts per feature, so that sampled rows and exact synthetic
scenarios (irrational conditionals included, without sampling noise) are
represented alike.
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


def norm_name(kind: NormKind) -> str:
    """"l1", "l2" or "linf" for any norm spec :func:`norm_order` accepts."""
    return {1.0: "l1", 2.0: "l2", np.inf: "linf"}[norm_order(kind)]


def as_simplex_point(x) -> np.ndarray:
    """Validate and renormalize one probability vector (see
    :func:`as_simplex_points`)."""
    return as_simplex_points([x])[0]


def as_simplex_points(x) -> np.ndarray:
    """Validate and renormalize the rows of an (m, n) array, n >= 2, as
    probability vectors.

    Entries within ``SIMPLEX_TOL`` of [0, 1] and a row total within it of 1
    are accepted and renormalized exactly; anything further out, and any
    NaN, is rejected, since the downstream ratio formulas are sensitive to
    constraint violation.  The error names the first row at fault and its
    values.
    """
    P = np.asarray(x, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] < 2:
        raise SimplexError(f"expected rows of >= 2 entries, got shape {P.shape}")
    totals = _row_sums(P)
    # NaN fails every comparison, and an infinity the range check
    if not (P.min(initial=0.0) >= -SIMPLEX_TOL and P.max(initial=1.0) <= 1.0 + SIMPLEX_TOL
            and np.abs(totals - 1.0).max(initial=0.0) <= SIMPLEX_TOL):
        inside = ((P >= -SIMPLEX_TOL) & (P <= 1.0 + SIMPLEX_TOL)).all(axis=1)
        i = int(np.argmin(inside & (np.abs(totals - 1.0) <= SIMPLEX_TOL)))
        p = P[i]  # the first row at fault
        if not np.isfinite(p).all():
            raise SimplexError(f"entries are not all finite: {p}", row=i)
        if not inside[i]:
            raise SimplexError(f"entries outside [0, 1] beyond tolerance: {p}", row=i)
        raise SimplexError(f"entries {p} sum to {totals[i]}, not 1 within {SIMPLEX_TOL}",
                           row=i)
    P = np.clip(P, 0.0, None)
    return P / _row_sums(P)[:, None]


def _row_sums(P: np.ndarray) -> np.ndarray:
    """``P.sum(axis=1)`` of an (m, n) float64 array, bit for bit.  numpy adds
    fewer than 8 entries one by one from 0.0, so for n < 8 a loop over the
    columns gives the same sums several times faster; from 8 on it sums in
    pairs."""
    if P.shape[1] >= 8:
        return P.sum(axis=1)
    total = np.zeros(len(P))
    for column in P.T:
        total += column
    return total


def triangle_grid(resolution: int) -> np.ndarray:
    """The points (i, j, r - i - j) / r of the 3-outcome simplex, r =
    ``resolution``, with i outer and j inner.  Each coordinate is one IEEE
    division of integers; rows are then renormalized by
    :func:`as_simplex_points`."""
    r = int(resolution)
    if r < 1:
        raise SpecError(f"grid resolution must be at least 1, got {r}")
    counts = np.arange(r + 1, 0, -1)  # r + 1 - i values of j for each i
    i = np.repeat(np.arange(r + 1), counts)
    j = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    return as_simplex_points(np.column_stack([i, j, r - i - j]) / r)


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


@dataclass(frozen=True)
class LabelCounts:
    """Weighted label counts per feature: all an audit reads of its data.

    ``counts[i, y - 1]`` is the total weight of the (x_id, label) rows with
    x_id ``keys[i]`` and label y.  ``keys`` lists each x_id once, in order of
    first appearance in the data, which fixes the order in which audits sum
    over features.
    """

    keys: tuple
    counts: np.ndarray  # (features, outcomes) float64

    def __post_init__(self):
        keys = tuple(self.keys)
        counts = np.asarray(self.counts, dtype=np.float64)
        if counts.ndim != 2 or len(counts) != len(keys):
            raise SpecError(f"label counts of shape {counts.shape} need one row per "
                            f"key ({len(keys)})")
        if not (np.all(np.isfinite(counts)) and np.all(counts >= 0) and counts.sum() > 0):
            raise SpecError("label counts must be finite and nonnegative with positive total")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return self.counts.shape[1]
