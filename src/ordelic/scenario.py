"""Synthetic data scenarios: finite feature sets with known conditionals.

A scenario fixes the joint distribution over (feature, label) and a recipe
for the predictor under audit.  Rows can be sampled (seeded), or the label
counts taken exactly as the scenario's mass, which keeps closed-form audit
values free of sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ordelic.audit import PredictorTable
from ordelic.errors import SpecError
from ordelic.simplex import LabelCounts, as_simplex_points, first_appearance

# Buckets of [0, 1) in the guide table of sample_dataset's feature draw.
GUIDE_BUCKETS = 1 << 16


@dataclass(frozen=True)
class ScenarioSpec:
    """Finite feature marginal plus per-feature conditional label laws."""

    feature_ids: tuple
    weights: np.ndarray
    conditionals: np.ndarray  # (features, outcomes)
    recipe: str = "bayes"  # "bayes" | "perturbed" | "fixed"
    eta: float = 0.0
    fixed_table: dict | None = None

    def __post_init__(self):
        ids = tuple(self.feature_ids)
        w = np.asarray(self.weights, dtype=np.float64)
        cond = as_simplex_points(self.conditionals)
        if len(ids) != len(w) or len(ids) != cond.shape[0]:
            raise SpecError("feature ids, weights, and conditionals must align")
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9):
            raise SpecError("feature weights must be nonnegative and sum to 1")
        if self.recipe not in ("bayes", "perturbed", "fixed"):
            raise SpecError(f"unknown predictor recipe {self.recipe!r}")
        if self.recipe == "perturbed" and self.eta < 0:
            raise SpecError("perturbation scale must be nonnegative")
        if self.recipe == "fixed" and self.fixed_table is None:
            raise SpecError("fixed recipe needs a predictor table")
        object.__setattr__(self, "feature_ids", ids)
        object.__setattr__(self, "weights", w / w.sum())
        object.__setattr__(self, "conditionals", cond)

    @property
    def n_outcomes(self) -> int:
        return self.conditionals.shape[1]


def materialize_predictor(scenario: ScenarioSpec, seed: int) -> PredictorTable:
    """Distributional predictor per the scenario recipe.

    bayes: the true conditional.  perturbed: conditional plus eta times a
    flat-Dirichlet draw, renormalized (eta = 0 reduces to bayes).  fixed:
    the supplied table.

    The flat-Dirichlet draws of all features come from one
    ``standard_exponential`` call, normalized as numpy's ``dirichlet`` does
    (a left-to-right row sum, then a product with its reciprocal), so the
    predictor equals that of one ``rng.dirichlet(np.ones(n))`` per feature
    bit for bit.
    """
    if scenario.recipe == "fixed":
        return PredictorTable.from_mapping("distribution", scenario.fixed_table)
    p = scenario.conditionals.copy()
    if scenario.recipe == "perturbed" and scenario.eta > 0:
        jitter = np.random.default_rng(seed).standard_exponential(p.shape)
        total = jitter[:, 0].copy()  # not np.sum, which adds 8 or more terms pairwise
        for k in range(1, p.shape[1]):
            total += jitter[:, k]
        jitter *= (1.0 / total)[:, None]
        p += scenario.eta * jitter
        p /= p.sum(axis=1, keepdims=True)
    return PredictorTable("distribution", scenario.feature_ids, p)


@dataclass(frozen=True)
class LabeledRows:
    """Sampled (x_id, label) rows: row i has x_id ``keys[codes[i]]`` and
    label ``y[i]`` in 1..n, with ``keys`` in order of first appearance."""

    codes: np.ndarray
    keys: tuple
    y: np.ndarray
    n: int


def sample_dataset(scenario: ScenarioSpec, rows: int, seed: int) -> LabeledRows:
    """Seeded i.i.d. draws of (feature, label) pairs.

    The features are those ``rng.choice(features, size=rows, p=weights)``
    draws (see :func:`_draw`); then one uniform per row picks the label.
    """
    if rows < 1:
        raise SpecError("need at least 1 row")
    rng = np.random.default_rng(seed)
    f_idx = _draw(rng, scenario.weights, rows)
    u = rng.random(rows)
    cum = np.cumsum(scenario.conditionals, axis=1)
    y = np.ones(rows, dtype=np.int64)
    for j in range(scenario.n_outcomes - 1):
        y += u > cum[f_idx, j]
    order, codes = first_appearance(f_idx, len(scenario.feature_ids))
    return LabeledRows(codes, tuple(scenario.feature_ids[i] for i in order), y,
                       scenario.n_outcomes)


def _draw(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(len(p), size=size, p=p)`` bit for bit, for weights p that
    are nonnegative and sum to 1.

    The choice is ``cdf.searchsorted(rng.random(size), side="right")`` with
    ``cdf`` the cumulative sum of p divided by its last entry.  A guide table
    (Chen and Asau, 1974) holds that search at both ends of each of B
    buckets of [0, 1), B a power of 2 up to one per draw and at most
    ``GUIDE_BUCKETS``; a uniform in a bucket whose ends agree takes their
    value, and only the others are searched.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(size)
    buckets = min(GUIDE_BUCKETS, 1 << (size - 1).bit_length())
    ends = cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right")
    bucket = (u * buckets).astype(np.intp)  # exact: a power of 2
    idx = ends[bucket]
    split = np.flatnonzero(idx != ends[bucket + 1])
    idx[split] = cdf.searchsorted(u[split], side="right")
    return idx


def exact_dataset(scenario: ScenarioSpec) -> LabelCounts:
    """Label counts reproducing the scenario with zero sampling noise: the
    mass weight * conditional of each feature of positive weight."""
    mass = scenario.weights[:, None] * as_simplex_points(scenario.conditionals)
    live = np.flatnonzero(np.any(mass > 0, axis=1))
    return LabelCounts(tuple(scenario.feature_ids[i] for i in live), mass[live])
