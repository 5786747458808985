"""Synthetic data scenarios: finite feature sets with known conditionals.

A scenario fixes the joint distribution over (feature, label) and a recipe
for the predictor under audit.  Rows can be sampled (seeded), or the label
counts taken exactly as the scenario's mass, which keeps closed-form audit
values free of sampling noise.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ordelic.audit import PredictorTable
from ordelic.errors import SpecError
from ordelic.simplex import LabelCounts, as_simplex_points

# Buckets of [0, 1) in the guide table of sample_dataset's feature draw.
GUIDE_BUCKETS = 1 << 16
# Rows per block of sample_dataset: the size of its arrays, whatever the
# number of rows.
ROW_BLOCK = 1 << 16


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
            raise SpecError(f"perturbation scale eta must be nonnegative, got {self.eta}")
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


def sample_dataset(scenario: ScenarioSpec, rows: int,
                   seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Seeded i.i.d. draws of (feature, label) pairs, in blocks of at most
    ``ROW_BLOCK`` rows: each block is (f, y), with f indices into
    ``scenario.feature_ids`` and y labels in 1..n.

    With ``rng = default_rng(seed)``, the features are those of
    ``rng.choice(features, size=rows, p=weights)`` (see :func:`_draw`), and
    then one ``rng.random(rows)`` uniform per row picks the label.  The label
    uniforms come from a second generator moved past the feature draws,
    since PCG64's ``random()`` takes one 64-bit output per float, so the
    blocks hold the same rows as one whole-array draw.
    """
    if rows < 1:
        raise SpecError("need at least 1 row")
    labels = np.random.default_rng(seed)
    labels.bit_generator.advance(rows)
    cum = np.cumsum(scenario.conditionals, axis=1).T[:-1].copy()  # (n - 1, features)
    return _labeled(_draw(np.random.default_rng(seed), scenario.weights, rows),
                    labels, cum)


def _labeled(features, rng: np.random.Generator, cum: np.ndarray):
    """(f, y) blocks: label y is 1 plus the count of cumulative conditionals
    of feature f below a uniform from rng."""
    for f in features:
        u = rng.random(len(f))
        y = np.ones(len(f), dtype=np.int64)
        for c in cum:
            y += u > c.take(f)
        yield f, y


def _draw(rng: np.random.Generator, p: np.ndarray, size: int) -> Iterator[np.ndarray]:
    """``rng.choice(len(p), size=size, p=p)`` bit for bit, for weights p that
    are nonnegative and sum to 1, in blocks of at most ``ROW_BLOCK`` draws.

    The choice is ``cdf.searchsorted(rng.random(size), side="right")`` with
    ``cdf`` the cumulative sum of p divided by its last entry; the uniforms
    are taken one block at a time.  A guide table (Chen and Asau, 1974),
    built once per call, holds that search at both ends of each of B
    buckets of [0, 1), B a power of 2 up to one per draw and at most
    ``GUIDE_BUCKETS``; a uniform in a bucket whose ends agree takes their
    value, and only the others are searched.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    buckets = min(GUIDE_BUCKETS, 1 << (size - 1).bit_length())
    ends = cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right")
    lo, hi = ends[:-1], ends[1:]
    for start in range(0, size, ROW_BLOCK):
        u = rng.random(min(ROW_BLOCK, size - start))
        bucket = (u * buckets).astype(np.intp)  # exact: a power of 2
        idx = lo.take(bucket)
        split = np.flatnonzero(idx != hi.take(bucket))
        idx[split] = cdf.searchsorted(u[split], side="right")
        yield idx


def exact_dataset(scenario: ScenarioSpec) -> LabelCounts:
    """Label counts reproducing the scenario with zero sampling noise: the
    mass weight * conditional of each feature of positive weight."""
    mass = scenario.weights[:, None] * as_simplex_points(scenario.conditionals)
    live = np.flatnonzero(np.any(mass > 0, axis=1))
    return LabelCounts(tuple(scenario.feature_ids[i] for i in live), mass[live])
