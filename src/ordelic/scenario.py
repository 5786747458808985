"""Synthetic data scenarios: finite feature sets with known conditionals.

A scenario fixes the joint distribution over (feature, label) and a recipe
for the predictor under audit.  Datasets can be sampled (seeded) or
materialized exactly with row weights, which keeps closed-form audit values
free of sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ordelic.audit import PredictorTable
from ordelic.errors import SpecError
from ordelic.simplex import LabeledDataset, as_simplex_points, first_appearance


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
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
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
        table = {x: np.asarray(v, dtype=np.float64)
                 for x, v in scenario.fixed_table.items()}
        return PredictorTable("distribution", table)
    p = scenario.conditionals.copy()
    if scenario.recipe == "perturbed" and scenario.eta > 0:
        jitter = np.random.default_rng(seed).standard_exponential(p.shape)
        total = jitter[:, 0].copy()  # not np.sum, which adds 8 or more terms pairwise
        for k in range(1, p.shape[1]):
            total += jitter[:, k]
        jitter *= (1.0 / total)[:, None]
        p += scenario.eta * jitter
        p /= p.sum(axis=1, keepdims=True)
    return PredictorTable("distribution", dict(zip(scenario.feature_ids, p)))


def sample_dataset(scenario: ScenarioSpec, rows: int, seed: int) -> LabeledDataset:
    """Seeded i.i.d. draws of (feature, label) pairs."""
    if rows < 1:
        raise SpecError("need at least 1 row")
    rng = np.random.default_rng(seed)
    f_idx = rng.choice(len(scenario.feature_ids), size=rows, p=scenario.weights)
    u = rng.random(rows)
    cum = np.cumsum(scenario.conditionals, axis=1)
    y = np.ones(rows, dtype=np.int64)
    for j in range(scenario.n_outcomes - 1):
        y += u > cum[f_idx, j]
    order, codes = first_appearance(f_idx, len(scenario.feature_ids))
    return LabeledDataset.from_codes(codes, [scenario.feature_ids[i] for i in order],
                                     y, scenario.n_outcomes)


def exact_dataset(scenario: ScenarioSpec) -> LabeledDataset:
    """Weighted dataset reproducing the scenario with zero sampling noise."""
    return LabeledDataset.from_exact_scenario(
        scenario.feature_ids, scenario.weights, scenario.conditionals
    )
