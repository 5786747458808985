"""Seeded input generators owned by the benchmark.

Nothing here calls into ``ordelic``: the inputs of a workload depend only on
the seed and on this file, so a change under ``src/`` cannot change what the
benchmark feeds the program.  Every generator returns plain JSON-ready data.
"""

from __future__ import annotations

import json

import numpy as np

# The cost matrix of the project README: 3 reports, 3 outcomes.  The default
# embedding phi = 0,1,2 is not convex for it; 0,1,3 is.
README_COST = [[0.0, 3.0, 5.0], [1.0, 0.0, 3.0], [3.0, 1.0, 0.0]]
README_PHI = (0.0, 1.0, 3.0)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def readme_spec() -> dict:
    return {"n": 3, "reports": [1, 2, 3], "cost_matrix": README_COST}


def orderable_spec(rng: np.random.Generator, n: int, n_reports: int) -> dict:
    """A strongly orderable target on n outcomes with n_reports reports.

    The boundaries are parallel slices {<w, p> = t_i} along a random
    direction w, cut at the equal-mass quantiles of <w, p> under the uniform
    distribution on the simplex (estimated from 20,000 seeded draws).  Every
    report's region then holds the same share of the simplex, so the sampled
    steps of the construction do the same amount of work on every seed.
    Cost rows telescope as
    l_r = l_{r+1} + alpha * (w - t_r), so report r minimizes expected cost on
    its slice and unit-spaced embeddings are convex.  Returns the cost-matrix
    spec, the boundary spec, the homogenized unit normals (w - t_i)/|w - t_i|
    and the embedding points.
    """
    k = n_reports - 1
    while True:
        w = rng.standard_normal(n)
        w -= w.mean()
        if np.linalg.norm(w) > 0.3:
            break
    w /= np.linalg.norm(w)
    e = rng.standard_exponential((20_000, n))
    t = np.quantile((e / e.sum(axis=1, keepdims=True)) @ w,
                    np.arange(1, n_reports) / n_reports)
    alpha = float(rng.uniform(0.5, 2.0))
    rows = [np.zeros(n)]
    for i in range(k - 1, -1, -1):
        rows.insert(0, rows[0] + alpha * (w - t[i]))
    cost = np.stack(rows)
    cost -= cost.min(axis=0, keepdims=True)
    reports = list(range(1, n_reports + 1))
    normals = np.stack([(w - ti) / np.linalg.norm(w - ti) for ti in t])
    return {
        "cost": {"n": n, "reports": reports, "cost_matrix": cost.tolist()},
        "boundaries": {"n": n, "reports": reports,
                       "boundaries": [{"c": w.tolist(), "b": float(ti)} for ti in t]},
        "normals": normals,
        "phi": [float(r) for r in range(n_reports)],
    }


def scenario(rng: np.random.Generator, features: int, n: int, eta: float) -> dict:
    """Scenario JSON: Dirichlet conditionals, uneven feature weights and the
    perturbed-distribution predictor recipe with scale eta."""
    cond = rng.dirichlet(np.ones(n), size=features)
    weights = rng.dirichlet(np.full(features, 4.0))
    return {
        "features": [{"id": str(i), "weight": float(weights[i]),
                      "conditional": cond[i].tolist()} for i in range(features)],
        "predictor": {"recipe": "perturbed", "eta": eta},
    }


def scenario_arrays(scen: dict) -> tuple[list, np.ndarray, np.ndarray]:
    """(feature ids, weights, conditionals) of a scenario JSON."""
    feats = scen["features"]
    ids = [f["id"] for f in feats]
    w = np.array([f["weight"] for f in feats])
    cond = np.array([f["conditional"] for f in feats])
    return ids, w, cond


def scalar_predictor(rng: np.random.Generator, ids, lo: float, hi: float,
                     step: float) -> dict:
    """Scalar predictions on a grid of the given step, so features share bins."""
    levels = np.arange(round((hi - lo) / step) + 1)
    vals = lo + step * rng.choice(levels, size=len(ids))
    return {"kind": "scalar",
            "table": {x: round(float(v), 6) for x, v in zip(ids, vals)}}


def report_predictor(rng: np.random.Generator, ids, cond: np.ndarray,
                     cost: np.ndarray, noise: float) -> dict:
    """Bayes report of each feature's conditional, replaced by a uniform
    random report with probability ``noise``."""
    best = np.argmin(cond @ cost.T, axis=1) + 1
    rand = rng.integers(1, cost.shape[0] + 1, size=len(ids))
    flip = rng.random(len(ids)) < noise
    reports = np.where(flip, rand, best)
    return {"kind": "report",
            "table": {x: int(r) for x, r in zip(ids, reports)}}
