"""Surrogate built directly from oriented boundary normals.

The identification function pins integer report values at the region
boundaries: v(u, y) interpolates the node values -o_{l+1, y} at the integer
grid 0..k-1 and continues with unit slope outside it.  Its expected root is
a piecewise ratio of expectations, evaluated in closed form per region, and
the link thresholds are the boundary values 0..k-1.
"""

from __future__ import annotations

import numpy as np

from ordelic.errors import RankDeficiencyError
from ordelic.piecewise import PiecewiseAffine
from ordelic.properties import (
    CostMatrix,
    OrderableSpec,
    OrientedNormals,
    Surrogate,
    boundaries_from_cost,
    boundary_gap,
    check_strong_orderability,
    homogenize_boundary,
    normal_from_boundary_samples,
    orient_normals,
    sample_boundary,
    slice_vertices,
)
from ordelic.simplex import sample_simplex


def build_from_spec(spec: OrderableSpec) -> Surrogate:
    """Identification nodes from the oriented normals; requires strictly
    separated consecutive boundaries."""
    O = spec.normals.o
    k, n = O.shape
    check_strong_orderability(spec)
    grid = np.arange(k, dtype=np.float64)
    return Surrogate(
        identification=tuple(PiecewiseAffine.from_nodes(grid, -O[:, y], 1.0, 1.0)
                             for y in range(n)),
        thresholds=grid,
        value_range=(float(O[0].min()), float(O[k - 1].max() + (k - 1))),
        normals=spec.normals,
        cost=spec.cost,
    )


def full_pipeline(
    source,
    seed: int,
    refinement_samples: int = 2000,
) -> tuple[Surrogate, dict]:
    """End-to-end construction from boundaries or a cost matrix.

    Samples n-1 points per boundary, recovers each normal from their null
    space (resampling on rank deficiency), orients them by the slice chain
    of :func:`orient_normals`, builds the surrogate, and verifies refinement
    on uniform samples away from the boundaries.  The boundary gaps are exact
    for 3 outcomes and sampled estimates otherwise.
    """
    if isinstance(source, CostMatrix):
        cost = source
        boundaries = boundaries_from_cost(cost)
    else:
        cost = None
        boundaries = list(source)
    raw = [homogenize_boundary(bd) for bd in boundaries]
    n = len(raw[0])
    slice_vertices(np.stack(raw))  # name a boundary that cannot be sampled

    recovered = []
    for b_idx, o_true in enumerate(raw):
        got = None
        for attempt in range(20):
            pts = sample_boundary(o_true, n - 1, seed + 1000 * b_idx + attempt)
            try:
                got = normal_from_boundary_samples(pts)
                break
            except RankDeficiencyError:
                continue
        if got is None:
            raise RankDeficiencyError(
                f"could not recover normal {b_idx + 1} in 20 sampling rounds"
            )
        if got @ o_true < 0:  # null space is sign-ambiguous; keep the side
            got = -got        # convention of the source boundary
        recovered.append(got)

    oriented = orient_normals(recovered)
    spec = OrderableSpec(
        tuple(range(1, len(boundaries) + 2)),
        OrientedNormals(oriented),
        cost=cost,
        boundaries=tuple(boundaries),
    )
    surrogate = build_from_spec(spec)

    gaps = [boundary_gap(spec, i) for i in range(1, spec.normals.k)]
    pts = sample_simplex(n, refinement_samples, seed + 999)
    margin = np.abs(pts @ oriented.T).min(axis=1) > 1e-8
    pts = pts[margin]
    links = surrogate.link_many(surrogate.gamma_many(pts))
    ok = int(surrogate.discrete_set_many(pts)[np.arange(len(pts)), links - 1].sum())
    report = {
        "recovered_normals": [o.tolist() for o in oriented],
        "boundary_gaps": gaps,
        "boundary_gaps_exact": n == 3,
        "lipschitz_bound": surrogate.lipschitz_bound,
        "lipschitz_exact": surrogate.lipschitz_exact,
        "refinement_checked": int(len(pts)),
        "refinement_pass_rate": float(ok / max(len(pts), 1)),
    }
    return surrogate, report
