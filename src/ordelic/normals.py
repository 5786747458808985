"""Surrogate built directly from oriented boundary normals.

The identification function pins integer report values at the region
boundaries: v(u, y) interpolates the node values -o_{l+1, y} at the integer
grid 0..k-1 and continues with unit slope outside it.  Its expected root is
a piecewise ratio of expectations, evaluated in closed form per region, and
the link thresholds are the boundary values 0..k-1.
"""

from __future__ import annotations

import numpy as np

from ordelic.errors import OrderabilityError
from ordelic.properties import (AffineBoundary, CostMatrix, OrientedNormals, Surrogate,
                                boundary_gap, homogenize_boundary)


def build_from_normals(normals: OrientedNormals, cost: CostMatrix | None = None) -> Surrogate:
    """Identification nodes from the oriented (so strongly orderable) normals;
    ``cost``, when given, is the discrete target the surrogate links to."""
    grid = np.arange(normals.k, dtype=np.float64)
    return Surrogate(grid, -normals.o.T, thresholds=grid, normals=normals, cost=cost)


def full_pipeline(source) -> tuple[Surrogate, dict]:
    """End-to-end construction from boundaries or a cost matrix.

    Each boundary's unit normal is c - b 1 scaled to unit norm
    (:func:`homogenize_boundary`), and a cost's boundary r is where rows r
    and r + 1 tie, <l_r - l_{r+1}, p> = 0.  :class:`OrientedNormals` orients
    the normals on construction, the surrogate is built, and refinement (the
    link of the property value is a target report) is checked exactly: a
    normals region, where the link is its report, is the convex hull of
    the simplex vertices and slice vertices in it, and each target set is
    convex, so the region lies in its report's target set iff each of
    those vertices does.  A vertex outside is an OrderabilityError: the
    boundaries do not bound the reports' regions in report order.  The
    report lists the exact distances between consecutive boundary slices
    (:func:`~ordelic.properties.boundary_gap`).
    """
    cost = source if isinstance(source, CostMatrix) else None
    boundaries = source if cost is None else [
        AffineBoundary(a - b, 0.0) for a, b in zip(cost.entries, cost.entries[1:])]
    oriented = OrientedNormals([homogenize_boundary(bd) for bd in boundaries])
    surrogate = build_from_normals(oriented, cost)

    gaps = [boundary_gap(oriented, i) for i in range(1, oriented.k)]
    C = np.vstack([np.eye(oriented.n), *oriented.slices])
    miss = oriented._target_mask(C) & ~surrogate._target()._target_mask(C)
    if miss.any():
        i, r = np.argwhere(miss)[0]
        raise OrderabilityError(
            f"the region of report {r + 1} has the vertex p = {C[i].tolist()}, outside "
            f"the target set of report {r + 1} there ({np.count_nonzero(miss.any(axis=1))} "
            f"of {len(C)} region vertices miss it): the boundaries do not cut the simplex "
            "into the reports' regions in report order")
    report = {
        "recovered_normals": oriented.o.tolist(),
        "boundary_gaps": gaps,
        "lipschitz_bound": surrogate.lipschitz_bound,
        "lipschitz_exact": surrogate.lipschitz_exact,
        "refinement_checked": len(C),
        "refinement_pass_rate": 1.0,
    }
    return surrogate, report
