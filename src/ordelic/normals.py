"""Surrogate built directly from oriented boundary normals.

The identification function pins integer report values at the region
boundaries: v(u, y) interpolates the node values -o_{l+1, y} at the integer
grid 0..k-1 and continues with unit slope outside it.  Its expected root is
a piecewise ratio of expectations, evaluated in closed form per region, and
the link thresholds are the boundary values 0..k-1.
"""

from __future__ import annotations

import numpy as np

from ordelic.errors import OrderabilityError, RankDeficiencyError
from ordelic.properties import (
    CostMatrix,
    OrientedNormals,
    Surrogate,
    _sample_slice,
    boundaries_from_cost,
    boundary_gap,
    homogenize_boundary,
    normal_from_boundary_samples,
    orient_normals,
    slice_vertices,
)
from ordelic.simplex import sample_simplex

# Uniform simplex points on which full_pipeline checks refinement.
REFINEMENT_SAMPLES = 2000


def build_from_normals(normals: OrientedNormals, cost: CostMatrix | None = None) -> Surrogate:
    """Identification nodes from the oriented (so strongly orderable) normals;
    ``cost``, when given, is the discrete target the surrogate links to."""
    grid = np.arange(normals.k, dtype=np.float64)
    return Surrogate(grid, -normals.o.T, thresholds=grid, normals=normals, cost=cost)


def full_pipeline(source, seed: int) -> tuple[Surrogate, dict]:
    """End-to-end construction from boundaries or a cost matrix.

    Samples n-1 points per boundary, recovers each normal from their null
    space (resampling on rank deficiency), orients them by the slice chain
    of :func:`orient_normals` over the slices they were sampled from, builds
    the surrogate, and verifies refinement (the link of the property value
    is a target report) on ``REFINEMENT_SAMPLES`` uniform points, where a
    miss is an OrderabilityError: the boundaries do not bound the reports'
    regions in report order.  The report lists the exact distances between
    consecutive boundary slices (:func:`~ordelic.properties.boundary_gap`).
    """
    if isinstance(source, CostMatrix):
        cost = source
        boundaries = boundaries_from_cost(cost)
    else:
        cost = None
        boundaries = list(source)
    raw = [homogenize_boundary(bd) for bd in boundaries]
    n = len(raw[0])
    units = np.stack([o / np.linalg.norm(o) for o in raw])  # the draws below keep these bits
    slices = slice_vertices(units)  # name a boundary that cannot be sampled

    recovered = []
    for b_idx, o_true in enumerate(raw):
        got = None
        for attempt in range(20):
            pts = _sample_slice(units[b_idx], slices[b_idx], n - 1,
                                seed + 1000 * b_idx + attempt)
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

    # the sampled slices: the recovered normals' up to rounding, far below _MIN_GAP
    oriented = orient_normals(recovered, slices)
    surrogate = build_from_normals(oriented, cost)

    gaps = [boundary_gap(oriented, i) for i in range(1, oriented.k)]
    pts = sample_simplex(n, REFINEMENT_SAMPLES, seed + 999)
    links = surrogate.link_many(surrogate.gamma_many(pts))
    hit = surrogate.discrete_set_many(pts)[np.arange(len(pts)), links - 1]
    if not hit.all():
        i = int(np.argmin(hit))
        raise OrderabilityError(
            f"the surrogate links to report {links[i]} at p = {pts[i].tolist()}, outside the "
            f"target set there ({np.count_nonzero(~hit)} of {REFINEMENT_SAMPLES} refinement "
            "points miss it): the boundaries do not cut the simplex into the reports' "
            "regions in report order")
    report = {
        "recovered_normals": oriented.o.tolist(),
        "boundary_gaps": gaps,
        "lipschitz_bound": surrogate.lipschitz_bound,
        "lipschitz_exact": surrogate.lipschitz_exact,
        "refinement_checked": REFINEMENT_SAMPLES,
        "refinement_pass_rate": 1.0,
    }
    return surrogate, report
