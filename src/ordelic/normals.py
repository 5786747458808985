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


def _region_gradient_norms(O: np.ndarray, j: int, pts: np.ndarray) -> np.ndarray:
    """Norms along the simplex (component orthogonal to the ones vector) of
    the property gradient on region j (1-based) at the rows of pts."""
    k = O.shape[0]
    if j in (1, k + 1):
        G = O[[0 if j == 1 else k - 1]]
    else:
        oi, oi1 = O[j - 2], O[j - 1]  # the middle piece <o_i, p>/<o_i - o_{i+1}, p>
        den = pts @ (oi - oi1)
        f = (pts @ oi) / den
        G = (oi - f[:, None] * (oi - oi1)) / den[:, None]
    D = G - G.mean(axis=1, keepdims=True)
    # row-wise dot products: the same sums as np.linalg.norm of one row
    return np.broadcast_to(np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0]), len(pts))


def _edge_stationary_points(O: np.ndarray, j: int, V: np.ndarray) -> np.ndarray:
    """Points on the segments between rows of V where the gradient norm of
    the middle piece j is stationary along the segment.

    With u = <o_i, p> and v = -<o_{i+1}, p> the piece's gradient is
    (v o_i + u o_{i+1}) / (u + v)^2, so along p0 + t (p1 - p0) its squared
    norm is |n0 + t n1|^2 / (s0 + t s1)^4 and the stationary t solve
    -s1 |n1|^2 t^2 + (s0 |n1|^2 - 3 s1 <n0, n1>) t + s0 <n0, n1> - 2 s1 |n0|^2 = 0.
    """
    a, b = O[j - 2], O[j - 1]
    u, v = V @ a, -(V @ b)
    N = v[:, None] * (a - a.mean()) + u[:, None] * (b - b.mean())
    I, J = np.triu_indices(len(V), 1)
    n0, n1 = N[I], N[J] - N[I]
    s0, s1 = (u + v)[I], (u + v)[J] - (u + v)[I]
    n00, n01, n11 = (n0 * n0).sum(1), (n0 * n1).sum(1), (n1 * n1).sum(1)
    c2, c1, c0 = -s1 * n11, s0 * n11 - 3.0 * s1 * n01, s0 * n01 - 2.0 * s1 * n00
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        t = np.concatenate([q / c2, c0 / q])
    pair = np.concatenate([np.arange(len(I))] * 2)
    ok = (t > 0.0) & (t < 1.0)
    t, pair = t[ok], pair[ok]
    return V[I[pair]] + t[:, None] * (V[J[pair]] - V[I[pair]])


def _lipschitz_bound(normals: OrientedNormals) -> float:
    """Max gradient norm of the piecewise property over the simplex.

    Under strong orderability no two boundaries meet in the simplex, so every
    region polytope's vertices are simplex vertices or slice vertices.  The
    end pieces are linear.  A middle piece's gradient norm depends on p only
    through (u, v) = (<o_i, p>, -<o_{i+1}, p>) and is homogeneous of degree
    -1 there, so over the region's image in the (u, v) plane it peaks on the
    image's boundary, whose edges are images of segments between region
    vertices: the max is at a vertex or where the norm is stationary along
    such a segment.
    """
    O = normals.o
    k, n = O.shape
    C = np.vstack([np.eye(n), *slice_vertices(O)])
    inside = normals.target_sets(C)
    best = 0.0
    for j in range(1, k + 2):
        V = C[inside[:, j - 1]]
        if 1 < j < k + 1:
            V = np.vstack([V, _edge_stationary_points(O, j, V)])
        best = max(best, float(_region_gradient_norms(O, j, V).max()))
    return best


def build_from_spec(spec: OrderableSpec) -> Surrogate:
    """Identification nodes from the oriented normals and the Lipschitz
    bound; requires strictly separated consecutive boundaries."""
    O = spec.normals.o
    k, n = O.shape
    check_strong_orderability(spec)
    grid = np.arange(k, dtype=np.float64)
    return Surrogate(
        identification=tuple(PiecewiseAffine.from_nodes(grid, -O[:, y], 1.0, 1.0)
                             for y in range(n)),
        thresholds=grid,
        lipschitz_bound=_lipschitz_bound(spec.normals),
        lipschitz_exact=True,
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
