"""Surrogate built directly from oriented boundary normals.

The identification function pins integer report values at the region
boundaries: v(u, y) interpolates the node values -o_{l+1, y} at the integer
grid 0..k-1 and continues with unit slope outside it.  Its expected root is
a piecewise ratio of expectations, evaluated in closed form per region, and
the link thresholds are the boundary values 0..k-1.
"""

from __future__ import annotations

import numpy as np

from ordelic._kernels import region_index_batch
from ordelic.errors import RankDeficiencyError
from ordelic.piecewise import PiecewiseAffine
from ordelic.properties import (
    CostMatrix,
    OrderableSpec,
    OrientedNormals,
    Surrogate,
    _centroid_witnesses,
    boundaries_from_cost,
    boundary_gap,
    check_strong_orderability,
    homogenize_boundary,
    normal_from_boundary_samples,
    orient_normals,
    sample_boundary,
)
from ordelic.simplex import sample_simplex


def _clip_triangle(halfplanes: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Vertices of the 3-outcome simplex clipped by {<a, p> >= c} half-planes."""
    poly = [np.eye(3)[i] for i in range(3)]
    for a, c in halfplanes:
        if not poly:
            break
        out = []
        m = len(poly)
        vals = [float(a @ v) - c for v in poly]
        for i in range(m):
            cur, nxt = poly[i], poly[(i + 1) % m]
            vc, vn = vals[i], vals[(i + 1) % m]
            if vc >= -1e-12:
                out.append(cur)
            if (vc > 1e-12 and vn < -1e-12) or (vc < -1e-12 and vn > 1e-12):
                t = vc / (vc - vn)
                out.append(cur + t * (nxt - cur))
        poly = out
    return np.array(poly) if poly else np.empty((0, 3))


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


def _lipschitz_bound(O: np.ndarray, seed: int = 7) -> tuple[float, bool]:
    """Max gradient norm of the piecewise property over the simplex.

    The middle pieces are linear-fractional, hence quasilinear; the gradient
    norm is maximized at region-polytope vertices.  Exact vertex enumeration
    for 3 outcomes, sampled estimate otherwise.
    """
    k, n = O.shape
    best = 0.0
    if n == 3:
        for j in range(1, k + 2):
            planes = [(O[i], 0.0) for i in range(j - 1)]
            planes += [(-O[i], 0.0) for i in range(j - 1, k)]
            verts = _clip_triangle(planes)
            if len(verts) == 0:
                continue
            best = max(best, float(_region_gradient_norms(O, j, verts).max()))
        return best, True
    pts = sample_simplex(n, 100_000, seed)
    regions = region_index_batch(O, pts)
    for j in range(1, k + 2):
        sel = pts[regions == j]
        if len(sel) == 0:
            continue
        best = max(best, float(_region_gradient_norms(O, j, sel).max()))
    return best, False


def build_from_spec(spec: OrderableSpec) -> Surrogate:
    """Identification nodes from the oriented normals and the Lipschitz
    bound; requires strictly separated consecutive boundaries."""
    O = spec.normals.o
    k, n = O.shape
    if k >= 2:
        check_strong_orderability(spec)
    grid = np.arange(k, dtype=np.float64)
    K, exact = _lipschitz_bound(O)
    return Surrogate(
        identification=tuple(PiecewiseAffine.from_nodes(grid, -O[:, y], 1.0, 1.0)
                             for y in range(n)),
        thresholds=grid,
        lipschitz_bound=K,
        lipschitz_exact=exact,
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
    space (resampling on rank deficiency), orients all normals against
    region witnesses, builds the surrogate, and verifies refinement on
    uniform samples away from the boundaries.
    """
    if isinstance(source, CostMatrix):
        cost = source
        boundaries = boundaries_from_cost(cost)
    else:
        cost = None
        boundaries = list(source)
    raw = [homogenize_boundary(bd) for bd in boundaries]
    n = len(raw[0])

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

    witnesses = _centroid_witnesses(recovered, n)
    oriented = orient_normals(recovered, witnesses)
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
        "lipschitz_bound": surrogate.lipschitz_bound,
        "lipschitz_exact": surrogate.lipschitz_exact,
        "refinement_checked": int(len(pts)),
        "refinement_pass_rate": float(ok / max(len(pts), 1)),
    }
    return surrogate, report
