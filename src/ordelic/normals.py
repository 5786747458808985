"""Surrogate built directly from oriented boundary normals.

The identification function pins integer report values at the region
boundaries: v(u, y) interpolates the node values -o_{l+1, y} at the integer
grid 0..k-1 and continues with unit slope outside it.  Its expected root is
a piecewise ratio of expectations, evaluated in closed form per region, and
the link is a clipped ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ordelic._kernels import node_root_batch, roe_batch
from ordelic.errors import RankDeficiencyError
from ordelic.piecewise import PiecewiseAffine
from ordelic.properties import (
    BOUNDARY_TOL,
    CostMatrix,
    OrderableSpec,
    OrientedNormals,
    _centroid_witnesses,
    boundaries_from_cost,
    boundary_gap,
    check_strong_orderability,
    gamma_from_cost,
    homogenize_boundary,
    normal_from_boundary_samples,
    orient_normals,
    region_index_many,
    sample_boundary,
)
from ordelic.simplex import as_simplex_point, as_simplex_points, sample_simplex


@dataclass(frozen=True)
class NormalsSurrogate:
    """Oriented normals with the induced identification functions and losses."""

    normals: OrientedNormals
    v: tuple  # PiecewiseAffine per outcome
    loss: tuple  # PiecewiseQuadratic per outcome
    lipschitz_bound: float
    lipschitz_exact: bool
    value_range: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(self.v))
        object.__setattr__(self, "loss", tuple(self.loss))

    @property
    def k(self) -> int:
        return self.normals.k

    @property
    def n_outcomes(self) -> int:
        return self.normals.n

    @property
    def thresholds(self) -> np.ndarray:
        """Link thresholds: the integer boundary values 0..k-1."""
        return np.arange(self.k, dtype=np.float64)

    @property
    def u_grid(self) -> np.ndarray:
        return np.arange(self.k, dtype=np.float64)

    @property
    def node_values(self) -> np.ndarray:
        """(n_outcomes, k) identification values on the grid: -o_{l+1, y}."""
        return -self.normals.o.T.copy()


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


def _projected_norm(g: np.ndarray) -> float:
    """Gradient norm along the simplex: component orthogonal to the ones vector."""
    return float(np.linalg.norm(g - g.mean()))


def _region_gradient_norms(O: np.ndarray, j: int, pts: np.ndarray) -> np.ndarray:
    """Norms of the property gradient on region j (1-based) at points pts."""
    k = O.shape[0]
    if j == 1:
        g = O[0]
        return np.full(len(pts), _projected_norm(g))
    if j == k + 1:
        g = O[k - 1]
        return np.full(len(pts), _projected_norm(g))
    i = j - 1  # middle piece uses o_i and o_{i+1} (1-based)
    oi = O[i - 1]
    oi1 = O[i]
    num = pts @ oi
    den = pts @ (oi - oi1)
    f = num / den
    out = np.empty(len(pts))
    for r in range(len(pts)):
        out[r] = _projected_norm((oi - f[r] * (oi - oi1)) / den[r])
    return out


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
    regions = np.asarray((pts @ O.T > 0).sum(axis=1) + 1)
    for j in range(1, k + 2):
        sel = pts[regions == j]
        if len(sel) == 0:
            continue
        best = max(best, float(_region_gradient_norms(O, j, sel).max()))
    return best, False


def build_from_spec(spec: OrderableSpec) -> NormalsSurrogate:
    """Identification nodes from the oriented normals, integrated losses, and
    the Lipschitz bound; requires strictly separated consecutive boundaries."""
    O = spec.normals.o
    k, n = O.shape
    if k >= 2:
        check_strong_orderability(spec)
    grid = np.arange(k, dtype=np.float64)
    v = []
    loss = []
    for y in range(n):
        nodes = -O[:, y]
        pa = PiecewiseAffine.from_nodes(grid, nodes, 1.0, 1.0)
        v.append(pa)
        loss.append(pa.integrate_from_zero())
    K, exact = _lipschitz_bound(O)
    lo = float(O[0].min())
    hi = float(O[k - 1].max() + (k - 1))
    return NormalsSurrogate(
        normals=spec.normals,
        v=tuple(v),
        loss=tuple(loss),
        lipschitz_bound=K,
        lipschitz_exact=exact,
        value_range=(lo, hi),
    )


def roe_eval(s: NormalsSurrogate, p) -> float:
    """Closed-form property value by region membership."""
    return float(roe_batch(s.normals.o, as_simplex_point(p)[None, :])[0])


def roe_eval_many(s: NormalsSurrogate, probs) -> np.ndarray:
    return roe_batch(s.normals.o, as_simplex_points(probs))


def root_eval_many(s: NormalsSurrogate, probs) -> np.ndarray:
    """Property via the expected-identification root (cross-check route)."""
    return node_root_batch(s.u_grid, s.node_values, as_simplex_points(probs))


def clip_ceiling_link(s: NormalsSurrogate, u: float) -> int:
    """Report index clip(ceil(u), 0, k) + 1; a value within BOUNDARY_TOL
    above an integer boundary value links to the lower report."""
    return int(clip_ceiling_link_many(s, [u])[0])


def clip_ceiling_link_many(s: NormalsSurrogate, us) -> np.ndarray:
    us = np.asarray(us, dtype=np.float64)
    return np.clip(np.ceil(us - BOUNDARY_TOL), 0, s.k).astype(np.int64) + 1


def full_pipeline(
    source,
    seed: int,
    refinement_samples: int = 2000,
) -> tuple[NormalsSurrogate, dict]:
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
    links = clip_ceiling_link_many(surrogate, roe_eval_many(surrogate, pts))
    if cost is not None:
        ok = sum(
            int(links[i]) in gamma_from_cost(cost, pts[i]) for i in range(len(pts))
        )
    else:
        ok = int(np.sum(links == region_index_many(spec.normals, pts)))
    report = {
        "recovered_normals": [o.tolist() for o in oriented],
        "boundary_gaps": gaps,
        "lipschitz_bound": surrogate.lipschitz_bound,
        "lipschitz_exact": surrogate.lipschitz_exact,
        "refinement_checked": int(len(pts)),
        "refinement_pass_rate": float(ok / max(len(pts), 1)),
    }
    return surrogate, report
