"""Discrete losses, strongly orderable properties, and their surrogates.

A discrete target is given either by a cost matrix (report-by-outcome losses)
or directly by ordered affine region boundaries.  Both are reduced to oriented
unit normals in homogeneous form: region j collects the p with
``<o_i, p> >= 0`` for i < j and ``<o_i, p> <= 0`` for i >= j.  Either
surrogate construction yields a :class:`Surrogate`: a Lipschitz property
with a threshold link back to the discrete reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ordelic._kernels import BOUNDARY_TOL, roe_batch
from ordelic.errors import (
    OrderabilityError,
    RankDeficiencyError,
    SimplexError,
    SpecError,
)
from ordelic.simplex import as_simplex_points

_SV_RTOL = 1e-9
_MIN_GAP = 1e-9  # least separation, along a normal, of consecutive slices


@dataclass(frozen=True)
class CostMatrix:
    """Report-by-outcome loss table; entries[r-1][y-1] is the loss of report r
    against outcome y (both 1-based)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise SpecError("cost matrix must be 2-d (reports x outcomes)")
        if arr.shape[0] < 2 or arr.shape[1] < 3:
            raise SpecError("need at least 2 reports and 3 outcomes")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise SpecError("cost entries must be finite and nonnegative")
        object.__setattr__(self, "entries", arr)

    @property
    def n_reports(self) -> int:
        return self.entries.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.entries.shape[1]

    def target_sets(self, probs, tol: float = BOUNDARY_TOL) -> np.ndarray:
        """(rows, reports) mask of the expected-cost minimizers within ``tol``
        at each row of ``probs``."""
        ec = as_simplex_points(probs) @ self.entries.T
        return ec <= ec.min(axis=1, keepdims=True) + tol


@dataclass(frozen=True)
class AffineBoundary:
    """Region boundary {p : <coeffs, p> = offset} intersected with the simplex."""

    coeffs: np.ndarray
    offset: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 1 or len(c) < 2:
            raise SpecError("boundary coefficients must be a 1-d vector")
        if np.linalg.norm(c - c.mean()) <= 1e-12 * (1.0 + np.linalg.norm(c)):
            raise SpecError("coefficients proportional to the all-ones vector")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "offset", float(self.offset))


def homogenize_boundary(bd: AffineBoundary) -> np.ndarray:
    """Unit direction o with <o, p> = 0 iff <c, p> = b on the simplex.

    Uses sum(p) = 1 to fold the offset into the coefficients; the sign is
    arbitrary until :func:`orient_normals`.
    """
    o = bd.coeffs - bd.offset
    norm = np.linalg.norm(o)
    if norm <= 1e-12:
        raise SpecError("degenerate boundary: coeffs - offset*ones vanishes")
    return o / norm


def normal_from_boundary_samples(points) -> np.ndarray:
    """Unit null-space vector of n-1 stacked boundary points (sign-ambiguous).

    Boundary points satisfy <o, p> = 0 exactly, so the stacked (n-1, n)
    matrix has the normal as its null space when the points span the
    hyperplane.  Raises :class:`RankDeficiencyError` otherwise, signalling
    that the caller should resample.
    """
    P = np.asarray(points, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1] - 1:
        raise SpecError(f"need n-1 points of dimension n, got shape {P.shape}")
    _, s, vh = np.linalg.svd(P)
    if s[-1] < _SV_RTOL * s[0]:
        raise RankDeficiencyError(
            "boundary samples do not span the hyperplane; resample"
        )
    o = vh[-1]
    return o / np.linalg.norm(o)


def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j below k in row-major order, as ``np.triu_indices(k,
    1)`` gives them at a quarter of its cost."""
    r = np.arange(k)
    return np.nonzero(r[:, None] < r)


def _simplex_boundary_endpoints(o: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Vertices of the slice {<o, p> = 0} of the simplex: the vertices e_m with
    o_m = 0, then the edge crossings (1-t) e_i + t e_j, t = o_i / (o_i - o_j),
    for i < j; points within 1e-9 of an earlier one are dropped."""
    n = len(o)
    I, J = _pairs(n)
    den = o[I] - o[J]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = o[I] / den
    cross = (np.abs(den) > tol) & (tol < t) & (t < 1.0 - tol)
    zero = np.flatnonzero(np.abs(o) <= tol)
    rows = np.arange(len(zero), len(zero) + int(cross.sum()))
    P = np.zeros((len(zero) + len(rows), n))
    P[np.arange(len(zero)), zero] = 1.0
    P[rows, I[cross]] = 1.0 - t[cross]
    P[rows, J[cross]] = t[cross]
    if np.minimum(t[cross], 1.0 - t[cross]).min(initial=1.0) >= 1e-9:
        return P  # every two points differ by 1e-9 in a coordinate
    near = np.linalg.norm(P[:, None] - P, axis=2) < 1e-9
    uniq: list[int] = []
    for r in range(len(P)):
        if not near[r, uniq].any():
            uniq.append(r)
    return P[uniq]


def slice_vertices(O: np.ndarray) -> list[np.ndarray]:
    """Vertices of each boundary slice {p in simplex : <o_i, p> = 0}; raises
    :class:`OrderabilityError` when a boundary crosses no simplex edge."""
    out = []
    for i, o in enumerate(O, start=1):
        V = _simplex_boundary_endpoints(o)
        if np.count_nonzero(V, axis=1).max(initial=0) < 2:
            raise OrderabilityError(f"boundary {i} does not meet the simplex interior")
        out.append(V)
    return out


def _check_pairs(O: np.ndarray, slices: list[np.ndarray]) -> None:
    """Raises unless slice i lies at least ``_MIN_GAP`` on the negative side
    of o_{i+1} and slice i+1 on the positive side of o_i, for every i."""
    for i in range(1, len(O)):
        s = slices[i - 1] @ O[i]
        if s.max() > -_MIN_GAP and s.min() < _MIN_GAP:
            raise OrderabilityError(
                f"boundaries {i} and {i + 1} cross inside the simplex")
        if s.max() > -_MIN_GAP or (slices[i] @ O[i - 1]).min() <= 0.0:
            raise OrderabilityError(
                f"boundaries {i} and {i + 1} are not met in report order; list "
                "the boundaries from report 1 up, each with its lower report "
                "on the <c, p> <= b side")


def orient_normals(raw_normals) -> np.ndarray:
    """Signs of report-ordered unit normals, fixed by a chain: o_1 keeps its
    sign (region 1 is its negative side) and o_{i+1} takes the sign that puts
    slice i on its negative side.  Raises :class:`OrderabilityError` unless
    the oriented normals are strongly orderable."""
    O = np.array(raw_normals, dtype=np.float64)
    slices = slice_vertices(O)
    for i in range(1, len(O)):
        if (slices[i - 1] @ O[i]).max() > -_MIN_GAP:
            O[i] = -O[i]
    _check_pairs(O, slices)
    return O


def _boundary_segment(o: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pts = _simplex_boundary_endpoints(o)
    if len(pts) < 2:
        raise SimplexError("boundary does not meet the simplex relative interior")
    # the intersection is a segment; take the farthest pair
    best = (0, 1)
    best_d = -1.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = np.linalg.norm(pts[i] - pts[j])
            if d > best_d:
                best_d = d
                best = (i, j)
    if best_d <= 1e-12:
        raise SimplexError("boundary touches the simplex only at a point")
    return pts[best[0]], pts[best[1]]


def _hit_and_run(o: np.ndarray, count: int, seed: int, burn_in: int = 100) -> np.ndarray:
    """Hit-and-run over {p >= 0, sum p = 1, <o, p> = 0} (n > 3)."""
    n = len(o)
    rng = np.random.default_rng(seed)
    pos = np.nonzero(o > 1e-12)[0]
    neg = np.nonzero(o < -1e-12)[0]
    if len(pos) == 0 or len(neg) == 0:
        raise SimplexError("boundary does not meet the simplex relative interior")
    # start: average of all straddling-pair chord points and zero-coordinate vertices
    starts = []
    for i in pos:
        for j in neg:
            t = o[i] / (o[i] - o[j])  # weight on e_j
            p = np.zeros(n)
            p[i] = 1.0 - t
            p[j] = t
            starts.append(p)
    for i in np.nonzero(np.abs(o) <= 1e-12)[0]:
        e = np.zeros(n)
        e[i] = 1.0
        starts.append(e)
    x = np.mean(starts, axis=0)

    # orthonormal basis of {d : <1, d> = 0, <o, d> = 0}
    A = np.stack([np.ones(n), o])
    _, _, vh = np.linalg.svd(A)
    basis = vh[2:]  # (n-2, n)

    out = np.empty((count, n))
    kept = 0
    total = burn_in + count
    for step in range(total):
        coef = rng.standard_normal(len(basis))
        d = coef @ basis
        d /= np.linalg.norm(d)
        # chord extents keeping all coordinates >= 0
        with np.errstate(divide="ignore"):
            ratios = -x / np.where(np.abs(d) > 1e-15, d, np.nan)
        t_hi = np.nanmin(np.where(d < 0, ratios, np.nan)) if np.any(d < 0) else np.inf
        t_lo = np.nanmax(np.where(d > 0, ratios, np.nan)) if np.any(d > 0) else -np.inf
        if not np.isfinite(t_hi) or not np.isfinite(t_lo) or t_hi <= t_lo:
            continue
        t = rng.uniform(t_lo, t_hi)
        x = np.clip(x + t * d, 0.0, None)
        x /= x.sum()
        x -= (x @ o) * o / (o @ o)  # re-project; drift is at roundoff level
        x = np.clip(x, 0.0, None)
        x /= x.sum()
        if step >= burn_in:
            out[kept] = x
            kept += 1
    if kept < count:  # rare skipped steps; pad by reusing the chain
        out[kept:] = out[:count - kept]
    return out


def sample_boundary(normal, count: int, seed: int) -> np.ndarray:
    """Points with <o, p> = 0 (within 1e-10) and strictly positive coordinates."""
    o = np.asarray(normal, dtype=np.float64)
    o = o / np.linalg.norm(o)
    n = len(o)
    if count < 1:
        raise SpecError("need at least 1 sample")
    if n == 3:
        a, b = _boundary_segment(o)
        rng = np.random.default_rng(seed)
        t = rng.uniform(1e-6, 1.0 - 1e-6, size=count)
        pts = (1.0 - t)[:, None] * a + t[:, None] * b
    else:
        pts = _hit_and_run(o, count, seed)
    pts = pts - np.outer(pts @ o, o)  # exact projection onto the hyperplane
    pts = np.clip(pts, 0.0, None)
    pts /= pts.sum(axis=1, keepdims=True)
    if np.any(np.abs(pts @ o) > BOUNDARY_TOL) or np.any(pts <= 0):
        raise SimplexError("boundary sampling failed to stay in the relative interior")
    return pts


def _segment_distance(p1, p2, q1, q2) -> float:
    """Minimum distance between segments [p1, p2] and [q1, q2] in R^n."""
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = d1 @ d1
    e = d2 @ d2
    f = d2 @ r
    b = d1 @ d2
    c = d1 @ r
    den = a * e - b * b
    s = np.clip((b * f - c * e) / den, 0.0, 1.0) if den > 1e-15 else 0.0
    t = (b * s + f) / e if e > 1e-15 else 0.0
    if t < 0.0:
        t = 0.0
        s = np.clip(-c / a, 0.0, 1.0) if a > 1e-15 else 0.0
    elif t > 1.0:
        t = 1.0
        s = np.clip((b - c) / a, 0.0, 1.0) if a > 1e-15 else 0.0
    return float(np.linalg.norm((p1 + s * d1) - (q1 + t * d2)))


@dataclass(frozen=True)
class OrientedNormals:
    """Ordered oriented unit normals o_1..o_k defining k+1 regions."""

    o: np.ndarray  # (k, n)

    def __post_init__(self):
        O = np.asarray(self.o, dtype=np.float64)
        if O.ndim != 2 or O.shape[0] < 1:
            raise SpecError("normals must form a (k, n) array")
        norms = np.linalg.norm(O, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise SpecError("normals must have unit Euclidean norm")
        object.__setattr__(self, "o", O)

    @property
    def k(self) -> int:
        return self.o.shape[0]

    @property
    def n(self) -> int:
        return self.o.shape[1]

    def target_sets(self, probs, tol: float = BOUNDARY_TOL) -> np.ndarray:
        """(rows, reports) mask of the regions holding each row of ``probs``;
        a point within ``tol`` of a boundary is in both adjacent regions."""
        S = as_simplex_points(probs) @ self.o.T
        ones = np.ones((len(S), 1), dtype=bool)
        lo_ok = np.logical_and.accumulate(np.hstack([ones, S >= -tol]), axis=1)
        hi_ok = np.logical_and.accumulate(np.hstack([S <= tol, ones])[:, ::-1], axis=1)
        return lo_ok & hi_ok[:, ::-1]


def _piece_gradients(O: np.ndarray, w: np.ndarray, l: int,
                     pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Property gradients along the simplex (the component orthogonal to the
    ones vector) on grid piece l at the rows of pts, one row for a tail
    (l = -1 or l = m - 1), and their norms at every row; O holds the node
    columns negated."""
    m = O.shape[0]
    if l in (-1, m - 1):
        G = O[[max(l, 0)]]
    else:
        oi, oi1 = O[l], O[l + 1]  # the piece g_l + w_l <o_l, p>/<o_l - o_{l+1}, p>
        den = pts @ (oi - oi1)
        f = (pts @ oi) / den
        G = w[l] * ((oi - f[:, None] * (oi - oi1)) / den[:, None])
    D = G - G.mean(axis=1, keepdims=True)
    # row-wise dot products: the same sums as np.linalg.norm of one row
    norms = np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])
    return D, np.broadcast_to(norms, len(pts))


def _edge_stationary_points(O: np.ndarray, l: int, V: np.ndarray) -> np.ndarray:
    """Points on the segments between rows of V where the gradient norm of
    the middle piece l is stationary along the segment.

    With u = <o_l, p> and v = -<o_{l+1}, p> the piece's gradient is
    w_l (v o_l + u o_{l+1}) / (u + v)^2, so along p0 + t (p1 - p0) its squared
    norm is w_l^2 |n0 + t n1|^2 / (s0 + t s1)^4 and the stationary t solve
    -s1 |n1|^2 t^2 + (s0 |n1|^2 - 3 s1 <n0, n1>) t + s0 <n0, n1> - 2 s1 |n0|^2 = 0.
    """
    a, b = O[l], O[l + 1]
    u, v = V @ a, -(V @ b)
    N = v[:, None] * (a - a.mean()) + u[:, None] * (b - b.mean())
    I, J = _pairs(len(V))
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


def lipschitz_constant(grid, nodes) -> tuple[float, np.ndarray, np.ndarray]:
    """Euclidean Lipschitz constant K of the property on (grid, nodes) over
    the simplex, a point where the gradient norm attains it, and that
    gradient along the simplex (NaN where K = inf).

    With h_l = nodes[:, l], piece l of the grid holds the p with
    <h_l, p> <= 0 <= <h_{l+1}, p>.  When two consecutive slices
    {<h_l, p> = 0} share a point of the simplex, the root there is a flat
    interval and K = inf.  Otherwise the slices do not meet, so every piece's
    region polytope has simplex vertices and slice vertices as its vertices.
    The tails are linear.  A middle piece's gradient norm depends on p only
    through (u, v) = (-<h_l, p>, <h_{l+1}, p>) and is homogeneous of degree -1
    there, so over the region's image in the (u, v) plane it peaks on the
    image's boundary, whose edges are images of segments between region
    vertices: the max is at a vertex or where the norm is stationary along
    such a segment.  Regions inside one slice have no interior and are
    skipped.
    """
    O = -np.asarray(nodes, dtype=np.float64).T  # (m, n); row l is -h_l
    w = np.diff(np.asarray(grid, dtype=np.float64))
    m, n = O.shape
    slices = [_simplex_boundary_endpoints(o) for o in O]
    for l in range(m - 1):
        if len(slices[l]):
            s = slices[l] @ O[l + 1]
            if s.max() >= -BOUNDARY_TOL:
                return float("inf"), slices[l][int(np.argmax(s))], np.full(n, np.nan)
    C = np.vstack([np.eye(n), *slices])
    S = C @ O.T
    best, arg, grad = 0.0, C[0], np.zeros(n)
    for l in range(-1, m):
        inside = np.ones(len(C), dtype=bool)
        if l >= 0:
            inside &= S[:, l] >= -BOUNDARY_TOL
        if l < m - 1:
            inside &= S[:, l + 1] <= BOUNDARY_TOL
        if (l >= 0 and S[inside, l].max(initial=0.0) <= BOUNDARY_TOL) \
                or (l < m - 1 and S[inside, l + 1].min(initial=0.0) >= -BOUNDARY_TOL):
            continue
        V = C[inside]
        if 0 <= l < m - 1:
            V = np.vstack([V, _edge_stationary_points(O, l, V)])
        D, norms = _piece_gradients(O, w, l, V)
        i = int(np.argmax(norms))
        if norms[i] > best:
            best, arg, grad = float(norms[i]), V[i], D[i]  # i = 0 on a tail
    return best, arg, grad


@dataclass(frozen=True)
class Surrogate:
    """Lipschitz surrogate property with a threshold link, from either
    construction.

    The property at p is the root of u -> sum_y p_y v_y(u) for the
    piecewise-affine ``identification`` functions v_y, which share one
    breakpoint ``grid`` and continue with unit slope outside it; ``nodes``
    holds their values on the grid (for the normals construction exactly
    -o, which evaluating the interpolants may round).  One kernel evaluates
    the root for both constructions, and ``lipschitz_bound`` is the exact
    Euclidean Lipschitz constant of that property (inf where it is not
    Lipschitz).  The link maps u to report 1 + #(thresholds < u -
    BOUNDARY_TOL).  The discrete target comes from ``cost`` when present,
    else from ``normals``.
    """

    identification: tuple  # PiecewiseAffine per outcome
    thresholds: np.ndarray
    value_range: tuple[float, float]
    normals: OrientedNormals | None = None
    cost: CostMatrix | None = None
    grid: np.ndarray = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)
    lipschitz_bound: float = field(init=False)
    lipschitz_exact: ClassVar[bool] = True

    def __post_init__(self):
        v = tuple(self.identification)
        grid = v[0].breakpoints
        if any(not np.array_equal(f.breakpoints, grid) for f in v):
            raise SpecError("identification functions must share one grid")
        if self.normals is not None and self.normals.n != len(v):
            raise SpecError("one identification function per outcome required")
        nodes = np.stack([f(grid) for f in v]) if self.normals is None \
            else -self.normals.o.T
        for name, value in (
            ("identification", v),
            ("thresholds", np.asarray(self.thresholds, dtype=np.float64)),
            ("value_range", (float(self.value_range[0]), float(self.value_range[1]))),
            ("grid", grid),
            ("nodes", nodes),
            ("lipschitz_bound", lipschitz_constant(grid, nodes)[0]),
        ):
            object.__setattr__(self, name, value)

    @property
    def kind(self) -> str:
        return "embedding" if self.normals is None else "normals"

    @property
    def n_outcomes(self) -> int:
        return len(self.identification)

    def gamma_many(self, probs) -> np.ndarray:
        """Property value at each row of ``probs``."""
        return roe_batch(self.grid, self.nodes, as_simplex_points(probs))

    def link_many(self, us) -> np.ndarray:
        """Report index of each value in ``us``."""
        us = np.asarray(us, dtype=np.float64)
        return (self.thresholds < (us - BOUNDARY_TOL)[..., None]).sum(axis=-1) + 1

    def discrete_set_many(self, probs, tol: float = BOUNDARY_TOL) -> np.ndarray:
        """(rows, reports) mask of the target reports at each row of probs;
        a point within ``tol`` of a boundary gets both adjacent reports."""
        target = self.cost if self.cost is not None else self.normals
        if target is None:
            raise SpecError("need a cost matrix or normals for the discrete target")
        return target.target_sets(probs, tol)


@dataclass(frozen=True)
class OrderableSpec:
    """Ordered reports plus oriented boundary normals; optionally the source
    cost matrix and the raw boundaries they came from."""

    reports: tuple
    normals: OrientedNormals
    cost: CostMatrix | None = None
    boundaries: tuple | None = None

    def __post_init__(self):
        reports = tuple(self.reports)
        if len(reports) != self.normals.k + 1:
            raise SpecError(
                f"{len(reports)} reports need {len(reports) - 1} normals, "
                f"got {self.normals.k}"
            )
        object.__setattr__(self, "reports", reports)
        if self.boundaries is not None:
            object.__setattr__(self, "boundaries", tuple(self.boundaries))

    @property
    def n_reports(self) -> int:
        return len(self.reports)

    @property
    def n_outcomes(self) -> int:
        return self.normals.n


def boundaries_from_cost(cost: CostMatrix) -> list[AffineBoundary]:
    """Tie locus of consecutive reports: <l_r - l_{r+1}, p> = 0."""
    return [
        AffineBoundary(cost.entries[r] - cost.entries[r + 1], 0.0)
        for r in range(cost.n_reports - 1)
    ]


def boundary_gap(spec: OrderableSpec, i: int, samples: int = 256, seed: int = 0) -> float:
    """Minimum simplex distance between boundaries i and i+1 (1-based).

    Exact segment-segment distance for 3 outcomes; sampled estimate otherwise.
    """
    if not (1 <= i <= spec.normals.k - 1):
        raise SpecError(f"boundary pair index must be in 1..{spec.normals.k - 1}")
    o1 = spec.normals.o[i - 1]
    o2 = spec.normals.o[i]
    if spec.n_outcomes == 3:
        try:
            a1, b1 = _boundary_segment(o1)
            a2, b2 = _boundary_segment(o2)
        except SimplexError:
            return 0.0
        return _segment_distance(a1, b1, a2, b2)
    p = sample_boundary(o1, samples, seed)
    q = sample_boundary(o2, samples, seed + 1)
    d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    return float(d.min())


def check_strong_orderability(spec: OrderableSpec) -> None:
    """Raises :class:`OrderabilityError`, naming the cause and the boundaries,
    unless every boundary meets the simplex interior and consecutive slices
    are at least ``_MIN_GAP`` apart along the normals, in report order.

    No two slices meet iff each lies on one side of the next hyperplane, and
    a slice's extremes along a normal are at its vertices, so the test is
    exact for any number of outcomes.
    """
    O = spec.normals.o
    _check_pairs(O, slice_vertices(O))


def spec_from_boundaries(boundaries, reports=None) -> OrderableSpec:
    """Build an OrderableSpec from report-ordered affine boundaries, each with
    its lower report on the <c, p> <= b side; see :func:`orient_normals`."""
    bds = list(boundaries)
    raw = [homogenize_boundary(bd) for bd in bds]
    if reports is None:
        reports = tuple(range(1, len(raw) + 2))
    return OrderableSpec(tuple(reports), OrientedNormals(orient_normals(raw)),
                         boundaries=tuple(bds))


def random_orderable_spec(n: int, n_reports: int, seed: int):
    """Random strongly orderable target with a matching cost matrix.

    Boundaries are parallel slices <w, p> = t_r with strictly increasing
    thresholds, and the cost rows telescope as
    l_r = l_{r+1} + alpha*(w - t_r*1), which makes report r the expected-cost
    argmin exactly on its slice and keeps the embedded points of every outcome
    in strictly convex position for unit-spaced embeddings.

    Returns (spec, cost, phi).
    """
    if n_reports < 2:
        raise SpecError("need at least 2 reports")
    rng = np.random.default_rng(seed)
    k = n_reports - 1
    while True:
        w = rng.standard_normal(n)
        w -= w.mean()
        if np.linalg.norm(w) > 0.3:
            break
    w /= np.linalg.norm(w)
    lo, hi = w.min(), w.max()
    # thresholds strictly inside (lo, hi) with comfortable gaps
    cuts = np.sort(rng.uniform(0.15, 0.85, size=k))
    while k > 1 and np.min(np.diff(cuts)) < 0.08:
        cuts = np.sort(rng.uniform(0.15, 0.85, size=k))
    t = lo + cuts * (hi - lo)

    alpha = float(rng.uniform(0.5, 2.0))
    rows = [np.zeros(n)]
    for i in range(k - 1, -1, -1):
        rows.insert(0, rows[0] + alpha * (w - t[i]))
    L = np.stack(rows)
    L -= L.min(axis=0, keepdims=True)  # per-outcome shift: argmin/chords unchanged
    cost = CostMatrix(L)
    boundaries = [AffineBoundary(w, float(t[i])) for i in range(k)]
    spec = spec_from_boundaries(boundaries, reports=tuple(range(1, k + 2)))
    phi = np.arange(n_reports, dtype=np.float64)
    return spec, cost, phi
