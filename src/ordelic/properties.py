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

import numpy as np

from ordelic._kernels import BOUNDARY_TOL, node_root_batch, region_index_batch, roe_batch
from ordelic.errors import (
    OrderabilityError,
    RankDeficiencyError,
    SimplexError,
    SpecError,
)
from ordelic.simplex import as_simplex_point, as_simplex_points

_SV_RTOL = 1e-9


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


def orient_normals(normals, region_witnesses, tol: float = 1e-9) -> np.ndarray:
    """Fix normal signs from one interior witness per region (report order).

    Region j must satisfy <o_i, p> >= 0 for i < j and <o_i, p> <= 0 for
    i >= j.  Raises :class:`OrderabilityError` when no sign assignment works,
    which indicates misordered regions or a non-orderable input.
    """
    O = np.stack([np.asarray(o, dtype=np.float64) for o in normals])
    k = O.shape[0]
    W = as_simplex_points(np.stack([as_simplex_point(w) for w in region_witnesses]))
    if W.shape[0] != k + 1:
        raise SpecError(f"need {k + 1} region witnesses, got {W.shape[0]}")
    dots = W @ O.T  # (k+1 regions, k normals)
    out = np.empty_like(O)
    for i in range(k):
        # regions 1..i+1 (rows 0..i) on the <= side, the rest on the >= side
        lo = dots[: i + 1, i]
        hi = dots[i + 1 :, i]
        if np.all(lo <= tol) and np.all(hi >= -tol):
            out[i] = O[i]
        elif np.all(lo >= -tol) and np.all(hi <= tol):
            out[i] = -O[i]
        else:
            raise OrderabilityError(
                f"no sign of normal {i + 1} separates the witnesses; "
                "regions misordered or property not orderable"
            )
    return out


def _simplex_boundary_endpoints(o: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """All intersection points of {<o, p> = 0} with the edges of the 3-simplex."""
    pts = []
    for i in range(3):
        if abs(o[i]) <= tol:
            e = np.zeros(3)
            e[i] = 1.0
            pts.append(e)
    for i in range(3):
        for j in range(i + 1, 3):
            den = o[i] - o[j]
            if abs(den) <= tol:
                continue
            t = o[i] / den  # p = (1-t) e_i + t e_j
            if tol < t < 1.0 - tol:
                p = np.zeros(3)
                p[i] = 1.0 - t
                p[j] = t
                pts.append(p)
    if not pts:
        return np.empty((0, 3))
    P = np.stack(pts)
    uniq = []
    for row in P:
        if not any(np.linalg.norm(row - q) < 1e-9 for q in uniq):
            uniq.append(row)
    return np.stack(uniq)


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


def region_index_many(normals: OrientedNormals, probs) -> np.ndarray:
    """1-based region of each row of ``probs``; boundary ties resolve to the
    lower region."""
    return region_index_batch(normals.o, as_simplex_points(probs))


@dataclass(frozen=True)
class Surrogate:
    """Lipschitz surrogate property with a threshold link, from either
    construction.

    The property at p is the root of u -> sum_y p_y v_y(u) for the
    piecewise-affine ``identification`` functions v_y, which share one
    breakpoint ``grid`` and continue with unit slope outside it; ``nodes``
    holds their values on the grid.  With ``normals`` the same root is
    evaluated by the closed-form ratio of expectations.  The link maps u to
    report 1 + #(thresholds < u - BOUNDARY_TOL).  The discrete target comes
    from ``cost`` when present, else from ``normals``.  ``lipschitz_exact``
    is False when ``lipschitz_bound`` is an estimate, or not a Euclidean
    Lipschitz constant of the property.
    """

    identification: tuple  # PiecewiseAffine per outcome
    thresholds: np.ndarray
    lipschitz_bound: float
    lipschitz_exact: bool
    value_range: tuple[float, float]
    normals: OrientedNormals | None = None
    cost: CostMatrix | None = None
    grid: np.ndarray = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = tuple(self.identification)
        grid = v[0].breakpoints
        if any(not np.array_equal(f.breakpoints, grid) for f in v):
            raise SpecError("identification functions must share one grid")
        if self.normals is not None and self.normals.n != len(v):
            raise SpecError("one identification function per outcome required")
        for name, value in (
            ("identification", v),
            ("thresholds", np.asarray(self.thresholds, dtype=np.float64)),
            ("lipschitz_bound", float(self.lipschitz_bound)),
            ("lipschitz_exact", bool(self.lipschitz_exact)),
            ("value_range", (float(self.value_range[0]), float(self.value_range[1]))),
            ("grid", grid),
            ("nodes", np.stack([f(grid) for f in v])),
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
        P = as_simplex_points(probs)
        if self.normals is not None:
            return roe_batch(self.normals.o, P)
        return node_root_batch(self.grid, self.nodes, P)

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


def check_strong_orderability(spec: OrderableSpec, min_gap: float = 1e-9) -> list[float]:
    """Gaps for all consecutive boundary pairs; raises on a zero gap."""
    gaps = [boundary_gap(spec, i) for i in range(1, spec.normals.k)]
    for i, g in enumerate(gaps, start=1):
        if g <= min_gap:
            raise OrderabilityError(
                f"boundaries {i} and {i + 1} are not separated (gap {g:.3g})"
            )
    return gaps


def spec_from_boundaries(boundaries, reports=None, witnesses=None) -> OrderableSpec:
    """Build an OrderableSpec from report-ordered affine boundaries.

    Witnesses default to centroids inferred from the homogenized normals: the
    lower-report side of boundary i is {<o_i, p> <= 0}; sign conventions are
    then fixed by :func:`orient_normals` against those witnesses.
    """
    bds = list(boundaries)
    raw = [homogenize_boundary(bd) for bd in bds]
    n = len(raw[0])
    k = len(raw)
    if reports is None:
        reports = tuple(range(1, k + 2))
    if witnesses is None:
        witnesses = _centroid_witnesses(raw, n)
    oriented = orient_normals(raw, witnesses)
    return OrderableSpec(tuple(reports), OrientedNormals(oriented),
                         boundaries=tuple(bds))


def _centroid_witnesses(raw_normals, n: int, grid: int = 60) -> list[np.ndarray]:
    """Per-region witnesses: mean of grid points falling in each sign cell.

    Uses the raw (sign-ambiguous) normals with the convention that sign
    patterns must be consistent with *some* ordering; each cell mean is a
    candidate witness and cells are matched to regions by counting boundaries
    crossed from the first region's cell.
    """
    O = np.stack(raw_normals)
    k = O.shape[0]
    rng = np.random.default_rng(12345)
    e = rng.standard_exponential(size=(20000, n))
    pts = e / e.sum(axis=1, keepdims=True)
    signs = np.sign(pts @ O.T)  # (m, k) in {-1, 0, 1}
    cells: dict[tuple, list] = {}
    for row, sg in zip(pts, signs):
        key = tuple(int(s) for s in sg)
        if 0 in key:
            continue
        cells.setdefault(key, []).append(row)
    if len(cells) != k + 1:
        raise OrderabilityError(
            f"expected {k + 1} sign cells, found {len(cells)}; "
            "boundaries cross inside the simplex"
        )
    # order cells so consecutive keys differ in exactly one sign; the flip
    # sequence must follow boundary order for an orderable property
    keys = list(cells.keys())
    means = {key: np.mean(cells[key], axis=0) for key in keys}
    # chain cells by single-sign flips
    order = [keys[0]]
    remaining = set(keys[1:])
    while remaining:
        extended = False
        for key in list(remaining):
            head_diff = [i for i in range(k) if key[i] != order[0][i]]
            tail_diff = [i for i in range(k) if key[i] != order[-1][i]]
            if len(tail_diff) == 1:
                order.append(key)
                remaining.discard(key)
                extended = True
            elif len(head_diff) == 1:
                order.insert(0, key)
                remaining.discard(key)
                extended = True
        if not extended:
            raise OrderabilityError("region cells do not chain; input not orderable")
    # boundary i must flip between cells i-1 and i, and region 1 must sit on
    # the negative side of the first raw normal (the <c,p> <= b side)
    flips = [
        [j for j in range(k) if order[idx][j] != order[idx + 1][j]][0]
        for idx in range(k)
    ]
    if k == 1:
        if order[0][0] > 0:
            order = order[::-1]
    else:
        if flips == list(range(k - 1, -1, -1)):
            order = order[::-1]
            flips = list(range(k))
        if flips != list(range(k)) or order[0][0] > 0:
            raise OrderabilityError("boundaries are not met in report order")
    return [means[key] for key in order]


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
