import itertools
import json
from collections import Counter

import numpy as np
import pytest

from ordelic._kernels import BOUNDARY_TOL, roe_batch
from ordelic.audit import PredictorTable, bin_predictions
from ordelic.embedding import EmbeddingInput, build_surrogate
from ordelic.errors import SimplexError, SpecError
from ordelic.normals import build_from_normals
from ordelic.properties import (
    AffineBoundary,
    CostMatrix,
    LipschitzMax,
    OrientedNormals,
    _dual,
    _pairs,
    _sample_slice,
    _slice_vertex_sets,
    homogenize_boundary,
    orient_normals,
)
from ordelic.scenario import ScenarioSpec, sample_dataset
from ordelic.serialize import dumps, surrogate_to_json
from ordelic.simplex import (
    SIMPLEX_TOL,
    LabelCounts,
    as_simplex_points,
    norm_order,
    sample_simplex,
)

EQ1_COSTS = [[0.0, 3.0, 5.0], [1.0, 0.0, 3.0], [3.0, 1.0, 0.0]]
EQ1_PHI = np.array([0.0, 1.0, 3.0])
SQ14 = np.sqrt(14.0)
O1 = np.array([-1.0, 3.0, 2.0]) / SQ14
O2 = np.array([-2.0, -1.0, 3.0]) / SQ14
# Points next to a boundary where the link of the property value must stay
# in the target set.  The first is 1.05e-10 in unit-normal score below the
# threshold 2.5 of the embedding of random_orderable_spec(3, 4, 17), just
# outside the tie band: the target is {4}, and the value is the exact root
# 2.5 + 1.4e-10, on the upper piece.  At the second the normals of
# full_pipeline(cost, 0) of random_orderable_spec(3, 4, 0) give 4.6e-11,
# inside the band: the target is {1, 2}, and the link 2.
EMBEDDING_TIE = (0.2995183774083123, 0.6837551281407757, 0.016726494450912118)
NORMALS_TIE = (0.3507801653986402, 0.614377593029099, 0.03484224157226082)


@pytest.fixture(scope="session")
def fixture_cost() -> CostMatrix:
    return CostMatrix(EQ1_COSTS)


@pytest.fixture(scope="session")
def fixture_boundaries():
    # lower-report side is <c, p> <= b
    return [AffineBoundary([-3, 1, 0], -2.0), AffineBoundary([-5, -4, 0], -3.0)]


@pytest.fixture(scope="session")
def fixture_embedding(fixture_cost):
    return build_surrogate(EmbeddingInput(fixture_cost, EQ1_PHI, 3.0))


@pytest.fixture(scope="session")
def fixture_oriented_normals(fixture_boundaries):
    return normals_from_boundaries(fixture_boundaries)


@pytest.fixture(scope="session")
def fixture_normals(fixture_oriented_normals):
    return build_from_normals(fixture_oriented_normals)


def normals_from_boundaries(boundaries) -> OrientedNormals:
    """The oriented normals of report-ordered affine boundaries, each with
    its lower report on the <c, p> <= b side; see
    :func:`ordelic.properties.orient_normals`."""
    return orient_normals([homogenize_boundary(bd) for bd in boundaries])


def random_orderable_spec(n: int, n_reports: int, seed: int):
    """Random strongly orderable target with a matching cost matrix.

    Boundaries are parallel slices <w, p> = t_r with strictly increasing
    thresholds, and the cost rows telescope as
    l_r = l_{r+1} + alpha*(w - t_r*1), which makes report r the expected-cost
    argmin exactly on its slice and keeps the embedded points of every outcome
    in strictly convex position for unit-spaced embeddings.

    Returns (boundaries, cost, phi).
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
    return boundaries, cost, np.arange(n_reports, dtype=np.float64)


def random_normals(n: int, n_reports: int, seed: int) -> OrientedNormals:
    """The oriented normals of ``random_orderable_spec(n, n_reports, seed)``."""
    return normals_from_boundaries(random_orderable_spec(n, n_reports, seed)[0])


def sample_boundary(normal, count: int, seed: int) -> np.ndarray:
    """Seeded points of the slice {<o, p> = 0} of the simplex for the normal
    o, scaled to unit norm; see :func:`ordelic.properties._sample_slice`."""
    o = np.asarray(normal, dtype=np.float64)
    o = o / np.linalg.norm(o)
    return _sample_slice(o, _slice_vertex_sets(o[None])[0], count, seed)


def labeled_rows(x_ids, y, n: int) -> tuple:
    """``write_dataset_csv`` arguments (keys, n, blocks) for the rows of the
    given x_ids and labels: one block, ids coded by first appearance."""
    index: dict = {}
    codes = np.array([index.setdefault(x, len(index)) for x in x_ids], dtype=np.int64)
    return tuple(index), n, [(codes, np.asarray(y, dtype=np.int64))]


def sampled_rows(scenario, rows: int, seed: int) -> tuple[list, np.ndarray]:
    """(x_ids, labels) of the blocks of ``sample_dataset(scenario, rows, seed)``."""
    blocks = list(sample_dataset(scenario, rows, seed))
    f = np.concatenate([b[0] for b in blocks])
    return [scenario.feature_ids[i] for i in f], np.concatenate([b[1] for b in blocks])


def reference_counts(x_ids, labels, n: int) -> LabelCounts:
    """Label counts of (x_id, label) rows by a first-appearance dict of
    Counters."""
    table: dict = {}
    for x, y in zip(x_ids, labels):
        table.setdefault(x, Counter())[int(y)] += 1
    return LabelCounts(tuple(table), np.array(
        [[c[y] for y in range(1, n + 1)] for c in table.values()], dtype=np.float64
    ).reshape(-1, n))


def sampled_counts(scenario, rows: int, seed: int) -> LabelCounts:
    """Label counts of ``sample_dataset(scenario, rows, seed)``, summed block
    by block, with x_ids in order of first appearance."""
    features, n = len(scenario.feature_ids), scenario.n_outcomes
    counts = np.zeros(features * n)
    first = np.full(features, rows)
    start = 0
    for f, y in sample_dataset(scenario, rows, seed):
        counts += np.bincount(f * n + y - 1, minlength=features * n)
        np.minimum.at(first, f, np.arange(start, start + len(f)))
        start += len(f)
    order = np.argsort(first, kind="stable")[:np.count_nonzero(first < rows)]
    return LabelCounts(tuple(scenario.feature_ids[i] for i in order),
                       counts.reshape(features, n)[order])


def scenario_to_json(s: ScenarioSpec) -> dict:
    """The JSON object of a scenario, as ``scenario_from_json`` reads it."""
    out = {
        "features": [
            {"id": str(x), "weight": float(w), "conditional": c.tolist()}
            for x, w, c in zip(s.feature_ids, s.weights, s.conditionals)
        ],
        "predictor": {"recipe": s.recipe},
    }
    if s.recipe == "perturbed":
        out["predictor"]["eta"] = s.eta
    if s.recipe == "fixed":
        out["predictor"]["table"] = {
            str(k): np.asarray(v, dtype=np.float64).tolist()
            for k, v in s.fixed_table.items()
        }
    return out


def mass_counts(x_ids, weights, conditionals) -> LabelCounts:
    """Label counts of features with the given weights and conditionals."""
    return LabelCounts(x_ids, np.asarray(weights, dtype=np.float64)[:, None]
                       * as_simplex_points(conditionals))


def bins_by_key(data: LabelCounts, keys):
    """The bins of ``data`` under one given key per x_id, in ``data.keys``
    order."""
    f = PredictorTable("report", data.keys, np.zeros(len(data.keys)))
    return bin_predictions(f, data, lambda _: np.asarray(keys))


class AffinePieces:
    """A continuous piecewise-affine function on the whole real line:
    strictly increasing breakpoints (m,), and slopes and intercepts (m+1,)
    with piece i live on [b_{i-1}, b_i], unbounded at the ends."""

    def __init__(self, breakpoints, slopes, intercepts):
        self.breakpoints, self.slopes, self.intercepts = (
            np.asarray(x, dtype=np.float64) for x in (breakpoints, slopes, intercepts))

    @classmethod
    def through(cls, breakpoints, values, left_slope: float,
                right_slope: float) -> "AffinePieces":
        """Linear interpolation through (breakpoint, value) nodes with affine
        tails, one outcome at a time: the reference of the written v_bar's
        bits."""
        bp, v = np.asarray(breakpoints, dtype=np.float64), np.asarray(values, dtype=np.float64)
        a = np.concatenate(([left_slope], np.diff(v) / np.diff(bp), [right_slope]))
        return cls(bp, a, np.append(v - a[:-1] * bp, v[-1] - a[-1] * bp[-1]))

    def __call__(self, u):
        u = np.asarray(u, dtype=np.float64)
        i = np.searchsorted(self.breakpoints, u)
        return self.slopes[i] * u + self.intercepts[i]


def written_v_bar(surrogate) -> list[AffinePieces]:
    """The identification functions a surrogate file spells out (``v_bar``),
    read back from the JSON text it is written as."""
    d = json.loads(dumps(surrogate_to_json(surrogate)))
    return [AffinePieces(v["breakpoints"], v["slopes"], v["intercepts"]) for v in d["v_bar"]]


def bisect_expected_root(v_per_outcome, probs, lo=-20.0, hi=20.0, iters=80):
    """Independent vectorized bisection oracle for expected-identification
    roots; assumes a sign change on [lo, hi]."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))

    def ev(u):
        acc = np.zeros(len(probs))
        for y, v in enumerate(v_per_outcome):
            acc += probs[:, y] * v(u)
        return acc

    lo_v = np.full(len(probs), lo)
    hi_v = np.full(len(probs), hi)
    assert np.all(ev(lo_v) <= 0) and np.all(ev(hi_v) >= 0)
    for _ in range(iters):
        mid = 0.5 * (lo_v + hi_v)
        below = ev(mid) < 0
        lo_v = np.where(below, mid, lo_v)
        hi_v = np.where(below, hi_v, mid)
    return 0.5 * (lo_v + hi_v)


def node_root_batch(bp, nodes, probs) -> np.ndarray:
    """Independent oracle for the property kernel: roots of
    u -> sum_y p_y v(u, y) for each row of ``probs``, with the piece chosen
    by exact signs rather than a tolerance.

    ``bp``: (m,) shared breakpoints; ``nodes``: (n, m) values of v(bp_l, y);
    outside the grid every v continues with unit slope.  The expected value is
    assumed to change sign exactly once; flat root intervals return their
    midpoint.
    """
    bp = np.asarray(bp, dtype=np.float64)
    M = np.asarray(probs, dtype=np.float64) @ np.asarray(nodes, dtype=np.float64)
    batch, m = M.shape
    rows = np.arange(batch) * m
    flat = M.ravel()

    def zero_right_of(i):
        """Zero of the expectation on the piece right of node i: a chord, or
        the unit-slope left tail for i = -1 and right tail for i = m - 1."""
        j = np.clip(i, 0, max(m - 2, 0))
        j1 = np.minimum(j + 1, m - 1)
        m_j, m_j1 = flat[rows + j], flat[rows + j1]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = bp[j] + (-m_j) * (bp[j1] - bp[j]) / (m_j1 - m_j)
        left, right = i < 0, i >= m - 1
        out[left] = bp[0] - M[left, 0]
        out[right] = bp[-1] - M[right, -1]
        return out

    r_left = zero_right_of((M < 0.0).sum(axis=1) - 1)       # after the last negative node
    r_right = zero_right_of(m - 1 - (M > 0.0).sum(axis=1))  # before the first positive one
    return 0.5 * (r_left + r_right)


def lipschitz_estimate(gamma_eval, n: int, norm="l2", samples: int = 20_000,
                       seed: int = 0, refine_rounds: int = 8):
    """Sampled oracle for a property's Lipschitz constant: the max
    difference quotient over random pairs 1e-4 apart, refined around the
    best pair.  A lower estimate, never a bound.

    Returns (K_hat, (p, q)) for the best pair found.
    """
    ordv = norm_order(norm)
    rng = np.random.default_rng(seed)

    def best_quotient(base):
        d = rng.standard_normal(base.shape)
        d -= d.mean(axis=1, keepdims=True)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        other = np.clip(base + 1e-4 * d, 0.0, None)
        other /= other.sum(axis=1, keepdims=True)
        dist = np.linalg.norm(base - other, ord=ordv, axis=1)
        ok = dist > 1e-12
        quot = np.where(ok, np.abs(gamma_eval(base) - gamma_eval(other))
                        / np.where(ok, dist, 1.0), 0.0)
        idx = int(np.argmax(quot))
        return float(quot[idx]), (base[idx], other[idx])

    best, best_pair = best_quotient(sample_simplex(n, samples, int(rng.integers(2**31))))
    radius = 0.05
    for _ in range(refine_rounds):
        cand = np.clip(best_pair[0] + rng.standard_normal((2048, n)) * radius, 1e-12, None)
        cand /= cand.sum(axis=1, keepdims=True)
        quot, pair = best_quotient(cand)
        if quot > best:
            best, best_pair = quot, pair
        radius *= 0.5
    return best, best_pair


def segment_distance(p1, p2, q1, q2) -> float:
    """Minimum distance between segments [p1, p2] and [q1, q2] in R^n, in
    closed form: the oracle for boundary gaps at n = 3, where every boundary
    slice is a segment."""
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


def slice_distance_qp(o1, o2) -> float:
    """QP oracle (scipy SLSQP) for the distance between the slices
    {p in simplex : <o1, p> = 0} and {q in simplex : <o2, q> = 0}, posed on
    the simplex constraints, not on slice vertices.  Accurate to rounding
    when the slices are apart; near 0 its square root leaves about 1e-9."""
    from scipy.optimize import minimize

    n = len(o1)
    A = np.zeros((4, 2 * n))
    A[0, :n] = A[1, n:] = 1.0
    A[2, :n], A[3, n:] = o1, o2
    b = np.array([1.0, 1.0, 0.0, 0.0])
    D = np.hstack([np.eye(n), -np.eye(n)])
    res = minimize(lambda z: (D @ z) @ (D @ z), np.full(2 * n, 1.0 / n),
                   jac=lambda z: 2.0 * D.T @ (D @ z), method="SLSQP",
                   bounds=[(0.0, None)] * (2 * n),
                   constraints=[{"type": "eq", "fun": lambda z: A @ z - b,
                                 "jac": lambda z: A}],
                   options={"ftol": 1e-16, "maxiter": 1000})
    assert res.success, res.message
    return float(np.linalg.norm(D @ res.x))


def dirichlet_predictor(scenario, seed: int) -> np.ndarray:
    """(features, n) predictor of a bayes or perturbed scenario, drawn the
    direct way: one ``rng.dirichlet(np.ones(n))`` per feature, in order."""
    rng = np.random.default_rng(seed)
    rows = []
    for cond in scenario.conditionals:
        if scenario.recipe == "perturbed" and scenario.eta > 0:
            p = cond + scenario.eta * rng.dirichlet(np.ones(scenario.n_outcomes))
            rows.append(p / p.sum())
        else:
            rows.append(cond.copy())
    return np.array(rows)


def simplex_points_reference(x) -> np.ndarray:
    """:func:`ordelic.simplex.as_simplex_points` as it was written with
    whole-array boolean tests: the oracle of its accept/reject decision,
    error text, faulty row and output bits."""
    P = np.asarray(x, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] < 2:
        raise SimplexError(f"expected rows of >= 2 entries, got shape {P.shape}")
    totals = P.sum(axis=1)
    if not (np.all(P >= -SIMPLEX_TOL) and np.all(P <= 1.0 + SIMPLEX_TOL)
            and np.all(np.abs(totals - 1.0) <= SIMPLEX_TOL)):
        inside = ((P >= -SIMPLEX_TOL) & (P <= 1.0 + SIMPLEX_TOL)).all(axis=1)
        i = int(np.argmin(inside & (np.abs(totals - 1.0) <= SIMPLEX_TOL)))
        p = P[i]
        if not np.isfinite(p).all():
            raise SimplexError(f"entries are not all finite: {p}", row=i)
        if not inside[i]:
            raise SimplexError(f"entries outside [0, 1] beyond tolerance: {p}", row=i)
        raise SimplexError(f"entries {p} sum to {totals[i]}, not 1 within {SIMPLEX_TOL}",
                           row=i)
    P = np.clip(P, 0.0, None)
    return P / P.sum(axis=1, keepdims=True)


def write_levelsets_rows(path, surrogate, res: int) -> None:
    """The levelsets CSV written row by row: the grid built point by point
    with Python divisions and validated once, both columns taken at those
    points by the kernel and the target sets, one f-string per row."""
    pts = as_simplex_points(np.array([(i / res, j / res, (res - i - j) / res)
                                      for i in range(res + 1) for j in range(res + 1 - i)]))
    gamma_s = roe_batch(surrogate.grid, surrogate.nodes, pts)
    gamma_d = np.argmax(surrogate._target()._target_mask(pts), axis=1) + 1
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("p1,p2,p3,gamma_discrete,gamma_surrogate\n")
        fh.writelines(f"{p1!r},{p2!r},{p3!r},{gd},{gs!r}\n" for (p1, p2, p3), gd, gs
                      in zip(pts.tolist(), gamma_d.tolist(), gamma_s.tolist()))


def region_index(normals, probs) -> np.ndarray:
    """1-based region of each row of ``probs`` under oriented normals; a
    boundary tie resolves to the lower region."""
    return (np.asarray(probs) @ normals.o.T > BOUNDARY_TOL).sum(axis=1) + 1


def from_ternary_plot(xy) -> np.ndarray:
    """Simplex point of ternary-plot coordinates: the inverse of
    :func:`ordelic.simplex.ternary_plot_coords`."""
    xy = np.asarray(xy, dtype=np.float64)
    p2 = xy[..., 1] * 2.0 / np.sqrt(3.0)
    p3 = xy[..., 0] - 0.5 * p2
    p = np.stack([1.0 - p2 - p3, p2, p3], axis=-1)
    return as_simplex_points(p.reshape(-1, 3)).reshape(p.shape)


class Antiderivative:
    """The antiderivative F of an AffinePieces v with F(0) = 0, continuous
    across the breakpoints; ``coeffs`` rows are (c2, c1, c0) per piece."""

    def __init__(self, v):
        bp, a, c = v.breakpoints, v.slopes, v.intercepts
        jumps = (0.5 * a[:-1] * bp + c[:-1]) * bp - (0.5 * a[1:] * bp + c[1:]) * bp
        const = np.concatenate([[0.0], np.cumsum(jumps)])
        const -= const[np.searchsorted(bp, 0.0)]
        self.breakpoints = bp
        self.coeffs = np.column_stack([0.5 * a, c, const])

    def __call__(self, u):
        c2, c1, c0 = self.coeffs[np.searchsorted(self.breakpoints, u)].T
        return (c2 * u + c1) * u + c0

    def derivative_interval(self, u: float) -> tuple[float, float]:
        """(left, right) derivative at u."""
        c2, c1, _ = self.coeffs[[np.searchsorted(self.breakpoints, u, side=side)
                                 for side in ("left", "right")]].T
        return tuple((2.0 * c2 * u + c1).tolist())


# Reference copies of the construction steps as they were written one normal,
# one piece, one grid point and one outcome at a time: the oracles of the
# batched steps' bits.  Only _dual and _pairs, which work on any rows, are
# shared with the package.


def slice_vertices_reference(o) -> np.ndarray:
    """Vertices of the slice {<o, p> = 0} of the simplex, one normal at a
    time: vertices e_m with |o_m| <= 1e-12 ||o||, then the edge crossings
    with |o_i - o_j| > 1e-12 ||o|| at t = o_i / (o_i - o_j) in (1e-12,
    1 - 1e-12), less points within 1e-9 of an earlier one."""
    n = len(o)
    I, J = _pairs(n)
    den = o[I] - o[J]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = o[I] / den
    tiny = 1e-12 * np.hypot.reduce(o)
    cross = (np.abs(den) > tiny) & (1e-12 < t) & (t < 1.0 - 1e-12)
    zero = np.flatnonzero(np.abs(o) <= tiny)
    rows = np.arange(len(zero), len(zero) + int(cross.sum()))
    P = np.zeros((len(zero) + len(rows), n))
    P[np.arange(len(zero)), zero] = 1.0
    P[rows, I[cross]] = 1.0 - t[cross]
    P[rows, J[cross]] = t[cross]
    if np.minimum(t[cross], 1.0 - t[cross]).min(initial=1.0) >= 1e-9:
        return P
    near = np.linalg.norm(P[:, None] - P, axis=2) < 1e-9
    uniq: list[int] = []
    for r in range(len(P)):
        if not near[r, uniq].any():
            uniq.append(r)
    return P[uniq]


def _piece_gradients_reference(O, w, l, pts, norm):
    m = O.shape[0]
    if l in (-1, m - 1):
        G = O[[max(l, 0)]]
    else:
        oi, oi1 = O[l], O[l + 1]
        den = pts @ (oi - oi1)
        f = (pts @ oi) / den
        G = w[l] * ((oi - f[:, None] * (oi - oi1)) / den[:, None])
    values, dirs = _dual(G, norm)
    return dirs, np.broadcast_to(values, len(pts))


def _edge_points_reference(O, l, V, norm):
    a, b = O[l], O[l + 1]
    u, v = V @ a, -(V @ b)
    N = v[:, None] * (a - a.mean()) + u[:, None] * (b - b.mean())
    I, J = _pairs(len(V))
    n0, n1 = N[I], N[J] - N[I]
    s0, s1 = (u + v)[I], (u + v)[J] - (u + v)[I]
    with np.errstate(divide="ignore", invalid="ignore"):
        if norm == "l2":
            n00, n01, n11 = (n0 * n0).sum(1), (n0 * n1).sum(1), (n1 * n1).sum(1)
            c2, c1, c0 = -s1 * n11, s0 * n11 - 3.0 * s1 * n01, s0 * n01 - 2.0 * s1 * n00
            q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
            t = np.concatenate([q / c2, c0 / q])
        else:
            ci, cj = _pairs(N.shape[1])
            cross = (n0[:, cj] - n0[:, ci]) / (n1[:, ci] - n1[:, cj])
            cross[~((cross > 0.0) & (cross < 1.0))] = np.nan
            ends = np.sort(np.column_stack([np.zeros(len(I)), cross, np.ones(len(I))]),
                           axis=1)
            mid = np.nan_to_num(0.5 * (ends[:, :-1] + ends[:, 1:]))
            X = n0[:, None, :] + mid[:, :, None] * n1[:, None, :]
            _, U = _dual(X.reshape(-1, N.shape[1]), norm)
            U = U.reshape(X.shape)
            alpha, beta = (U * n0[:, None, :]).sum(2), (U * n1[:, None, :]).sum(2)
            s0c, s1c = s0[:, None], s1[:, None]
            stat = (beta * s0c - 2.0 * s1c * alpha) / (beta * s1c)
            t = np.concatenate([cross.T.ravel(), stat.T.ravel()])
    pair = np.arange(len(t)) % len(I)
    ok = (t > 0.0) & (t < 1.0)
    t, pair = t[ok], pair[ok]
    return V[I[pair]] + t[:, None] * (V[J[pair]] - V[I[pair]])


def _region_reference(C, S, on, l):
    m = S.shape[1]
    above, below = ~on & (S > 0.0), ~on & (S < 0.0)
    inside = np.ones(len(C), dtype=bool)
    if l >= 0:
        inside &= ~below[:, l]
    if l < m - 1:
        inside &= ~above[:, l + 1]
    if (l >= 0 and not above[inside, l].any()) or (l < m - 1 and not below[inside, l + 1].any()):
        return None
    return C[inside]


def lipschitz_reference(grid, nodes, norm) -> LipschitzMax:
    """:func:`ordelic.properties.lipschitz_constant` one piece at a time:
    each piece's region, edge points and gradients apart, and the best piece
    kept as the pieces go by."""
    O = -np.asarray(nodes, dtype=np.float64).T
    w = np.diff(np.asarray(grid, dtype=np.float64))
    m, n = O.shape
    slices = [slice_vertices_reference(o) for o in O]
    for l in range(m - 1):
        if len(slices[l]):
            # a vertex of slice l in the tie band of node l + 1: a score
            # against its unit normal of at most BOUNDARY_TOL
            s = slices[l] @ O[l + 1]
            if s.max() >= -BOUNDARY_TOL * np.sqrt(O[l + 1] @ O[l + 1]):
                return LipschitzMax(float("inf"), slices[l][int(np.argmax(s))], l,
                                    None, np.full(n, np.nan))
    C = np.vstack([np.eye(n), *slices])
    S = C @ O.T
    owner = np.concatenate([np.full(n, -1)] + [np.full(len(V), l) for l, V in enumerate(slices)])
    on = owner[:, None] == np.arange(m)
    best = LipschitzMax(0.0, C[0], -1, C, np.zeros(n))
    for l in range(-1, m):
        R = _region_reference(C, S, on, l)
        if R is None:
            continue
        V = R if l in (-1, m - 1) else np.vstack([R, _edge_points_reference(O, l, R, norm)])
        dirs, values = _piece_gradients_reference(O, w, l, V, norm)
        i = int(np.argmax(values))
        if values[i] > best.K:
            best = LipschitzMax(float(values[i]), V[i], l, R, dirs[i])
    if norm == "l2" and best.K > 0.0:
        return best._replace(direction=best.direction / np.linalg.norm(best.direction))
    return best


# The embedding as the max-affine construction built it, the oracle of the
# closed form: each outcome's loss a max of affine pieces from the lower
# convex envelope of its embedded costs, with the derivatives read back from
# the pieces active at each grid point, under that construction's tolerances.
EMBED_TOL = 1e-10  # the loss must meet each cost within it, relative
ACTIVE_TOL = 1e-9  # pieces within it of the max are active, relative


def lower_convex_envelope_reference(points) -> list[tuple[float, float]]:
    """(slope, intercept) of the chords of the lower convex hull of (u, v)
    points with strictly increasing u, left to right; collinear points are
    absorbed into one chord."""
    hull: list[np.ndarray] = []
    for p in np.asarray(points, dtype=np.float64):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) > 0:
                break
            hull.pop()  # a lies on or above the chord o -> p
        hull.append(p)
    chords = []
    for left, right in zip(hull[:-1], hull[1:]):
        slope = (right[1] - left[1]) / (right[0] - left[0])
        chords.append((float(slope), float(left[1] - slope * left[0])))
    return chords


def embedding_nodes_reference(cost, phi, outer_slope=None):
    """(grid, nodes, S) of the embedding of ``cost`` at ``phi`` built from
    max-affine losses, or None where that construction refused it: the
    outer slope falls short of an outcome's steepest chord by more than
    1e-12, or a loss misses a cost by more than EMBED_TOL (the costs are
    not convex in phi).  Each node is the three-case pseudo-derivative at a
    grid point, one point at a time, from the pieces within ACTIVE_TOL of
    the max, relative to the largest |a u| + |b| of the pieces."""
    phi = np.asarray(phi, dtype=np.float64)
    points = [np.column_stack([phi, cost.entries[:, y]]) for y in range(cost.n_outcomes)]
    chords = [lower_convex_envelope_reference(pts) for pts in points]
    steepest = [max(abs(a) for a, _ in c) for c in chords]
    S = max(steepest) if outer_slope is None else float(outer_slope)
    grid = np.unique(np.concatenate([phi, 0.5 * (phi[:-1] + phi[1:])]))
    nodes = np.empty((cost.n_outcomes, len(grid)))
    for y, (pts, c, max_slope) in enumerate(zip(points, chords, steepest)):
        if S < max_slope - 1e-12:
            return None
        pieces = []
        for piece in [(-S, pts[0, 1] + S * pts[0, 0])] + c + [(S, pts[-1, 1] - S * pts[-1, 0])]:
            if not any(abs(piece[0] - q[0]) <= 1e-12 and abs(piece[1] - q[1]) <= 1e-12
                       for q in pieces):
                pieces.append(piece)
        a, b = np.array(pieces).T
        want = pts[:, 1]
        if np.any(np.abs((a * phi[:, None] + b).max(axis=1) - want)
                  > EMBED_TOL * (1.0 + np.abs(want))):
            return None
        for i, u in enumerate(grid.tolist()):
            vals = a * u + b
            top, size = vals.max(), (np.abs(a * u) + np.abs(b)).max()
            active = a[vals >= top - ACTIVE_TOL * size]
            dl, dr = float(active.min()), float(active.max())
            nodes[y, i] = dl if abs(dl - dr) <= 1e-12 else \
                0.0 if np.sign(dl) != np.sign(dr) else 0.5 * (dl + dr)
    return grid, nodes, S


# How the JSON readers turned numbers into arrays before one converter
# (serialize._array) took over, kept as the oracle of its tests.


def numbers_only_reference(value: list) -> bool:
    """Whether a JSON array holds numbers only (ints and floats, not bools),
    or arrays that do."""
    kinds = set(map(type, value))
    return all(map(numbers_only_reference, value)) if kinds == {list} else kinds <= {int, float}


def array_field_reference(value) -> np.ndarray | None:
    """An array-of-numbers field (an array of numbers, or of such arrays) as
    float64, or None."""
    if not isinstance(value, list) or not numbers_only_reference(value):
        return None
    try:
        return np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None


def numbers_reference(values: list, dtype) -> np.ndarray | None:
    """``values`` as one array of ``dtype`` when each is a JSON number (an
    int for int64) that fits it; otherwise None."""
    if not set(map(type, values)) <= ({int} if dtype is np.int64 else {int, float}):
        return None
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:  # an integer beyond the range of dtype
        return None


def no_bools_reference(rows: list, values: np.ndarray) -> bool:
    """Whether the lists of numbers ``rows``, which numpy converted to the
    int or float array ``values``, hold no bool, looking only at the rows
    that hold a 0 or a 1."""
    suspect = np.unique(np.flatnonzero((values == 0) | (values == 1)) // values.shape[1])
    return set(map(type, itertools.chain.from_iterable(
        [rows[i] for i in suspect.tolist()]))) <= {int, float}


def predictor_values_reference(kind: str, keys: tuple, rows: list, n: int,
                               source: str) -> np.ndarray:
    """The values of a predictor table of ``kind``, or the SpecError naming
    the first x_id at fault."""
    if kind == "distribution":
        if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {n}:
            values = numbers_reference(list(itertools.chain.from_iterable(rows)), np.float64)
            if values is not None:
                return values.reshape(len(rows), n)
        for x, row in zip(keys, rows):
            if type(row) is not list or len(row) != n:
                shape = (len(row),) if type(row) is list else ()
                raise SpecError(f"x_id {x!r} in {source}: distribution of shape {shape} "
                                f"for {n} outcomes")
            if numbers_reference(row, np.float64) is None:
                raise SpecError(f"x_id {x!r} in {source}: distribution {row!r:.60} is not "
                                f"{n} numbers in the float64 range")
        raise AssertionError("every row holds n numbers, so the table converts")
    if kind == "scalar":
        values = numbers_reference(rows, np.float64)
        if values is None:
            x, v = next((x, v) for x, v in zip(keys, rows)
                        if numbers_reference([v], np.float64) is None)
            raise SpecError(f"x_id {x!r} in {source}: scalar prediction {v!r:.40} "
                            "is not a number in the float64 range")
        return values
    if float in set(map(type, rows)):
        rows = [int(v) if type(v) is float and v.is_integer() else v for v in rows]
    values = numbers_reference(rows, np.int64)
    if values is None:
        x, v = next((x, v) for x, v in zip(keys, rows)
                    if numbers_reference([v], np.int64) is None)
        raise SpecError(f"x_id {x!r} in {source}: report prediction {v!r:.40} "
                        "is not an integer in the int64 range")
    return values


def conditionals_reference(rows: list) -> np.ndarray | None:
    """Scenario conditionals as float64: all rows in one ``np.array`` when
    it is an int or float table with no bools, else row by row as
    array-of-numbers fields of one flat shape; None when a row is refused."""
    try:
        values = np.array(rows)
        if values.ndim == 2 and values.dtype.kind in "if" and no_bools_reference(rows, values):
            return values.astype(np.float64)
    except (ValueError, OverflowError):
        pass
    arrays = [array_field_reference(row) for row in rows]
    if not arrays or any(a is None or a.shape != arrays[0].shape[:1] for a in arrays):
        return None
    return np.array(arrays)
