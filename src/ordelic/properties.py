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
from typing import ClassVar, NamedTuple

import numpy as np

from ordelic._kernels import roe_batch, tie_band
from ordelic.errors import OrdelicError, OrderabilityError, SpecError
from ordelic.simplex import as_simplex_points, norm_name

_MIN_GAP = 1e-9  # least separation, along a normal, of consecutive slices
_WOLFE_MAX_ITER = 1000  # major plus minor cycles of one min-norm point search
NODE_DECREASE_TOL = 1e-12  # largest relative fall between embedding nodes taken as flat
# Largest magnitude of an identification node: K's l2 edge points solve a
# quadratic whose discriminant, of degree 10 in the nodes, overflows from 1e31.
NODE_MAX_MAGNITUDE = 1e30


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

    def target_sets(self, probs) -> np.ndarray:
        """(rows, reports) mask of the expected-cost minimizers at each row
        of ``probs``: report r is in the set when, for every report s, p is
        below or in the tie band of <l_r - l_s, p> = 0."""
        return self._target_mask(as_simplex_points(probs))

    def _target_mask(self, P: np.ndarray) -> np.ndarray:
        """:meth:`target_sets` at rows already validated: the least
        <l_s, p> + band[r, s] over s, for each r, with band[r, s] the tie band
        of <l_r - l_s, p> = 0 (:func:`tie_band`), one column at a time,
        which is several times faster than reducing over an axis."""
        E = self.entries
        ec = P @ E.T
        mask = np.empty(ec.shape, dtype=bool)
        low = np.empty(len(ec))
        for r, band in enumerate(tie_band((E[:, None] - E).T)):
            np.add(ec[:, 0], band[0], out=low)
            for column, b in zip(ec.T[1:], band[1:]):
                np.minimum(low, column + b, out=low)
            np.less_equal(ec[:, r], low, out=mask[:, r])
        return mask


@dataclass(frozen=True)
class AffineBoundary:
    """Region boundary {p : <coeffs, p> = offset} intersected with the simplex."""

    coeffs: np.ndarray
    offset: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 1 or len(c) < 2 or not np.isfinite(np.append(c, float(self.offset))).all():
            raise SpecError("a boundary needs 2 or more finite coefficients and a finite offset")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "offset", float(self.offset))


def homogenize_boundary(bd: AffineBoundary) -> np.ndarray:
    """Unit direction o with <o, p> = 0 iff <c, p> = b on the simplex.

    Uses sum(p) = 1 to fold the offset into the coefficients; the sign is
    arbitrary until :class:`OrientedNormals` orients it.  A c - b 1 of norm
    at most 1e-12 (||c|| + |b|) is refused; one along 1 meets no simplex edge.
    """
    o = bd.coeffs - bd.offset
    norm = np.linalg.norm(o)
    if norm <= 1e-12 * (np.linalg.norm(bd.coeffs) + abs(bd.offset)):
        raise SpecError("degenerate boundary: coeffs - offset*ones vanishes")
    return o / norm


def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j below k in row-major order, as ``np.triu_indices(k,
    1)`` gives them at a quarter of its cost."""
    r = np.arange(k)
    return np.nonzero(r[:, None] < r)


def _slice_vertex_sets(O: np.ndarray) -> list[np.ndarray]:
    """Vertices of the slice {<o, p> = 0} of the simplex for each row o of
    the (k, n) array O: the vertices e_m with |o_m| <= 1e-12 ||o||, then the
    edge crossings (1-t) e_i + t e_j, i < j, with |o_i - o_j| > 1e-12 ||o||,
    at t = o_i / (o_i - o_j) in (1e-12, 1 - 1e-12); points within 1e-9 of an
    earlier one of the same slice are dropped.  Scaling o changes no
    decision.  Every row's candidates are laid out at once: n vertices,
    then one crossing per edge."""
    k, n = O.shape
    if not k:
        return []
    I, J = _pairs(n)
    den = O[:, I] - O[:, J]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = O[:, I] / den
    tiny = 1e-12 * np.hypot.reduce(O, axis=1, keepdims=True)
    cross = (np.abs(den) > tiny) & (1e-12 < t) & (t < 1.0 - 1e-12)
    keep = np.concatenate([np.abs(O) <= tiny, cross], axis=1)
    edges = np.arange(n, n + len(I))
    P = np.zeros((k, n + len(I), n))
    P[:, np.arange(n), np.arange(n)] = 1.0
    P[:, edges, I] = 1.0 - t
    P[:, edges, J] = t
    out = np.split(P[keep], np.cumsum(np.count_nonzero(keep, axis=1))[:-1])
    close = np.where(cross, np.minimum(t, 1.0 - t), 1.0).min(axis=1, initial=1.0) < 1e-9
    for r in np.flatnonzero(close):  # points may repeat; else every two differ by 1e-9
        V = out[r]
        near = np.linalg.norm(V[:, None] - V, axis=2) < 1e-9
        uniq: list[int] = []
        for i in range(len(V)):
            if not near[i, uniq].any():
                uniq.append(i)
        out[r] = V[uniq]
    return out


def _min_norm_point(P: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Point of least Euclidean norm in the convex hull of the rows of P, by
    Wolfe's algorithm (Math. Programming 11, 1976).

    Returns (x, lam) with x = lam @ P, lam >= 0 summing to 1 and nonzero only
    on an affinely independent corral of rows, once |x|^2 - min_j <P_j, x>
    is at most 1e-12 max_j |P_j|^2.  Returns None when ``max_iter`` major
    and minor cycles end first, or when rounding stalls the search (a
    singular corral, or a row of the corral chosen again).
    """
    sq = np.einsum("ij,ij->i", P, P)
    tol = 1e-12 * sq.max()
    S, lam = [int(np.argmin(sq))], np.ones(1)
    x, major = P[S[0]], True
    for _ in range(max_iter):
        if major:  # add the row most below x, unless x is optimal
            g = P @ x
            j = int(np.argmin(g))
            if x @ x - g[j] <= tol:
                weights = np.zeros(len(P))
                weights[S] = lam
                return x, weights
            if j in S:
                return None
            S, lam = S + [j], np.append(lam, 0.0)
        Q = P[S]
        A = np.ones((len(S) + 1, len(S) + 1))
        A[0, 0], A[1:, 1:] = 0.0, Q @ Q.T
        try:  # mu: weights of the point of the corral's affine hull nearest 0
            mu = np.linalg.solve(A, np.eye(len(S) + 1)[0])[1:]
        except np.linalg.LinAlgError:
            return None
        major = bool(mu.min() > 0.0)
        if not major:  # minor cycle: walk toward mu until a weight hits 0
            ratio = np.where(mu <= 0.0, lam / np.where(mu <= 0.0, lam - mu, 1.0), np.inf)
            drop = int(np.argmin(ratio))
            mu = lam + ratio[drop] * (mu - lam)
            mu[drop] = 0.0
            S = [s for s, w in zip(S, mu) if w > 0.0]
            mu = mu[mu > 0.0]
        lam = mu
        x = lam @ P[S]
    return None


def _misordered(i: int) -> OrderabilityError:
    return OrderabilityError(
        f"boundaries {i} and {i + 1} are not met in report order; list the boundaries "
        "from report 1 up, each with its lower report on the <c, p> <= b side")


@dataclass(frozen=True)
class OrientedNormals:
    """Ordered unit normals o_1..o_k defining k+1 regions, oriented on
    construction: o_1 keeps its sign (region 1 is its negative side) and
    o_{i+1} takes the one that puts slice i on its negative side.  ``slices``
    holds the vertices of each boundary's slice of the simplex.  Raises
    :class:`OrderabilityError`, naming the cause and the boundaries, unless
    the normals are strongly orderable: every boundary meets the simplex
    interior, and slice i lies ``_MIN_GAP`` or more on the negative side of
    o_{i+1} and slice i+1 on the positive side of o_i; a slice's extremes
    along a normal are at its vertices, so this is exact for any n."""

    o: np.ndarray  # (k, n)
    slices: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        O = np.array(self.o, dtype=np.float64)  # a copy: the chain flips its rows
        if O.ndim != 2 or O.shape[0] < 1:
            raise SpecError("normals must form a (k, n) array")
        if not np.all(np.isfinite(O)):
            raise SpecError("the normals are not finite")
        with np.errstate(over="ignore"):  # an entry near 1e308: an inf norm, refused
            norms = np.linalg.norm(O, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise SpecError("normals must have unit Euclidean norm")
        slices = tuple(_slice_vertex_sets(O))
        for i, V in enumerate(slices, start=1):
            if np.count_nonzero(V, axis=1).max(initial=0) < 2:
                raise OrderabilityError(f"boundary {i} does not meet the simplex interior")
        for i in range(1, len(O)):
            s = slices[i - 1] @ O[i]
            if s.max() > -_MIN_GAP and s.min() < _MIN_GAP:
                raise OrderabilityError(
                    f"boundaries {i} and {i + 1} cross inside the simplex")
            if s.max() > -_MIN_GAP:
                O[i] = -O[i]
            if (slices[i] @ O[i - 1]).min() <= 0.0:
                raise _misordered(i)
        object.__setattr__(self, "o", O)
        object.__setattr__(self, "slices", slices)

    @property
    def k(self) -> int:
        return self.o.shape[0]

    @property
    def n(self) -> int:
        return self.o.shape[1]

    def target_sets(self, probs) -> np.ndarray:
        """(rows, reports) mask of the regions holding each row of ``probs``;
        a point in the tie band of a boundary is in both adjacent ones."""
        return self._target_mask(as_simplex_points(probs))

    def _target_mask(self, P: np.ndarray) -> np.ndarray:
        """:meth:`target_sets` at rows already validated: region j holds the
        rows on or above boundaries 1..j-1 and on or below boundaries j..k,
        up to the tie band, built one column at a time."""
        S = P @ self.o.T
        band = tie_band(self.o.T)
        mask = np.ones((len(S), self.k + 1), dtype=bool)
        for j in range(1, self.k + 1):  # on or above every boundary below j
            np.logical_and(mask[:, j - 1], S[:, j - 1] >= -band[j - 1], out=mask[:, j])
        below = np.ones(len(S), dtype=bool)
        for j in range(self.k - 1, -1, -1):  # on or below every boundary from j
            below &= S[:, j] <= band[j]
            mask[:, j] &= below
        return mask


class LipschitzMax(NamedTuple):
    """Exact Lipschitz constant ``K`` of a property in one norm, a point of
    the simplex where the dual norm of its gradient attains K, the grid
    ``piece`` there (-1 and m - 1 are the tails), the vertices of that
    piece's ``region``, and a sum-zero ``direction`` of unit norm along
    which the derivative is K.  Where K = inf, the point is shared by the
    slices of nodes ``piece`` and ``piece + 1``, and the region is None
    and the direction NaN."""

    K: float
    point: np.ndarray
    piece: int
    region: np.ndarray | None
    direction: np.ndarray


def _dual(X: np.ndarray, norm: str) -> tuple[np.ndarray, np.ndarray]:
    """Dual norm of each row of X on sum-zero directions, and a sum-zero
    direction attaining it (of unit norm for l1 and linf; x - mean x, not
    yet scaled, for l2): ||x - mean x||_2 for l2, (max x - min x) / 2 for
    l1, and for linf the top floor(n/2) entries of x less the bottom
    floor(n/2)."""
    if norm == "l2":
        D = X - X.mean(axis=1, keepdims=True)
        # row-wise dot products: the same sums as np.linalg.norm of one row
        return np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0]), D
    k = 1 if norm == "l1" else X.shape[1] // 2
    order = np.argsort(X, axis=1, kind="stable")
    rows = np.arange(len(X))[:, None]
    U = np.zeros_like(X)
    U[rows, order[:, X.shape[1] - k:]] = 0.5 if norm == "l1" else 1.0
    U[rows, order[:, :k]] = -0.5 if norm == "l1" else -1.0
    return (U * X).sum(axis=1), U


def _gradients(O: np.ndarray, w: np.ndarray, pieces: list, points: list) -> np.ndarray:
    """Property gradient on grid piece ``pieces[i]`` (-1 and m - 1 are the
    tails) at each row of ``points[i]``, stacked over i; O holds the node
    columns negated.  A tail's gradient is its node row; on a middle piece
    l, the piece g_l + w_l <o_l, p>/<o_l - o_{l+1}, p>, the two products with
    each piece's points are taken one piece at a time, the rest over all
    rows at once."""
    m = O.shape[0]
    D = O[:-1] - O[1:]  # o_l - o_{l+1}
    piece = np.repeat(pieces, [len(V) for V in points])
    tail = (piece == -1) | (piece == m - 1)
    G = np.empty((len(piece), O.shape[1]))
    G[tail] = O[np.maximum(piece[tail], 0)]
    middle = [(l, V) for l, V in zip(pieces, points) if 0 <= l < m - 1]
    if middle:
        den = np.concatenate([V @ D[l] for l, V in middle])
        f = np.concatenate([V @ O[l] for l, V in middle]) / den
        at = piece[~tail]
        G[~tail] = w[at][:, None] * ((O[at] - f[:, None] * D[at]) / den[:, None])
    return G


def _edge_points(O: np.ndarray, middle: list, norm: str) -> list[np.ndarray]:
    """For each middle piece (l, V) of ``middle``, the points inside the
    segments between rows of V where the dual norm of the piece's gradient
    can peak along the segment; the roots of every piece are solved as one
    array.

    With u = <o_l, p> and v = -<o_{l+1}, p> the piece's gradient is
    w_l N / (u + v)^2, N = v o_l + u o_{l+1}, and along p0 + t (p1 - p0)
    N = n0 + t n1 and u + v = s0 + t s1.  For l2 the squared norm is
    w_l^2 |n0 + t n1|^2 / (s0 + t s1)^4, stationary where
    -s1 |n1|^2 t^2 + (s0 |n1|^2 - 3 s1 <n0, n1>) t + s0 <n0, n1> - 2 s1 |n0|^2 = 0.
    The l1 and linf duals are linear in N between the t where two of its
    coordinates cross; on each such interval the norm is
    w_l (alpha + beta t) / (s0 + s1 t)^2, stationary at
    t = (beta s0 - 2 s1 alpha) / (beta s1).  The crossings are returned too.
    Extra points of a segment do no harm: the max is taken over the values
    at all of them.
    """
    if not middle:
        return []
    rows = np.ascontiguousarray(O)  # so each row's mean sums as one node's does
    centred = rows - rows.mean(axis=1, keepdims=True)
    u, v, I, J, start = [], [], [], [], 0
    for l, V in middle:
        u.append(V @ O[l])
        v.append(-(V @ O[l + 1]))
        i, j = _pairs(len(V))
        I.append(i + start)
        J.append(j + start)
        start += len(V)
    u, v, I, J = map(np.concatenate, (u, v, I, J))
    sizes = [len(V) for _, V in middle]
    k = np.repeat(np.arange(len(middle)), sizes)  # the index in middle of each row
    at = np.repeat([l for l, _ in middle], sizes)  # the piece of each row
    N = v[:, None] * centred[at] + u[:, None] * centred[at + 1]
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
                           axis=1)  # NaN sorts last
            mid = np.nan_to_num(0.5 * (ends[:, :-1] + ends[:, 1:]))
            X = n0[:, None, :] + mid[:, :, None] * n1[:, None, :]
            _, U = _dual(X.reshape(-1, N.shape[1]), norm)
            U = U.reshape(X.shape)
            alpha, beta = (U * n0[:, None, :]).sum(2), (U * n1[:, None, :]).sum(2)
            s0c, s1c = s0[:, None], s1[:, None]
            stat = (beta * s0c - 2.0 * s1c * alpha) / (beta * s1c)
            t = np.concatenate([cross.T.ravel(), stat.T.ravel()])
    pair = np.arange(len(t)) % len(I)  # t holds blocks of one t per pair
    ok = (t > 0.0) & (t < 1.0)
    t, pair = t[ok], pair[ok]
    order = np.argsort(k[I[pair]], kind="stable")  # piece by piece, blocks in order
    t, pair = t[order], pair[order]
    V = np.concatenate([V for _, V in middle])
    E = V[I[pair]] + t[:, None] * (V[J[pair]] - V[I[pair]])
    return np.split(E, np.cumsum(np.bincount(k[I[pair]], minlength=len(middle)))[:-1])


def _regions(C: np.ndarray, S: np.ndarray, on: np.ndarray) -> tuple[list, list]:
    """The grid pieces l = -1..m-1 (S = C @ O.T has m columns) whose regions
    do not lie inside one node slice, and the rows of C in each.  A row
    marked ``on`` node l is a vertex of slice l; every other row is on the
    side of node l that the sign of its score gives, with no tolerance, so
    the regions do not change with the scale of the nodes.  Piece l holds
    the rows on or above node l and on or below node l + 1; its region lies
    inside slice l when none of them is above it, or inside slice l + 1
    when none is below it."""
    ge, le = on | (S >= 0.0), on | (S <= 0.0)
    true = np.ones((len(S), 1), dtype=bool)
    inside = np.hstack([true, ge]) & np.hstack([le, true])  # column l + 1: piece l
    keep = (np.any(inside & np.hstack([true, ~le]), axis=0)
            & np.any(inside & np.hstack([~ge, true]), axis=0))
    columns = np.flatnonzero(keep)
    return (columns - 1).tolist(), [C[inside[:, c]] for c in columns]


def lipschitz_constant(grid, nodes, norm, slices) -> LipschitzMax:
    """Exact Lipschitz constant K of the property on (grid, nodes) over the
    simplex in ``norm`` (l1, l2 or linf), with its maximizer.

    K is the max over the simplex of the dual norm of the gradient on
    sum-zero directions (see :func:`_dual`).  With h_l = nodes[:, l], piece
    l of the grid holds the p with <h_l, p> <= 0 <= <h_{l+1}, p>.  When two
    consecutive slices {<h_l, p> = 0} share a point of the simplex, up to
    the tie band of h_{l+1} (:func:`~ordelic._kernels.tie_band`) at a vertex
    of slice l, the kernel finds a flat root interval there and K = inf;
    that vertex is returned.  The band is relative to ||h_{l+1}||, so K does
    not change when the nodes are scaled.  Otherwise
    the slices do not meet, so every piece's region polytope has simplex
    vertices and slice vertices as its vertices.  The tails are linear.  A
    middle piece's gradient depends on p only through (u, v) = (-<h_l, p>,
    <h_{l+1}, p>) and is homogeneous of degree -1 there, so over the
    region's image in the (u, v) plane any norm of it peaks on the image's
    boundary, whose edges are images of segments between region vertices:
    the max is at a vertex or at one of the points :func:`_edge_points`
    gives.  Regions inside one slice have no interior and are skipped.  The
    gradients of every piece go through one :func:`_dual`, and the first
    piece with the largest value gives the maximizer.
    ``slices`` holds the vertices of each node slice as
    :func:`_slice_vertex_sets` of -h_l gives them (``Surrogate.slices``).
    """
    norm = norm_name(norm)
    O = -np.asarray(nodes, dtype=np.float64).T  # (m, n); row l is -h_l
    w = np.diff(np.asarray(grid, dtype=np.float64))
    m, n = O.shape
    band = tie_band(O.T)
    for l in range(m - 1):
        if len(slices[l]):
            s = slices[l] @ O[l + 1]
            if s.max() >= -band[l + 1]:
                return LipschitzMax(float("inf"), slices[l][int(np.argmax(s))], l,
                                    None, np.full(n, np.nan))
    C = np.vstack([np.eye(n), *slices])
    on = np.zeros((len(C), m), dtype=bool)  # each slice vertex is on its own slice
    on[np.arange(n, len(C)), np.repeat(np.arange(m), [len(V) for V in slices])] = True
    best = LipschitzMax(0.0, C[0], -1, C, np.zeros(n))
    pieces, regions = _regions(C, C @ O.T, on)
    if not pieces:
        return best
    edges = iter(_edge_points(O, [(l, R) for l, R in zip(pieces, regions)
                                  if 0 <= l < m - 1], norm))
    points = [R[:1] if l in (-1, m - 1) else np.vstack([R, next(edges)])  # tails are linear
              for l, R in zip(pieces, regions)]
    values, dirs = _dual(_gradients(O, w, pieces, points), norm)
    starts = np.cumsum([0] + [len(V) for V in points[:-1]])
    top = np.maximum.reduceat(values, starts)  # NaN where a piece has one: skipped
    j = int(np.argmax(np.where(top > 0.0, top, -np.inf)))
    if top[j] > 0.0:
        i = int(np.argmax(values[starts[j]:starts[j] + len(points[j])]))
        best = LipschitzMax(float(values[starts[j] + i]), points[j][i], pieces[j],
                            regions[j], dirs[starts[j] + i])
    if norm == "l2" and best.K > 0.0:
        return best._replace(direction=best.direction / np.linalg.norm(best.direction))
    return best


@dataclass(frozen=True)
class Surrogate:
    """Lipschitz surrogate property with a threshold link, from either
    construction.

    The property at p is the root of u -> sum_y p_y v_y(u), where v_y
    interpolates ``nodes[y]`` on the strictly increasing ``grid`` and has
    unit slope outside it; the nodes are exactly -o for the normals
    construction and nondecreasing (to NODE_DECREASE_TOL times the largest
    node magnitude) for the embedding.
    One kernel evaluates the root for both.  ``value_range`` spans the roots
    at the simplex vertices, which bound every root.  :meth:`lipschitz`
    gives the exact Lipschitz constant of the property in l1, l2 or linf
    (inf where it is not Lipschitz), each computed on first use;
    ``lipschitz_bound`` is the l2 one.  The link maps u to report
    1 + #(thresholds < u), exactly, so a u on a threshold goes to the lower
    report.  The discrete target comes from ``cost`` when present, else
    from ``normals``; its sets hold every report that no other beats by
    more than the tie band of their boundary, and with them the link of the
    property value is a target report at every point: psi(gamma(p)) in
    Gamma(p).
    """

    grid: np.ndarray
    nodes: np.ndarray
    thresholds: np.ndarray
    normals: OrientedNormals | None = None
    cost: CostMatrix | None = None
    value_range: tuple[float, float] = field(init=False)
    lipschitz_exact: ClassVar[bool] = True
    slices: tuple = field(init=False, repr=False, compare=False)  # of the nodes, for K
    _lipschitz: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        nodes = np.asarray(self.nodes, dtype=np.float64)
        thresholds = np.asarray(self.thresholds, dtype=np.float64)
        for name, a in (("grid", grid), ("thresholds", thresholds)):
            if a.ndim != 1 or len(a) < 1 or not np.all(np.isfinite(a)) \
                    or np.any(np.diff(a) <= 0):
                raise SpecError(f"the {name} must be finite and strictly increasing")
        for source, reports in (
                ("normals", None if self.normals is None else self.normals.k + 1),
                ("cost matrix", None if self.cost is None else self.cost.n_reports)):
            if reports is not None and len(thresholds) != reports - 1:
                raise SpecError(f"the thresholds number {len(thresholds)}, but the "
                                f"{reports} reports of the {source} need {reports - 1}")
        if self.normals is not None and not np.array_equal(thresholds, grid):
            raise SpecError("the thresholds of a normals surrogate must be its grid, "
                            "the values at its boundaries")
        want = None if self.normals is None else -self.normals.o.T
        if nodes.shape[1:] != grid.shape or len(nodes) < 1 or not np.all(np.isfinite(nodes)) \
                or (want is not None and want.shape != nodes.shape):
            raise SpecError(f"nodes of shape {nodes.shape} must be finite, with one row per "
                            "outcome and one column per grid point (and normal)")
        big = np.abs(nodes).max()
        if big > NODE_MAX_MAGNITUDE:
            raise SpecError(f"the identification nodes reach magnitude {big:g}; the exact "
                            f"Lipschitz constant takes at most {NODE_MAX_MAGNITUDE:g}")
        if want is None:
            why, bad = "decrease along the grid", np.diff(nodes) < -NODE_DECREASE_TOL * big
        else:
            why, bad = "are not the negated normals", nodes != want
        if np.any(bad):
            raise SpecError(f"the identification nodes of outcome {np.nonzero(bad)[0][0] + 1} "
                            f"{why}, which the property kernel does not evaluate")
        roots = roe_batch(grid, nodes, np.eye(len(nodes)))
        slices = tuple(_slice_vertex_sets(-nodes.T)) if want is None else self.normals.slices
        for name, value in (
            ("grid", grid),
            ("nodes", nodes),
            ("thresholds", thresholds),
            ("value_range", (float(roots.min()), float(roots.max()))),
            ("slices", slices),
        ):
            object.__setattr__(self, name, value)

    @property
    def kind(self) -> str:
        return "embedding" if self.normals is None else "normals"

    @property
    def n_outcomes(self) -> int:
        return len(self.nodes)

    def lipschitz_max(self, norm="l2") -> LipschitzMax:
        """The exact Lipschitz constant in ``norm`` with its maximizer, from
        :func:`lipschitz_constant` on the first request for that norm."""
        key = norm_name(norm)
        if key not in self._lipschitz:
            self._lipschitz[key] = lipschitz_constant(self.grid, self.nodes, key,
                                                      self.slices)
        return self._lipschitz[key]

    def lipschitz(self, norm="l2") -> float:
        """The exact Lipschitz constant of the property in ``norm``."""
        return self.lipschitz_max(norm).K

    @property
    def lipschitz_bound(self) -> float:
        """The exact Euclidean Lipschitz constant, ``lipschitz("l2")``."""
        return self.lipschitz("l2")

    def gamma_many(self, probs) -> np.ndarray:
        """Property value at each row of ``probs``."""
        return roe_batch(self.grid, self.nodes, as_simplex_points(probs))

    def levels_many(self, probs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(point, lowest target report, property value) for each row of
        ``probs``: the row validated once, and ``argmax(discrete_set_many,
        axis=1) + 1`` and ``gamma_many`` taken at that point."""
        P = as_simplex_points(probs)
        reports = np.argmax(self._target()._target_mask(P), axis=1) + 1
        return P, reports, roe_batch(self.grid, self.nodes, P)

    def link_many(self, us) -> np.ndarray:
        """Report index of each value in ``us``: 1 + #(thresholds < u)."""
        return np.searchsorted(self.thresholds, us) + 1

    def discrete_set_many(self, probs) -> np.ndarray:
        """(rows, reports) mask of the target reports at each row of probs;
        a point in the tie band of a boundary gets both adjacent ones."""
        return self._target().target_sets(probs)

    def _target(self) -> CostMatrix | OrientedNormals:
        target = self.cost if self.cost is not None else self.normals
        if target is None:
            raise SpecError("need a cost matrix or normals for the discrete target")
        return target


def boundary_gap(normals: OrientedNormals, i: int) -> float:
    """Euclidean distance between the slices of boundaries i and i+1
    (1-based), exact for any number of outcomes.

    Each slice is the convex hull of its vertices (``normals.slices``),
    so the distance is the norm of the min-norm point of the hull of
    {v - w} over the vertices v of slice i and w of slice i+1
    (:func:`_min_norm_point`).  Raises :class:`OrdelicError` when the
    min-norm search does not converge.
    """
    if not (1 <= i <= normals.k - 1):
        raise SpecError(f"boundary pair index must be in 1..{normals.k - 1}")
    V, W = normals.slices[i - 1:i + 1]
    found = _min_norm_point((V[:, None] - W).reshape(-1, normals.n), _WOLFE_MAX_ITER)
    if found is None:
        raise OrdelicError(f"the gap between boundaries {i} and {i + 1} did not "
                           f"converge in {_WOLFE_MAX_ITER} min-norm iterations")
    return float(np.linalg.norm(found[0]))

