import functools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    EMBEDDING_TIE,
    EQ1_COSTS,
    EQ1_PHI,
    NORMALS_TIE,
    O1,
    O2,
    AffinePieces,
    Antiderivative,
    embedding_nodes_reference,
    lipschitz_reference,
    normals_from_boundaries,
    random_normals,
    random_orderable_spec,
    region_index,
    sample_boundary,
    segment_distance,
    slice_distance_qp,
    slice_vertices_reference,
    written_v_bar,
)
from ordelic import properties
from ordelic.embedding import EmbeddingInput, build_surrogate
from ordelic.errors import OrdelicError, OrderabilityError, SimplexError, SpecError
from ordelic.normals import build_from_normals, full_pipeline
from ordelic._kernels import BOUNDARY_TOL
from ordelic.properties import (
    _WOLFE_MAX_ITER,
    NODE_MAX_MAGNITUDE,
    AffineBoundary,
    CostMatrix,
    OrientedNormals,
    Surrogate,
    _min_norm_point,
    _slice_vertex_sets,
    boundary_gap,
    homogenize_boundary,
)
from ordelic.serialize import dumps, surrogate_from_json, surrogate_to_json
from ordelic.simplex import as_simplex_points, norm_order, sample_simplex


def target_set(cost, p) -> set:
    return {int(r) + 1 for r in np.flatnonzero(cost.target_sets([p])[0])}


def in_target(cost, pts, reports) -> np.ndarray:
    return cost.target_sets(pts)[np.arange(len(pts)), np.asarray(reports) - 1]


class TestCostMatrix:
    def test_shape_and_sign_validation(self):
        with pytest.raises(SpecError):
            CostMatrix([[0.0, 1.0]])
        with pytest.raises(SpecError):
            CostMatrix([[0.0, 1.0, -1.0], [1.0, 0.0, 2.0]])
        with pytest.raises(SpecError):
            CostMatrix([[np.inf, 1.0, 1.0], [1.0, 0.0, 2.0]])

    def test_gamma_interior_points(self, fixture_cost):
        assert target_set(fixture_cost, [1, 0, 0]) == {1}
        assert target_set(fixture_cost, [0, 1, 0]) == {2}
        assert target_set(fixture_cost, [0, 0, 1]) == {3}
        assert target_set(fixture_cost, [0.2, 0.6, 0.2]) == {2}

    def test_gamma_tie_on_boundary(self, fixture_cost):
        # reports 1 and 2 tie where -p1 + 3 p2 + 2 p3 = 0
        assert target_set(fixture_cost, [2 / 3, 0, 1 / 3]) == {1, 2}
        # the centroid sits exactly on the second boundary
        assert target_set(fixture_cost, [1 / 3, 1 / 3, 1 / 3]) == {2, 3}


class TestHomogenize:
    def test_fixture_boundaries(self, fixture_boundaries):
        assert np.allclose(homogenize_boundary(fixture_boundaries[0]), O1)
        assert np.allclose(homogenize_boundary(fixture_boundaries[1]), O2)

    def test_zero_offset_normalizes_coeffs(self):
        o = homogenize_boundary(AffineBoundary([1.0, -1.0, 0.0], 0.0))
        assert np.allclose(o, np.array([1.0, -1.0, 0.0]) / np.sqrt(2))

    def test_ones_coefficients_rejected(self):
        """c - b 1 along the all-ones vector meets no point of the simplex,
        and c = b 1 is no hyperplane; both are refused naming that."""
        o = homogenize_boundary(AffineBoundary([2.0, 2.0, 2.0], 1.0))
        with pytest.raises(OrderabilityError, match="boundary 1 does not meet the simplex"):
            OrientedNormals(o[None])
        with pytest.raises(SpecError, match="degenerate boundary"):
            homogenize_boundary(AffineBoundary([2.0, 2.0, 2.0], 2.0))

    @pytest.mark.parametrize("scale", [1e-150, 1e-14, 1.0, 1e14, 1e150])
    def test_scale_moves_no_decision(self, scale):
        """A boundary and its multiples give the same unit normal to 1 ulp,
        and c = b 1 is refused at every scale."""
        o = homogenize_boundary(AffineBoundary([-3.0, 1.0, 0.0], -2.0))
        got = homogenize_boundary(AffineBoundary(np.array([-3.0, 1.0, 0.0]) * scale, -2.0 * scale))
        assert got == pytest.approx(o, rel=1e-15, abs=0)
        with pytest.raises(SpecError, match="degenerate boundary"):
            homogenize_boundary(AffineBoundary([scale] * 3, scale))


class TestOrientation:
    """OrientedNormals orients the normals it is given."""

    def test_fixture_chain(self):
        # o_1 keeps its sign; o_2 flips so that slice 1 is on its negative side
        out = OrientedNormals([O1, -O2])
        assert np.array_equal(out.o, np.stack([O1, O2]))
        assert np.array_equal(OrientedNormals([O1, O2]).o, out.o)

    def test_misordered_boundaries_raise(self):
        with pytest.raises(OrderabilityError, match="not met in report order"):
            OrientedNormals([O2, O1])
        # region 1 on the far side of boundary 1
        with pytest.raises(OrderabilityError, match="not met in report order"):
            OrientedNormals([-O1, O2])

    @pytest.mark.parametrize("n,k,seed", [(3, 5, 0), (5, 4, 1), (8, 6, 1), (10, 3, 0)])
    def test_chain_recovers_random_spec(self, n, k, seed):
        """Any signs of o_2..o_k give the same normals, and the array given
        keeps its signs."""
        O = random_normals(n, k, seed).o
        flips = np.where(np.arange(len(O)) % 2 == 1, -1.0, 1.0)[:, None]
        given = O * flips
        assert np.array_equal(OrientedNormals(given).o, O)
        assert np.array_equal(given, O * flips)


def _slice_vertex_loop(o, tol=1e-12):
    """Per-edge reference: zero-coordinate vertices, then edge crossings;
    a coordinate or a difference of two is zero within tol ||o||."""
    n = len(o)
    tiny = tol * np.hypot.reduce(o)
    pts = [np.eye(n)[i] for i in range(n) if abs(o[i]) <= tiny]
    for i in range(n):
        for j in range(i + 1, n):
            den = o[i] - o[j]
            if abs(den) <= tiny:
                continue
            t = o[i] / den
            if tol < t < 1.0 - tol:
                p = np.zeros(n)
                p[i] = 1.0 - t
                p[j] = t
                pts.append(p)
    return pts


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 8), seed=st.integers(0, 2**20), zeros=st.integers(0, 2))
def test_slice_vertices_match_edge_loop(n, seed, zeros):
    """The batched enumeration returns the per-edge points bit for bit, in
    order, and each lies on the boundary within the simplex."""
    o = np.random.default_rng(seed).standard_normal(n)
    o[: min(zeros, n - 2)] = 0.0
    o /= np.linalg.norm(o)
    got = _slice_vertex_sets(o[None])[0]
    want = _slice_vertex_loop(o)
    assert got.tolist() == [p.tolist() for p in want]
    assert np.all(got >= 0) and np.allclose(got.sum(axis=1), 1.0)
    assert np.max(np.abs(got @ o), initial=0.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), n=st.integers(3, 8), seed=st.integers(0, 2**20),
       zeros=st.integers(0, 2), tiny=st.booleans())
def test_slice_vertex_sets_match_reference(k, n, seed, zeros, tiny):
    """One enumeration over the rows of a normals matrix returns, for each
    row, the vertices the one-normal-at-a-time reference gives, bit for bit
    and in order; a 1e-10 entry puts a crossing within 1e-9 of a vertex, so
    that row drops repeated points."""
    rng = np.random.default_rng(seed)
    O = rng.standard_normal((k, n))
    O[:, : min(zeros, n - 2)] = 0.0
    if tiny:
        O[0, -1] = 1e-10
    got = _slice_vertex_sets(O)
    assert len(got) == k
    for V, o in zip(got, O):
        assert V.tolist() == slice_vertices_reference(o).tolist()


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["normals", "embedding"]), n=st.integers(3, 8),
       n_reports=st.integers(2, 5), seed=st.integers(0, 2**20))
@example(kind="embedding", n=8, n_reports=3, seed=5)  # linf
@example(kind="embedding", n=8, n_reports=3, seed=23)  # l1
def test_batched_construction_matches_references(kind, n, n_reports, seed):
    """Each batched construction step gives the bits of its one-at-a-time
    reference (conftest): slice vertices, K with its point, piece, region
    and direction in all three norms, the embedding nodes, and the written
    identification functions, which take the nodes' values at the grid by
    the antiderivative oracle."""
    bds, cost, phi = random_orderable_spec(n, n_reports, seed)
    if kind == "normals":
        s = build_from_normals(normals_from_boundaries(bds))
    else:
        s = build_surrogate(EmbeddingInput(cost, phi))
        grid, nodes, _ = embedding_nodes_reference(cost, phi)
        assert s.grid.tobytes() == grid.tobytes() and s.nodes.tobytes() == nodes.tobytes()
    for V, h in zip(_slice_vertex_sets(-s.nodes.T), s.nodes.T):
        assert V.tolist() == slice_vertices_reference(-h).tolist()
    for norm in ("l1", "l2", "linf"):
        got, want = s.lipschitz_max(norm), lipschitz_reference(s.grid, s.nodes, norm)
        assert _bits(got.K) == _bits(want.K) and got.piece == want.piece
        assert _bits(got.point) == _bits(want.point)
        assert _bits(got.direction) == _bits(want.direction)
        assert (got.region is None) == (want.region is None)
        if got.region is not None:
            assert _bits(got.region) == _bits(want.region)
    for row, v in zip(s.nodes, written_v_bar(s)):
        want = AffinePieces.through(s.grid, row, 1.0, 1.0)
        assert _bits(v.slopes) == _bits(want.slopes)
        assert _bits(v.intercepts) == _bits(want.intercepts)
        F = Antiderivative(v)
        for u, node in zip(s.grid.tolist(), row.tolist()):
            assert F.derivative_interval(u) == pytest.approx((node, node), abs=1e-9)


def test_nodes_up_to_the_bound_give_the_exact_k(fixture_embedding):
    """The README embedding with its nodes times the largest power of 2 that
    keeps them within NODE_MAX_MAGNITUDE has the same K, bit for bit, in
    every norm (K depends on the nodes only through ratios, and the root
    stays on the grid), with no overflow; twice that is refused."""
    s = fixture_embedding
    k = int(np.log2(NODE_MAX_MAGNITUDE / np.abs(s.nodes).max()))
    big = Surrogate(s.grid, np.ldexp(s.nodes, k), s.thresholds, cost=s.cost)
    for norm in ("l1", "l2", "linf"):
        assert _bits(big.lipschitz(norm)) == _bits(s.lipschitz(norm)), norm
    with pytest.raises(SpecError, match=r"nodes reach magnitude 1.90148e\+30"):
        Surrogate(s.grid, np.ldexp(s.nodes, k + 1), s.thresholds, cost=s.cost)


# The cost scales, and for the embedding the phi scales, the surrogates are
# checked at against the cost itself at phi: both ends of the ranges, the
# scales named in the tests' docstrings, and about one decade in three
# between (the CLI tests take every decade of the README cost).
COST_SCALES = (1e-14, 1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 1e3, 1e9, 1e15, 1e20, 1e25)
PHI_SCALES = (1e-12, 1e-11, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e8, 1e9, 1e10, 1e11, 1e12)


def _scaled_surrogate(kind: str, cost: CostMatrix, phi, scale: float) -> Surrogate:
    """The surrogate of ``cost`` times ``scale``, linked to it: the embedding
    at ``phi`` with the cost's default outer slope times ``scale``, or the
    normals ``full_pipeline`` builds from the scaled cost."""
    scaled = CostMatrix(cost.entries * scale)
    if kind == "normals":
        return full_pipeline(scaled)[0]
    slope = EmbeddingInput(cost, phi).outer_slope
    return build_surrogate(EmbeddingInput(scaled, phi, slope * scale))


def _scaled_surrogates(kind: str, cost: CostMatrix, phi):
    """(case, s, surrogate) for each scaling whose property is s times that
    of ``cost`` at ``phi``: the normals of the cost times each of
    COST_SCALES (s = 1), and the embedding of the cost times each of them
    (s = 1) and at phi times each of PHI_SCALES (s the phi scale), with the
    default outer slope and with the cost's default scaled alike."""
    if kind == "normals":
        for scale in COST_SCALES:
            yield ("cost", scale), 1.0, _scaled_surrogate(kind, cost, phi, scale)
        return
    slope = EmbeddingInput(cost, phi).outer_slope
    for scale in COST_SCALES:
        yield ("cost", scale, "scaled"), 1.0, _scaled_surrogate(kind, cost, phi, scale)
        yield ("cost", scale, "default"), 1.0, \
            build_surrogate(EmbeddingInput(CostMatrix(cost.entries * scale), phi))
    for scale in PHI_SCALES:
        for outer in ("scaled", "default"):
            inp = EmbeddingInput(cost, np.asarray(phi) * scale,
                                 slope / scale if outer == "scaled" else None)
            yield ("phi", scale, outer), scale, build_surrogate(inp)


@pytest.mark.parametrize("kind", ["embedding", "normals"])
@pytest.mark.parametrize("seed,n", [(None, 3), (9, 4), (32, 3), (3, 4), (0, 5)])
def test_k_does_not_depend_on_the_cost_scale(fixture_cost, kind, seed, n):
    """Either construction from a cost times 1e-14 .. 1e25, and the
    embedding at phi times 1e-12 .. 1e12 (K times the phi scale), with the
    default outer slope or the cost's scaled alike, has the K of the cost
    itself to 1e-9 relative in every norm: the README cost at phi 0, 1, 3
    (seed None) and random specs.  At 1e25 the README cost's l2 K once read
    18.708 against 21.654, and at 1e9 seed 9, n = 4 read 4.577 against
    18.343, when the regions were cut with a tie band on the node scores.
    At 1e-8 seed 32, n = 3 read inf while the K = inf test took that band
    in node score, and seed 3, n = 4 and seed 0, n = 5 read inf while the
    loss pieces active at a grid point were those within 1e-9 (1 + |max|) of
    the max.  The README normals at 1e-13 and 1e-14 were refused as
    proportional to the all-ones vector, and with the default outer slope 1
    plus the steepest cost slope the README embedding at phi times 1e3 read
    K = 273.19 times 1e3."""
    cost, phi = (fixture_cost, EQ1_PHI) if seed is None else \
        random_orderable_spec(n, 4, seed)[1:]
    s = _scaled_surrogate(kind, cost, phi, 1.0)
    for case, u_scale, scaled in _scaled_surrogates(kind, cost, phi):
        for norm in ("l1", "l2", "linf"):
            assert scaled.lipschitz(norm) / u_scale == \
                pytest.approx(s.lipschitz(norm), rel=1e-9), (case, norm)


@pytest.mark.parametrize("seed,n", [(None, 3), (9, 4), (32, 3), (3, 4), (0, 5), (1, 8)])
def test_embedding_k_does_not_depend_on_small_cost_scales(fixture_cost, seed, n):
    """The embedding of a cost times 1e-9, 1e-12, 2^-40 or 1e-20, with the
    outer slope scaled alike, has the K of the cost itself to 1e-9 relative
    in every norm.  With node entries below an absolute 1e-12 taken as zero
    in the slice enumeration, and loss pieces within an absolute 1e-12 of
    each other merged, the README cost read K = inf at 1e-12."""
    cost, phi = (fixture_cost, EQ1_PHI) if seed is None else \
        random_orderable_spec(n, 4, seed)[1:]
    s = _scaled_surrogate("embedding", cost, phi, 1.0)
    for scale in (1e-9, 1e-12, 2.0**-40, 1e-20):
        scaled = _scaled_surrogate("embedding", cost, phi, scale)
        for norm in ("l1", "l2", "linf"):
            assert scaled.lipschitz(norm) == pytest.approx(s.lipschitz(norm), rel=1e-9), \
                (scale, norm)


@settings(max_examples=16, deadline=None)
@given(kind=st.sampled_from(["embedding", "normals"]), n=st.integers(3, 8),
       seed=st.integers(0, 2**16))
@example(kind="embedding", n=3, seed=None)
@example(kind="normals", n=3, seed=None)
@example(kind="normals", n=6, seed=446)
def test_property_does_not_depend_on_the_cost_scale(kind, n, seed):
    """Each scaling of _scaled_surrogates gives the property of the cost
    itself, times the phi scale, within 1e-12 of its value range, and the
    same target sets, on 4,000 random points and the vertices: the README
    cost at phi 0, 1, 3 (seed None) and random specs.  With the tie band
    absolute in node score and in expected cost, the README embedding at
    cost times 1e-8 moved by 0.017 of its range, and the target sets of both
    constructions differed at 37 of these points.  With the normals found
    again by SVD from seeded boundary samples, the normals property of seed
    446, n = 6 moved by 2.46e-12 at cost times 1e-10, past 1e-12 of its
    range (2.33e-12); built from the spec's normals, it moves by 6.7e-16."""
    cost, phi = (CostMatrix(EQ1_COSTS), EQ1_PHI) if seed is None else \
        random_orderable_spec(n, 4, seed)[1:]
    P = np.vstack([sample_simplex(cost.n_outcomes, 4000, seed or 0),
                   np.eye(cost.n_outcomes)])
    s = _scaled_surrogate(kind, cost, phi, 1.0)
    gamma, sets = s.gamma_many(P), s.discrete_set_many(P)
    width = s.value_range[1] - s.value_range[0]
    for case, u_scale, scaled in _scaled_surrogates(kind, cost, phi):
        assert np.abs(scaled.gamma_many(P) / u_scale - gamma).max() <= 1e-12 * width, case
        assert np.array_equal(scaled.discrete_set_many(P), sets), case


@pytest.mark.parametrize("phi_scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_a_root_in_the_band_of_the_first_node_scales_with_phi(phi_scale):
    """Next to e1, where outcome 1's first node is 0, the README embedding's
    property at phi times s is s times its property at phi, and links to
    report 1, the target: the root in the band of the first node is on the
    first grid piece.  Read on the left tail, whose slope is 1 in every
    unit, it was g_0 + 3t for the point (1 - t, t, 0), t = 1e-10: 300 at phi
    times 1e-12, past every threshold, so the link missed the target."""
    cost = CostMatrix(EQ1_COSTS)
    t = np.array([1e-9, 1e-10, 5e-11, 1e-12])
    P = np.column_stack([1.0 - t, t, np.zeros_like(t)])
    s = build_surrogate(EmbeddingInput(cost, EQ1_PHI))
    scaled = build_surrogate(EmbeddingInput(cost, EQ1_PHI * phi_scale))
    u = scaled.gamma_many(P)
    assert u / phi_scale == pytest.approx(s.gamma_many(P), rel=1e-12)
    assert u / phi_scale == pytest.approx(1.5 * t, rel=1e-9)
    assert scaled.link_many(u).tolist() == [1] * len(t)
    assert scaled.discrete_set_many(P)[:, 0].all()


class TestOrderabilityErrors:
    """Each failure names its cause and the boundaries at fault, whether the
    normals are built or loaded from a surrogate file."""

    @staticmethod
    def _normals(n):
        if n == 3:
            return np.stack([O1, O2])
        return random_normals(n, 3, seed=n).o

    def _assert_rejected(self, bad, match):
        with pytest.raises(OrderabilityError, match=match):
            OrientedNormals(bad)
        n = bad.shape[1]
        d = surrogate_to_json(build_from_normals(OrientedNormals(self._normals(n))))
        d["normals"] = bad.tolist()
        with pytest.raises(OrderabilityError, match=match):
            surrogate_from_json(json.loads(dumps(d)))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_crossing(self, n):
        O = self._normals(n)
        p = sample_boundary(O[0], 1, seed=n)[0]  # a point of slice 1
        o2 = O[1] - (O[1] @ p) * p / (p @ p)      # a boundary 2 through it
        o2 /= np.linalg.norm(o2)
        self._assert_rejected(np.stack([O[0], o2]),
                              "boundaries 1 and 2 cross inside the simplex")
        with pytest.raises(OrderabilityError, match="cross inside the simplex"):
            OrientedNormals([O[0], -o2])  # whichever its sign

    @pytest.mark.parametrize("n", range(3, 9))
    def test_report_order(self, n):
        self._assert_rejected(self._normals(n)[::-1].copy(),
                              "boundaries 1 and 2 are not met in report order")

    @pytest.mark.parametrize("n", range(3, 9))
    def test_misses_interior(self, n):
        o3 = np.ones(n)
        o3[0] = 0.0  # {<o3, p> = 0} meets the simplex only at e1
        o3 /= np.linalg.norm(o3)
        self._assert_rejected(np.vstack([self._normals(n), o3]),
                              "boundary 3 does not meet the simplex interior")

    @pytest.mark.parametrize("n", [3, 5])
    def test_slices_are_the_slice_vertices(self, n):
        O = self._normals(n)
        slices = OrientedNormals(O).slices
        assert len(slices) == len(O)
        for V, o in zip(slices, O):
            assert np.array_equal(V, _slice_vertex_sets(o[None])[0])


class TestBoundarySampling:
    @pytest.mark.parametrize("o", [O1, O2, *random_normals(8, 4, 1).o])
    def test_on_boundary_and_positive(self, o):
        pts = sample_boundary(o, 500, seed=3)
        assert np.max(np.abs(pts @ o)) <= 1e-10
        assert np.all(pts > 0)
        assert np.allclose(pts.sum(axis=1), 1.0)
        assert np.array_equal(pts, sample_boundary(o, 500, seed=3))

    def test_symmetric_boundary(self):
        # p1 = p2 plane
        o = homogenize_boundary(AffineBoundary([1.0, -1.0, 0.0], 0.0))
        pts = sample_boundary(o, 100, seed=4)
        assert np.allclose(pts[:, 0], pts[:, 1], atol=1e-12)

    def test_vertex_only_intersection_raises(self):
        # {p2 + p3 = 0} meets the simplex only at e1
        with pytest.raises(SimplexError):
            sample_boundary(np.array([0.0, 1.0, 1.0]) / np.sqrt(2), 5, seed=0)

    def test_higher_dimension_chain(self):
        o = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        pts = sample_boundary(o, 300, seed=5)
        assert pts.shape == (300, 4)
        assert np.max(np.abs(pts @ o)) <= 1e-10
        assert np.all(pts > 0)
        assert np.allclose(pts.sum(axis=1), 1.0)
        # the samples spread over the slice, not sit at one of its vertices
        assert np.min(np.std(pts, axis=0)) > 1e-3


class TestRegions:
    def test_region_matches_cost_argmin(self, fixture_cost, fixture_oriented_normals):
        pts = sample_simplex(3, 3000, seed=6)
        regions = region_index(fixture_oriented_normals, pts)
        assert np.all(in_target(fixture_cost, pts, regions))

    def test_boundary_tie_resolves_low(self, fixture_oriented_normals):
        p = sample_boundary(O1, 1, seed=7)
        assert region_index(fixture_oriented_normals, p).tolist() == [1]

    def test_vertices(self, fixture_oriented_normals):
        nm = fixture_oriented_normals
        assert region_index(nm, np.eye(3)).tolist() == [1, 2, 3]


@functools.cache
def _tie_property(n: int):
    """Normals surrogate for the fixture (n = 3) or a random 4-report target."""
    if n == 3:
        normals = normals_from_boundaries([AffineBoundary([-3, 1, 0], -2.0),
                                           AffineBoundary([-5, -4, 0], -3.0)])
    else:
        normals = random_normals(n, 4, seed=n)
    return build_from_normals(normals)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([3, 5]), boundary=st.integers(0, 2),
       seed=st.integers(0, 2**20), shift=st.floats(10.5, 1000.0))
def test_boundary_ties_use_one_tolerance(n, boundary, seed, shift):
    """On boundary i the region resolves to the lower report, the target set
    holds both adjacent ones and the linked property value is one of them;
    off it by more than 10 * BOUNDARY_TOL all three resolve to the side the
    point is on."""
    s = _tie_property(n)
    O = s.normals.o
    i = boundary % len(O)
    p = sample_boundary(O[i], 1, seed)[0]
    d = O[i] - O[i].mean()
    d /= d @ O[i]  # <o_i, p + t d> = <o_i, p> + t
    t = shift * BOUNDARY_TOL
    pts = np.stack([p, p - t * d, p + t * d])
    assume(np.all(pts > 0))
    pts /= pts.sum(axis=1, keepdims=True)
    want = np.array([i + 1, i + 1, i + 2])
    assert np.array_equal(region_index(s.normals, pts), want)
    links = s.link_many(s.gamma_many(pts))
    assert links[0] in (i + 1, i + 2) and np.array_equal(links[1:], want[1:])
    sets = s.discrete_set_many(pts)
    assert [set(np.flatnonzero(row) + 1) for row in sets] \
        == [{i + 1, i + 2}, {i + 1}, {i + 2}]


@functools.cache
def _construction(kind: str, n: int, n_reports: int, seed: int):
    """The surrogate of ``random_orderable_spec(n, n_reports, seed)``: the
    embedding with its default phi and outer slope, or the normals built by
    ``full_pipeline`` from the cost or from the boundaries (no cost)."""
    bds, cost, phi = random_orderable_spec(n, n_reports, seed)
    if kind == "embedding":
        return build_surrogate(EmbeddingInput(cost, phi))
    return full_pipeline(cost if kind == "normals_cost" else bds)[0]


# Offsets along a bisected segment, in units of the segment.
_TIE_OFFSETS = np.concatenate([[0.0], *[[-d, d] for d in 10.0 ** -np.arange(12.0, 7.0, -1)]])


def _near_boundaries(s, n: int, seed: int, pairs: int = 96) -> np.ndarray:
    """Points on and next to the boundaries of the target of ``s``: for each
    segment between two random points whose lowest target reports differ,
    both ends of 60 bisection halvings, each moved along the segment by every
    one of ``_TIE_OFFSETS``."""
    A, B = np.split(sample_simplex(n, 2 * pairs, seed), 2)
    ra = s.levels_many(A)[1]
    keep = ra != s.levels_many(B)[1]
    A, D, ra = A[keep], B[keep] - A[keep], ra[keep]
    lo, hi = np.zeros(len(A)), np.ones(len(A))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = s.levels_many(A + mid[:, None] * D)[1] == ra
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    t = np.clip(np.concatenate([lo, hi])[:, None] + _TIE_OFFSETS, 0.0, 1.0)
    A, D = np.concatenate([A, A]), np.concatenate([D, D])
    P = np.clip(A[:, None] + t[:, :, None] * D[:, None], 0.0, None).reshape(-1, n)
    return P / P.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["embedding", "normals_cost", "normals_boundaries"]),
       n=st.integers(3, 8), n_reports=st.integers(2, 5), seed=st.integers(0, 2**16),
       extra=st.just(()))
@example(kind="embedding", n=3, n_reports=4, seed=17, extra=(EMBEDDING_TIE,))
@example(kind="normals_cost", n=3, n_reports=4, seed=0, extra=(NORMALS_TIE,))
def test_link_lands_in_the_target_set(kind, n, n_reports, seed, extra):
    """psi(gamma(p)) is in Gamma(p) on the boundaries and 1e-12 to 1e-8 off
    them, for both constructions, and at the points of ``extra``."""
    s = _construction(kind, n, n_reports, seed)
    P = np.vstack([_near_boundaries(s, n, seed), np.reshape(extra, (-1, n))])
    links = s.link_many(s.gamma_many(P))
    member = s.discrete_set_many(P)[np.arange(len(P)), links - 1]
    assert member.all(), P[~member][:3].tolist()


def _target_sets_reference(target, P) -> np.ndarray:
    """The target sets of validated rows P by whole-array reductions.  A
    point is in the tie band of the hyperplane <c, p> = 0 when |<c, p>| is at
    most BOUNDARY_TOL ||c||: for a cost, report r is in the set when
    <l_r - l_s, p> is at most BOUNDARY_TOL ||l_r - l_s|| for every s."""
    if isinstance(target, CostMatrix):
        E = target.entries
        ec = P @ E.T
        band = BOUNDARY_TOL * np.linalg.norm(E[:, None] - E[None], axis=2)
        return (ec[:, :, None] <= ec[:, None, :] + band).all(axis=2)
    S = P @ target.o.T
    band = BOUNDARY_TOL * np.linalg.norm(target.o, axis=1)
    ones = np.ones((len(S), 1), dtype=bool)
    lo_ok = np.logical_and.accumulate(np.hstack([ones, S >= -band]), axis=1)
    hi_ok = np.logical_and.accumulate(np.hstack([S <= band, ones])[:, ::-1], axis=1)
    return lo_ok & hi_ok[:, ::-1]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 8), n_reports=st.integers(2, 5), seed=st.integers(0, 2**20),
       algo=st.sampled_from(["embedding", "normals"]))
def test_levels_many_is_the_lowest_target_and_gamma(n, n_reports, seed, algo):
    """levels_many gives, bit for bit, the validated points, the lowest
    report of discrete_set_many and gamma_many, and the target sets equal
    their whole-array form, on interior points, vertices and boundary ties."""
    bds, cost, phi = random_orderable_spec(n, n_reports, seed)
    normals = normals_from_boundaries(bds)
    if algo == "embedding":
        s = build_surrogate(EmbeddingInput(cost, phi))
    else:
        s = build_from_normals(normals)
    pts = np.vstack([sample_simplex(n, 300, seed), np.eye(n),
                     *(sample_boundary(o, 20, seed) for o in normals.o)])
    P, reports, values = s.levels_many(pts)
    assert P.tobytes() == as_simplex_points(pts).tobytes()
    assert reports.tobytes() == (np.argmax(s.discrete_set_many(pts), axis=1) + 1).tobytes()
    assert values.tobytes() == s.gamma_many(pts).tobytes()
    for target in (cost, normals):
        assert np.array_equal(target.target_sets(pts), _target_sets_reference(target, P))


@pytest.mark.parametrize("algo", ["embedding", "normals"])
def test_k_computed_on_first_request(fixture_cost, fixture_boundaries, algo, monkeypatch):
    """Building or loading a surrogate computes no Lipschitz constant; each
    norm's is computed on its first request, ``lipschitz_bound`` included,
    and then read back."""
    norms, original = [], properties.lipschitz_constant
    monkeypatch.setattr(properties, "lipschitz_constant",
                        lambda *args: norms.append(args[2]) or original(*args))
    s = build_surrogate(EmbeddingInput(fixture_cost, EQ1_PHI, 3.0)) if algo == "embedding" \
        else build_from_normals(normals_from_boundaries(fixture_boundaries))
    assert norms == []
    d = surrogate_to_json(s)  # writes lipschitz_bound
    assert norms == ["l2"]
    loaded = surrogate_from_json(d)
    assert norms == ["l2"]
    for norm in ("l1", "l2", "linf", "l1", "linf"):
        assert loaded.lipschitz(norm) == s.lipschitz(norm)
    assert loaded.lipschitz_bound == d["lipschitz_bound"] == s.lipschitz("l2")
    assert norms == ["l2", "l1", "l1", "l2", "linf", "linf"]


@pytest.mark.parametrize("algo", ["embedding", "normals"])
def test_link_ties_resolve_low(fixture_cost, algo):
    """A value on a threshold links to the lower report and the next float
    above it to the upper one, for either construction."""
    if algo == "embedding":
        s = build_surrogate(EmbeddingInput(fixture_cost, [0.0, 1.0, 3.0], 3.0))
    else:
        s = build_from_normals(normals_from_boundaries(
            [AffineBoundary([-3, 1, 0], -2.0), AffineBoundary([-5, -4, 0], -3.0)]))
    for i, t in enumerate(s.thresholds):
        assert s.link_many([t, np.nextafter(t, np.inf), t + 2e-10]).tolist() \
            == [i + 1, i + 2, i + 2]


def _near_argmax_quotient(s, top, norm) -> float:
    """Best quotient |gamma(A) - gamma(B)| / ||A - B|| over pairs next to the
    returned maximizer p*, taken in exact arithmetic: A = p* + d (c - p*)
    for d = 1e-2, ..., 1e-12, with c the vertex centroid of the maximizer's
    region, and B = A + r u for steps r = +-d/2, +-d/10 and +-d/100 along
    the returned unit direction u.  Each point is the rational its floats
    are, scaled to sum 1, and a pair counts only if both points lie in the
    simplex and in the maximizer's grid piece by exact signs.  There gamma
    is the ratio of rational expectations g_l + (g_{l+1} - g_l) a / (a + b),
    a = -<h_l, p> and b = <h_{l+1}, p> (on a tail, g_0 - <h_0, p> or
    g_{m-1} - <h_{m-1}, p>), and l2 is compared by squares, so rounding
    decides no quotient however near p* the pair: the quotients approach K
    as d -> 0, also where the gradient's norm peaks at a vertex of the
    region, and none may exceed K.  (Where the maximizer sits on the
    simplex's boundary no step from p* itself stays in the simplex.)"""
    m, l = len(s.grid), top.piece
    cols = [max(l, 0), min(l + 1, m - 1)]
    g = [Fraction(v) for v in s.grid[cols]]
    H = [[Fraction(v) for v in h] for h in s.nodes[:, cols].T]
    c = top.region.mean(axis=0)

    def gamma(p):
        """Exact gamma at the exact simplex point p, None off the piece."""
        lo, hi = (sum(x * y for x, y in zip(h, p)) for h in H)
        if l == -1:
            return g[0] - lo if lo >= 0 else None
        if l == m - 1:
            return g[1] - hi if hi <= 0 else None
        return g[0] + (g[1] - g[0]) * -lo / (hi - lo) if lo <= 0 <= hi else None

    best = Fraction(0)
    for d in 10.0 ** -np.arange(2, 13):
        A = top.point + d * (c - top.point)
        for r in np.outer([1.0, -1.0], [0.5, 0.1, 0.01]).ravel() * d:
            P = [[Fraction(v) for v in X] for X in (A, A + r * top.direction)]
            P = [[v / sum(X) for v in X] for X in P]
            if min(map(min, P)) < 0:
                continue
            ga, gb = map(gamma, P)
            if ga is None or gb is None:
                continue
            diff = [abs(x - y) for x, y in zip(*P)]
            if norm == "l2":
                best = max(best, (ga - gb) ** 2 / sum(v * v for v in diff))
            else:
                best = max(best, abs(ga - gb) / (sum(diff) if norm == "l1" else max(diff)))
    return float(best) ** 0.5 if norm == "l2" else float(best)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 8), n_reports=st.integers(3, 5), seed=st.integers(0, 2**20),
       algo=st.sampled_from(["embedding", "normals"]))
@example(n=8, n_reports=5, seed=22071, algo="embedding")  # K peaks at a vertex
@example(n=8, n_reports=3, seed=241632, algo="embedding")  # reached only from the vertex
@example(n=7, n_reports=5, seed=350, algo="embedding")  # p* on the simplex's boundary
def test_k_is_exact_in_every_norm(n, n_reports, seed, algo):
    """For l1, l2 and linf, no sampled quotient exceeds K, and exact
    quotients of pairs next to the returned maximizer, along the returned
    direction, reach K and do not exceed it."""
    bds, cost, phi = random_orderable_spec(n, n_reports, seed)
    s = build_from_normals(normals_from_boundaries(bds)) if algo == "normals" else \
        build_surrogate(EmbeddingInput(cost, phi))
    assert s.lipschitz("l2") == s.lipschitz_bound
    a, b = sample_simplex(n, 20_000, seed), sample_simplex(n, 20_000, seed + 1)
    gap = np.abs(s.gamma_many(a) - s.gamma_many(b))
    for norm in ("l1", "l2", "linf"):
        top, ordv = s.lipschitz_max(norm), norm_order(norm)
        assert np.isfinite(top.K) and top.direction.sum() == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(top.direction, ord=ordv) == pytest.approx(1.0, rel=1e-12)
        assert np.max(gap / np.linalg.norm(a - b, ord=ordv, axis=1)) <= top.K * (1.0 + 1e-9)
        near = _near_argmax_quotient(s, top, norm)
        assert top.K * (1.0 - 1e-6) <= near <= top.K * (1.0 + 1e-9)


class TestSpecConstruction:
    def test_boundaries_from_cost_matches_fixture(self, fixture_cost):
        """A cost's boundary r, where rows r and r + 1 tie, gives the
        normal of fixture boundary r."""
        s, report = full_pipeline(fixture_cost)
        assert s.normals.k == 2 and s.cost is fixture_cost
        assert np.allclose(report["recovered_normals"], [O1, O2], rtol=0, atol=1e-15)

    def test_normals_from_boundaries_orients(self, fixture_oriented_normals):
        assert np.allclose(fixture_oriented_normals.o[0], O1)
        assert np.allclose(fixture_oriented_normals.o[1], O2)
        assert fixture_oriented_normals.k == 2

    def test_crossing_boundaries_rejected(self):
        bds = [AffineBoundary([1.0, -1.0, 0.0], 0.0),
               AffineBoundary([1.0, 0.0, 0.0], 1 / 3)]
        with pytest.raises(OrderabilityError):
            normals_from_boundaries(bds)


class TestGaps:
    def test_fixture_gap_positive(self, fixture_oriented_normals):
        g = boundary_gap(fixture_oriented_normals, 1)
        assert g == pytest.approx(0.0943, abs=2e-3)

    def test_identical_boundaries_rejected(self):
        # their gap would be 0; such normals cannot be built
        with pytest.raises(OrderabilityError, match="boundaries 1 and 2 cross"):
            OrientedNormals(np.stack([O1, O1]))

    def test_reads_the_stored_slices(self, monkeypatch):
        normals = random_normals(5, 4, seed=3)
        want = [boundary_gap(normals, i) for i in (1, 2)]

        def enumerate_again(O):
            raise AssertionError("slice vertices enumerated again")

        monkeypatch.setattr("ordelic.properties._slice_vertex_sets", enumerate_again)
        assert [boundary_gap(normals, i) for i in (1, 2)] == want

    def test_parallel_boundaries_gap_close_to_offset(self):
        # p1 = 0.3 and p1 = 0.5: planes orthogonal in R^3 restricted to the
        # simplex; closest points differ only in the (1,-1,0)/(1,0,-1) span
        bds = [AffineBoundary([1.0, 0.0, 0.0], 0.3),
               AffineBoundary([1.0, 0.0, 0.0], 0.5)]
        g = boundary_gap(normals_from_boundaries(bds), 1)
        # closest pair (0.3, t, 0.7-t) vs (0.5, t, 0.5-t): distance 0.2*sqrt(6)/2... measured
        want = np.sqrt(0.2**2 + 2 * 0.1**2)
        assert g == pytest.approx(want, abs=1e-9)

    def test_index_validated(self, fixture_oriented_normals):
        with pytest.raises(SpecError):
            boundary_gap(fixture_oriented_normals, 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_segment_distance_at_n3(self, seed):
        normals = random_normals(3, 4, seed=seed)
        for i in (1, 2):
            V, W = _slice_vertex_sets(normals.o[i - 1:i + 1])
            assert len(V) == len(W) == 2
            want = segment_distance(V[0], V[1], W[0], W[1])
            assert abs(boundary_gap(normals, i) - want) <= 1e-12

    @pytest.mark.parametrize("n", [3, 5])
    def test_slice_missing_interior_rejected(self, n):
        o = np.arange(n, dtype=float) - (n - 1) / 2
        o /= np.linalg.norm(o)
        with pytest.raises(OrderabilityError, match="boundary 2 does not meet"):
            OrientedNormals(np.stack([o, np.ones(n) / np.sqrt(n)]))

    def test_unconverged_gap_names_the_pair(self, monkeypatch):
        normals = random_normals(6, 4, seed=2)
        monkeypatch.setattr("ordelic.properties._WOLFE_MAX_ITER", 1)
        with pytest.raises(OrdelicError, match="boundaries 2 and 3 did not converge"):
            boundary_gap(normals, 2)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 8), n_reports=st.integers(3, 5), seed=st.integers(0, 2**20))
def test_gap_is_the_exact_slice_distance(n, n_reports, seed):
    """For n = 4..8 the gap equals the QP oracle, is at most every sampled
    pair distance, and is attained by the pair of slice points that the
    min-norm weights give."""
    normals = random_normals(n, n_reports, seed)
    O = normals.o
    for i in range(1, len(O)):
        g = boundary_gap(normals, i)
        assert abs(g - slice_distance_qp(O[i - 1], O[i])) <= 1e-12
        p, q = (sample_boundary(o, 64, seed + j) for j, o in enumerate(O[i - 1:i + 1]))
        assert g <= np.linalg.norm(p[:, None] - q, axis=2).min()
        V, W = _slice_vertex_sets(O[i - 1:i + 1])
        _, lam = _min_norm_point((V[:, None] - W).reshape(-1, n), _WOLFE_MAX_ITER)
        lam = lam.reshape(len(V), len(W))
        a, b = lam.sum(axis=1) @ V, lam.sum(axis=0) @ W
        assert np.all(a >= 0) and np.all(b >= 0)
        assert abs(a.sum() - 1.0) <= 1e-12 and abs(b.sum() - 1.0) <= 1e-12
        assert abs(a @ O[i - 1]) <= 1e-12 and abs(b @ O[i]) <= 1e-12
        assert abs(np.linalg.norm(a - b) - g) <= 1e-12


class TestRoundTrip:
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 2)])
    def test_recover_normals_from_samples(self, n, k):
        """The normals full_pipeline builds from the spec in closed form are
        the ones an SVD recovers from points on each boundary: where segments
        between simplex points on its two sides cross <c, p> = b."""
        bds, _, _ = random_orderable_spec(n, k + 1, seed=10 * n + k)
        s, _ = full_pipeline(bds)
        p = sample_simplex(n, 400, seed=100 + n)
        for bd, o in zip(bds, s.normals.o):
            side = p @ bd.coeffs - bd.offset
            lo, hi = p[side < 0][:n], p[side > 0][:n]
            assert len(lo) == len(hi) == n
            t = side[side < 0][:n, None] / (side[side < 0][:n, None] - side[side > 0][:n])
            pts = (lo[:, None] + t[..., None] * (hi - lo[:, None])).reshape(-1, n)
            assert np.allclose(pts @ bd.coeffs, bd.offset, atol=1e-12)
            got = np.linalg.svd(pts)[2][-1]
            if got @ o < 0:
                got = -got
            assert np.allclose(got, o, atol=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_spec_is_consistent(self, seed):
        bds, cost, phi = random_orderable_spec(3, 4, seed=seed)
        normals = normals_from_boundaries(bds)
        assert min(boundary_gap(normals, i) for i in (1, 2)) > 1e-3
        pts = sample_simplex(3, 2000, seed=seed + 50)
        assert np.all(in_target(cost, pts, region_index(normals, pts)))
        assert np.array_equal(phi, np.arange(4, dtype=float))

    def test_random_spec_higher_dimension(self):
        bds, cost, phi = random_orderable_spec(5, 3, seed=7)
        pts = sample_simplex(5, 500, seed=8)
        assert np.all(in_target(cost, pts, region_index(normals_from_boundaries(bds), pts)))

    def test_random_spec_validates(self):
        with pytest.raises(SpecError):
            random_orderable_spec(3, 1, seed=0)
