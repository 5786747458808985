import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import O1, O2, region_index
from ordelic.embedding import build_envelope_loss, build_surrogate
from ordelic.errors import (
    OrderabilityError,
    RankDeficiencyError,
    SimplexError,
    SpecError,
)
from ordelic.normals import build_from_spec
from ordelic.properties import (
    BOUNDARY_TOL,
    AffineBoundary,
    CostMatrix,
    OrderableSpec,
    OrientedNormals,
    boundaries_from_cost,
    boundary_gap,
    check_strong_orderability,
    homogenize_boundary,
    normal_from_boundary_samples,
    orient_normals,
    random_orderable_spec,
    sample_boundary,
    spec_from_boundaries,
)
from ordelic.simplex import sample_simplex


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
        with pytest.raises(SpecError):
            AffineBoundary([2.0, 2.0, 2.0], 1.0)


class TestNormalRecovery:
    def test_exact_points_recover_normal(self):
        pts = sample_boundary(O1, 2, seed=0)
        o = normal_from_boundary_samples(pts)
        if o[0] > 0:
            o = -o
        assert np.allclose(o, O1, atol=1e-9)

    def test_repeated_point_rank_deficient(self):
        p = sample_boundary(O1, 1, seed=1)[0]
        with pytest.raises(RankDeficiencyError):
            normal_from_boundary_samples(np.stack([p, p]))

    def test_shape_validated(self):
        with pytest.raises(SpecError):
            normal_from_boundary_samples(np.ones((3, 3)))


class TestOrientation:
    def test_fixture_chain(self):
        # o_1 keeps its sign; o_2 flips so that slice 1 is on its negative side
        out = orient_normals([O1, -O2])
        assert np.array_equal(out, np.stack([O1, O2]))
        assert np.array_equal(orient_normals([O1, O2]), out)

    def test_misordered_boundaries_raise(self):
        with pytest.raises(OrderabilityError, match="not met in report order"):
            orient_normals([O2, O1])
        # region 1 on the far side of boundary 1
        with pytest.raises(OrderabilityError, match="not met in report order"):
            orient_normals([-O1, O2])

    @pytest.mark.parametrize("n,k,seed", [(3, 5, 0), (5, 4, 1), (8, 6, 1), (10, 3, 0)])
    def test_chain_recovers_random_spec(self, n, k, seed):
        spec = random_orderable_spec(n, k, seed)[0]
        O = spec.normals.o
        flips = np.where(np.arange(len(O)) % 2 == 1, -1.0, 1.0)[:, None]
        assert np.array_equal(orient_normals(O * flips), O)


def _slice_vertex_loop(o, tol=1e-12):
    """Per-edge reference: zero-coordinate vertices, then edge crossings."""
    n = len(o)
    pts = [np.eye(n)[i] for i in range(n) if abs(o[i]) <= tol]
    for i in range(n):
        for j in range(i + 1, n):
            den = o[i] - o[j]
            if abs(den) <= tol:
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
    from ordelic.properties import _simplex_boundary_endpoints
    o = np.random.default_rng(seed).standard_normal(n)
    o[: min(zeros, n - 2)] = 0.0
    o /= np.linalg.norm(o)
    got = _simplex_boundary_endpoints(o)
    want = _slice_vertex_loop(o)
    assert got.tolist() == [p.tolist() for p in want]
    assert np.all(got >= 0) and np.allclose(got.sum(axis=1), 1.0)
    assert np.max(np.abs(got @ o), initial=0.0) < 1e-12


class TestOrderabilityErrors:
    """Each failure names its cause and the boundaries at fault."""

    @staticmethod
    def _normals(n):
        if n == 3:
            return np.stack([O1, O2])
        return random_orderable_spec(n, 3, seed=n)[0].normals.o

    @pytest.mark.parametrize("n", [3, 5])
    def test_crossing(self, n):
        O = self._normals(n)
        p = sample_boundary(O[0], 1, seed=n)[0]  # a point of slice 1
        o2 = O[1] - (O[1] @ p) * p / (p @ p)      # a boundary 2 through it
        o2 /= np.linalg.norm(o2)
        spec = OrderableSpec((1, 2, 3), OrientedNormals(np.stack([O[0], o2])))
        with pytest.raises(OrderabilityError,
                           match="boundaries 1 and 2 cross inside the simplex"):
            check_strong_orderability(spec)
        with pytest.raises(OrderabilityError, match="cross inside the simplex"):
            orient_normals([O[0], o2])

    @pytest.mark.parametrize("n", [3, 5])
    def test_report_order(self, n):
        O = self._normals(n)
        spec = OrderableSpec((1, 2, 3), OrientedNormals(O[::-1].copy()))
        with pytest.raises(OrderabilityError,
                           match="boundaries 1 and 2 are not met in report order"):
            check_strong_orderability(spec)

    @pytest.mark.parametrize("n", [3, 5])
    def test_misses_interior(self, n):
        O = self._normals(n)
        o3 = np.ones(n)
        o3[0] = 0.0  # {<o3, p> = 0} meets the simplex only at e1
        o3 /= np.linalg.norm(o3)
        spec = OrderableSpec((1, 2, 3, 4), OrientedNormals(np.vstack([O, o3])))
        with pytest.raises(OrderabilityError,
                           match="boundary 3 does not meet the simplex interior"):
            check_strong_orderability(spec)


class TestBoundarySampling:
    @pytest.mark.parametrize("o", [O1, O2])
    def test_on_boundary_and_positive(self, o):
        pts = sample_boundary(o, 500, seed=3)
        assert np.max(np.abs(pts @ o)) <= 1e-10
        assert np.all(pts > 0)
        assert np.allclose(pts.sum(axis=1), 1.0)

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
        # the chain should move around, not sit at its start
        assert np.min(np.std(pts, axis=0)) > 1e-3


class TestRegions:
    def test_region_matches_cost_argmin(self, fixture_cost, fixture_normals_spec):
        pts = sample_simplex(3, 3000, seed=6)
        regions = region_index(fixture_normals_spec.normals, pts)
        assert np.all(in_target(fixture_cost, pts, regions))

    def test_boundary_tie_resolves_low(self, fixture_normals_spec):
        p = sample_boundary(O1, 1, seed=7)
        assert region_index(fixture_normals_spec.normals, p).tolist() == [1]

    def test_vertices(self, fixture_normals_spec):
        nm = fixture_normals_spec.normals
        assert region_index(nm, np.eye(3)).tolist() == [1, 2, 3]


@functools.cache
def _tie_property(n: int):
    """Normals surrogate for the fixture (n = 3) or a random 4-report target."""
    if n == 3:
        spec = spec_from_boundaries([AffineBoundary([-3, 1, 0], -2.0),
                                     AffineBoundary([-5, -4, 0], -3.0)])
    else:
        spec = random_orderable_spec(n, 4, seed=n)[0]
    return build_from_spec(spec)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([3, 5]), boundary=st.integers(0, 2),
       seed=st.integers(0, 2**20), shift=st.floats(10.5, 1000.0))
def test_boundary_ties_use_one_tolerance(n, boundary, seed, shift):
    """On boundary i the region, the linked property value and the target
    set resolve to the lower report; off it by more than 10 * BOUNDARY_TOL
    they resolve to the side the point is on."""
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
    assert np.array_equal(s.link_many(s.gamma_many(pts)), want)
    sets = s.discrete_set_many(pts)
    assert [set(np.flatnonzero(row) + 1) for row in sets] \
        == [{i + 1, i + 2}, {i + 1}, {i + 2}]


@pytest.mark.parametrize("algo", ["embedding", "normals"])
def test_link_ties_resolve_low(fixture_cost, algo):
    """A value within BOUNDARY_TOL above a threshold links to the lower
    report, for either construction."""
    if algo == "embedding":
        s = build_surrogate(build_envelope_loss(fixture_cost, [0.0, 1.0, 3.0], 3.0))
    else:
        s = build_from_spec(spec_from_boundaries(
            [AffineBoundary([-3, 1, 0], -2.0), AffineBoundary([-5, -4, 0], -3.0)]))
    for i, t in enumerate(s.thresholds):
        assert s.link_many([t, t + 5e-11, t + 2e-10]).tolist() == [i + 1, i + 1, i + 2]


class TestSpecConstruction:
    def test_boundaries_from_cost_matches_fixture(self, fixture_cost):
        bds = boundaries_from_cost(fixture_cost)
        assert len(bds) == 2
        # homogenization is sign-ambiguous before orientation
        assert np.abs(homogenize_boundary(bds[0]) @ O1) == pytest.approx(1.0)
        assert np.abs(homogenize_boundary(bds[1]) @ O2) == pytest.approx(1.0)

    def test_spec_from_boundaries_orients(self, fixture_normals_spec):
        assert np.allclose(fixture_normals_spec.normals.o[0], O1)
        assert np.allclose(fixture_normals_spec.normals.o[1], O2)
        assert fixture_normals_spec.reports == (1, 2, 3)

    def test_crossing_boundaries_rejected(self):
        bds = [AffineBoundary([1.0, -1.0, 0.0], 0.0),
               AffineBoundary([1.0, 0.0, 0.0], 1 / 3)]
        with pytest.raises(OrderabilityError):
            spec_from_boundaries(bds)


class TestGaps:
    def test_fixture_gap_positive(self, fixture_normals_spec):
        g = boundary_gap(fixture_normals_spec, 1)
        assert g == pytest.approx(0.0943, abs=2e-3)
        check_strong_orderability(fixture_normals_spec)

    def test_identical_boundaries_zero_gap(self):
        from ordelic.properties import OrderableSpec, OrientedNormals
        spec = OrderableSpec((1, 2, 3), OrientedNormals(np.stack([O1, O1])))
        assert boundary_gap(spec, 1) == 0.0
        with pytest.raises(OrderabilityError):
            check_strong_orderability(spec)

    def test_parallel_boundaries_gap_close_to_offset(self):
        # p1 = 0.3 and p1 = 0.5: planes orthogonal in R^3 restricted to the
        # simplex; closest points differ only in the (1,-1,0)/(1,0,-1) span
        bds = [AffineBoundary([1.0, 0.0, 0.0], 0.3),
               AffineBoundary([1.0, 0.0, 0.0], 0.5)]
        spec = spec_from_boundaries(bds)
        g = boundary_gap(spec, 1)
        # closest pair (0.3, t, 0.7-t) vs (0.5, t, 0.5-t): distance 0.2*sqrt(6)/2... measured
        want = np.sqrt(0.2**2 + 2 * 0.1**2)
        assert g == pytest.approx(want, abs=1e-9)

    def test_index_validated(self, fixture_normals_spec):
        with pytest.raises(SpecError):
            boundary_gap(fixture_normals_spec, 2)


class TestRoundTrip:
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (5, 2)])
    def test_recover_normals_from_samples(self, n, k):
        spec, cost, phi = random_orderable_spec(n, k + 1, seed=10 * n + k)
        for i in range(k):
            o = spec.normals.o[i]
            pts = sample_boundary(o, n - 1, seed=100 + i)
            got = normal_from_boundary_samples(pts)
            if got @ o < 0:
                got = -got
            assert np.allclose(got, o, atol=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_spec_is_consistent(self, seed):
        spec, cost, phi = random_orderable_spec(3, 4, seed=seed)
        check_strong_orderability(spec)
        assert min(boundary_gap(spec, i) for i in (1, 2)) > 1e-3
        pts = sample_simplex(3, 2000, seed=seed + 50)
        assert np.all(in_target(cost, pts, region_index(spec.normals, pts)))
        assert np.array_equal(phi, np.arange(4, dtype=float))

    def test_random_spec_higher_dimension(self):
        spec, cost, phi = random_orderable_spec(5, 3, seed=7)
        pts = sample_simplex(5, 500, seed=8)
        assert np.all(in_target(cost, pts, region_index(spec.normals, pts)))

    def test_random_spec_validates(self):
        with pytest.raises(SpecError):
            random_orderable_spec(3, 1, seed=0)
