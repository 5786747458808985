import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import O1, O2, SQ14, bisect_expected_root, node_root_batch, region_index
from ordelic.errors import OrderabilityError
from ordelic.normals import build_from_spec, full_pipeline
from ordelic.properties import (
    AffineBoundary,
    OrderableSpec,
    OrientedNormals,
    _piece_gradients,
    sample_boundary,
    spec_from_boundaries,
)
from ordelic.simplex import sample_simplex


def _region_gradient_norms(O, j, pts):
    """Gradient norms of the normals property on region j (1-based): grid
    piece j - 2 of the nodes -O.T on the unit grid."""
    return _piece_gradients(O, np.ones(len(O) - 1), j - 2, pts)[1]


def _gamma(s, p) -> float:
    return float(s.gamma_many(np.asarray(p, dtype=np.float64)[None, :])[0])


class TestConstruction:
    def test_fixture_node_values(self, fixture_normals):
        s = fixture_normals
        assert s.normals.k == 2
        assert np.allclose(s.grid, [0.0, 1.0])
        assert np.allclose(s.thresholds, [0.0, 1.0])
        assert np.allclose(s.nodes, np.stack([-O1, -O2], axis=1))
        assert np.allclose(s.nodes * SQ14,
                           [[1.0, 2.0], [-3.0, 1.0], [-2.0, -3.0]])
        assert s.value_range[0] == pytest.approx(float(O1.min()))
        assert s.value_range[1] == pytest.approx(float(O2.max()) + 1.0)

    def test_identification_three_cases(self, fixture_normals):
        # v(u, y) interpolates -o_{l+1, y} at u = 0..k-1 with unit tails
        v1 = fixture_normals.identification[0]
        assert v1(0.0) == pytest.approx(1.0 / SQ14)
        assert v1(1.0) == pytest.approx(2.0 / SQ14)
        assert v1(-1.0) == pytest.approx(1.0 / SQ14 - 1.0)
        assert v1(2.5) == pytest.approx(2.0 / SQ14 + 1.5)
        mid = v1(0.5)
        assert mid == pytest.approx(1.5 / SQ14)

    def test_single_boundary_case(self):
        spec = spec_from_boundaries([AffineBoundary([1.0, 2.0, 3.0], 1.5)])
        s = build_from_spec(spec)
        assert s.normals.k == 1
        o = spec.normals.o[0]
        # v(u, y) = u - o_y for every outcome
        for y in range(3):
            assert s.identification[y](0.0) == pytest.approx(-o[y])
            assert s.identification[y](2.0) == pytest.approx(2.0 - o[y])
        # the property is <o, p> and the link splits at 0
        pts = sample_simplex(3, 500, seed=1)
        assert np.allclose(s.gamma_many(pts), pts @ o, atol=1e-12)

    def test_coincident_boundaries_rejected(self):
        spec = OrderableSpec((1, 2, 3), OrientedNormals(np.stack([O1, O1])))
        with pytest.raises(OrderabilityError):
            build_from_spec(spec)


class TestEvaluation:
    def test_region_closed_forms(self, fixture_normals):
        s = fixture_normals
        # region 1 point e1: value <o1, p>
        assert _gamma(s, [1, 0, 0]) == pytest.approx(-1.0 / SQ14)
        # region 3 point e3: value <o2, p> + 1
        assert _gamma(s, [0, 0, 1]) == pytest.approx(3.0 / SQ14 + 1.0)
        # region 2 point e2: ratio <o1,p>/<o1-o2,p>
        p = np.array([0.0, 1.0, 0.0])
        want = (p @ O1) / (p @ (O1 - O2))
        assert _gamma(s, p) == pytest.approx(want)

    def test_boundary_values_are_integers(self, fixture_normals):
        s = fixture_normals
        for i, o in enumerate((O1, O2)):
            pts = sample_boundary(o, 200, seed=30 + i)
            vals = s.gamma_many(pts)
            assert np.max(np.abs(vals - i)) < 1e-9

    def test_continuity_across_boundaries(self, fixture_normals):
        s = fixture_normals
        rng = np.random.default_rng(31)
        for o in (O1, O2):
            pts = sample_boundary(o, 50, seed=int(rng.integers(2**31)))
            d = O1 - O1.mean()  # direction crossing both hyperplanes
            d /= np.linalg.norm(d)
            for p in pts[:20]:
                eps = 1e-7
                lo = p - eps * d
                hi = p + eps * d
                if np.any(lo < 0) or np.any(hi < 0):
                    continue
                lo /= lo.sum()
                hi /= hi.sum()
                assert abs(_gamma(s, lo) - _gamma(s, hi)) < 1e-5

    def test_oracle_equivalence(self, fixture_normals):
        # closed-form ratio, node-root kernel, and bisection must agree
        s = fixture_normals
        pts = sample_simplex(3, 3000, seed=32)
        a = s.gamma_many(pts)
        b = node_root_batch(s.grid, s.nodes, pts)
        c = bisect_expected_root(list(s.identification), pts)
        assert np.max(np.abs(a - b)) < 1e-9
        assert np.max(np.abs(a - c)) < 1e-8

    def test_lipschitz_bound_exact_and_attained(self, fixture_normals, fixture_cost):
        from ordelic.audit import lipschitz_estimate
        s = fixture_normals
        assert s.lipschitz_exact
        # attained at the slice vertex (0.6, 0, 0.4) of region 2
        assert s.lipschitz_bound == pytest.approx(18.708286933869697, rel=1e-14)
        _, report = full_pipeline(fixture_cost, seed=1)
        assert report["lipschitz_bound"] == pytest.approx(18.708286933869697, rel=1e-14)
        assert s.lipschitz_bound == pytest.approx(18.7083, abs=1e-3)
        K_hat, _ = lipschitz_estimate(s.gamma_many, 3, seed=33)
        assert K_hat <= s.lipschitz_bound + 1e-6
        assert K_hat > 0.9 * s.lipschitz_bound


class TestLink:
    def test_clip_ceiling_values(self, fixture_normals):
        s = fixture_normals
        # clip(ceil(u), 0, k) + 1
        assert s.link_many([-0.2, 0.0, 0.6, 1.0, 1.8, 5.0]).tolist() == [1, 1, 2, 2, 3, 3]
        assert np.array_equal(s.link_many([-0.2, 0.6, 1.8]), [1, 2, 3])

    def test_refines_regions(self, fixture_normals, fixture_normals_spec):
        pts = sample_simplex(3, 5000, seed=34)
        links = fixture_normals.link_many(fixture_normals.gamma_many(pts))
        regions = region_index(fixture_normals_spec.normals, pts)
        assert np.array_equal(links, regions)


class TestFullPipeline:
    def test_recovery_from_boundaries(self, fixture_boundaries):
        s, report = full_pipeline(fixture_boundaries, seed=35)
        got = np.array(report["recovered_normals"])
        assert np.allclose(got[0], O1, atol=1e-8)
        assert np.allclose(got[1], O2, atol=1e-8)
        assert report["boundary_gaps"][0] == pytest.approx(0.0943, abs=2e-3)
        assert report["lipschitz_exact"]
        assert report["refinement_pass_rate"] == 1.0

    def test_recovery_from_cost(self, fixture_cost):
        s, report = full_pipeline(fixture_cost, seed=36)
        got = np.array(report["recovered_normals"])
        assert np.allclose(got[0], O1, atol=1e-8)
        assert np.allclose(got[1], O2, atol=1e-8)
        # refinement checked against the cost argmin route
        assert report["refinement_pass_rate"] == 1.0
        pts = sample_simplex(3, 1000, seed=37)
        links = s.link_many(s.gamma_many(pts))
        assert np.all(fixture_cost.target_sets(pts)[np.arange(len(pts)), links - 1])

    def test_crossing_boundaries_rejected(self):
        bds = [AffineBoundary([1.0, -1.0, 0.0], 0.0),
               AffineBoundary([1.0, 0.0, 0.0], 1 / 3)]
        with pytest.raises(OrderabilityError):
            full_pipeline(bds, seed=38)

    @pytest.mark.parametrize("n", [3, 5])
    def test_boundary_missing_interior_named(self, n):
        inner = AffineBoundary(np.arange(n, dtype=float), (n - 1) / 2)
        outside = AffineBoundary(np.r_[0.0, np.ones(n - 1)], 0.0)  # only e1
        with pytest.raises(OrderabilityError,
                           match="boundary 2 does not meet the simplex interior"):
            full_pipeline([inner, outside], seed=41)

    def test_higher_dimension(self):
        from ordelic.properties import random_orderable_spec
        spec, cost, _ = random_orderable_spec(4, 3, seed=39)
        s, report = full_pipeline(list(spec.boundaries), seed=40)
        got = np.array(report["recovered_normals"])
        for i in range(2):
            assert min(np.linalg.norm(got[i] - spec.normals.o[i]),
                       np.linalg.norm(got[i] + spec.normals.o[i])) < 1e-7
        assert report["lipschitz_exact"]
        assert not report["boundary_gaps_exact"]
        assert report["refinement_pass_rate"] == 1.0

    @pytest.mark.parametrize("n,n_reports,seed", [(8, 6, 1), (10, 3, 0)])
    def test_spec_with_small_regions(self, n, n_reports, seed):
        """Specs whose thin regions a Monte Carlo witness search missed."""
        from ordelic.properties import random_orderable_spec
        spec, cost, _ = random_orderable_spec(n, n_reports, seed=seed)
        s = build_from_spec(spec)
        assert s.lipschitz_exact and s.lipschitz_bound > 0
        s2, report = full_pipeline(list(spec.boundaries), seed=seed)
        assert np.allclose(report["recovered_normals"], spec.normals.o, atol=1e-7)
        assert report["refinement_pass_rate"] == 1.0
        assert s2.lipschitz_bound == pytest.approx(s.lipschitz_bound, rel=1e-9)


@pytest.mark.parametrize("n", [3, 5])
def test_region_gradient_norms_match_point_loop(n):
    """The batched gradient norms equal the per-point computation bit for bit."""
    from ordelic.properties import random_orderable_spec
    O = random_orderable_spec(n, 4, seed=n)[0].normals.o
    pts = sample_simplex(n, 300, seed=n)
    for j in range(1, O.shape[0] + 2):
        if j in (1, O.shape[0] + 1):
            g = O[0] if j == 1 else O[-1]
            want = [np.linalg.norm(g - g.mean())] * len(pts)
        else:
            oi, oi1 = O[j - 2], O[j - 1]
            den = pts @ (oi - oi1)
            f = (pts @ oi) / den
            want = []
            for r in range(len(pts)):
                g = (oi - f[r] * (oi - oi1)) / den[r]
                want.append(np.linalg.norm(g - g.mean()))
        assert _region_gradient_norms(O, j, pts).tolist() == want


def _in_region_max_norm(O, pts) -> float:
    """Max gradient norm over the rows of pts, each in its own region."""
    regions = region_index(OrientedNormals(O), pts)
    return max(float(_region_gradient_norms(O, j, pts[regions == j]).max())
               for j in np.unique(regions))


def _tilted_spec(n: int, n_reports: int, seed: int, tilt: float):
    """random_orderable_spec with each boundary normal turned by a random
    vector of norm ``tilt``; None when the result is not strongly orderable."""
    from ordelic.properties import random_orderable_spec
    O = random_orderable_spec(n, n_reports, seed=seed)[0].normals.o
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(O.shape)
    O = O + tilt * d / np.linalg.norm(d, axis=1, keepdims=True)
    O /= np.linalg.norm(O, axis=1, keepdims=True)
    try:
        return _spec_from_normals(O)
    except OrderabilityError:
        return None


def _spec_from_normals(O):
    from ordelic.properties import orient_normals
    return OrderableSpec(tuple(range(1, len(O) + 2)), OrientedNormals(orient_normals(O)))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 8), n_reports=st.integers(2, 5), seed=st.integers(0, 2**20),
       tilt=st.sampled_from([0.0, 0.3]))
def test_lipschitz_bound_is_a_bound(n, n_reports, seed, tilt):
    """K is exact for every n: no difference quotient and no in-region
    gradient norm exceeds it."""
    from ordelic.audit import lipschitz_estimate
    spec = _tilted_spec(n, n_reports, seed, tilt)
    assume(spec is not None)
    s = build_from_spec(spec)
    assert s.lipschitz_exact
    K_hat, _ = lipschitz_estimate(s.gamma_many, n, seed=seed)
    assert K_hat <= s.lipschitz_bound
    pts = sample_simplex(n, 20_000, seed=seed)
    assert _in_region_max_norm(spec.normals.o, pts) <= s.lipschitz_bound


def test_lipschitz_bound_inside_a_region_edge():
    """Where two boundaries cut off two corners of the triangle at steep
    angles, the gradient norm peaks inside an edge of the middle region, above
    every vertex; K is that peak."""
    from ordelic.properties import slice_vertices
    e = np.eye(3)
    o1 = -np.cross(0.65 * e[0] + 0.35 * e[1], 0.05 * e[0] + 0.95 * e[2])
    o2 = np.cross(0.9 * e[1] + 0.1 * e[0], 0.75 * e[1] + 0.25 * e[2])
    spec = _spec_from_normals(np.stack([o1 / np.linalg.norm(o1), o2 / np.linalg.norm(o2)]))
    O = spec.normals.o
    K = build_from_spec(spec).lipschitz_bound
    C = np.vstack([e, *slice_vertices(O)])
    V = C[spec.normals.target_sets(C)[:, 1]]
    at_vertices = float(_region_gradient_norms(O, 2, V).max())
    t = np.linspace(0.0, 1.0, 20_001)[:, None]
    on_edges = max(float(_region_gradient_norms(O, 2, (1 - t) * V[a] + t * V[b]).max())
                   for a in range(len(V)) for b in range(a + 1, len(V)))
    assert at_vertices < on_edges <= K
    assert K == pytest.approx(on_edges, rel=1e-8)
