import numpy as np
import pytest

from conftest import (
    EQ1_PHI,
    O1,
    O2,
    Antiderivative,
    bisect_expected_root,
    lipschitz_estimate,
    random_orderable_spec,
    written_v_bar,
)
from ordelic.audit import (PredictorTable, bin_predictions, check_discretization_bound,
                           check_postprocessing_bound)
from ordelic.embedding import (
    EmbeddingInput,
    build_envelope_loss,
    build_surrogate,
    interpolation_grid,
    pseudo_identification_many,
)
from ordelic.errors import SpecError
from ordelic.piecewise import MaxAffinePieces
from ordelic.properties import CostMatrix, Surrogate
from ordelic.simplex import LabelCounts, sample_simplex


def piece_set(loss: MaxAffinePieces):
    return {(round(a, 10), round(b, 10)) for a, b in loss.pieces}


def in_target(cost, pts, reports) -> np.ndarray:
    """Whether each report is an expected-cost minimizer at its point."""
    return cost.target_sets(pts)[np.arange(len(pts)), np.asarray(reports) - 1]


class TestEnvelopeLoss:
    def test_fixture_piece_sets(self, fixture_cost):
        inp = build_envelope_loss(fixture_cost, EQ1_PHI, 3.0)
        assert piece_set(inp.losses[0]) == {(-3.0, 0.0), (1.0, 0.0), (3.0, -6.0)}
        assert piece_set(inp.losses[1]) == {(-3.0, 3.0), (0.5, -0.5), (3.0, -8.0)}
        assert piece_set(inp.losses[2]) == {(-3.0, 5.0), (-2.0, 5.0),
                                            (-1.5, 4.5), (3.0, -9.0)}

    def test_matches_cost_at_embedded_points(self, fixture_cost):
        inp = build_envelope_loss(fixture_cost, EQ1_PHI, 3.0)
        for y in range(3):
            got = inp.losses[y](EQ1_PHI)
            assert np.allclose(got, fixture_cost.entries[:, y])

    def test_small_outer_slope_rejected(self, fixture_cost):
        with pytest.raises(SpecError):
            build_envelope_loss(fixture_cost, EQ1_PHI, 2.0)

    def test_mismatched_loss_rejected(self, fixture_cost):
        bad = MaxAffinePieces(np.array([[1.0, 0.0]]))
        with pytest.raises(SpecError):
            EmbeddingInput((bad, bad, bad), EQ1_PHI, cost=fixture_cost)

    def test_phi_must_increase(self, fixture_cost):
        with pytest.raises(SpecError):
            build_envelope_loss(fixture_cost, [0.0, 0.0, 1.0], 3.0)


class TestPseudoIdentification:
    def test_three_cases(self, fixture_cost):
        inp = build_envelope_loss(fixture_cost, EQ1_PHI, 3.0)
        # outcome 1: sign change at the kink u=0 (slopes -3 and 1), same-sign
        # kink at u=3 (slopes 1 and 3 average to 2), differentiable at u=0.5
        assert pseudo_identification_many(inp, [0.0, 3.0, 0.5], 1).tolist() == [0.0, 2.0, 1.0]
        # outcome 3 roots at u=3: slopes -1.5 and 3 change sign
        assert pseudo_identification_many(inp, [3.0], 3).tolist() == [0.0]

    def test_grid_values(self, fixture_cost):
        inp = build_envelope_loss(fixture_cost, EQ1_PHI, 3.0)
        grid = interpolation_grid(inp)
        assert np.allclose(grid, [0.0, 0.5, 1.0, 2.0, 3.0])
        want = {
            1: [0.0, 1.0, 1.0, 1.0, 2.0],
            2: [-3.0, -3.0, 0.0, 0.5, 1.75],
            3: [-2.5, -2.0, -1.75, -1.5, 0.0],
        }
        for y in (1, 2, 3):
            got = pseudo_identification_many(inp, grid, y)
            assert np.allclose(got, want[y])


class TestBuildSurrogate:
    def test_fixture_summary(self, fixture_embedding):
        s = fixture_embedding
        assert np.allclose(s.grid, [0.0, 0.5, 1.0, 2.0, 3.0])
        assert np.allclose(s.thresholds, [0.5, 2.0])
        assert s.lipschitz_bound == pytest.approx(21.6535, abs=1e-4)
        assert s.value_range == pytest.approx((0.0, 3.0))
        assert s.lipschitz_exact
        assert np.allclose(
            s.nodes,
            [[0.0, 1.0, 1.0, 1.0, 2.0],
             [-3.0, -3.0, 0.0, 0.5, 1.75],
             [-2.5, -2.0, -1.75, -1.5, 0.0]],
        )

    def test_identification_closed_form(self, fixture_embedding):
        # outcome 2 interpolates from 0 at u=1/2... check the [1/2, 1] piece 6u - 6
        v2 = written_v_bar(fixture_embedding)[1]
        us = np.linspace(0.5, 1.0, 7)
        assert np.allclose(v2(us), 6 * us - 6)

    def test_vertex_roots(self, fixture_embedding):
        assert fixture_embedding.gamma_many(np.eye(3)) == pytest.approx([0.0, 1.0, 3.0],
                                                                       abs=1e-12)

    def test_agrees_with_bisection(self, fixture_embedding):
        s = fixture_embedding
        pts = sample_simplex(3, 2000, seed=11)
        got = s.gamma_many(pts)
        oracle = bisect_expected_root(written_v_bar(s), pts)
        assert np.max(np.abs(got - oracle)) < 1e-8

    def test_integrated_loss_consistent(self, fixture_embedding):
        s = fixture_embedding
        for v in written_v_bar(s):
            L = Antiderivative(v)
            assert L(0.0) == pytest.approx(0.0)
            for u in np.linspace(-0.7, 3.7, 23):
                if np.min(np.abs(v.breakpoints - u)) < 1e-9:
                    continue
                dl, dr = L.derivative_interval(float(u))
                assert dl == pytest.approx(float(v(u)), abs=1e-10)


class TestLink:
    def test_threshold_counting(self, fixture_embedding):
        s = fixture_embedding
        # a value at a threshold links to the lower report
        assert s.link_many([0.4, 0.5, 0.6, 2.0, 2.01]).tolist() == [1, 1, 2, 2, 3]
        assert np.array_equal(s.link_many([0.4, 1.0, 2.5]), [1, 2, 3])

    def test_refines_discrete_target(self, fixture_cost, fixture_embedding):
        pts = sample_simplex(3, 5000, seed=12)
        links = fixture_embedding.link_many(fixture_embedding.gamma_many(pts))
        assert np.all(in_target(fixture_cost, pts, links))


def _gamma(s, p) -> float:
    return float(s.gamma_many(np.asarray(p)[None, :])[0])


class TestLevelSets:
    def test_threshold_level_sets_are_boundaries(self, fixture_embedding):
        # v_bar(1/2, .) and v_bar(2, .) are the oriented region boundaries, so
        # the property hits 1/2 and 2 exactly on those hyperplanes; verify by
        # root-finding along segments crossing each boundary
        s = fixture_embedding
        rng = np.random.default_rng(13)
        for u_star, o in ((0.5, O1), (2.0, O2)):
            nodes = np.array([float(v(u_star)) for v in written_v_bar(s)])
            assert np.abs(np.abs(nodes @ o) / np.linalg.norm(nodes) - 1.0) < 1e-12
            for _ in range(40):
                a, b = sample_simplex(3, 2, seed=int(rng.integers(2**31)))
                fa = _gamma(s, a) - u_star
                fb = _gamma(s, b) - u_star
                if fa * fb >= 0:
                    continue
                lo_p, hi_p = a, b
                for _ in range(60):
                    mid = 0.5 * (lo_p + hi_p)
                    fm = _gamma(s, mid) - u_star
                    if fm * fa > 0:
                        lo_p = mid
                    else:
                        hi_p = mid
                p = 0.5 * (lo_p + hi_p)
                assert abs(p @ o) < 1e-6


class TestLipschitz:
    def test_quotients_bounded_by_refined_estimate(self, fixture_embedding):
        s = fixture_embedding
        K_hat, _ = lipschitz_estimate(
            s.gamma_many, 3, seed=14)
        a = sample_simplex(3, 20000, seed=15)
        b = sample_simplex(3, 20000, seed=16)
        num = np.abs(s.gamma_many(a) - s.gamma_many(b))
        den = np.linalg.norm(a - b, axis=1)
        assert float(np.max(num / den)) <= K_hat + 1e-6

    def test_reported_bound_is_not_a_metric_constant(self, fixture_embedding):
        # max |v| = 3 here, which difference quotients in euclidean distance
        # exceed where the expected identification is shallow at its root;
        # the reported K is the exact constant, above every quotient
        s = fixture_embedding
        assert s.lipschitz_exact and s.lipschitz_bound >= 21.64
        a = sample_simplex(3, 100_000, seed=17)
        b = sample_simplex(3, 100_000, seed=18)
        num = np.abs(s.gamma_many(a) - s.gamma_many(b))
        den = np.linalg.norm(a - b, axis=1)
        assert 3.0 < float(np.max(num / den)) <= s.lipschitz_bound


def _normalized(s: Surrogate) -> Surrogate:
    """The surrogate reparameterized so its property range becomes [0, 1]:
    grid, nodes and thresholds mapped by u -> (u - lo) / width, which keeps
    the outer slopes at one and maps the property by the same affine map."""
    lo, hi = s.value_range
    width = hi - lo
    return Surrogate((s.grid - lo) / width, s.nodes / width,
                     thresholds=(s.thresholds - lo) / width, cost=s.cost)


class TestNormalize:
    """The kernel and K follow an affine change of the value scale."""

    def test_fixture_normalization(self, fixture_embedding):
        ns = _normalized(fixture_embedding)
        assert np.allclose(ns.thresholds, [1 / 6, 2 / 3])
        assert np.allclose(ns.grid, [0.0, 1 / 6, 1 / 3, 2 / 3, 1.0])
        assert ns.gamma_many(np.eye(3)) == pytest.approx([0.0, 1 / 3, 1.0], abs=1e-12)

    def test_composed_report_preserved(self, fixture_embedding):
        ns = _normalized(fixture_embedding)
        pts = sample_simplex(3, 3000, seed=19)
        r_old = fixture_embedding.link_many(fixture_embedding.gamma_many(pts))
        r_new = ns.link_many(ns.gamma_many(pts))
        assert np.array_equal(r_old, r_new)

    def test_values_map_affinely(self, fixture_embedding):
        ns = _normalized(fixture_embedding)
        pts = sample_simplex(3, 500, seed=20)
        old = fixture_embedding.gamma_many(pts)
        new = ns.gamma_many(pts)
        lo, hi = fixture_embedding.value_range
        assert np.allclose(new, (old - lo) / (hi - lo), atol=1e-10)
        assert ns.lipschitz_bound == pytest.approx(
            fixture_embedding.lipschitz_bound / (hi - lo), rel=1e-12)


class TestRandomSpecs:
    @pytest.mark.parametrize("seed", range(5))
    def test_refinement_on_random_targets(self, seed):
        _, cost, phi = random_orderable_spec(3, 3, seed=seed + 200)
        S = 1.0 + 2.0 * float(np.abs(cost.entries).max())
        s = build_surrogate(build_envelope_loss(cost, phi, S))
        pts = sample_simplex(3, 2000, seed=seed + 300)
        assert np.all(in_target(cost, pts, s.link_many(s.gamma_many(pts))))


def _embedding(cost, phi) -> Surrogate:
    return build_surrogate(build_envelope_loss(cost, phi))


def test_shared_slice_point_is_not_lipschitz():
    """Outcome 1's nodes are 0, 0, 0 on [0, 1], so three slices meet at e_1:
    the root there is the midpoint of a flat interval, K = inf, and the bound
    checks hold vacuously without NaN."""
    cost = CostMatrix([[0, 3, 5], [0, 0, 3], [3, 1, 0]])
    s = _embedding(cost, np.array([0.0, 1.0, 3.0]))
    assert np.array_equal(s.nodes[0, :3], [0.0, 0.0, 0.0])
    assert s.lipschitz_bound == np.inf
    assert s.gamma_many(np.eye(3))[0] == 0.5
    ids = ("a", "b")
    data = LabelCounts(ids, [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    f = PredictorTable.from_mapping("distribution", {"a": np.array([1.0, 0.0, 0.0]),
                                                     "b": np.array([0.2, 0.5, 0.3])})
    g = PredictorTable.from_mapping("scalar", dict.fromkeys(ids, 0.5))
    for rep in (check_postprocessing_bound(bin_predictions(f, data, s.gamma_many), s),
                check_discretization_bound(bin_predictions(g, data), s, C_marginal=0.0)):
        for bound in rep.bounds:
            assert bound.satisfied and bound.rhs == np.inf
            assert not any(isinstance(v, float) and np.isnan(v)
                           for v in bound.params.values())
