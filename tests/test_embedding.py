import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    EQ1_COSTS,
    EQ1_PHI,
    O1,
    O2,
    Antiderivative,
    bisect_expected_root,
    embedding_nodes_reference,
    lipschitz_estimate,
    random_orderable_spec,
    written_v_bar,
)
from ordelic.audit import (PredictorTable, bin_predictions, check_discretization_bound,
                           check_postprocessing_bound)
from ordelic.embedding import EmbeddingInput, build_surrogate
from ordelic import properties
from ordelic.errors import SpecError
from ordelic.properties import CostMatrix, Surrogate
from ordelic.simplex import LabelCounts, sample_simplex


def in_target(cost, pts, reports) -> np.ndarray:
    """Whether each report is an expected-cost minimizer at its point."""
    return cost.target_sets(pts)[np.arange(len(pts)), np.asarray(reports) - 1]


class TestEmbeddingInput:
    def test_fixture_slopes(self, fixture_cost):
        inp = EmbeddingInput(fixture_cost, EQ1_PHI, 3.0)
        assert inp.slopes.tolist() == [[-3.0, 1.0, 1.0, 3.0], [-3.0, -3.0, 0.5, 3.0],
                                       [-3.0, -2.0, -1.5, 3.0]]

    def test_default_outer_slope_is_the_steepest(self, fixture_cost):
        assert EmbeddingInput(fixture_cost, EQ1_PHI).outer_slope == 3.0

    def test_small_outer_slope_rejected(self, fixture_cost):
        with pytest.raises(SpecError, match=r"^outer slope 2.0 does not dominate chord "
                           r"slopes \(max magnitude 3.0\) for outcome 2$"):
            EmbeddingInput(fixture_cost, EQ1_PHI, 2.0)

    def test_phi_must_increase(self, fixture_cost):
        with pytest.raises(SpecError, match="strictly increasing"):
            EmbeddingInput(fixture_cost, [0.0, 0.0, 1.0], 3.0)

    def test_slightly_concave_costs_are_refused(self):
        """Outcome 1's costs 0, 1, 3 - 2e-11 at phi 0, 1, 3 fall in slope
        by 1e-11, 3.3e-12 of the outer slope 3: refused (the CLI exits 2),
        naming the triple.  The max-affine construction took them, as its
        loss met each cost within 1e-10 relative."""
        cost = CostMatrix([[0, 3, 5], [1, 0, 3], [3 - 2e-11, 1, 0]])
        assert embedding_nodes_reference(cost, EQ1_PHI) is not None
        with pytest.raises(SpecError, match="costs of outcome 1 are not convex in phi: "
                           "reports 1, 2, 3 cost 0, 1, 3 at phi 0, 1, 3"):
            EmbeddingInput(cost, EQ1_PHI)


class TestConvexPhi:
    """A refused embedding suggests a phi at which every outcome's costs
    are convex, or says that none exists (the README cost at phi 0, 1, 2
    is in test_cli.py)."""

    @pytest.mark.parametrize("rows, triple", [
        ([[0, 0, 0], [1, 1, 1], [0, 2, 2]], "(phi3 - phi2)/(phi2 - phi1)"),
        ([[4, 0, 0], [3, 1, 0], [0, 3, 0]], "(phi3 - phi2)/(phi2 - phi1)"),
        ([[0, 0, 0], [1, 0, 0], [3, 0, 0], [2, 0, 0]], "(phi4 - phi3)/(phi3 - phi2)"),
    ], ids=["bends-down", "bounds-cross", "second-triple"])
    def test_none_exists(self, rows, triple):
        """Costs 0, 1, 0 bend down at every spacing; costs 4, 3, 0 need a
        spacing ratio >= 3 where 0, 1, 3 need one <= 2; costs 1, 3, 2 of the
        second triple bend down."""
        with pytest.raises(SpecError, match=re.escape(
                "; no phi makes the costs of every outcome convex, as no spacing "
                f"ratio {triple} does") + "$"):
            EmbeddingInput(CostMatrix(rows), np.arange(len(rows), dtype=np.float64))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 8), n_reports=st.integers(3, 6), seed=st.integers(0, 2**20),
           orderable=st.booleans())
    @example(n=3, n_reports=3, seed=0, orderable=False)
    def test_the_suggestion_works(self, n, n_reports, seed, orderable):
        """Orderable or uniform random costs at random phi: where they are
        refused as not convex, the suggested phi builds a surrogate, or, for
        the triple named, no spacing ratio between 1e-6 and 1e6 makes every
        outcome's costs convex.  Orderable costs are convex at unit spacing,
        so they always get a phi."""
        rng = np.random.default_rng(seed)
        cost = random_orderable_spec(n, n_reports, seed)[1] if orderable else \
            CostMatrix(rng.uniform(0.0, 5.0, (n_reports, n)))
        phi = np.cumsum(rng.uniform(0.1, 3.0, n_reports))
        try:
            EmbeddingInput(cost, phi)
            return
        except SpecError as exc:
            message = str(exc)
        works = re.search(r"; phi (\S+) makes the costs of every outcome convex$", message)
        if works is not None:
            build_surrogate(EmbeddingInput(cost, [float(v) for v in works[1].split(",")]))
            return
        assert not orderable, message
        r = int(re.search(r"as no spacing ratio \(phi(\d+) - ", message)[1]) - 3
        d = np.diff(cost.entries, axis=0)
        ratio = 10.0 ** np.linspace(-6, 6, 2401)[:, None]
        assert np.all(np.any(d[r] * ratio > d[r + 1], axis=1)), message


def _scaled_nodes(cost: CostMatrix, phi, k: int) -> np.ndarray:
    """The embedding nodes of ``cost`` times 2^k at ``phi``, with its default
    outer slope times 2^k."""
    S = EmbeddingInput(cost, phi).outer_slope
    return build_surrogate(EmbeddingInput(CostMatrix(np.ldexp(cost.entries, k)), phi,
                                          np.ldexp(S, k))).nodes


@pytest.mark.parametrize("n", [None, 3, 5, 8])
def test_nodes_scale_with_the_costs(n):
    """The nodes of the cost times 2^k, with the outer slope times 2^k, are
    2^k times the nodes of the cost bit for bit, for k = -60..60: the README
    cost at phi 0, 1, 3 (n None) and random_orderable_spec(n, 4, n).  The
    max-affine construction missed by 2^-40, where its absolute 1e-12 on
    slopes and intercepts merged pieces."""
    cost, phi = (CostMatrix(EQ1_COSTS), EQ1_PHI) if n is None else \
        random_orderable_spec(n, 4, n)[1:]
    nodes = _scaled_nodes(cost, phi, 0)
    for k in range(-60, 61):
        assert _scaled_nodes(cost, phi, k).tobytes() == np.ldexp(nodes, k).tobytes(), k


def _nodes_or_none(cost: CostMatrix, phi, outer_slope):
    """(grid, nodes, outer slope) of the embedding, or None if refused."""
    try:
        inp = EmbeddingInput(cost, phi, outer_slope)
    except SpecError:
        return None
    s = build_surrogate(inp)
    return s.grid, s.nodes, inp.outer_slope


def _decimal_costs(rng, n: int, n_reports: int) -> CostMatrix:
    """Costs in hundredths, convex at unit spacing in decimal: each outcome
    steps by a sorted draw of -4..4 hundredths, so equal steps make
    collinear triples, which float division leaves a few ulps off."""
    steps = np.sort(rng.integers(-4, 5, (n, n_reports - 1)), axis=1)
    cents = np.concatenate([np.zeros((n, 1), dtype=np.int64), np.cumsum(steps, axis=1)], axis=1)
    cents -= cents.min(axis=1, keepdims=True) - rng.integers(0, 3, (n, 1))
    return CostMatrix(cents.T / 100)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 8), n_reports=st.integers(2, 5), seed=st.integers(0, 2**20),
       spacing=st.sampled_from(["unit", "random"]),
       slope=st.sampled_from(["default", "equal", "small"]))
def test_nodes_match_the_max_affine_oracle(n, n_reports, seed, spacing, slope):
    """Against the max-affine construction (conftest), on random orderable
    costs at unit or random phi and with the default outer slope, the
    steepest cost slope itself, or 0.9 times it: the same verdict, and the
    same grid, nodes and outer slope bit for bit where both accept."""
    rng = np.random.default_rng(seed)
    cost = random_orderable_spec(n, n_reports, seed)[1]
    phi = np.arange(n_reports, dtype=np.float64) if spacing == "unit" else \
        np.cumsum(rng.uniform(0.1, 3.0, n_reports))
    steepest = float(np.abs(np.diff(cost.entries, axis=0).T / np.diff(phi)).max())
    S = {"default": None, "equal": steepest, "small": 0.9 * steepest}[slope]
    got, want = _nodes_or_none(cost, phi, S), embedding_nodes_reference(cost, phi, S)
    assert (got is None) == (want is None)
    if got is not None:
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 8), n_reports=st.integers(2, 6), seed=st.integers(0, 2**20))
def test_decimal_costs_match_the_max_affine_oracle(n, n_reports, seed):
    """Two-decimal costs, collinear in decimal, at unit spacing: both
    constructions accept them, with the same grid and nodes within 32 ulps.
    The max-affine construction merged collinear points into one chord;
    each interval now keeps its own slope."""
    cost = _decimal_costs(np.random.default_rng(seed), n, n_reports)
    phi = np.arange(n_reports, dtype=np.float64)
    got, want = _nodes_or_none(cost, phi, None), embedding_nodes_reference(cost, phi)
    assert got is not None and want is not None
    assert got[0].tobytes() == want[0].tobytes()
    ulps = 32 * np.spacing(np.maximum(np.abs(got[1]), np.abs(want[1])))
    assert np.all(np.abs(got[1] - want[1]) <= ulps)


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

    def test_slices_enumerated_once(self, fixture_cost, monkeypatch):
        """Construction enumerates the node slices in one batched call, and
        the l1 and linf constants read them from the surrogate."""
        sizes, original = [], properties._slice_vertex_sets
        monkeypatch.setattr(properties, "_slice_vertex_sets",
                            lambda O: sizes.append(len(O)) or original(O))
        s = build_surrogate(EmbeddingInput(fixture_cost, EQ1_PHI, 3.0))
        assert sizes == [s.nodes.shape[1]]
        for norm in ("l1", "linf"):
            s.lipschitz(norm)
        assert sizes == [s.nodes.shape[1]]


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
        s = build_surrogate(EmbeddingInput(cost, phi, S))
        pts = sample_simplex(3, 2000, seed=seed + 300)
        assert np.all(in_target(cost, pts, s.link_many(s.gamma_many(pts))))


def _embedding(cost, phi) -> Surrogate:
    return build_surrogate(EmbeddingInput(cost, phi))


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
        for bound in rep["bounds"]:
            assert bound["satisfied"] and bound["rhs"] == np.inf
            assert not any(isinstance(v, float) and np.isnan(v)
                           for v in bound["params"].values())
