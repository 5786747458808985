import dataclasses

import numpy as np
import pytest

from conftest import (
    O1,
    O2,
    from_ternary_plot,
    lipschitz_estimate,
    mass_counts,
    node_root_batch,
    normals_from_boundaries,
    random_orderable_spec,
    sample_boundary,
    sampled_counts,
    sampled_rows,
)
from ordelic.audit import (
    PredictorTable,
    bin_predictions,
    check_discretization_bound,
    check_postprocessing_bound,
    counterexample_gap,
    delta_to_threshold,
    discrete_calibration,
    dist_calibration_wrt,
    estimate_marginal_lipschitz,
    instance_dataset,
    link_diameter,
    surrogate_calibration,
)
from ordelic.embedding import EmbeddingInput, build_surrogate
from ordelic.errors import DegenerateRangeError, SearchFailure, SpecError
from ordelic.normals import build_from_normals
from ordelic.properties import AffineBoundary, CostMatrix
from ordelic.scenario import (
    ScenarioSpec,
    exact_dataset,
    materialize_predictor,
)
from ordelic.simplex import LabelCounts, norm_order, sample_simplex

DOT = from_ternary_plot(np.array([0.38, 0.02]))
STAR = from_ternary_plot(np.array([0.42, 0.02]))


@pytest.fixture(scope="module")
def linked_normals(fixture_normals, fixture_cost):
    """The fixture normals surrogate with the cost matrix as its target."""
    return dataclasses.replace(fixture_normals, cost=fixture_cost)


def _one_bin(P):
    return np.zeros(len(P))


def _gamma(s, p) -> float:
    return float(s.gamma_many(np.asarray(p, dtype=np.float64)[None, :])[0])


def one_point_scenario(pred, cond):
    data = mass_counts(["x0"], [1.0], np.asarray(cond)[None, :])
    f = PredictorTable.from_mapping("distribution", {"x0": pred})
    return f, data


@pytest.mark.parametrize("kind,keys,values", [
    ("odds", ("a",), [1.0]),
    ("scalar", ("a", "b"), [1.0]),
    ("scalar", ("a",), [[1.0]]),
    ("distribution", ("a",), [0.5, 0.5]),
    ("report", ("a", "b"), [[1, 2]]),
])
def test_predictor_table_shape_is_checked(kind, keys, values):
    """One row per x_id: 2-d for distributions, 1-d otherwise."""
    with pytest.raises(SpecError):
        PredictorTable(kind, keys, values)


def test_predictor_table_gathers_rows():
    f = PredictorTable("distribution", ("a", "b", "c"), np.eye(3))
    assert f.values.dtype == np.float64 and f.index == {"a": 0, "b": 1, "c": 2}
    assert np.array_equal(f.take(("c", "a", "c")), np.eye(3)[[2, 0, 2]])
    h = PredictorTable.from_mapping("report", {"a": 2, "b": 3})
    assert h.values.dtype == np.int64 and h.take(["b"]).tolist() == [3]


class TestDistributionCalibration:
    def test_perfect_predictor_is_zero(self):
        cond = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
        sc = ScenarioSpec(("a", "b"), [0.4, 0.6], cond)
        f = materialize_predictor(sc, seed=0)
        rep = dist_calibration_wrt(bin_predictions(f, exact_dataset(sc)))
        assert rep["epsilon_hat"] == pytest.approx(0.0, abs=1e-12)
        assert rep["bins"]["count"] == 2

    def test_one_bin_plot_distance(self):
        # prediction and conditional 0.04 apart in the plot plane
        f, data = one_point_scenario(DOT, STAR)
        rep = dist_calibration_wrt(bin_predictions(f, data, _one_bin), convention="plot")
        assert rep["epsilon_hat"] == pytest.approx(0.04, abs=1e-12)
        rep2 = dist_calibration_wrt(bin_predictions(f, data, _one_bin))
        want = float(np.linalg.norm(DOT - STAR))
        assert rep2["epsilon_hat"] == pytest.approx(want, abs=1e-12)

    def test_kind_checked(self):
        _, data = one_point_scenario(DOT, STAR)
        with pytest.raises(SpecError):
            dist_calibration_wrt(bin_predictions(
                PredictorTable.from_mapping("scalar", {"x0": 1.0}), data, _one_bin))


class TestSurrogateCalibration:
    def test_level_set_gap(self, linked_normals):
        # the surrogate gap between the two printed points
        f, data = one_point_scenario(DOT, STAR)
        g = PredictorTable.from_mapping("scalar", {"x0": _gamma(linked_normals, DOT)})
        rep = surrogate_calibration(bin_predictions(g, data), linked_normals.gamma_many)
        assert _gamma(linked_normals, DOT) == pytest.approx(0.5949136, abs=1e-6)
        assert _gamma(linked_normals, STAR) == pytest.approx(1.0174679, abs=1e-6)
        assert rep["epsilon_hat"] == pytest.approx(0.4225543, abs=1e-6)

    def test_same_level_set_is_exactly_zero(self, linked_normals):
        # solve for the point on the DOT level set at plot height 0.5:
        # region-2 value <o1,p>/<o1-o2,p> = gamma(DOT), linear in p1
        gd = _gamma(linked_normals, DOT)
        p2 = 1.0 / np.sqrt(3.0)
        a = O1 - gd * (O1 - O2)

        def lin(t):
            return a[0] * t + a[1] * p2 + a[2] * (1.0 - p2 - t)

        t = -lin(0.0) / (lin(1.0) - lin(0.0))
        spade = np.array([t, p2, 1.0 - p2 - t])
        assert np.all(spade > 0)
        assert _gamma(linked_normals, spade) == pytest.approx(gd, abs=1e-9)
        g = PredictorTable.from_mapping("scalar", {"x0": _gamma(linked_normals, spade)})
        _, data = one_point_scenario(spade, DOT)
        rep = surrogate_calibration(bin_predictions(g, data), linked_normals.gamma_many)
        assert rep["epsilon_hat"] <= 1e-9
        # yet the distributional miscalibration is far from zero
        f = PredictorTable.from_mapping("distribution", {"x0": spade})
        drep = dist_calibration_wrt(bin_predictions(f, data, _one_bin))
        assert drep["epsilon_hat"] > 0.1

    def test_bin_width_merges_values(self, linked_normals):
        cond = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]])
        data = mass_counts(["a", "b"], [0.5, 0.5], cond)
        g = PredictorTable.from_mapping("scalar", {"a": 0.41, "b": 0.44})
        bins = bin_predictions(g, data, lambda u: np.floor(u / 0.1).astype(np.int64))
        rep = surrogate_calibration(bins, linked_normals.gamma_many, bin_width=0.1)
        assert rep["bins"]["count"] == 1


class TestDiscreteCalibration:
    def test_two_bins_half_miss(self, linked_normals):
        qa = np.array([0.9, 0.05, 0.05])  # target {1}
        qb = np.array([0.05, 0.9, 0.05])  # target {2}
        data = mass_counts(["a", "b"], [0.5, 0.5],
                                                  np.stack([qa, qb]))
        h = PredictorTable.from_mapping("report", {"a": 1, "b": 3})
        rep = discrete_calibration(bin_predictions(h, data), linked_normals.discrete_set_many)
        assert rep["epsilon_hat"] == pytest.approx(0.5)

    def test_perfect_reports_zero(self, linked_normals):
        qa = np.array([0.9, 0.05, 0.05])
        data = mass_counts(["a"], [1.0], qa[None, :])
        h = PredictorTable.from_mapping("report", {"a": 1})
        rep = discrete_calibration(bin_predictions(h, data), linked_normals.discrete_set_many)
        assert rep["epsilon_hat"] == 0.0


class TestZeroMassFeatures:
    """A feature whose rows all have weight 0 is left out of every estimator
    and its bin key is listed as empty."""

    DATA = LabelCounts(("a", "b"), [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    Q = np.array([0.5, 0.5, 0.0])  # conditional of "a"

    def test_distribution(self):
        f = PredictorTable.from_mapping("distribution", {"a": np.array([0.6, 0.3, 0.1]),
                                                         "b": np.array([0.1, 0.2, 0.7])})
        rep = dist_calibration_wrt(bin_predictions(f, self.DATA,
                                                   lambda P: np.take(P, 0, axis=-1)))
        assert rep["epsilon_hat"] == pytest.approx(np.linalg.norm(f["a"] - self.Q))
        assert (rep["bins"]["count"], rep["bins"]["min_size"]) == (1, 2.0)
        assert rep["bins"]["empty"] == [0.1]

    def test_scalar_and_report(self, linked_normals):
        g = PredictorTable.from_mapping("scalar", {"a": 0.5, "b": 2.0})
        rep = surrogate_calibration(bin_predictions(g, self.DATA), linked_normals.gamma_many)
        assert rep["epsilon_hat"] == pytest.approx(abs(_gamma(linked_normals, self.Q) - 0.5))
        assert (rep["bins"]["count"], rep["bins"]["empty"]) == (1, [2.0])
        rep = check_discretization_bound(bin_predictions(g, self.DATA), linked_normals,
                                         C_marginal=0.0)
        assert np.isfinite(rep["bounds"][0]["lhs"]) and rep["bins"]["empty"] == [2.0]
        h = PredictorTable.from_mapping("report", {"a": 2, "b": 3})
        rep = discrete_calibration(bin_predictions(h, self.DATA),
                                   linked_normals.discrete_set_many)
        assert (rep["epsilon_hat"], rep["bins"]["empty"]) == (0.0, [3])


def _loop_reference(rows, n, key_of):
    """Per-row dict aggregation, the estimators' original loop path over
    (x_id, label, weight) rows: x_id -> label counts, and bin key ->
    conditional."""
    agg = {}
    for xid, y, w in rows:
        agg.setdefault(xid, np.zeros(n))[y - 1] += w
    totals = {}
    for xid, rec in agg.items():
        totals[key_of(xid)] = totals.get(key_of(xid), 0.0) + rec
    return agg, {key: vec / vec.sum() for key, vec in totals.items()}


def _loop_mean(agg, loss_of):
    return sum(rec.sum() * loss_of(x) for x, rec in agg.items()) \
        / sum(rec.sum() for rec in agg.values())


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("exact", [False, True])
def test_columnar_estimators_match_loop_reference(linked_normals, seed, exact):
    m = 40
    rng = np.random.default_rng(seed + 700)
    sc = ScenarioSpec(tuple(f"x{i}" for i in range(m)), rng.dirichlet(np.ones(m)),
                      sample_simplex(3, m, seed=seed + 710), recipe="perturbed", eta=0.2)
    if exact:
        data = exact_dataset(sc)
        rows = [(x, y + 1, w * q[y]) for x, w, q in zip(sc.feature_ids, sc.weights,
                                                         sc.conditionals)
                for y in range(3) if w * q[y] > 0]
    else:
        data = sampled_counts(sc, 5000, seed + 720)
        rows = [(x, y, 1.0) for x, y in zip(*sampled_rows(sc, 5000, seed + 720))]
    f = materialize_predictor(sc, seed + 730)
    g = PredictorTable.from_mapping("scalar",
                                    {x: float(rng.integers(0, 12)) / 8 for x in f.keys})
    h = PredictorTable.from_mapping("report", {x: int(rng.integers(1, 4)) for x in f.keys})
    def gamma(p):
        return _gamma(linked_normals, p)

    def target(p) -> set:
        return {int(r) + 1 for r in np.flatnonzero(linked_normals.discrete_set_many([p])[0])}

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    agg, cond = _loop_reference(rows, 3, lambda x: gamma(f[x]))
    bins = bin_predictions(f, data, linked_normals.gamma_many)
    close(dist_calibration_wrt(bins)["epsilon_hat"],
          _loop_mean(agg, lambda x: np.linalg.norm(f[x] - cond[gamma(f[x])])))
    rep = check_postprocessing_bound(bins, linked_normals)
    close(rep["epsilon_hat"], _loop_mean(agg, lambda x: abs(gamma(cond[gamma(f[x])])
                                                         - gamma(f[x]))))
    agg, cond = _loop_reference(rows, 3, lambda x: g[x])
    bins = bin_predictions(g, data)
    close(surrogate_calibration(bins, linked_normals.gamma_many)["epsilon_hat"],
          _loop_mean(agg, lambda x: abs(gamma(cond[g[x]]) - g[x])))
    rep = check_discretization_bound(bins, linked_normals, C_marginal=0.0)
    close(rep["epsilon_hat"], _loop_mean(agg, lambda x: float(
        int(linked_normals.link_many(g[x])) not in target(cond[g[x]]))))
    assert rep["bins"]["count"] == len(cond)
    agg, cond = _loop_reference(rows, 3, lambda x: h[x])
    close(discrete_calibration(bin_predictions(h, data),
                               linked_normals.discrete_set_many)["epsilon_hat"],
          _loop_mean(agg, lambda x: float(h[x] not in target(cond[h[x]]))))


class TestPostprocessingBound:
    @pytest.mark.parametrize("seed", range(8))
    def test_holds_on_perturbed_scenarios(self, linked_normals, seed):
        rng = np.random.default_rng(seed + 400)
        m = 5
        cond = sample_simplex(3, m, seed=seed + 500)
        w = rng.dirichlet(np.ones(m))
        sc = ScenarioSpec(tuple(f"x{i}" for i in range(m)), w, cond,
                          recipe="perturbed", eta=0.15)
        f = materialize_predictor(sc, seed=seed + 600)
        rep = check_postprocessing_bound(
            bin_predictions(f, exact_dataset(sc), linked_normals.gamma_many), linked_normals)
        b = rep["bounds"][0]
        assert b["name"] == "postprocessing"
        assert b["satisfied"]
        assert b["lhs"] <= b["rhs"] + 1e-9

    def test_scaling_is_exactly_linear(self, linked_normals):
        # rescaling the property by alpha keeps the binning partition and the
        # distribution miscalibration, and scales the surrogate side by alpha
        rng = np.random.default_rng(7)
        cond = sample_simplex(3, 4, seed=8)
        sc = ScenarioSpec(("a", "b", "c", "d"), rng.dirichlet(np.ones(4)),
                          cond, recipe="perturbed", eta=0.2)
        f = materialize_predictor(sc, seed=9)
        data = exact_dataset(sc)
        alpha = 2.75
        ids = list(f.keys)
        g1 = PredictorTable.from_mapping("scalar", {
            x: _gamma(linked_normals, f[x]) for x in ids})
        g2 = PredictorTable.from_mapping("scalar", {x: alpha * g1[x] for x in ids})
        r1 = surrogate_calibration(bin_predictions(g1, data), linked_normals.gamma_many)
        r2 = surrogate_calibration(bin_predictions(g2, data),
                                   lambda P: alpha * linked_normals.gamma_many(P))
        assert r2["bins"]["count"] == r1["bins"]["count"]
        assert abs(r2["epsilon_hat"] - alpha * r1["epsilon_hat"]) \
            <= 1e-12 * max(1.0, abs(alpha * r1["epsilon_hat"]))

    def test_contraction_branch_for_small_k(self):
        s = build_from_normals(normals_from_boundaries([AffineBoundary([1.0, 2.0, 3.0], 1.5)]))
        assert s.lipschitz_bound < 1.0
        cond = sample_simplex(3, 3, seed=10)
        sc = ScenarioSpec(("a", "b", "c"), [0.3, 0.3, 0.4], cond,
                          recipe="perturbed", eta=0.1)
        f = materialize_predictor(sc, seed=11)
        rep = check_postprocessing_bound(
            bin_predictions(f, exact_dataset(sc), s.gamma_many), s)
        names = [b["name"] for b in rep["bounds"]]
        assert names == ["postprocessing", "contraction"]
        assert all(b["satisfied"] for b in rep["bounds"])

    def test_needs_bins_by_property_value(self, linked_normals):
        """Bins by the whole distribution hold no value gamma(f(x))."""
        f, data = one_point_scenario(DOT, STAR)
        with pytest.raises(SpecError, match="binned by its property value"):
            check_postprocessing_bound(bin_predictions(f, data), linked_normals)


class TestCounterexample:
    def test_finds_violation_of_small_constant(self, fixture_normals):
        p, q, instance = counterexample_gap(fixture_normals, C=5.0)
        assert instance["ratio"] > 5.0
        assert instance["K"] == fixture_normals.lipschitz_bound
        assert instance["norm"] == "l2"
        gap = instance["surrogate_gap"]
        eps = instance["distribution_epsilon"]
        assert gap > 5.0 * eps
        f, data = instance_dataset(instance)
        drep = dist_calibration_wrt(bin_predictions(f, data, _one_bin))
        assert drep["epsilon_hat"] == pytest.approx(eps, abs=1e-12)

    def test_trivial_constant(self, fixture_normals):
        _, _, instance = counterexample_gap(fixture_normals, C=0.0)
        assert instance["ratio"] > 0.0

    @pytest.mark.parametrize("C, message", [
        (np.nan, "C must be a number"), (-1.0, "C must be at least 0, got -1.0"),
        (-np.inf, "C must be at least 0, got -inf"), (-0.0 - 5e-324, "got -5e-324")])
    def test_nan_or_negative_constant_refused(self, fixture_normals, C, message):
        """A Lipschitz constant is a number at least 0."""
        with pytest.raises(SpecError, match=message):
            counterexample_gap(fixture_normals, C=C)

    def test_constant_at_k_fails_search(self, fixture_normals):
        K = fixture_normals.lipschitz_bound
        with pytest.raises(SearchFailure, match=f"K = {K!r}"):
            counterexample_gap(fixture_normals, C=K)

    def test_valid_constant_fails_search(self, fixture_normals):
        with pytest.raises(SearchFailure):
            counterexample_gap(fixture_normals,
                               C=fixture_normals.lipschitz_bound + 1.0)

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("case", ["normals", "embedding", "normals-6", "embedding-8"])
    def test_witness_below_k(self, fixture_normals, fixture_embedding, norm, case):
        """Below K in each norm the pair's ratio exceeds C under the kernel
        and the exact-sign oracle, both points at least 1e-9 from every
        node slice; at K no pair exists."""
        if case == "normals":
            s = fixture_normals
        elif case == "embedding":
            s = fixture_embedding
        else:
            algo, n = case.split("-")
            bds, cost, phi = random_orderable_spec(int(n), 4, seed=int(n))
            s = build_from_normals(normals_from_boundaries(bds)) if algo == "normals" \
                else build_surrogate(EmbeddingInput(cost, phi))
        K, ordv = s.lipschitz(norm), norm_order(norm)
        H = s.nodes - s.nodes.mean(axis=0)
        for C in (0.0, 0.5 * K, (1.0 - 1e-4) * K):
            p, q, instance = counterexample_gap(s, C, norm)
            P = np.stack([p, q])
            dist = np.linalg.norm(p - q, ord=ordv)
            for values in (s.gamma_many(P), node_root_batch(s.grid, s.nodes, P)):
                assert abs(values[0] - values[1]) > C * dist
            assert np.min(np.abs(P @ s.nodes) / np.linalg.norm(H, axis=0)) >= 1e-9
            assert instance["ratio"] > C and instance["K"] == K
            assert instance["norm"] == norm
        with pytest.raises(SearchFailure, match=f"K = {K!r}"):
            counterexample_gap(s, K, norm)

    def test_witness_where_k_is_infinite(self):
        """Three node slices of this embedding share e_1, where the root is
        the midpoint 0.5 of a flat interval, while the property tends to 1
        next to it: the pair is e_1 and a point on a ray into the simplex."""
        cost = CostMatrix([[0, 3, 5], [0, 0, 3], [3, 1, 0]])
        phi = np.array([0.0, 1.0, 3.0])
        s = build_surrogate(EmbeddingInput(cost, phi))
        assert s.lipschitz_bound == np.inf
        p, q, instance = counterexample_gap(s, 1e3)
        P = np.stack([p, q])
        for values in (s.gamma_many(P), node_root_batch(s.grid, s.nodes, P)):
            assert abs(values[0] - values[1]) > 1e3 * np.linalg.norm(p - q)
        assert p.tolist() == [1.0, 0.0, 0.0] and instance["K"] == np.inf


class TestThresholdGeometry:
    def test_delta_examples(self, fixture_embedding, fixture_normals):
        assert delta_to_threshold(fixture_embedding.thresholds, 1.0) == 0.5
        assert delta_to_threshold(fixture_normals.thresholds, 1.8) \
            == pytest.approx(0.8)
        with pytest.raises(SpecError):
            delta_to_threshold([], 0.0)

    def test_link_diameter(self, fixture_embedding, fixture_normals):
        assert link_diameter(fixture_embedding.thresholds,
                             fixture_embedding.value_range) == 1.5
        lo, hi = fixture_normals.value_range
        assert link_diameter(fixture_normals.thresholds, (lo, hi)) \
            == pytest.approx(1.0)
        # no threshold inside the range: the whole width
        assert link_diameter([5.0], (0.0, 2.0)) == 2.0
        with pytest.raises(DegenerateRangeError):
            link_diameter([0.5], (1.0, 1.0))


def _point_with_value(linked, target: float) -> np.ndarray:
    """Region-2 point of the two-boundary fixture with the given value."""
    a = O1 - target * (O1 - O2)
    return sample_boundary(a / np.linalg.norm(a), 1, seed=21)[0]


class TestDiscretizationBound:
    def test_exact_on_bins_lhs_zero(self, linked_normals):
        q = _point_with_value(linked_normals, 0.5)
        assert _gamma(linked_normals, q) == pytest.approx(0.5, abs=1e-9)
        rng = np.random.default_rng(22)
        ids = tuple(f"x{i}" for i in range(6))
        data = mass_counts(
            ids, np.full(6, 1 / 6), np.tile(q, (6, 1)))
        g = PredictorTable.from_mapping("scalar", {
            x: 0.5 + float(rng.uniform(-0.05, 0.05)) for x in ids})
        rep = check_discretization_bound(bin_predictions(g, data), linked_normals,
                                         C_marginal=0.0)
        b = rep["bounds"][0]
        assert rep["epsilon_hat"] == 0.0
        assert b["satisfied"]
        assert b["rhs"] < 1.0
        assert not b["params"]["vacuous"]

    def test_threshold_straddle_is_vacuous(self):
        s = build_from_normals(normals_from_boundaries([AffineBoundary([1.0, 2.0, 3.0], 1.5)]))
        o = s.normals.o[0]
        p0 = sample_boundary(o, 1, seed=23)[0]
        d = o - o.mean()
        q = p0 + (0.01 / (d @ o)) * d  # conditional just above the threshold
        q = np.clip(q, 0.0, None)
        q /= q.sum()
        data = mass_counts(["a"], [1.0], q[None, :])
        g = PredictorTable.from_mapping("scalar", {"a": -0.01})  # prediction just below
        rep = check_discretization_bound(bin_predictions(g, data), s, C_marginal=0.0)
        b = rep["bounds"][0]
        assert b["params"]["vacuous"]
        assert rep["extras"]["vacuous"]
        assert b["satisfied"]  # the bound still holds, it just says nothing

    def test_holds_for_every_fixed_t(self, linked_normals):
        q = _point_with_value(linked_normals, 0.5)
        data = mass_counts(
            ("a", "b"), [0.5, 0.5], np.tile(q, (2, 1)))
        g = PredictorTable.from_mapping("scalar", {"a": 0.46, "b": 0.55})
        for t in (0.05, 0.1, 0.2, 0.4):
            rep = check_discretization_bound(
                bin_predictions(g, data), linked_normals, C_marginal=0.0, t_grid=[t])
            assert rep["bounds"][0]["satisfied"]

    def test_kind_checked(self, linked_normals):
        q = _point_with_value(linked_normals, 0.5)
        data = mass_counts(["a"], [1.0], q[None, :])
        with pytest.raises(SpecError):
            check_discretization_bound(bin_predictions(
                PredictorTable.from_mapping("report", {"a": 2}), data), linked_normals, 0.0)

    def test_delta_min_reads_the_whole_image(self, linked_normals):
        """A prediction for an x_id outside the data still sets delta_min."""
        q = _point_with_value(linked_normals, 0.5)
        data = mass_counts(["a"], [1.0], q[None, :])
        g = PredictorTable.from_mapping("scalar", {"a": 0.5, "unseen": 0.99})
        rep = check_discretization_bound(bin_predictions(g, data), linked_normals, 0.0)
        assert rep["bounds"][0]["params"]["delta_min"] == pytest.approx(0.01)
        assert rep["data"]["features"] == 1


class TestLipschitzEstimates:
    def test_linear_property_recovered(self):
        o = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
        K_hat, _ = lipschitz_estimate(lambda P: P @ o, 3, seed=24)
        assert K_hat == pytest.approx(1.0, rel=0.01)

    def test_constant_property_zero(self):
        K_hat, _ = lipschitz_estimate(lambda P: np.zeros(len(P)), 3, seed=25)
        assert K_hat == 0.0

    def test_marginal_estimate(self):
        qa = np.array([0.6, 0.2, 0.2])
        qb = np.array([0.2, 0.6, 0.2])
        data = mass_counts(
            ("a", "b"), [0.5, 0.5], np.stack([qa, qb]))
        g = PredictorTable.from_mapping("scalar", {"a": 0.0, "b": 1.0})
        want = float(np.linalg.norm(qb - qa))
        assert estimate_marginal_lipschitz(bin_predictions(g, data)) == pytest.approx(want)
        # constant conditionals give zero
        data2 = mass_counts(
            ("a", "b"), [0.5, 0.5], np.stack([qa, qa]))
        assert estimate_marginal_lipschitz(bin_predictions(g, data2)) == 0.0


@pytest.mark.parametrize("n,normals", [(3, True), (5, True), (5, False)])
def test_bound_params_label_estimated_k(n, normals):
    """K is exact for both constructions, and every bound check says so."""
    bds, cost, phi = random_orderable_spec(n, 3, seed=n)
    if normals:
        s = build_from_normals(normals_from_boundaries(bds))
    else:
        S = 1.0 + 2.0 * float(np.abs(cost.entries).max())
        s = build_surrogate(EmbeddingInput(cost, phi, S))
    assert s.lipschitz_exact is True
    ids = ("a", "b", "c", "d")
    sc = ScenarioSpec(ids, np.full(4, 0.25), sample_simplex(n, 4, seed=n + 1),
                      recipe="perturbed", eta=0.1)
    data = exact_dataset(sc)
    rep = check_postprocessing_bound(
        bin_predictions(materialize_predictor(sc, seed=n), data, s.gamma_many), s)
    assert [b["params"]["K_exact"] for b in rep["bounds"]] == [True] * len(rep["bounds"])
    g = PredictorTable.from_mapping("scalar", dict.fromkeys(ids, 0.5))
    rep = check_discretization_bound(bin_predictions(g, data), s, C_marginal=0.0)
    assert rep["bounds"][0]["params"]["K_exact"] is True


@pytest.mark.parametrize("norm", [2, np.inf, "2", "L2", "bogus"])
def test_every_norm_taker_refuses_other_spellings(linked_normals, norm):
    """Each estimator, check and constant takes a norm only as "l1", "l2"
    or "linf", the --norm choices; a report never names another."""
    f, data = one_point_scenario(DOT, STAR)
    g = PredictorTable.from_mapping("scalar", {"x0": 0.5})
    dist_bins, scalar_bins = bin_predictions(f, data, linked_normals.gamma_many), \
        bin_predictions(g, data)
    for call in (lambda: dist_calibration_wrt(dist_bins, norm),
                 lambda: surrogate_calibration(scalar_bins, linked_normals.gamma_many, norm),
                 lambda: check_postprocessing_bound(dist_bins, linked_normals, norm),
                 lambda: check_discretization_bound(scalar_bins, linked_normals, 0.0,
                                                    norm=norm),
                 lambda: estimate_marginal_lipschitz(scalar_bins, norm),
                 lambda: counterexample_gap(linked_normals, 1.0, norm),
                 lambda: linked_normals.lipschitz(norm)):
        with pytest.raises(SpecError, match="expected 'l1', 'l2' or 'linf'"):
            call()
