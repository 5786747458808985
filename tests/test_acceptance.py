"""End-to-end acceptance checks, one per criterion, each printing a pass or
fail line with its runtime and asserting its time budget."""

import csv
import time

import numpy as np

from conftest import (
    EQ1_COSTS,
    EQ1_PHI,
    O1,
    O2,
    Antiderivative,
    bisect_expected_root,
    from_ternary_plot,
    mass_counts,
    normals_from_boundaries,
    random_orderable_spec,
    sample_boundary,
    sampled_counts,
    written_v_bar,
)
from ordelic.audit import (
    PredictorTable,
    bin_predictions,
    check_discretization_bound,
    check_postprocessing_bound,
    counterexample_gap,
    dist_calibration_wrt,
    instance_dataset,
    surrogate_calibration,
)
from ordelic.cli import EXIT_OK, main
from ordelic.embedding import EmbeddingInput, build_surrogate
from ordelic.normals import build_from_normals, full_pipeline
from ordelic.properties import AffineBoundary, CostMatrix
from ordelic.scenario import ScenarioSpec, materialize_predictor
from ordelic.serialize import write_json
from ordelic.simplex import sample_simplex

SQ14 = np.sqrt(14.0)


def _gamma(s, p) -> float:
    return float(s.gamma_many(np.asarray(p, dtype=np.float64)[None, :])[0])


class _Criterion:
    """Times a criterion body and prints one pass/fail line."""

    def __init__(self, number: int, budget_s: float, capfd=None):
        self.number = number
        self.budget = budget_s
        self.capfd = capfd

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        line = (f"criterion {self.number}: {status} "
                f"({elapsed:.2f}s / budget {self.budget:.0f}s)")
        if self.capfd is not None:
            # lift output capture so the line lands in the terminal log
            with self.capfd.disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def _fixture_embedding():
    return build_surrogate(EmbeddingInput(CostMatrix(EQ1_COSTS), EQ1_PHI, 3.0))


def _fixture_normals():
    bds = [AffineBoundary([-3, 1, 0], -2.0), AffineBoundary([-5, -4, 0], -3.0)]
    return build_from_normals(normals_from_boundaries(bds))


def test_criterion_1_embedding_fixture(capfd):
    with _Criterion(1, 1.0, capfd):
        s = _fixture_embedding()
        inp = EmbeddingInput(CostMatrix(EQ1_COSTS), EQ1_PHI, 3.0)
        # each outcome's embedded-loss slopes: -S, its cost slopes, S
        tol = 1e-12
        assert np.allclose(inp.slopes, [[-3, 1, 1, 3], [-3, -3, 0.5, 3], [-3, -2, -1.5, 3]],
                           atol=tol)
        assert np.allclose(s.grid, [0, 0.5, 1, 2, 3], atol=tol)
        assert np.allclose(s.thresholds, [0.5, 2.0], atol=tol)
        # identification for the first outcome, coefficient by coefficient
        v1 = written_v_bar(s)[0]
        assert np.allclose(v1.breakpoints, [0, 0.5, 1, 2, 3], atol=tol)
        assert np.allclose(v1.slopes, [1, 2, 0, 0, 1, 1], atol=tol)
        assert np.allclose(v1.intercepts, [0, 0, 1, 1, -1, -1], atol=tol)
        # its integral: u^2/2, u^2, u - 1/4 (two cells), u^2/2 - u + 7/4
        L1 = Antiderivative(v1)
        want = [(0.5, 0, 0), (1, 0, 0), (0, 1, -0.25), (0, 1, -0.25),
                (0.5, -1, 1.75), (0.5, -1, 1.75)]
        assert np.allclose(L1.coeffs, want, atol=tol)


def test_criterion_2_normals_fixture(capfd):
    with _Criterion(2, 1.0, capfd):
        # the printed boundary points: the null space of each pair, by SVD,
        # is an oracle independent of the spec's closed form c - b 1
        points = [np.array([[0.7, 0.1, 0.2], [0.68, 0.04, 0.28]]),
                  np.array([[0.5, 0.125, 0.375], [0.25, 0.4375, 0.3125]])]
        oracle = np.array([np.linalg.svd(P)[2][-1] for P in points])
        # region 3 holds e3, so e3 is on the positive side of both
        oracle *= np.sign(oracle @ [0.0, 0.0, 1.0])[:, None]
        bds = [AffineBoundary([-3, 1, 0], -2.0),
               AffineBoundary([-5, -4, 0], -3.0)]
        _, report = full_pipeline(bds)
        got = np.array(report["recovered_normals"])
        assert np.allclose(got, oracle, rtol=0, atol=1e-15)
        assert np.allclose(got, [O1, O2], rtol=0, atol=1e-15)


def _refinement_ok(bds, cost, phi, n_samples, seed) -> bool:
    normals = normals_from_boundaries(bds)
    pts = sample_simplex(normals.n, n_samples, seed)
    S = 1.0 + 2.0 * float(np.abs(cost.entries).max())
    emb = build_surrogate(EmbeddingInput(cost, phi, S))
    links_e = emb.link_many(emb.gamma_many(pts))
    nrm = build_from_normals(normals)
    links_n = nrm.link_many(nrm.gamma_many(pts))
    ec = pts @ cost.entries.T
    slack = ec.min(axis=1) + 1e-10
    idx = np.arange(len(pts))
    in_e = ec[idx, links_e - 1] <= slack
    in_n = ec[idx, links_n - 1] <= slack
    return bool(np.all(in_e) and np.all(in_n))


def test_criterion_3_refinement(capfd):
    with _Criterion(3, 30.0, capfd):
        fixture_bds = [AffineBoundary([-3, 1, 0], -2.0),
                       AffineBoundary([-5, -4, 0], -3.0)]
        assert _refinement_ok(fixture_bds, CostMatrix(EQ1_COSTS), EQ1_PHI,
                              100_000, seed=300)
        for i in range(20):
            n = (3, 4, 5)[i % 3]
            bds, cost, phi = random_orderable_spec(n, 3 + i % 2, seed=301 + i)
            assert _refinement_ok(bds, cost, phi, 100_000, seed=400 + i)


def test_criterion_4_oracle_equivalence(capfd):
    with _Criterion(4, 10.0, capfd):
        pts = sample_simplex(3, 10_000, seed=500)
        emb = _fixture_embedding()
        got = emb.gamma_many(pts)
        oracle = bisect_expected_root(written_v_bar(emb), pts)
        assert float(np.max(np.abs(got - oracle))) < 1e-9
        nrm = _fixture_normals()
        got = nrm.gamma_many(pts)
        oracle = bisect_expected_root(written_v_bar(nrm), pts)
        assert float(np.max(np.abs(got - oracle))) < 1e-9


def test_criterion_5_postprocessing_monte_carlo(capfd):
    with _Criterion(5, 300.0, capfd):
        linked = _fixture_normals()
        K = linked.lipschitz_bound
        alpha = 3.5
        for trial in range(1000):
            rng = np.random.default_rng(trial)
            m = 6
            cond = sample_simplex(3, m, seed=trial + 10_000)
            sc = ScenarioSpec(
                tuple(f"x{i}" for i in range(m)),
                rng.dirichlet(np.ones(m)), cond,
                recipe="perturbed", eta=0.2)
            f = materialize_predictor(sc, trial + 20_000)
            data = sampled_counts(sc, 10_000, trial + 30_000)
            rep = check_postprocessing_bound(
                bin_predictions(f, data, linked.gamma_many), linked)
            b = rep["bounds"][0]
            assert b["lhs"] <= b["rhs"] + 1e-9, f"trial {trial}: {b}"
            if trial < 10:
                # exact-scaling property: multiplying the property by alpha
                # keeps the bins and scales both sides of the bound linearly
                ids = list(f.keys)
                g1 = PredictorTable.from_mapping("scalar", {
                    x: _gamma(linked, f[x]) for x in ids})
                g2 = PredictorTable.from_mapping("scalar", {x: alpha * g1[x] for x in ids})
                r1 = surrogate_calibration(bin_predictions(g1, data), linked.gamma_many)
                r2 = surrogate_calibration(
                    bin_predictions(g2, data), lambda P: alpha * linked.gamma_many(P))
                assert r2["bins"]["count"] == r1["bins"]["count"]
                scale = max(1.0, abs(alpha * r1["epsilon_hat"]))
                assert abs(r2["epsilon_hat"] - alpha * r1["epsilon_hat"]) \
                    <= 1e-12 * scale
                assert abs(alpha * (K * r1["epsilon_hat"])
                           - (alpha * K) * r1["epsilon_hat"]) <= 1e-12 * scale


def test_criterion_6_counterexample_generator(capfd):
    with _Criterion(6, 10.0, capfd):
        nrm = _fixture_normals()
        _, _, instance = counterexample_gap(nrm, C=5.0)
        f, data = instance_dataset(instance)
        dist = dist_calibration_wrt(bin_predictions(f, data, nrm.gamma_many))
        g = PredictorTable.from_mapping("scalar", {
            instance["x_id"]: _gamma(nrm, instance["prediction"])})
        sur = surrogate_calibration(bin_predictions(g, data), nrm.gamma_many)
        assert sur["epsilon_hat"] > 5.0 * dist["epsilon_hat"]


def _point_with_value(v: float, seed: int) -> np.ndarray:
    a = O1 - v * (O1 - O2)
    return sample_boundary(a / np.linalg.norm(a), 1, seed)[0]


def test_criterion_7_discretization_monte_carlo(capfd):
    with _Criterion(7, 300.0, capfd):
        linked = _fixture_normals()
        vacuous_count = 0
        for trial in range(1000):
            rng = np.random.default_rng(trial + 50_000)
            v = float(rng.uniform(0.3, 0.7))
            q = _point_with_value(v, seed=trial + 60_000)
            m = 5
            ids = tuple(f"x{i}" for i in range(m))
            sc = ScenarioSpec(ids, np.full(m, 1 / m), np.tile(q, (m, 1)))
            data = sampled_counts(sc, 10_000, trial + 70_000)
            # scalar predictions jittered but kept >= 0.2 from thresholds
            g = PredictorTable.from_mapping("scalar", {
                x: v + float(rng.uniform(-0.05, 0.05)) for x in ids})
            assert min(min(abs(g[x]), abs(g[x] - 1.0)) for x in ids) >= 0.2
            rep = check_discretization_bound(bin_predictions(g, data), linked, C_marginal=0.0)
            b = rep["bounds"][0]
            lhs = rep["epsilon_hat"]
            se = float(np.sqrt(max(lhs * (1 - lhs), 0.0) / data.counts.sum()))
            assert lhs <= b["rhs"] + 3 * se + 1e-12, f"trial {trial}: {b}"
            vacuous_count += int(b["params"]["vacuous"])
        assert vacuous_count < 500  # the design keeps the bound informative

        # a prediction hugging the mean threshold with mass just across it
        # must be flagged vacuous
        vlinked = build_from_normals(normals_from_boundaries(
            [AffineBoundary([1.0, 2.0, 3.0], 1.5)]))
        o = vlinked.normals.o[0]
        p0 = sample_boundary(o, 1, seed=80_000)[0]
        d = o - o.mean()
        q = p0 + (0.01 / (d @ o)) * d
        q = np.clip(q, 0.0, None)
        q /= q.sum()
        data = mass_counts(["a"], [1.0], q[None, :])
        g = PredictorTable.from_mapping("scalar", {"a": -0.01})
        rep = check_discretization_bound(bin_predictions(g, data), vlinked, C_marginal=0.0)
        assert rep["bounds"][0]["params"]["vacuous"]
        assert rep["bounds"][0]["rhs"] >= 1.0
        assert rep["bounds"][0]["satisfied"]


def test_criterion_8_single_feature_audits(capfd):
    with _Criterion(8, 1.0, capfd):
        linked = _fixture_normals()
        dot = from_ternary_plot(np.array([0.38, 0.02]))
        star = from_ternary_plot(np.array([0.42, 0.02]))
        data = mass_counts(["x0"], [1.0], star[None, :])
        f = PredictorTable.from_mapping("distribution", {"x0": dot})
        rep = dist_calibration_wrt(bin_predictions(f, data, lambda P: np.zeros(len(P))),
                                   convention="plot")
        assert abs(rep["epsilon_hat"] - 0.04) <= 1e-6

        g = PredictorTable.from_mapping("scalar", {"x0": _gamma(linked, dot)})
        sur = surrogate_calibration(bin_predictions(g, data), linked.gamma_many)
        assert abs(sur["epsilon_hat"] - 0.43) <= 0.02

        # a different distribution on the same level set: zero property gap
        gd = _gamma(linked, dot)
        p2 = 1.0 / np.sqrt(3.0)
        a = O1 - gd * (O1 - O2)

        def lin(t):
            return a[0] * t + a[1] * p2 + a[2] * (1.0 - p2 - t)

        t = -lin(0.0) / (lin(1.0) - lin(0.0))
        spade = np.array([t, p2, 1.0 - p2 - t])
        data2 = mass_counts(["x0"], [1.0], dot[None, :])
        g2 = PredictorTable.from_mapping("scalar", {"x0": _gamma(linked, spade)})
        sur2 = surrogate_calibration(bin_predictions(g2, data2), linked.gamma_many)
        assert sur2["epsilon_hat"] <= 1e-9


def _levelset_rows(tmp_path, algo: str):
    spec_path = tmp_path / f"spec-{algo}.json"
    write_json(spec_path, {"n": 3, "reports": [1, 2, 3],
                           "cost_matrix": EQ1_COSTS})
    out = tmp_path / f"grid-{algo}.csv"
    argv = ["levelsets", "--spec", str(spec_path), "--algo", algo,
            "--resolution", "200", "--seed", "900", "--out", str(out)]
    if algo == "embedding":
        argv += ["--phi", "0,1,3", "--outer-slope", "3"]
    assert main(argv) == EXIT_OK
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = np.array([[float(c) for c in row] for row in reader])
    return rows  # columns p1, p2, p3, gamma_discrete, gamma_surrogate


def test_criterion_9_level_set_grids(tmp_path, capfd):
    with _Criterion(9, 5.0, capfd):
        h1 = np.array([-3.0, 1.0, 0.0])   # first boundary, offset -2
        h2 = np.array([5.0, 4.0, 0.0])    # second boundary, offset 3
        # mid-label plane of the interpolated property (not a target boundary)
        h_mid = np.array([8.0, 2.0, -13.0])

        def plane_dist(pts, coeffs, offset):
            c = np.asarray(coeffs, dtype=np.float64)
            return np.abs(pts @ c - offset) / np.linalg.norm(c)

        rows = _levelset_rows(tmp_path, "embedding")
        pts, vals = rows[:, :3], rows[:, 4]
        for u_star, coeffs, offset in ((0.5, h1, -2.0), (2.0, h2, 3.0),
                                       (1.5, h_mid, 0.0)):
            sel = np.abs(vals - u_star) <= 1e-6
            if np.any(sel):
                assert float(plane_dist(pts[sel], coeffs, offset).max()) <= 1e-5
        # at this resolution no grid point sits on the mid label's level set
        assert not np.any(np.abs(vals - 1.5) <= 1e-6)

        rows = _levelset_rows(tmp_path, "normals")
        pts, vals = rows[:, :3], rows[:, 4]
        for u_star, coeffs, offset in ((0.0, h1, -2.0), (1.0, h2, 3.0)):
            sel = np.abs(vals - u_star) <= 1e-6
            assert np.any(sel)  # boundary grid points take exact label values
            assert float(plane_dist(pts[sel], coeffs, offset).max()) <= 1e-5


PUBLIC_NAMES = [
    "LabelCounts", "as_simplex_point", "sample_simplex", "AffineBoundary", "CostMatrix",
    "OrientedNormals", "Surrogate", "EmbeddingInput", "build_surrogate",
    "build_from_normals", "__version__",
]


def test_public_names():
    import ordelic

    assert ordelic.__all__ == PUBLIC_NAMES


def test_every_public_name_imports():
    import ordelic

    for name in ordelic.__all__:
        scope: dict = {}
        exec(f"from ordelic import {name}", scope)
        assert scope[name] is getattr(ordelic, name)
