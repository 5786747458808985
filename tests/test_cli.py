import csv
import json

import numpy as np
import pytest

from ordelic.cli import EXIT_BOUND, EXIT_OK, EXIT_SEARCH, EXIT_SPEC, main
from ordelic.serialize import read_json, write_json

COST_SPEC = {"n": 3, "reports": [1, 2, 3],
             "cost_matrix": [[0, 3, 5], [1, 0, 3], [3, 1, 0]]}
BOUNDARY_SPEC = {"n": 3, "reports": [1, 2, 3],
                 "boundaries": [{"c": [-3, 1, 0], "b": -2},
                                {"c": [-5, -4, 0], "b": -3}]}
SCENARIO = {
    "features": [
        {"id": "a", "weight": 0.4, "conditional": [0.7, 0.2, 0.1]},
        {"id": "b", "weight": 0.6, "conditional": [0.1, 0.3, 0.6]},
    ],
    "predictor": {"recipe": "perturbed", "eta": 0.1},
}


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    write_json(path, COST_SPEC)
    return str(path)


@pytest.fixture()
def boundary_spec_file(tmp_path):
    path = tmp_path / "bspec.json"
    write_json(path, BOUNDARY_SPEC)
    return str(path)


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    write_json(path, SCENARIO)
    return str(path)


class TestConstruct:
    def test_normals_from_boundaries(self, boundary_spec_file, tmp_path, capsys):
        out = str(tmp_path / "sur.json")
        rc = main(["construct", "--spec", boundary_spec_file, "--algo",
                   "normals", "--seed", "1", "--out", out])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["algo"] == "normals"
        assert report["refinement_pass_rate"] == 1.0
        d = read_json(out)
        assert d["kind"] == "normals"
        got = np.array(d["normals"])
        sq14 = np.sqrt(14.0)
        assert np.allclose(got[0] * sq14, [-1, 3, 2], atol=1e-7)
        assert np.allclose(got[1] * sq14, [-2, -1, 3], atol=1e-7)

    def test_embedding_from_cost(self, spec_file, tmp_path, capsys):
        out = str(tmp_path / "sur.json")
        rc = main(["construct", "--spec", spec_file, "--algo", "embedding",
                   "--phi", "0,1,3", "--outer-slope", "3", "--out", out])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["thresholds"] == [0.5, 2.0]
        assert report["lipschitz_bound"] == pytest.approx(21.6535, abs=1e-4)
        assert report["value_range"] == [0.0, 3.0]
        d = read_json(out)
        assert d["kind"] == "embedding"
        assert "cost_matrix" in d

    def test_nonconvex_embedding_names_the_triple(self, spec_file, tmp_path, capsys):
        # the default phi = 0,1,2 bends outcome 3's costs 5, 3, 0 downwards
        rc = main(["construct", "--spec", spec_file, "--algo", "embedding",
                   "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_SPEC
        err = capsys.readouterr().err
        assert "outcome 3" in err and "reports 1, 2, 3 cost 5, 3, 0 at phi 0, 1, 2" in err
        assert "(phi3 - phi2)/(phi2 - phi1) is 1 but this triple needs it >= 1.5" in err
        assert main(["construct", "--spec", spec_file, "--algo", "embedding",
                     "--phi", "0,1,2.5", "--out", str(tmp_path / "x.json")]) == EXIT_OK

    def test_byte_identical_reruns(self, boundary_spec_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["construct", "--spec", boundary_spec_file,
                         "--seed", "7", "--out", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_seed_is_spec_error(self, boundary_spec_file, tmp_path,
                                        monkeypatch):
        monkeypatch.delenv("ORDELIC_SEED", raising=False)
        rc = main(["construct", "--spec", boundary_spec_file,
                   "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_SPEC

    def test_env_seed_fallback(self, boundary_spec_file, tmp_path, monkeypatch):
        monkeypatch.setenv("ORDELIC_SEED", "9")
        rc = main(["construct", "--spec", boundary_spec_file,
                   "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_OK

    def test_bad_spec_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        rc = main(["construct", "--spec", str(path), "--seed", "1",
                   "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_SPEC


class TestLevelsets:
    def test_grid_output(self, spec_file, tmp_path):
        out = str(tmp_path / "grid.csv")
        rc = main(["levelsets", "--spec", spec_file, "--algo", "embedding",
                   "--phi", "0,1,3", "--outer-slope", "3",
                   "--resolution", "20", "--out", out])
        assert rc == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["p1", "p2", "p3", "gamma_discrete", "gamma_surrogate"]
        assert len(rows) - 1 == 21 * 22 // 2
        for p1, p2, p3, gd, gs in rows[1:]:
            assert float(p1) + float(p2) + float(p3) == pytest.approx(1.0)
            assert int(gd) in (1, 2, 3)
            assert 0.0 - 1e-12 <= float(gs) <= 3.0 + 1e-12

    def test_byte_identical(self, boundary_spec_file, tmp_path):
        outs = [tmp_path / "g1.csv", tmp_path / "g2.csv"]
        for out in outs:
            assert main(["levelsets", "--spec", boundary_spec_file,
                         "--seed", "3", "--resolution", "15",
                         "--out", str(out)]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestSimulate:
    def test_outputs(self, scenario_file, tmp_path):
        prefix = str(tmp_path / "sim")
        rc = main(["simulate", "--spec", scenario_file, "--samples", "500",
                   "--seed", "4", "--out", prefix])
        assert rc == EXIT_OK
        with open(prefix + ".data.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_id", "y"]
        assert len(rows) - 1 == 500
        pred = read_json(prefix + ".predictor.json")
        assert pred["kind"] == "distribution"
        assert set(pred["table"]) == {"a", "b"}
        meta = read_json(prefix + ".meta.json")
        assert meta["n_outcomes"] == 3

    def test_deterministic(self, scenario_file, tmp_path):
        p1 = tmp_path / "s1"
        p2 = tmp_path / "s2"
        for p in (p1, p2):
            assert main(["simulate", "--spec", scenario_file, "--samples",
                         "200", "--seed", "5", "--out", str(p)]) == EXIT_OK
        assert (p1.parent / "s1.data.csv").read_bytes() \
            == (p2.parent / "s2.data.csv").read_bytes()


class TestAudit:
    @pytest.fixture()
    def surrogate_file(self, boundary_spec_file, tmp_path):
        out = str(tmp_path / "sur.json")
        assert main(["construct", "--spec", boundary_spec_file, "--seed", "1",
                     "--out", out]) == EXIT_OK
        return out

    def test_distribution_roundtrip(self, surrogate_file, scenario_file,
                                    tmp_path, capsys):
        prefix = str(tmp_path / "sim")
        assert main(["simulate", "--spec", scenario_file, "--samples", "2000",
                     "--seed", "6", "--out", prefix]) == EXIT_OK
        out = str(tmp_path / "audit.json")
        rc = main(["audit", "--surrogate", surrogate_file,
                   "--data", prefix + ".data.csv",
                   "--predictor", prefix + ".predictor.json",
                   "--out", out])
        payload = read_json(out)
        notions = [r["notion"] for r in payload["reports"]]
        assert notions == ["distribution", "postprocessing"]
        for r in payload["reports"]:
            assert set(r) >= {"notion", "norm", "epsilon_hat", "bins", "bounds"}
            assert set(r["bins"]) == {"count", "min_size", "empty"}
        pp = payload["reports"][1]
        ok = all(b["satisfied"] for b in pp["bounds"])
        assert rc == (EXIT_OK if ok else EXIT_BOUND)
        printed = json.loads(capsys.readouterr().out)
        assert printed == payload

    def test_exact_scenario_audit(self, surrogate_file, scenario_file,
                                  tmp_path):
        # bayes predictor on the exact joint: all epsilons vanish
        bayes = dict(SCENARIO, predictor={"recipe": "bayes"})
        sc_path = tmp_path / "bayes.json"
        write_json(sc_path, bayes)
        pred = {"kind": "distribution",
                "table": {f["id"]: f["conditional"] for f in SCENARIO["features"]}}
        pred_path = tmp_path / "pred.json"
        write_json(pred_path, pred)
        out = str(tmp_path / "audit.json")
        rc = main(["audit", "--surrogate", surrogate_file,
                   "--scenario", str(sc_path), "--predictor", str(pred_path),
                   "--out", out])
        assert rc == EXIT_OK
        payload = read_json(out)
        assert payload["reports"][0]["epsilon_hat"] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_predictor_discretization(self, surrogate_file, tmp_path):
        sc = {
            "features": [{"id": "a", "weight": 1.0,
                          "conditional": [0.1, 0.8, 0.1]}],
            "predictor": {"recipe": "bayes"},
        }
        sc_path = tmp_path / "sc.json"
        write_json(sc_path, sc)
        pred_path = tmp_path / "g.json"
        write_json(pred_path, {"kind": "scalar", "table": {"a": 0.5}})
        out = str(tmp_path / "audit.json")
        rc = main(["audit", "--surrogate", surrogate_file,
                   "--scenario", str(sc_path), "--predictor", str(pred_path),
                   "--c-marginal", "0", "--out", out])
        payload = read_json(out)
        notions = [r["notion"] for r in payload["reports"]]
        assert notions == ["surrogate", "discretization"]
        assert rc in (EXIT_OK, EXIT_BOUND)

    def test_report_predictor(self, surrogate_file, tmp_path):
        sc = {
            "features": [{"id": "a", "weight": 1.0,
                          "conditional": [0.1, 0.8, 0.1]}],
            "predictor": {"recipe": "bayes"},
        }
        sc_path = tmp_path / "sc.json"
        write_json(sc_path, sc)
        pred_path = tmp_path / "h.json"
        write_json(pred_path, {"kind": "report", "table": {"a": 2}})
        out = str(tmp_path / "audit.json")
        rc = main(["audit", "--surrogate", surrogate_file,
                   "--scenario", str(sc_path), "--predictor", str(pred_path),
                   "--out", out])
        assert rc == EXIT_OK
        payload = read_json(out)
        assert payload["reports"][0]["notion"] == "discrete"
        assert payload["reports"][0]["epsilon_hat"] == 0.0

    @pytest.mark.parametrize("kind,value", [
        ("distribution", [0.2, 0.3, 0.5]), ("scalar", 0.5), ("report", 2)])
    def test_missing_prediction_is_spec_error(self, surrogate_file, tmp_path,
                                              capsys, kind, value):
        data = tmp_path / "data.csv"
        data.write_text("x_id,y\na,1\nnope,2\n")
        pred_path = tmp_path / "pred.json"
        write_json(pred_path, {"kind": kind, "table": {"a": value}})
        rc = main(["audit", "--surrogate", surrogate_file, "--data", str(data),
                   "--predictor", str(pred_path), "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_SPEC
        err = capsys.readouterr().err
        assert "'nope'" in err and str(pred_path) in err

    @pytest.mark.parametrize("kind,bad,cause", [
        ("scalar", float("nan"), "not finite"),
        ("scalar", float("inf"), "not finite"),
        ("distribution", [0.5, 0.5], "shape (2,) for 3 outcomes"),
        ("distribution", [0.6, 0.6, -0.2], "not on the simplex"),
        ("distribution", [float("nan"), 0.5, 0.5], "not all finite"),
        ("report", 2.7, "report prediction 2.7 is not an integer"),
        ("report", True, "report prediction True is not an integer"),
        ("report", float("nan"), "report prediction nan is not an integer"),
        ("report", "2", "report prediction '2' is not an integer"),
    ])
    def test_bad_prediction_is_spec_error(self, surrogate_file, tmp_path, capsys,
                                          kind, bad, cause):
        data = tmp_path / "data.csv"
        data.write_text("x_id,y\na,1\nb,2\n")
        good = {"scalar": 0.5, "report": 2}.get(kind, [0.2, 0.3, 0.5])
        pred_path = tmp_path / "pred.json"
        write_json(pred_path, {"kind": kind, "table": {"a": good, "b": bad}})
        rc = main(["audit", "--surrogate", surrogate_file, "--data", str(data),
                   "--predictor", str(pred_path), "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_SPEC
        err = capsys.readouterr().err
        assert f"x_id 'b' in {pred_path}: " in err and cause in err

    @pytest.mark.parametrize("text,line", [
        ("id,label\na,1\n", 1),
        ("x_id,y\n", 2),
        ("x_id,y\na,1\nb\n", 3),
        ("x_id,y\na,1\nb,2,3\n", 3),
        ("x_id,y\na,1\nb,two\n", 3),
        ("x_id,y\na,1\nb,4\n", 3),
        ("x_id,y\na,1\n\"b,c\",0\n", 3),
        ("x_id,y\n\"a\nb\",1\n\"c\",1,2\n", 4),
    ])
    def test_malformed_data_names_line(self, surrogate_file, tmp_path, capsys,
                                       text, line):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        pred_path = tmp_path / "h.json"
        write_json(pred_path, {"kind": "report", "table": {"a": 2, "b": 2}})
        rc = main(["audit", "--surrogate", surrogate_file, "--data", str(data),
                   "--predictor", str(pred_path), "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_SPEC
        assert f"line {line}:" in capsys.readouterr().err

    def test_data_and_scenario_exclusive(self, surrogate_file, scenario_file,
                                         tmp_path):
        pred_path = tmp_path / "h.json"
        write_json(pred_path, {"kind": "report", "table": {"a": 2}})
        rc = main(["audit", "--surrogate", surrogate_file,
                   "--predictor", str(pred_path),
                   "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_SPEC


class TestCounterexample:
    @pytest.fixture()
    def surrogate_file(self, boundary_spec_file, tmp_path):
        out = str(tmp_path / "sur.json")
        assert main(["construct", "--spec", boundary_spec_file, "--seed", "1",
                     "--out", out]) == EXIT_OK
        return out

    def test_violation_found(self, surrogate_file, tmp_path):
        prefix = str(tmp_path / "ce")
        rc = main(["counterexample", "--surrogate", surrogate_file,
                   "--c", "5", "--seed", "2", "--out", prefix])
        assert rc == EXIT_OK
        report = read_json(prefix + ".report.json")
        assert report["instance"]["ratio"] > 5.0
        assert report["audits"]["gap_exceeds_C_times_epsilon"]
        scen = read_json(prefix + ".scenario.json")
        assert scen["predictor"]["recipe"] == "fixed"
        pred = read_json(prefix + ".predictor.json")
        assert pred["kind"] == "distribution"

    def test_valid_constant_exits_search_failure(self, surrogate_file,
                                                 tmp_path):
        rc = main(["counterexample", "--surrogate", surrogate_file,
                   "--c", "25", "--seed", "2", "--samples", "8192",
                   "--out", str(tmp_path / "ce")])
        assert rc == EXIT_SEARCH


def test_unknown_arguments_exit_spec(capsys):
    assert main(["frobnicate"]) == EXIT_SPEC
    capsys.readouterr()
