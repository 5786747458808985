from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import O1, O2
from ordelic import serialize
from ordelic.audit import _bin
from ordelic.embedding import build_envelope_loss, build_surrogate
from ordelic.errors import SpecError
from ordelic.properties import CostMatrix, sample_boundary
from ordelic.scenario import (
    ScenarioSpec,
    exact_dataset,
    materialize_predictor,
    sample_dataset,
)
from ordelic.serialize import (
    dumps,
    load_property_spec,
    predictor_from_json,
    predictor_to_json,
    read_dataset_csv,
    read_json,
    scenario_from_json,
    scenario_to_json,
    surrogate_from_json,
    surrogate_to_json,
    write_dataset_csv,
    write_json,
)
from ordelic.simplex import LabeledDataset, sample_simplex


def _conditionals(data) -> dict:
    """x_id -> empirical label frequencies."""
    bins = _bin(data, data.keys)
    return dict(zip(bins.keys.tolist(), bins.cond))


@pytest.fixture()
def scenario():
    return ScenarioSpec(
        ("a", "b", "c"),
        [0.2, 0.3, 0.5],
        np.array([[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]]),
        recipe="perturbed",
        eta=0.1,
    )


class TestScenario:
    def test_validation(self):
        with pytest.raises(SpecError):
            ScenarioSpec(("a",), [0.5], np.array([[0.5, 0.3, 0.2]]))
        with pytest.raises(SpecError):
            ScenarioSpec(("a", "b"), [1.0], np.eye(2))
        with pytest.raises(SpecError):
            ScenarioSpec(("a",), [1.0], np.array([[0.5, 0.3, 0.2]]),
                         recipe="nope")
        with pytest.raises(SpecError):
            ScenarioSpec(("a",), [1.0], np.array([[0.5, 0.3, 0.2]]),
                         recipe="fixed")

    def test_zero_eta_equals_bayes(self, scenario):
        sc0 = ScenarioSpec(scenario.feature_ids, scenario.weights,
                           scenario.conditionals, recipe="perturbed", eta=0.0)
        bayes = ScenarioSpec(scenario.feature_ids, scenario.weights,
                             scenario.conditionals)
        f0 = materialize_predictor(sc0, seed=1)
        fb = materialize_predictor(bayes, seed=2)
        for x in scenario.feature_ids:
            assert np.array_equal(f0[x], fb[x])

    def test_perturbed_stays_on_simplex(self, scenario):
        f = materialize_predictor(scenario, seed=3)
        for x in scenario.feature_ids:
            p = f[x]
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0)

    def test_sampled_frequencies_converge(self, scenario):
        data = sample_dataset(scenario, 200_000, seed=4)
        cond = _conditionals(data)
        for x, q in zip(scenario.feature_ids, scenario.conditionals):
            assert np.allclose(cond[x], q, atol=0.01)
        # feature marginal
        w = {x: 0.0 for x in scenario.feature_ids}
        for xid in data.x_ids:
            w[xid] += 1
        for x, wx in zip(scenario.feature_ids, scenario.weights):
            assert w[x] / len(data) == pytest.approx(wx, abs=0.01)

    def test_sampling_deterministic(self, scenario):
        a = sample_dataset(scenario, 100, seed=5)
        b = sample_dataset(scenario, 100, seed=5)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x_ids, b.x_ids)

    def test_exact_dataset_reproduces_conditionals(self, scenario):
        data = exact_dataset(scenario)
        cond = _conditionals(data)
        for x, q in zip(scenario.feature_ids, scenario.conditionals):
            assert np.allclose(cond[x], q, atol=1e-12)


class TestSerialization:
    def test_scenario_round_trip(self, scenario, tmp_path):
        path = tmp_path / "scenario.json"
        write_json(path, scenario_to_json(scenario))
        back = scenario_from_json(read_json(path))
        assert back.feature_ids == scenario.feature_ids
        assert np.allclose(back.weights, scenario.weights)
        assert np.allclose(back.conditionals, scenario.conditionals)
        assert back.recipe == "perturbed"
        assert back.eta == 0.1

    def test_fixed_recipe_round_trip(self):
        sc = ScenarioSpec(("a",), [1.0], np.array([[0.5, 0.3, 0.2]]),
                          recipe="fixed",
                          fixed_table={"a": np.array([0.4, 0.4, 0.2])})
        back = scenario_from_json(scenario_to_json(sc))
        assert np.allclose(back.fixed_table["a"], [0.4, 0.4, 0.2])

    def test_predictor_round_trips(self):
        for p in (
            predictor_to_json(
                predictor_from_json({"kind": "scalar", "table": {"a": 0.5}})),
            predictor_to_json(
                predictor_from_json({"kind": "report", "table": {"a": 2}})),
        ):
            assert predictor_to_json(predictor_from_json(p)) == p
        d = {"kind": "distribution", "table": {"a": [0.5, 0.3, 0.2]}}
        assert predictor_to_json(predictor_from_json(d)) == d

    def test_report_predictions_are_integers(self):
        """An integral float is a report; a fraction, a bool, NaN or a string
        is an error naming the x_id, not a report coerced by int()."""
        got = predictor_from_json({"kind": "report", "table": {"a": 2.0, "b": 3}})
        assert got.table == {"a": 2, "b": 3}
        assert all(type(v) is int for v in got.table.values())
        for bad in (2.7, True, float("nan"), "2", None, [2]):
            with pytest.raises(SpecError, match="x_id 'b' in f.json: report prediction"):
                predictor_from_json({"kind": "report", "table": {"a": 1, "b": bad}},
                                    "f.json")

    def test_dataset_csv_round_trip(self, scenario, tmp_path):
        data = sample_dataset(scenario, 200, seed=6)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, data)
        text = path.read_text()
        assert text.splitlines()[0] == "x_id,y"
        back = read_dataset_csv(path, n=3)
        assert np.array_equal(back.y, data.y)
        assert np.array_equal(back.x_ids, data.x_ids)

    # csv.writer leaves a bare carriage return unquoted, so ids exclude it
    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.text(st.characters(codec="utf-8", exclude_categories=("Cs",),
                                              exclude_characters="\r"), max_size=6)
                        | st.sampled_from([",", '"', " a b ", "x,\"y\"", "é日\n本", ""]),
                        min_size=1, max_size=12),
           labels=st.lists(st.integers(1, 12), min_size=1, max_size=40),
           chunk=st.integers(1, 16))
    def test_dataset_csv_round_trip_any_ids(self, tmp_path_factory, ids, labels, chunk):
        rows = [(ids[i % len(ids)], y) for i, y in enumerate(labels)]
        data = LabeledDataset([x for x, _ in rows], [y for _, y in rows], 12)
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        write_dataset_csv(path, data)
        whole = read_dataset_csv(path, n=12)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "CSV_CHUNK_BYTES", chunk)
            write_dataset_csv(path, data)
            chunked = read_dataset_csv(path, n=12)
        for back in (whole, chunked):
            assert back.keys == data.keys
            assert np.array_equal(back.codes, data.codes)
            assert np.array_equal(back.y, data.y)

    def test_dataset_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label\na,1\n")
        with pytest.raises(SpecError):
            read_dataset_csv(path, n=3)
        path.write_text("x_id,y\n")
        with pytest.raises(SpecError):
            read_dataset_csv(path, n=3)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError):
            read_json(path)

    def test_dumps_is_stable(self):
        a = dumps({"b": 1, "a": [1.5, 2.0]})
        b = dumps({"a": [1.5, 2.0], "b": 1})
        assert a == b
        assert a.endswith("\n")


# Ids that csv.writer leaves unquoted, so every chunk takes the byte path.
_PLAIN_ID = st.text(st.sampled_from("a\x00 7é日😀"), max_size=20).filter(
    lambda x: len(x.encode("utf-8")) <= 20)
_EDGE_IDS = ["", "\x00", "a", "a\x00", "\x00a", "\x00\x00", "1234567", "1234567\x00",
             "12345678", "123456789", "a" * 16, "a" * 17, "é" * 8, "日" * 5 + "\x00"]


def _read_chunked(path, n, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "CSV_CHUNK_BYTES", chunk)
        return read_dataset_csv(path, n=n)


def _assert_same(back, data):
    assert back.keys == data.keys
    assert np.array_equal(back.codes, data.codes)
    assert np.array_equal(back.y, data.y)


class TestDatasetReader:
    """The byte-level id coder against the per-row dict of LabeledDataset."""

    @settings(max_examples=80, deadline=None)
    @given(ids=st.lists(_PLAIN_ID | st.sampled_from(_EDGE_IDS), min_size=1, max_size=16),
           picks=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 12)),
                          min_size=1, max_size=60),
           chunk=st.integers(1, 64))
    def test_byte_path_round_trip(self, tmp_path_factory, ids, picks, chunk):
        rows = [(ids[i % len(ids)], y) for i, y in picks]
        data = LabeledDataset([x for x, _ in rows], [y for _, y in rows], 12)
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        write_dataset_csv(path, data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize._IdCoder, "code_strings", None)  # no csv.reader chunk
            _assert_same(_read_chunked(path, 12, chunk), data)

    def test_more_ids_than_the_first_table(self, tmp_path):
        rng = np.random.default_rng(0)
        ids = [f"id{i}" for i in rng.permutation(5 << serialize._MIN_SLOT_BITS)]
        x = [ids[i] for i in rng.integers(0, len(ids), 40_000)]
        data = LabeledDataset(x, rng.integers(1, 4, len(x)), 3)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, data)
        _assert_same(_read_chunked(path, 3, 4096), data)

        coder = serialize._IdCoder()
        raw = "".join(f"{i}\n" for i in x).encode()
        ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
        starts = np.concatenate(([0], ends[:-1] + 1))
        codes = coder.code_bytes(raw, starts, ends - starts)
        assert coder.bits > serialize._MIN_SLOT_BITS
        cached = np.count_nonzero(coder.codes >= 0)
        assert 0 < cached < len(coder.index)  # some ids lost their slot
        assert np.array_equal(coder.code_bytes(raw, starts, ends - starts), codes)
        assert [coder.index[i] for i in x] == codes.tolist()

    def test_quoted_id_in_a_middle_chunk(self, tmp_path):
        x = [f"f{i % 7}" for i in range(300)]
        x[150] = "a,b"
        x[151] = "f3"
        data = LabeledDataset(x, [1 + i % 11 for i in range(300)], 11)
        path = tmp_path / "data.csv"
        write_dataset_csv(path, data)
        assert b'"a,b",' in path.read_bytes()
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            strings = serialize._IdCoder.code_strings
            mp.setattr(serialize._IdCoder, "code_strings",
                       lambda self, ids: calls.append(ids) or strings(self, ids))
            back = _read_chunked(path, 11, 256)
        assert len(calls) == 1 and "a,b" in calls[0] and "f3" in calls[0]
        _assert_same(back, data)

    def test_long_file(self, tmp_path):
        rng = np.random.default_rng(1)
        vocab = ["", "\x00", "é", "x" * 63, "y" * 64, "z" * 70 + "日"] + [
            str(i) for i in range(3000)]
        x_ids = [vocab[i] for i in rng.integers(0, len(vocab), 100_000)]
        y = rng.integers(1, 4, len(x_ids))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, LabeledDataset(x_ids, y, 3))
        _assert_same(read_dataset_csv(path, n=3), LabeledDataset(x_ids, y, 3))

    @pytest.mark.parametrize("labels,n,ok", [
        ("1 2 3", 3, True), ("01 2", 3, True), ("10 12 9", 12, True),
        ("100 7", 100, True), ("4", 3, False), ("13", 12, False), ("0", 3, False),
        ("1a", 12, False), ("", 3, False), ("1 2 101", 100, False)])
    def test_labels(self, tmp_path, labels, n, ok):
        path = tmp_path / "data.csv"
        values = labels.split(" ")
        path.write_text("x_id,y\n" + "".join(f"a,{v}\n" for v in values))
        if not ok:
            with pytest.raises(SpecError, match=f"line {2 + len(values) - 1}:"):
                read_dataset_csv(path, n=n)
            return
        back = read_dataset_csv(path, n=n)
        assert back.y.tolist() == [int(v) for v in values]


class TestPropertySpecFiles:
    def test_cost_matrix_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        write_json(path, {"n": 3, "reports": [1, 2, 3],
                          "cost_matrix": [[0, 3, 5], [1, 0, 3], [3, 1, 0]]})
        out = load_property_spec(path)
        assert isinstance(out["cost"], CostMatrix)
        assert out["boundaries"] is None

    def test_boundary_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        write_json(path, {"n": 3, "reports": [1, 2, 3],
                          "boundaries": [{"c": [-3, 1, 0], "b": -2},
                                         {"c": [-5, -4, 0], "b": -3}]})
        out = load_property_spec(path)
        assert out["cost"] is None
        assert len(out["boundaries"]) == 2

    def test_spec_validation(self, tmp_path):
        path = tmp_path / "spec.json"
        write_json(path, {"n": 3, "reports": [1, 2, 3]})
        with pytest.raises(SpecError):
            load_property_spec(path)
        write_json(path, {"n": 3, "reports": [1, 2],
                          "cost_matrix": [[0, 3, 5], [1, 0, 3], [3, 1, 0]]})
        with pytest.raises(SpecError):
            load_property_spec(path)
        write_json(path, {"n": 3, "reports": [1, 2, 3],
                          "boundaries": [{"c": [-3, 1, 0], "b": -2}]})
        with pytest.raises(SpecError):
            load_property_spec(path)


class TestSurrogateExport:
    def test_embedding_round_trip(self, fixture_embedding, fixture_cost):
        d = surrogate_to_json(fixture_embedding)
        assert d["format"] == 3 and "l_bar" not in d
        assert d["lipschitz_exact"] is True
        back = surrogate_from_json(d)
        assert back.cost is not None
        assert np.allclose(back.cost.entries, fixture_cost.entries)
        pts = sample_simplex(3, 300, seed=7)
        assert np.allclose(back.gamma_many(pts), fixture_embedding.gamma_many(pts),
                           atol=1e-12)
        assert np.allclose(back.thresholds, fixture_embedding.thresholds)
        assert back.lipschitz_bound == fixture_embedding.lipschitz_bound

    def test_normals_round_trip(self, fixture_normals):
        d = surrogate_to_json(fixture_normals)
        back = surrogate_from_json(d)
        assert back.cost is None
        assert back.lipschitz_exact == fixture_normals.lipschitz_exact
        pts = sample_simplex(3, 300, seed=8)
        assert np.allclose(back.gamma_many(pts), fixture_normals.gamma_many(pts),
                           atol=1e-12)

    def test_unknown_kind_rejected(self, fixture_normals):
        with pytest.raises(SpecError):
            surrogate_from_json({"kind": "mystery"})
        with pytest.raises(SpecError):
            surrogate_from_json(dict(surrogate_to_json(fixture_normals), kind="embedding"))
        with pytest.raises(SpecError):
            surrogate_from_json(dict(surrogate_to_json(fixture_normals), format=4))
        with pytest.raises(SpecError):
            surrogate_to_json(object())


README_SPEC = {"n": 3, "reports": [1, 2, 3],
               "cost_matrix": [[0, 3, 5], [1, 0, 3], [3, 1, 0]]}
BOUNDARY_SPEC = {"n": 3, "reports": [1, 2, 3],
                 "boundaries": [{"c": [-3, 1, 0], "b": -2}, {"c": [-5, -4, 0], "b": -3}]}


@pytest.mark.parametrize("name,spec,args", [
    pytest.param(name, spec, args, id=name) for name, spec, args in (
        ("readme_normals_seed1", README_SPEC, ["--algo", "normals", "--seed", "1"]),
        ("boundaries_normals_seed1", BOUNDARY_SPEC, ["--algo", "normals", "--seed", "1"]),
        ("readme_embedding_phi013", README_SPEC, ["--algo", "embedding", "--phi", "0,1,3"]),
    )])
def test_format1_file_matches_fresh_build(tmp_path, name, spec, args):
    """Surrogate files written before format 2 (with l_bar, without a format
    field) load into the same surrogate as a fresh construct."""
    from ordelic.cli import EXIT_OK, main
    old = read_json(Path(__file__).parent / "data" / f"{name}.format1.json")
    assert "format" not in old and "l_bar" in old
    spec_path, out = tmp_path / "spec.json", tmp_path / "sur.json"
    write_json(spec_path, spec)
    assert main(["construct", "--spec", str(spec_path), *args, "--out", str(out)]) == EXIT_OK
    a, b = surrogate_from_json(old), surrogate_from_json(read_json(out))
    ja, jb = surrogate_to_json(a), surrogate_to_json(b)
    # the format-1 normals files hold a K whose maximizer (0.6, 0, 0.4) was
    # found by clipping the triangle, which rounds it in the last bits
    assert jb.pop("lipschitz_bound") == pytest.approx(ja.pop("lipschitz_bound"), rel=1e-14)
    assert ja == jb
    pts = np.concatenate([np.eye(3), sample_simplex(3, 500, seed=9)]
                         + [sample_boundary(o, 50, seed=10) for o in (O1, O2)])
    u = a.gamma_many(pts)
    assert np.array_equal(u, b.gamma_many(pts))
    assert np.array_equal(a.link_many(u), b.link_many(u))
    assert np.array_equal(a.discrete_set_many(pts), b.discrete_set_many(pts))


@pytest.mark.parametrize("fmt", [1, 2])
def test_old_embedding_files_load_to_the_exact_k(fmt):
    """Format 1 and 2 embedding files store K = max |v| (3.5 here); the
    loader derives K from the nodes instead, equal to a fresh build's."""
    old = read_json(Path(__file__).parent / "data"
                    / f"readme_embedding_phi013.format{fmt}.json")
    assert old.get("format", 1) == fmt and old["lipschitz_bound"] == 3.5
    fresh = build_surrogate(build_envelope_loss(CostMatrix(README_SPEC["cost_matrix"]),
                                                [0.0, 1.0, 3.0], 4.0))
    assert surrogate_from_json(old).lipschitz_bound == fresh.lipschitz_bound
    assert fresh.lipschitz_bound == pytest.approx(21.6535, abs=1e-4)
