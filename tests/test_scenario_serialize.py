import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    O1,
    O2,
    array_field_reference,
    bins_by_key,
    bisect_expected_root,
    conditionals_reference,
    dirichlet_predictor,
    labeled_rows,
    normals_from_boundaries,
    numbers_reference,
    predictor_values_reference,
    random_orderable_spec,
    reference_counts,
    sampled_counts,
    sample_boundary,
    sampled_rows,
    scenario_to_json,
    written_v_bar,
)
from ordelic import _floatrepr, serialize
from ordelic._floatrepr import KERNEL_MIN_VALUES
from ordelic.audit import PredictorTable
from ordelic.embedding import EmbeddingInput, build_surrogate
from ordelic.errors import SpecError
from ordelic.normals import build_from_normals
from ordelic.properties import CostMatrix
from ordelic.scenario import (
    GUIDE_BUCKETS,
    ROW_BLOCK,
    ScenarioSpec,
    _draw,
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
    surrogate_from_json,
    surrogate_to_json,
    write_dataset_csv,
    write_json,
    write_levelsets_csv,
)
from ordelic.simplex import LabelCounts, sample_simplex


def _conditionals(data) -> dict:
    """x_id -> empirical label frequencies."""
    bins = bins_by_key(data, data.keys)
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

    @pytest.mark.parametrize("eta", [0.0, 0.1, 2.0])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_batched_draw_equals_dirichlet_loop(self, n, eta):
        for seed in (1, 2, 3, 17):
            cond = sample_simplex(n, 300, seed + 100)
            sc = ScenarioSpec(tuple(f"x{i}" for i in range(300)), np.full(300, 1 / 300),
                              cond, recipe="perturbed", eta=eta)
            got = materialize_predictor(sc, seed)
            assert got.keys == sc.feature_ids
            assert np.array_equal(got.values,
                                  dirichlet_predictor(sc, seed))

    def test_sampled_frequencies_converge(self, scenario):
        data = sampled_counts(scenario, 200_000, seed=4)
        cond = _conditionals(data)
        for x, q in zip(scenario.feature_ids, scenario.conditionals):
            assert np.allclose(cond[x], q, atol=0.01)
        # feature marginal
        w = dict(zip(data.keys, data.counts.sum(axis=1) / 200_000))
        for x, wx in zip(scenario.feature_ids, scenario.weights):
            assert w[x] == pytest.approx(wx, abs=0.01)

    def test_sampling_deterministic(self, scenario):
        a_ids, a_y = sampled_rows(scenario, 100, seed=5)
        b_ids, b_y = sampled_rows(scenario, 100, seed=5)
        assert a_ids == b_ids and np.array_equal(a_y, b_y)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("size", [1, 2, 3, 1000, GUIDE_BUCKETS, GUIDE_BUCKETS + 1,
                                      100_000])
    @pytest.mark.parametrize("weights", ["dirichlet", "zeros", "point"])
    def test_feature_draw_equals_choice(self, seed, size, weights):
        """The guide-table draw is rng.choice bit for bit, for sizes around
        the bucket counts and weights with zeros inside and at both ends."""
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.full(300, 0.5))
        if weights == "zeros":
            p[[0, 1, 7, 150, 298, 299]] = 0.0
        elif weights == "point":
            p = np.zeros(5)
            p[2] = 1.0
        p /= p.sum()
        want = np.random.default_rng(seed + 1).choice(len(p), size=size, p=p)
        got = np.concatenate(list(_draw(np.random.default_rng(seed + 1), p, size)))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_feature_draw_on_bucket_edges(self):
        """Uniforms on and next to bucket edges, and weights whose cdf steps
        sit on them, take the value searchsorted gives."""
        B = GUIDE_BUCKETS
        p = np.full(64, 1.0 / 64)  # cdf steps on every (B / 64)-th edge
        edges = np.arange(B) / B
        u = np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges[1:], 0.0)])

        class Uniforms:  # u, one block at a time
            taken = 0

            def random(self, size):
                self.taken += size
                return u[self.taken - size:self.taken].copy()

        cdf = p.cumsum()
        cdf /= cdf[-1]
        got = np.concatenate(list(_draw(Uniforms(), p, len(u))))
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("block,rows", [
        (ROW_BLOCK, 1), (64, 64), (64, 5 * 64 + 17), (ROW_BLOCK, ROW_BLOCK),
        (ROW_BLOCK, 2 * ROW_BLOCK + 5)])
    def test_blocks_match_whole_array_oracle(self, block, rows, tmp_path, monkeypatch):
        """The file written from sample_dataset's blocks is that of one
        whole-array draw: rng.choice of the features, then rng.random labels
        from the same generator, lines written by csv."""
        monkeypatch.setattr("ordelic.scenario.ROW_BLOCK", block)
        rng = np.random.default_rng(rows)
        ids = ("a,b", 'q"t', "é日", "line\nbreak", "") + tuple(f"x{i}" for i in range(35))
        w = rng.dirichlet(np.full(len(ids), 0.5))
        w[[5, 6, 39]] = 0.0
        sc = ScenarioSpec(ids, w / w.sum(), sample_simplex(4, len(ids), seed=rows))
        blocks = list(sample_dataset(sc, rows, seed=11))
        assert [len(f) for f, _ in blocks] == [block] * (rows // block) + (
            [rows % block] if rows % block else [])
        path = tmp_path / "data.csv"
        write_dataset_csv(path, sc.feature_ids, 4, blocks)

        oracle = np.random.default_rng(11)
        f = oracle.choice(len(ids), rows, p=sc.weights)
        u = oracle.random(rows)
        y = 1 + np.sum(u[:, None] > np.cumsum(sc.conditionals, axis=1)[f, :-1], axis=1)
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows(
            [["x_id", "y"]] + [[ids[i], int(label)] for i, label in zip(f, y)])
        assert path.read_bytes() == want.getvalue().encode("utf-8")

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
        for d in ({"kind": "scalar", "table": {"a": 0.5}},
                  {"kind": "report", "table": {"a": 2}},
                  {"kind": "distribution", "table": {"a": [0.5, 0.3, 0.2]}}):
            assert predictor_to_json(predictor_from_json(d, 3)) == dumps(d)

    def test_report_predictions_are_integers(self):
        """An integral float is a report; a fraction, a bool, NaN or a string
        is an error naming the x_id, not a report coerced by int()."""
        got = predictor_from_json({"kind": "report", "table": {"a": 2.0, "b": 3}}, 3)
        assert got.keys == ("a", "b") and got.values.tolist() == [2, 3]
        assert got.values.dtype == np.int64
        for bad in (2.7, True, float("nan"), "2", None, [2]):
            with pytest.raises(SpecError, match="x_id 'b' in f.json: report prediction"):
                predictor_from_json({"kind": "report", "table": {"a": 1, "b": bad}}, 3,
                                    "f.json")

    def test_predictions_are_json_numbers(self):
        """Scalars and distribution entries are JSON numbers (ints count) in
        the float64 range, and reports ints in the int64 range; a bool, a
        string, an array or an out-of-range number is an error naming the
        x_id."""
        got = predictor_from_json({"kind": "scalar", "table": {"a": 1, "b": 0.5}}, 3)
        assert got.values.dtype == np.float64 and got.values.tolist() == [1.0, 0.5]
        got = predictor_from_json({"kind": "distribution",
                                   "table": {"a": [1, 0, 0], "b": [0.5, 0.5, 0]}}, 3)
        assert got.values.dtype == np.float64 and got.values.shape == (2, 3)
        got = predictor_from_json({"kind": "report", "table": {"a": -2**63, "b": 2**63 - 1}}, 3)
        assert got.values.tolist() == [-2**63, 2**63 - 1]
        for kind, good, bad, cause in (
                ("scalar", 0.5, [0.5], "scalar prediction [0.5] is not a number"),
                ("scalar", 0.5, "0.5", "scalar prediction '0.5' is not a number"),
                ("scalar", 0.5, True, "scalar prediction True is not a number"),
                ("scalar", 0.5, None, "scalar prediction None is not a number"),
                ("scalar", 0.5, 10**400, "is not a number in the float64 range"),
                ("report", 1, 2**63, "report prediction 9223372036854775808 is not an"),
                ("report", 1, 1e20, "report prediction 100000000000000000000 is not an"),
                ("distribution", [0.2, 0.3, 0.5], ["0.5", 0.25, 0.25],
                 "distribution ['0.5', 0.25, 0.25] is not 3 numbers"),
                ("distribution", [0.2, 0.3, 0.5], [True, False, False],
                 "distribution [True, False, False] is not 3 numbers"),
                ("distribution", [0.2, 0.3, 0.5], [1.0, False, 0],
                 "distribution [1.0, False, 0] is not 3 numbers"),
                ("distribution", [0.2, 0.3, 0.5], [[1], [0], [0]],
                 "distribution [[1], [0], [0]] is not 3 numbers"),
                ("distribution", [0.2, 0.3, 0.5], [10**400, 0, 0], "in the float64 range"),
                ("distribution", [0.2, 0.3, 0.5], [1, [0, 1], 0], "is not 3 numbers")):
            for table in ({"a": good, "b": bad}, {"b": bad, "a": good}):
                with pytest.raises(SpecError, match=re.escape(cause)) as exc:
                    predictor_from_json({"kind": kind, "table": table}, 3, "f.json")
                assert str(exc.value).startswith("x_id 'b' in f.json: ")

    def test_dataset_csv_round_trip(self, scenario, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset_csv(path, scenario.feature_ids, 3, sample_dataset(scenario, 200, seed=6))
        text = path.read_text()
        assert text.splitlines()[0] == "x_id,y"
        _assert_same(read_dataset_csv(path, n=3),
                     reference_counts(*sampled_rows(scenario, 200, seed=6), 3))

    # csv.writer leaves a bare carriage return unquoted, so ids exclude it
    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.text(st.characters(codec="utf-8", exclude_categories=("Cs",),
                                              exclude_characters="\r"), max_size=6)
                        | st.sampled_from([",", '"', " a b ", "x,\"y\"", "é日\n本", ""]),
                        min_size=1, max_size=12),
           labels=st.lists(st.integers(1, 12), min_size=1, max_size=40),
           chunk=st.integers(1, 16))
    def test_dataset_csv_round_trip_any_ids(self, tmp_path_factory, ids, labels, chunk):
        x_ids = [ids[i % len(ids)] for i in range(len(labels))]
        want = reference_counts(x_ids, labels, 12)
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        write_dataset_csv(path, *labeled_rows(x_ids, labels, 12))
        _assert_same(read_dataset_csv(path, n=12), want)
        _assert_same(_read_chunked(path, 12, chunk), want)

    @pytest.mark.parametrize("rows", [1, 3, 10])
    def test_levelsets_csv_rows(self, rows, tmp_path, monkeypatch):
        monkeypatch.setattr(serialize, "LEVELSETS_BLOCK_ROWS", 3)
        rng = np.random.default_rng(rows)
        values = np.array([0.0, -0.0, 1.0, 0.1, 1 / 3, 5e-324, -2.5e300, 0.30000000000000004])
        pts = rng.choice(values, size=(rows, 3))
        gd = rng.integers(1, 12, size=rows)
        gs = rng.choice(values, size=rows)
        write_levelsets_csv(tmp_path / "g.csv", pts, gd, gs)
        want = "p1,p2,p3,gamma_discrete,gamma_surrogate\n" + "".join(
            f"{a!r},{b!r},{c!r},{d},{e!r}\n"
            for (a, b, c), d, e in zip(pts.tolist(), gd.tolist(), gs.tolist()))
        assert (tmp_path / "g.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("distinct", [KERNEL_MIN_VALUES - 1, KERNEL_MIN_VALUES + 1])
    def test_levelsets_csv_around_the_kernel_threshold(self, distinct, tmp_path,
                                                       monkeypatch):
        """A float column of one value fewer or more distinct values than
        the threshold of float_reprs' kernel is written as repr writes it;
        only the latter takes the kernel."""
        calls = []
        kernel = _floatrepr._reprs
        monkeypatch.setattr(_floatrepr, "_reprs", lambda v: calls.append(len(v)) or kernel(v))
        rng = np.random.default_rng(distinct)
        edges = [0.0, -0.0, 5e-324, 1e16, 1e-5, 1e-4, 0.1, 1.0, -2.5e300]
        gs = np.concatenate([edges, rng.standard_normal(distinct - len(edges))])
        rows = len(gs) + 5
        gs = np.concatenate([gs, gs[:5]])
        pts = rng.choice(gs[:50], size=(rows, 3))
        gd = rng.integers(1, 12, size=rows)
        write_levelsets_csv(tmp_path / "g.csv", pts, gd, gs)
        want = "p1,p2,p3,gamma_discrete,gamma_surrogate\n" + "".join(
            f"{a!r},{b!r},{c!r},{d},{e!r}\n"
            for (a, b, c), d, e in zip(pts.tolist(), gd.tolist(), gs.tolist()))
        assert (tmp_path / "g.csv").read_bytes() == want.encode()
        assert sum(calls) == (distinct if distinct >= KERNEL_MIN_VALUES else 0)

    def test_dataset_csv_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,label\na,1\n")
        with pytest.raises(SpecError):
            read_dataset_csv(path, n=3)
        path.write_text("x_id,y\n")
        with pytest.raises(SpecError):
            read_dataset_csv(path, n=3)

    def test_dataset_csv_byte_order_mark(self, tmp_path):
        """A UTF-8 byte-order mark before the header (Excel's "CSV UTF-8")
        is skipped; anywhere else it is a character of the file."""
        path = tmp_path / "bom.csv"
        bom = "\ufeff"
        path.write_bytes(f"{bom}x_id,y\na,1\n{bom}b,2\na,3\n".encode("utf-8"))
        _assert_same(read_dataset_csv(path, n=3),
                     reference_counts(["a", bom + "b", "a"], [1, 2, 3], 3))
        for header in (bom + bom + "x_id,y", "x_id," + bom + "y", "x_id,y" + bom):
            path.write_bytes(f"{header}\na,1\n".encode("utf-8"))
            with pytest.raises(SpecError, match="line 1: expected header 'x_id,y'"):
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


# Ids that csv.writer leaves unquoted, so every chunk is counted line by line.
_PLAIN_ID = st.text(st.sampled_from("a\x00 7é日😀"), max_size=20).filter(
    lambda x: len(x.encode("utf-8")) <= 20)
# Lines ("<id>,<label>\n") of 7 to 10 bytes straddle the first key word; of 64
# and 65 bytes, the longest that packs and the shortest that does not.
_EDGE_IDS = ["", "\x00", "a", "a\x00", "\x00a", "\x00\x00", "1234", "12345", "123456",
             "1234567", "1234567\x00", "12345678", "a" * 16, "a" * 17, "é" * 8,
             "日" * 5 + "\x00", "b" * 61, "b" * 62, "c" * 63, "日" * 20 + "d"]


def _read_chunked(path, n, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "CSV_CHUNK_BYTES", chunk)
        return read_dataset_csv(path, n=n)


def _lines_chunk(lines: list) -> tuple[bytes, np.ndarray]:
    """(chunk, newline positions) of the given newline-terminated lines."""
    raw = "".join(lines).encode("utf-8")
    return raw, np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))


def _line_counts(lines: list, n: int = 3):
    """Reference label counts of plain ``x_id,y`` lines."""
    x, y = zip(*(line[:-1].rsplit(",", 1) for line in lines))
    return reference_counts(list(x), [int(v) for v in y], n)


def _homes(table, lines: list) -> np.ndarray:
    """Home slot in ``table`` of each line of at most 8 bytes."""
    raw, ends = _lines_chunk(lines)
    starts = np.concatenate(([0], ends[:-1] + 1))
    return table._home(serialize._pack(raw, starts, ends - starts + 1, 1, 1))


def _assert_same(back, want):
    assert back.keys == want.keys
    assert back.counts.dtype == np.float64
    assert np.array_equal(back.counts, want.counts)


def _csv_oracle(text: str, n: int):
    """Label counts of the rows of a dataset file's text after its header, by
    csv.reader and a first-appearance dict of Counters."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    return reference_counts([x for x, _ in rows], [int(y.strip()) for _, y in rows], n)


def _dict_writer(kind: str, table: dict) -> str:
    """The predictor file as json writes the dict of the table."""
    return json.dumps({"kind": kind, "table": table}, sort_keys=True, indent=2) + "\n"


_FLOAT_EDGES = [-0.0, 5e-324, 1e16, 1e300, 1e-7, 0.1, 1 / 3, -2.5, 1.0]
_REPORTS = st.integers(-2**63, 2**63 - 1)
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


class TestPredictorWriter:
    """predictor_to_json writes the bytes json.dumps(sort_keys=True,
    indent=2) writes for the predictor's dict."""

    # sorted order differs from insertion order; non-ASCII, a quote, a
    # backslash, control characters and the empty id
    IDS = ["10", "9", "B", "a", "é", "日本", 'q"uote', "back\\slash", "tab\tnl\n\x01\x7f", ""]

    @pytest.mark.parametrize("kind", ["distribution", "scalar", "report"])
    def test_ids_and_values(self, kind):
        edges = _FLOAT_EDGES + ([] if kind == "distribution" else
                                [float("nan"), float("inf"), float("-inf")])
        if kind == "distribution":
            table = {x: [edges[(i + j) % len(edges)] for j in range(3)]
                     for i, x in enumerate(self.IDS)}
        elif kind == "scalar":
            table = {x: edges[i % len(edges)] for i, x in enumerate(self.IDS * 2)}
        else:
            table = dict(zip(self.IDS, [0, -1, 1, 2, 3, 2**62, -2**63, 7, 10, 11]))
        got = predictor_to_json(PredictorTable.from_mapping(kind, table))
        assert got == _dict_writer(kind, table)

    @pytest.mark.parametrize("kind,values", [
        ("distribution", np.empty((0, 3))), ("scalar", []), ("report", [])])
    def test_empty_table(self, kind, values):
        assert predictor_to_json(PredictorTable(kind, (), values)) \
            == _dict_writer(kind, {})

    @pytest.mark.parametrize("kind", ["distribution", "scalar"])
    def test_tables_through_the_kernel(self, kind, monkeypatch):
        """A table of at least KERNEL_MIN_VALUES floats is formatted by
        float_reprs' kernel, with the text json writes: full-length and
        three-decimal values, integral floats, -0.0, subnormals, both sides
        of the layout switches at 1e-5 and 1e16 and, for scalars, NaN and
        the infinities."""
        calls = []
        kernel = _floatrepr._reprs
        monkeypatch.setattr(_floatrepr, "_reprs", lambda v: calls.append(len(v)) or kernel(v))
        rng = np.random.default_rng(23)
        edges = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-5, 9.999999999999999e-06,
                 1e-4, 1e16, 9999999999999998.0, -1.2345678901234567e16, 1.0, 2.0**53, -3.0]
        if kind == "scalar":
            edges += [float("nan"), float("inf"), float("-inf")]
        scaled = rng.standard_normal(3000) * 10.0 ** rng.integers(-8, 20, 3000)
        values = np.concatenate([edges, scaled, rng.dirichlet(np.ones(3), 1000).ravel(),
                                 np.round(rng.dirichlet(np.ones(3), 1000), 3).ravel(),
                                 rng.integers(-10**6, 10**6, 2000).astype(np.float64)])
        values = rng.permutation(values)
        width = 3 if kind == "distribution" else 1
        values = values[:len(values) // width * width].reshape(-1, width)
        assert values.size >= KERNEL_MIN_VALUES
        ids = [f"x{i}" for i in range(len(values))]
        rows = values.tolist() if kind == "distribution" else values[:, 0].tolist()
        table = dict(zip(ids, rows))
        got = predictor_to_json(PredictorTable(kind, tuple(ids), np.array(rows)))
        assert got == _dict_writer(kind, table)
        assert sum(calls) == values.size

    def test_repeated_and_colliding_ids_keep_the_last_row(self):
        """An x_id listed twice, or two x_ids with the same str, predict the
        last row, as when the table was a dict."""
        p = PredictorTable("scalar", ("a", 5, "b", "a", "5"), [1.0, 2.0, 3.0, 4.0, 5.0])
        assert p["a"] == 4.0 and p.take(["a", 5]).tolist() == [4.0, 2.0]
        assert predictor_to_json(p) == _dict_writer("scalar", {"5": 5.0, "a": 4.0, "b": 3.0})

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["distribution", "scalar", "report"]),
           ids=st.lists(st.text(max_size=5), unique=True, max_size=12),
           width=st.integers(0, 4))
    def test_random_tables_and_round_trip(self, data, kind, ids, width):
        value = {"distribution": st.lists(_ANY_FLOAT, min_size=width, max_size=width),
                 "scalar": _ANY_FLOAT, "report": _REPORTS}[kind]
        table = {x: data.draw(value) for x in ids}
        values = np.array(list(table.values()), dtype=np.float64).reshape(len(ids), width) \
            if kind == "distribution" else list(table.values())
        text = predictor_to_json(PredictorTable(kind, tuple(ids), values))
        assert text == _dict_writer(kind, table)
        back = predictor_from_json(json.loads(text), width)
        assert predictor_to_json(back) == text


class TestDatasetReader:
    """The line counter against a first-appearance dict of Counters over
    csv.reader rows."""

    @settings(max_examples=80, deadline=None)
    @given(ids=st.lists(_PLAIN_ID | st.sampled_from(_EDGE_IDS), min_size=1, max_size=16),
           picks=st.lists(st.tuples(st.integers(0, 15), st.integers(1, 12)),
                          min_size=1, max_size=60),
           chunk=st.integers(1, 64))
    def test_byte_path_round_trip(self, tmp_path_factory, ids, picks, chunk):
        x_ids = [ids[i % len(ids)] for i, _ in picks]
        labels = [y for _, y in picks]
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        write_dataset_csv(path, *labeled_rows(x_ids, labels, 12))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize._LineCounts, "add_rows", None)  # no csv.reader chunk
            _assert_same(_read_chunked(path, 12, chunk), reference_counts(x_ids, labels, 12))

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(
               st.sampled_from(["a", "é", "日本", "x" * 64, "y" * 70, '"q,1"', '"n\nl"',
                                '"say ""hi"""', "7", "\x00"]),
               st.sampled_from(["1", "2", "3", "01", "003", " 2"]),
               st.sampled_from(["\n", "\r\n"])), min_size=1, max_size=40),
           chunk=st.integers(16, 64))
    def test_matches_csv_oracle(self, tmp_path_factory, rows, chunk):
        """Non-ASCII, quoted (commas, newlines, doubled quotes) and long ids,
        CRLF line ends and labels such as 01 or ' 2', in small chunks."""
        text = "".join(f"{x},{y}{end}" for x, y, end in rows)
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(("x_id,y\n" + text).encode("utf-8"))
        want = _csv_oracle(text, 3)
        _assert_same(read_dataset_csv(path, n=3), want)
        _assert_same(_read_chunked(path, 3, chunk), want)

    @pytest.mark.parametrize("bad,cause", [
        ("", "expected 2 fields (x_id,y), got 0"),
        ("f1,4", "label '4' is not an integer in 1..3"),
        ("f1,2,3", "expected 2 fields (x_id,y), got 3"),
        ("f1,0", "label '0' is not an integer in 1..3"),
    ])
    def test_bad_line_in_a_middle_chunk(self, tmp_path, bad, cause):
        """A bad line after chunks already counted line by line is refused
        with the csv.reader message and its line number in the file."""
        lines = [f"f{i % 7},{1 + i % 3}" for i in range(400)]
        lines[250] = bad
        path = tmp_path / "data.csv"
        path.write_text("x_id,y\n" + "".join(line + "\n" for line in lines))
        for chunk in (64, 256, 1 << 18):
            with pytest.raises(SpecError) as err:
                _read_chunked(path, 3, chunk)
            assert str(err.value) == f"{path}, line 252: {cause}"

    @pytest.mark.parametrize("mult", [0, 1])
    def test_keys_that_share_a_hash(self, tmp_path, mult):
        """With every key hashed alike (multiplier 0) or by the xor of its
        words (multiplier 1), lines are still told apart by their keys."""
        rng = np.random.default_rng(mult)
        vocab = ["", "a", "12345678", "87654321", "abcdefghijklmnop", "ponmlkjihgfedcba",
                 "x" * 70, "y" * 70] + [f"id{i:012d}" for i in range(30)]
        x = [vocab[i] for i in rng.integers(0, len(vocab), 300)]
        y = rng.integers(1, 4, len(x))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, *labeled_rows(x, y, 3))
        raw = path.read_bytes().split(b"\n", 1)[1]
        ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "_HASH_MULT", np.uint64(mult))
            for chunk in (64, 1 << 18):
                _assert_same(_read_chunked(path, 3, chunk), reference_counts(x, y, 3))
            table = serialize._LineCounts(3)
            half = ends[len(ends) // 2] + 1
            assert table.add_lines(raw[:half], ends[ends < half])
            assert table.add_lines(raw[half:], ends[ends >= half] - half)
        assert len(table.total) == len(set(zip(x, y.tolist())))  # one code per line
        _assert_same(table.counts(), reference_counts(x, y, 3))

    def test_more_ids_than_the_first_table(self, tmp_path):
        rng = np.random.default_rng(0)
        ids = [f"id{i}" for i in rng.permutation(5 << serialize._MIN_SLOT_BITS)]
        x = [ids[i] for i in rng.integers(0, len(ids), 40_000)]
        y = rng.integers(1, 4, len(x))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, *labeled_rows(x, y, 3))
        want = reference_counts(x, y, 3)
        _assert_same(_read_chunked(path, 3, 4096), want)

        table = serialize._LineCounts(3)
        raw = "".join(f"{i},{j}\n" for i, j in zip(x, y)).encode()
        ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
        assert table.add_lines(raw, ends)
        assert table.bits > serialize._MIN_SLOT_BITS
        held = np.flatnonzero(table.codes >= 0)
        assert np.array_equal(np.sort(table.codes[held]), np.arange(len(table.total)))
        home = table._home(table.keys[:, held])
        assert np.any(home != held) and table.reach > 0  # some lines lost their home slot
        _assert_same(table.counts(), want)
        first = table.total.copy()
        assert table.add_lines(raw, ends)
        _assert_same(table.counts(), LabelCounts(want.keys, 2 * want.counts))
        assert np.array_equal(table.total, 2 * first)

    def test_lines_that_share_a_home_slot(self):
        table = serialize._LineCounts(3)
        pool = [f"h{i},{1 + i % 3}\n" for i in range(1000)]
        home = _homes(table, pool)
        slots, size = np.unique(home, return_counts=True)
        lines = [pool[i] for i in np.flatnonzero(np.isin(home, slots[size >= 3][:3]))]
        rows = [lines[i] for i in np.random.default_rng(0).integers(0, len(lines), 500)]
        for chunk in (rows[:250], rows[250:]):
            assert table.add_lines(*_lines_chunk(chunk))
        assert table.bits == serialize._MIN_SLOT_BITS and table.reach >= 2
        _assert_same(table.counts(), _line_counts(rows))

    def test_probe_wraps_past_the_last_slot(self):
        table = serialize._LineCounts(3)
        pool = [f"{i:x},{1 + i % 3}\n" for i in range(1 << 17)]
        last = len(table.codes) - 1
        lines = [pool[i] for i in np.flatnonzero(_homes(table, pool) == last)[:3]]
        rows = lines * 3 + lines[::-1] * 100
        assert table.add_lines(*_lines_chunk(rows))
        assert np.all(table.codes[[last, 0, 1]] >= 0)  # two lines wrapped to slot 0 and 1
        assert np.all(_homes(table, lines) == last) and table.reach == 2
        assert table.add_lines(*_lines_chunk(rows[::-1]))
        assert len(table.total) == len(lines)  # the second pass found every line
        want = _line_counts(rows)
        _assert_same(table.counts(), LabelCounts(want.keys, 2 * want.counts))

    def test_growth_after_rows_matched(self):
        """A chunk whose known rows are matched in the table and whose new
        lines then outgrow it: every row is counted before the rebuild, once."""
        table = serialize._LineCounts(3)
        old = [f"a{i},{1 + i % 3}\n" for i in range(100)]
        assert table.add_lines(*_lines_chunk(old * 3))
        rng = np.random.default_rng(2)
        rows = [old[i] for i in rng.integers(0, len(old), 2000)] + [
            f"b{i},{1 + i % 3}\n" for i in range(400)]
        counted = []
        rebuild = table._rebuild
        table._rebuild = lambda *args: counted.append(table.total.sum()) or rebuild(*args)
        assert table.add_lines(*_lines_chunk(rows))
        assert counted == [300 + 2400] and table.bits > serialize._MIN_SLOT_BITS
        _assert_same(table.counts(), _line_counts(old * 3 + rows))

    @pytest.mark.parametrize("bad", ['"q,1",2\n', "z,4\n"])
    def test_refused_chunk_counts_nothing(self, bad):
        """add_lines refuses a chunk with a new line that is not plain, after
        its known rows were matched, and counts none of them; csv.reader's
        rows of the chunk are then counted once."""
        table = serialize._LineCounts(3)
        old = [f"a{i},{1 + i % 3}\n" for i in range(50)]
        assert table.add_lines(*_lines_chunk(old))
        rows = [old[i % len(old)] for i in range(300)] + [bad, "new,2\n"]
        assert not table.add_lines(*_lines_chunk(rows))
        _assert_same(table.counts(), _line_counts(old))
        chunk = "".join(rows).encode()
        if bad.startswith('"'):
            table.add_rows(*serialize._parse_rows(chunk, 2, "f.csv", 3))
            _assert_same(table.counts(), _csv_oracle("".join(old + rows), 3))
        else:
            with pytest.raises(SpecError, match="label '4' is not an integer in 1..3"):
                serialize._parse_rows(chunk, 2, "f.csv", 3)

    def test_two_passes_double_every_count(self):
        """Short, multi-word and too-long lines, counted twice by one table,
        with and without reading the counts between the passes."""
        rng = np.random.default_rng(3)
        x = [_EDGE_IDS[i] for i in rng.integers(0, len(_EDGE_IDS), 3000)]
        y = rng.integers(1, 4, len(x))
        raw = "".join(f"{a},{b}\n" for a, b in zip(x, y)).encode("utf-8")
        ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
        want = reference_counts(x, y, 3)
        for between in (True, False):
            table = serialize._LineCounts(3)
            assert table.add_lines(raw, ends)
            if between:
                _assert_same(table.counts(), want)
            assert table.add_lines(raw, ends)
            _assert_same(table.counts(), LabelCounts(want.keys, 2 * want.counts))

    def test_one_home_slot_for_every_line(self):
        """With every key hashed to slot 0, the lines fill one run of slots:
        ``reach`` is the run's length less one, and a lookup takes at most
        ``reach`` probe rounds after the home slot, not one per row."""
        lines = [f"s{i},{1 + i % 3}\n" for i in range(3000)]
        rows = [lines[i] for i in np.random.default_rng(4).integers(0, len(lines), 6000)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "_HASH_MULT", np.uint64(0))
            table = serialize._LineCounts(3)
            assert table.add_lines(*_lines_chunk(lines))
            assert table.reach == len(lines) - 1
            rounds = []
            differ = table._differ
            mp.setattr(table, "_differ", lambda *args: rounds.append(1) or differ(*args))
            assert table.add_lines(*_lines_chunk(rows))
        assert len(rounds) <= table.reach + 2  # home slot, probes, the final check
        _assert_same(table.counts(), _line_counts(lines + rows))

    def test_quoted_id_in_a_middle_chunk(self, tmp_path):
        x = [f"f{i % 7}" for i in range(300)]
        x[150] = "a,b"
        x[151] = "f3"
        y = [1 + i % 11 for i in range(300)]
        path = tmp_path / "data.csv"
        write_dataset_csv(path, *labeled_rows(x, y, 11))
        assert b'"a,b",' in path.read_bytes()
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            add_rows = serialize._LineCounts.add_rows
            mp.setattr(serialize._LineCounts, "add_rows",
                       lambda self, ids, labels: calls.append(ids) or add_rows(self, ids, labels))
            back = _read_chunked(path, 11, 256)
        assert len(calls) == 1 and "a,b" in calls[0] and "f3" in calls[0]
        _assert_same(back, reference_counts(x, y, 11))

    def test_long_file(self, tmp_path):
        rng = np.random.default_rng(1)
        vocab = ["", "\x00", "é", "x" * 61, "y" * 62, "z" * 70 + "日"] + [
            str(i) for i in range(3000)]
        x_ids = [vocab[i] for i in rng.integers(0, len(vocab), 100_000)]
        y = rng.integers(1, 4, len(x_ids))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, *labeled_rows(x_ids, y, 3))
        _assert_same(read_dataset_csv(path, n=3), reference_counts(x_ids, y, 3))

    @pytest.mark.parametrize("text, where", [
        (b"x_id,y\na,1\nb\xff\xfe,2\n", "line 3: byte 0xff in position 1"),
        (b"x_id,y\na,1\na,1\n\"b,\xc3\",2\n", "line 4: byte 0xc3 in position 3"),
        (b"x_\xffid,y\na,1\n", "line 1: byte 0xff in position 2"),
    ], ids=["plain", "quoted", "header"])
    def test_undecodable_id(self, tmp_path, text, where):
        """Text that is not UTF-8, in an x_id of a plain line, in one that
        csv.reader parses, or in the header, is refused, naming the file,
        the line and the byte."""
        path = tmp_path / "data.csv"
        path.write_bytes(text)
        with pytest.raises(SpecError) as info:
            read_dataset_csv(path, n=3)
        assert str(info.value).startswith(f"{path}, {where} is not UTF-8 (")

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
        _assert_same(read_dataset_csv(path, n=n),
                     reference_counts(["a"] * len(values), [int(v) for v in values], n))


_INTS = st.one_of(st.integers(-3, 3), st.integers(-2**64 - 2, 2**64 + 2),
                  st.sampled_from([2**63 - 1, 2**63, 2**64, -2**63, -2**63 - 1, 10**400]))
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_ZERO_ONE = st.sampled_from([0, 1, 0.0, 1.0, -0.0])
_NUMBERS = st.one_of(_INTS, _FLOATS, _ZERO_ONE)
# JSON values that are not numbers, and arrays where a number belongs.
_ODD = st.sampled_from([True, False, None, "1", "0.5", "x", {}, {"a": 1}, [], [1.0],
                        [[1.0]], [[]], [None], [1, [2]], [True, 0.5]])
_RAGGED = st.recursive(st.one_of(_NUMBERS, _ODD), lambda inner: st.lists(inner, max_size=4),
                       max_leaves=12)


@st.composite
def _json_arrays(draw):
    """Nested JSON arrays of depth 1-3: mostly tables of one shape (some
    empty) of ints, floats (NaN and infinities too) or 0s and 1s, half of
    them with one value swapped for one that is not a number there; and
    some ragged through and through."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(_RAGGED, max_size=4))
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    leaves = draw(st.sampled_from([_INTS, _FLOATS, _ZERO_ONE, _NUMBERS]))

    def build(dims):
        return [build(dims[1:]) for _ in range(dims[0])] if dims else draw(leaves)
    value = build(shape)
    if draw(st.booleans()):
        parent, node, at = None, value, 0
        while isinstance(node, list) and node:
            at = draw(st.integers(0, len(node) - 1))
            parent, node = node, node[at]
        if parent is not None:
            parent[at] = draw(_ODD)
    return value


def _same(got, want) -> bool:
    """Both None, or arrays of one dtype and shape with identical bits."""
    if got is None or want is None:
        return got is None and want is None
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


class TestNumberArrays:
    """One converter (``serialize._array``) turns the JSON numbers of every
    reader into arrays, and accepts and refuses each value as the four
    separate routes before it did (the references in conftest)."""

    @settings(max_examples=300, deadline=None)
    @given(value=st.one_of(_json_arrays(), _NUMBERS, _ODD))
    def test_array_fields(self, value):
        assert _same(serialize._array(value), array_field_reference(value)), value

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(_NUMBERS, _NUMBERS, _ODD), max_size=8))
    def test_flat_numbers(self, values):
        for dtype in (np.float64, np.int64):
            got = serialize._array(values, dtype)
            assert _same(got if np.ndim(got) == 1 else None,
                         numbers_reference(values, dtype)), (values, dtype)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["distribution", "scalar", "report"]),
           rows=st.one_of(_json_arrays(), st.lists(st.one_of(_NUMBERS, _ODD), max_size=6)))
    def test_predictor_tables(self, kind, rows):
        """A predictor table reads to the same values, or fails with the same
        message."""
        n = len(rows[0]) if rows and type(rows[0]) is list and rows[0] else 3
        table = {f"x{i}": row for i, row in enumerate(rows)}
        try:
            want = predictor_values_reference(kind, tuple(table), rows, n, "p.json")
        except SpecError as exc:
            with pytest.raises(SpecError) as got:
                predictor_from_json({"kind": kind, "table": table}, n, "p.json")
            assert str(got.value) == str(exc)
        else:
            got = predictor_from_json({"kind": kind, "table": table}, n, "p.json").values
            assert _same(got, want), rows

    @settings(max_examples=200, deadline=None)
    @given(rows=_json_arrays())
    def test_scenario_conditionals(self, rows):
        """The conditionals of a scenario, read all at once or feature by
        feature, are the same array, and refused alike."""
        values = serialize._array(rows)
        if np.ndim(values) != 2:
            try:
                values = np.array(serialize._features(
                    [{"id": "a", "weight": 1.0, "conditional": row} for row in rows])[2])
            except SpecError:
                values = None
        want = conditionals_reference(rows)
        if not rows:  # no features: neither route refuses, ScenarioSpec does
            assert want is None and values.shape == (0,)
        else:
            assert _same(values, want), rows


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
        assert d["format"] == 4 and "l_bar" not in d
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
            surrogate_from_json(dict(surrogate_to_json(fixture_normals), format=5))
        with pytest.raises(SpecError):
            surrogate_to_json(object())


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 8), n_reports=st.integers(2, 5), seed=st.integers(0, 2**20))
def test_format4_round_trip_is_exact(n, n_reports, seed):
    """A written and reloaded surrogate equals the built one bit for bit, for
    both constructions; the v_bar it spells out has the same roots, and a
    normals surrogate's value range is the closed form from its normals."""
    bds, cost, phi = random_orderable_spec(n, n_reports, seed)
    nrm = build_from_normals(normals_from_boundaries(bds))
    emb = build_surrogate(EmbeddingInput(cost, phi))
    for s in (nrm, emb):
        back = surrogate_from_json(json.loads(dumps(surrogate_to_json(s))))
        for name in ("grid", "nodes", "thresholds"):
            assert getattr(back, name).tobytes() == getattr(s, name).tobytes(), name
        assert back.value_range == s.value_range
        assert back.lipschitz_bound == s.lipschitz_bound
        lo, hi = s.value_range
        pts = sample_simplex(n, 200, seed=seed)
        oracle = bisect_expected_root(written_v_bar(s), pts, lo - 1.0, hi + 1.0)
        assert np.abs(oracle - s.gamma_many(pts)).max() <= 1e-9
    O, k = nrm.normals.o, nrm.normals.k
    assert nrm.value_range == (float(O[0].min()), float(O[-1].max() + (k - 1)))


README_SPEC = {"n": 3, "reports": [1, 2, 3],
               "cost_matrix": [[0, 3, 5], [1, 0, 3], [3, 1, 0]]}
BOUNDARY_SPEC = {"n": 3, "reports": [1, 2, 3],
                 "boundaries": [{"c": [-3, 1, 0], "b": -2}, {"c": [-5, -4, 0], "b": -3}]}


@pytest.mark.parametrize("name,fmt,spec,args", [
    pytest.param(name, fmt, spec, args, id=name if fmt == 1 else f"{name}.format{fmt}")
    for name, fmts, spec, args in (
        ("readme_normals_seed1", (1, 3), README_SPEC, ["--algo", "normals", "--seed", "1"]),
        ("boundaries_normals_seed1", (1,), BOUNDARY_SPEC,
         ["--algo", "normals", "--seed", "1"]),
        ("readme_embedding_phi013", (1, 3), README_SPEC,  # built at the outer slope 4
         ["--algo", "embedding", "--phi", "0,1,3", "--outer-slope", "4"]),
    ) for fmt in fmts])
def test_format1_file_matches_fresh_build(tmp_path, name, fmt, spec, args):
    """Surrogate files written in format 1 (with l_bar, without a format
    field) or format 3 (v_bar, no nodes) load into the same surrogate as a
    fresh construct; format 3 files to their own K and value range."""
    from ordelic.cli import EXIT_OK, main
    old = read_json(Path(__file__).parent / "data" / f"{name}.format{fmt}.json")
    assert old.get("format", 1) == fmt and ("l_bar" in old) == (fmt == 1)
    spec_path, out = tmp_path / "spec.json", tmp_path / "sur.json"
    write_json(spec_path, spec)
    assert main(["construct", "--spec", str(spec_path), *args, "--out", str(out)]) == EXIT_OK
    a, b = surrogate_from_json(old), surrogate_from_json(read_json(out))
    ja, jb = surrogate_to_json(a), surrogate_to_json(b)
    # the format-1 normals files hold a K whose maximizer (0.6, 0, 0.4) was
    # found by clipping the triangle, which rounds it in the last bits
    assert jb.pop("lipschitz_bound") == pytest.approx(ja.pop("lipschitz_bound"), rel=1e-14)
    assert ja == jb
    assert list(a.value_range) == old["value_range"]
    if fmt == 3:
        assert a.lipschitz_bound == old["lipschitz_bound"]
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
    fresh = build_surrogate(EmbeddingInput(CostMatrix(README_SPEC["cost_matrix"]),
                                                [0.0, 1.0, 3.0], 4.0))
    assert surrogate_from_json(old).lipschitz_bound == fresh.lipschitz_bound
    assert fresh.lipschitz_bound == pytest.approx(21.6535, abs=1e-4)
