import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import EMBEDDING_TIE, random_orderable_spec, write_levelsets_rows
from ordelic import audit, cli, properties
from ordelic.cli import EXIT_BOUND, EXIT_OK, EXIT_SEARCH, EXIT_SPEC, _keep_freed_memory, main
from ordelic.scenario import ROW_BLOCK
from ordelic.serialize import (LEVELSETS_BLOCK_ROWS, dumps, read_dataset_csv, read_json,
                               read_predictor, read_surrogate, surrogate_from_json,
                               write_json)

DATA = Path(__file__).parent / "data"
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
# Ids that sort in another order than they are listed, one non-ASCII and
# one with a quote and a backslash.
GOLDEN_FEATURES = [
    {"id": "b", "weight": 0.25, "conditional": [0.7, 0.2, 0.1]},
    {"id": "a", "weight": 0.25, "conditional": [0.1, 0.3, 0.6]},
    {"id": "10", "weight": 0.2, "conditional": [1 / 3, 1 / 3, 1 / 3]},
    {"id": "9", "weight": 0.2, "conditional": [0.0, 0.5, 0.5]},
    {"id": "é\"\\", "weight": 0.1, "conditional": [0.2, 0.2, 0.6]},
]
# sha256 of the data file of simulate on GOLDEN_FEATURES (bayes recipe,
# seed 7) at 200,929 rows, three blocks of 2^16 and a remainder, as written
# when the rows were still drawn and written as whole arrays.
GOLDEN_BLOCKS_DIGEST = "f8f1d3578facfeba78e022c4f53c5f87304610f7296fa2d47bff83fd386cc65a"
# sha256 of each output file of simulate on GOLDEN_FEATURES, as written
# when the predictor file was still made by json.dumps of a dict.
GOLDEN_DIGESTS = {recipe: {
    "data.csv": "17b7be6bd5417360fd030f362eb6850c8575065406c3863fa1344065d194e5d9",
    "meta.json": "f9824216602f68e82f2c57a4d37e4269a72679b9c18c9d279388b2f83c969781",
    "predictor.json": predictor} for recipe, predictor in (
    ("bayes", "da307d6ba2ea6ea07c6664b42e7d0963d9f3efe3cb84b72c702649f7b925fc53"),
    ("perturbed", "d68dffeed3b1fbc93539c51f15769ba24cebe9eecc624a25111121dca619bb15"),
    ("fixed", "3608a795dca4fdd79e6f946610c9f41a0f693241c63d887cb7a2560255453aa8"))}


# construct cases: spec source, then the flags; "cost-n" and "bounds-n" are
# the cost matrix and the boundaries of random_orderable_spec(n, 4, seed=0).
CONSTRUCT_CASES = {
    "readme-cost-normals": ("readme-cost",),
    "readme-cost-embedding": ("readme-cost", "--algo", "embedding", "--phi", "0,1,3"),
    "readme-boundaries-normals": ("readme-boundaries",),
    **{f"{kind}-{n}-{algo}": (f"{kind}-{n}", "--algo", algo)
       for n in range(4, 9)
       for kind, algo in (("bounds", "normals"), ("cost", "normals"), ("cost", "embedding"))},
}
# case -> sha256 of construct's stdout and of its surrogate file
CONSTRUCT_DIGESTS = {
    "bounds-4-normals": (
        "1d3821bf3fd4111b7cc0477a67553fda456065cad207d885d991c1fc538bacb8",
        "26547ff9a07c8ac89a5942d93d9fc76d93b7dc454a9032ecb46a83a2c2120cac"),
    "bounds-5-normals": (
        "2ebe8241cfba1b66436233db6cd9722ee0b0994154ee24ec252a1c28f5d38713",
        "f196e359c70135839bf8116e1bba778a3dec22165101bcadceb0dcf3b20c9778"),
    "bounds-6-normals": (
        "e75fb1cff8c2b25078b30326b31e7034460ccd1b84862911da38c50ef33bf194",
        "5aac4e1016d96d5ee0d1298bf52799343574c55f2a856c6e604c4c9ab3d8a81f"),
    "bounds-7-normals": (
        "e717cb3b6665e4e81fbe954cd498d186affbceec4c43ad02b68e9414e72195f7",
        "f0298f526a5457ef0be5b08401e0a00aeb1319c6c51b4653910ef1c6fd94740f"),
    "bounds-8-normals": (
        "20f5f3ed4ae39f94f01fccfb2c44af7933addc7e806ca9d0acb7071451159ad0",
        "f286408359c50dcba9c413bcac3a3cb93a365a650008e5790a91d0e829a3efa9"),
    "cost-4-embedding": (
        "789f0276522d942bca8a812406ec09dea8749f6fb976bc916c0229ac577cc8cf",
        "686097b2512beee672953121198df95fbf46944cf7a81dcc56ebdd8a5171e53f"),
    "cost-4-normals": (
        "b965c9eabee49f1b61c65968c30bbf3a548f7183543ac69904fd79347871e369",
        "5f35969331d94ec159709c6ed5f3f8b283cff7e054c53586f1a5fbfb4d483a98"),
    "cost-5-embedding": (
        "7363b9322e18d8035e930938a845feeb2e8272f80d5736b89b0e9276db686549",
        "9da34a7da915a331262b99c32e53c724f79c269ac00bb3de2a415ca130b673e5"),
    "cost-5-normals": (
        "bd479b1d185176274a12d485b6ce29a98c1f5499cb51525a6e148eecf2507376",
        "ce0304d879d4ce1f6d2ad60dc54ca26e62accdb3c9edc8e16b2a5cc47e5e8036"),
    "cost-6-embedding": (
        "5a91fc3317693ea1849c4af0797ac7d25b1e9a1fedee1529ee2fa1ca909954c9",
        "84b55043c6d01348d7636d37cd4b167e762737210cdb8f1f26af1a8ceb60c725"),
    "cost-6-normals": (
        "fc6d7371a95bcf73751e9b704d22e4328c16f80e3ee79185ce135324df40ccbf",
        "7b2a4a68a76ed142c978babd12e5a70776ffdfbad42ce5c3b27d6c97314bbc1c"),
    "cost-7-embedding": (
        "df966be801ed77b80fafa665fa79042ab6d97c09a11e0bdfe8c2f922801b02b1",
        "1bad0c6dee208d0a1c92defca38f11e8f16a204b9b26172f1b93287115877aed"),
    "cost-7-normals": (
        "5383f45aac00b310779d3b03be4e8d7d78a5f2f5fbee822026652835ae971600",
        "b30958b4867037ddd21289872497fe377880c2ed70b7590f976790e18e28f908"),
    "cost-8-embedding": (
        "4eb4cc830638261407791bc0392f16a4ef499f9f46f084b007d95bc2fb5a97d5",
        "27f3c76b660be3690bbdefb83da37e58620e4f2a403cdf25834f100c01028e57"),
    "cost-8-normals": (
        "b14364bdfc66434b82b3f8549a45b90ef30561049736f49fff7f56db1cd9f5f9",
        "3d5143ec4dc30dbffe94411abe6a5273c62f791e1e3f1b4caa25bd960573fb44"),
    "readme-boundaries-normals": (
        "d2effc5f2ecd27bfd471208578c1c11a638cb2485080d1b303c0a566141f6638",
        "406633c68977b4490082829180420c2165f248c7be397dab496e752bbdf60d02"),
    "readme-cost-embedding": (
        "ccec3689a38a8e64d9b72495bbfd7872163931454e2499fd8fa45f4dc92467dc",
        "00432382594b3c2c3633ce5ab8f9b43aa27284186a160761ce91a59441d75416"),
    "readme-cost-normals": (
        "d2effc5f2ecd27bfd471208578c1c11a638cb2485080d1b303c0a566141f6638",
        "099ed71c08019c71b57e64f1a44414577746f7bdd8519b474c4b627014ed9ddb"),
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

    def test_n8_rerun_is_byte_identical(self, tmp_path, capsys):
        bds = random_orderable_spec(8, 4, seed=1)[0]
        path, out = tmp_path / "bspec8.json", tmp_path / "sur8.json"
        write_json(path, {"n": 8, "reports": [1, 2, 3, 4],
                          "boundaries": [{"c": b.coeffs.tolist(), "b": b.offset}
                                         for b in bds]})
        runs = []
        for _ in range(2):
            assert main(["construct", "--spec", str(path), "--algo", "normals",
                         "--seed", "1", "--out", str(out)]) == EXIT_OK
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[0] == runs[1]
        assert len(json.loads(runs[0][0])["boundary_gaps"]) == 2

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
        # the default phi = 0,1,2 bends outcome 3's costs 5, 3, 0 downwards;
        # the spacing ratio must be in [1.5, 2], and the suggestion is 1.75
        rc = main(["construct", "--spec", spec_file, "--algo", "embedding",
                   "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_SPEC
        err = capsys.readouterr().err
        assert "outcome 3" in err and "reports 1, 2, 3 cost 5, 3, 0 at phi 0, 1, 2" in err
        assert "(phi3 - phi2)/(phi2 - phi1) is 1 but this triple needs it >= 1.5" in err
        assert err.endswith("; phi 0.0,1.0,2.75 makes the costs of every outcome convex\n")
        for phi in ("0,1,2.5", "0.0,1.0,2.75"):
            assert main(["construct", "--spec", spec_file, "--algo", "embedding",
                         "--phi", phi, "--out", str(tmp_path / "x.json")]) == EXIT_OK

    @pytest.mark.parametrize("command", ["construct", "levelsets"])
    @pytest.mark.parametrize("args,message", [
        (["--outer-slope", "nan"], "outer slope must be finite and positive, got nan"),
        (["--outer-slope", "inf"], "outer slope must be finite and positive, got inf"),
        (["--phi", "0,nan,3"], "embedding points phi must be finite, got [0.0, nan, 3.0]"),
        (["--phi", "0,1,inf"], "embedding points phi must be finite, got [0.0, 1.0, inf]"),
        (["--phi", "0,a,3"], "--phi must be 3 comma-separated numbers, got '0,a,3'"),
    ])
    def test_embedding_inputs_must_be_finite(self, spec_file, tmp_path, capsys, command,
                                             args, message):
        """A NaN or infinite embedding point or outer slope, or a --phi entry
        that is not a number, exits 2 naming the field, with no warning and
        no output file."""
        out = tmp_path / "x.out"
        rc = main([command, "--spec", spec_file, "--algo", "embedding", *args,
                   "--out", str(out)])
        assert rc == EXIT_SPEC
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["construct", "levelsets"])
    @pytest.mark.parametrize("doc,args,message", [
        # the README cost with rows 2 and 3 swapped
        ({**COST_SPEC, "cost_matrix": [[0, 3, 5], [3, 1, 0], [1, 0, 3]]}, [],
         "costs of outcome 1 are not convex in phi: reports 1, 2, 3 cost 0, 3, 1"),
        (COST_SPEC, ["--outer-slope", "1"], "outer slope 1.0 does not dominate chord slopes"),
        (COST_SPEC, ["--phi", "0,1"],
         "phi has 2 embedding points, but the cost matrix has 3 reports\n"),
        (BOUNDARY_SPEC, [], "the embedding construction needs a cost_matrix, not boundaries\n"),
    ])
    def test_embedding_refusals_name_the_spec(self, tmp_path, capsys, command, doc, args,
                                              message):
        """An embedding refused for what the spec holds exits 2 naming the
        spec, as a normals refusal does."""
        spec, out = tmp_path / "spec.json", tmp_path / "x.out"
        write_json(spec, doc)
        rc = main([command, "--spec", str(spec), "--algo", "embedding", *args,
                   "--out", str(out)])
        assert rc == EXIT_SPEC
        assert capsys.readouterr().err.startswith(f"error: {spec}: {message}")
        assert not out.exists()

    def test_byte_identical_reruns(self, boundary_spec_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["construct", "--spec", boundary_spec_file,
                         "--seed", "7", "--out", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command, out", [("construct", "sur.json"),
                                              ("levelsets", "grid.csv")])
    @pytest.mark.parametrize("spec", [COST_SPEC, BOUNDARY_SPEC], ids=["cost", "boundaries"])
    def test_normals_use_no_seed(self, command, out, spec, tmp_path, monkeypatch):
        """The normals construction draws nothing: its --out file is the
        same with no seed, with --seed 1 and with --seed 7."""
        monkeypatch.delenv("ORDELIC_SEED", raising=False)
        spec_path = str(tmp_path / "spec.json")
        write_json(spec_path, spec)
        files = []
        for i, seed in enumerate(([], ["--seed", "1"], ["--seed", "7"])):
            path = tmp_path / f"{i}.{out}"
            assert main([command, "--spec", spec_path, "--algo", "normals", *seed,
                         "--out", str(path)]) == EXIT_OK
            files.append(path.read_bytes())
        assert files[0] == files[1] == files[2]

    @pytest.mark.parametrize("command, out", [("construct", "sur.json"),
                                              ("levelsets", "grid.csv")])
    @pytest.mark.parametrize("flag", [["--phi", "0,1,3"], ["--outer-slope", "4"]])
    def test_embedding_flags_refused_with_normals(self, spec_file, command, out, flag,
                                                  tmp_path, capsys):
        """--phi and --outer-slope shape only the embedding: with --algo
        normals they exit 2 naming the flag and write nothing."""
        path = tmp_path / out
        assert main([command, "--spec", spec_file, "--algo", "normals", *flag,
                     "--out", str(path)]) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: {flag[0]} applies only to --algo embedding\n"
        assert not path.exists()

    @pytest.mark.parametrize("command", ["construct", "simulate", "counterexample"])
    @pytest.mark.parametrize("seed, env, cause", [
        (["--seed", "-5"], None, "--seed must be a non-negative integer, got -5"),
        ([], "abc", "ORDELIC_SEED must be a non-negative integer, got 'abc'"),
        ([], "-3", "ORDELIC_SEED must be a non-negative integer, got '-3'"),
        ([], "1.5", "ORDELIC_SEED must be a non-negative integer, got '1.5'"),
    ], ids=["flag-negative", "env-word", "env-negative", "env-fraction"])
    def test_bad_seed_refused_before_any_write(self, spec_file, scenario_file, command,
                                               seed, env, cause, tmp_path, capsys,
                                               monkeypatch):
        """A seed, from --seed or else ORDELIC_SEED, that is not a
        non-negative integer exits 2 naming its source, and nothing is
        written: construct once wrote its file first, and simulate passed a
        negative one on to numpy."""
        sur = str(tmp_path / "sur.json")
        assert main(["construct", "--spec", spec_file, "--out", sur]) == EXIT_OK
        if env is not None:
            monkeypatch.setenv("ORDELIC_SEED", env)
        out = tmp_path / "out"
        out.mkdir()
        source = {"construct": ["--spec", spec_file], "simulate": ["--spec", scenario_file],
                  "counterexample": ["--surrogate", sur, "--c", "5"]}[command]
        capsys.readouterr()
        assert main([command, *source, *seed, "--out", str(out / "x")]) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: {cause}\n"
        assert not list(out.iterdir())

    @pytest.mark.parametrize("case", sorted(CONSTRUCT_DIGESTS))
    def test_golden_digests(self, case, tmp_path, capsys, monkeypatch):
        """construct prints and writes the bytes it did when the normals were
        still oriented by a helper outside OrientedNormals; the paths are
        relative, so the report's config does not depend on tmp_path."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("ORDELIC_SEED", raising=False)
        source, *args = CONSTRUCT_CASES[case]
        if source == "readme-cost":
            write_json("spec.json", COST_SPEC)
        elif source == "readme-boundaries":
            write_json("spec.json", BOUNDARY_SPEC)
        else:
            kind, n = source.split("-")
            bds, cost, _ = random_orderable_spec(int(n), 4, seed=0)
            spec = {"n": int(n), "reports": [1, 2, 3, 4]}
            if kind == "cost":
                spec["cost_matrix"] = cost.entries.tolist()
            else:
                spec["boundaries"] = [{"c": b.coeffs.tolist(), "b": b.offset} for b in bds]
            write_json("spec.json", spec)
        capsys.readouterr()
        assert main(["construct", "--spec", "spec.json", *args, "--out", "sur.json"]) == EXIT_OK
        got = (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
               hashlib.sha256(Path("sur.json").read_bytes()).hexdigest())
        assert got == CONSTRUCT_DIGESTS[case]

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

    @pytest.mark.parametrize("res", [1, 2, 7, 200])
    @pytest.mark.parametrize("spec, algo_args", [
        (COST_SPEC, ["--algo", "embedding", "--phi", "0,1,3"]),
        (BOUNDARY_SPEC, ["--algo", "normals", "--seed", "3"]),
    ], ids=["embedding", "normals"])
    def test_bytes_equal_row_writer(self, spec, algo_args, res, tmp_path):
        if res == 200:  # the last block is partial and follows two full ones
            assert 2 * LEVELSETS_BLOCK_ROWS < 201 * 202 // 2 < 3 * LEVELSETS_BLOCK_ROWS
        spec_path, sur, out = (str(tmp_path / f) for f in ("s.json", "sur.json", "g.csv"))
        write_json(spec_path, spec)
        assert main(["construct", "--spec", spec_path, *algo_args,
                     "--out", sur]) == EXIT_OK
        assert main(["levelsets", "--spec", spec_path, *algo_args,
                     "--resolution", str(res), "--out", out]) == EXIT_OK
        write_levelsets_rows(tmp_path / "want.csv",
                             surrogate_from_json(read_json(sur)), res)
        assert (tmp_path / "want.csv").read_bytes() == (tmp_path / "g.csv").read_bytes()

    # sha256 of the resolution-300 levelsets CSV, whose grid is validated
    # once and both value columns taken at the points written.  When the
    # values were taken at the grid validated a second time, and on the left
    # tail in the band of the first node, 368 to 832 of the 45,451 rows
    # differed in gamma_surrogate, by up to 5.6e-16.  The README boundaries
    # and cost give the same normals, so the same file; with their normals
    # found again by SVD of sampled boundary points, 29,537 and 17,189 rows
    # differed from it, by up to 6.7e-16 and 1.9e-15.
    @pytest.mark.parametrize("spec, algo_args, digest", [
        (COST_SPEC, ["--algo", "embedding", "--phi", "0,1,3"],
         "b3af8aeda9362eb4c31d4cb3bfa80b1986d21b4a1d57670882cba02c7e7ac61c"),
        (BOUNDARY_SPEC, ["--algo", "normals"],
         "e5d426be3857d534aeb232afda13fde390ea618ae0cd3ecec3ab0ffee55bbf51"),
        (COST_SPEC, ["--algo", "normals"],
         "e5d426be3857d534aeb232afda13fde390ea618ae0cd3ecec3ab0ffee55bbf51"),
    ], ids=["embedding", "normals", "normals-cost"])
    def test_resolution_300_digest(self, spec, algo_args, digest, tmp_path):
        spec_path, out = str(tmp_path / "s.json"), tmp_path / "g.csv"
        write_json(spec_path, spec)
        assert main(["levelsets", "--spec", spec_path, *algo_args,
                     "--resolution", "300", "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("spec, message", [
        (COST_SPEC, "--resolution must be at least 1, got 0"),
        ({"n": 4, "reports": [1, 2], "cost_matrix": [[0, 0, 1, 1], [1, 1, 0, 0]]},
         "only defined for 3 outcomes"),
    ])
    def test_inputs_checked_before_the_surrogate(self, spec, message, tmp_path,
                                                 capsys, monkeypatch):
        monkeypatch.delenv("ORDELIC_SEED", raising=False)
        spec_path = str(tmp_path / "s.json")
        write_json(spec_path, spec)
        rc = main(["levelsets", "--spec", spec_path, "--resolution", "0",
                   "--out", str(tmp_path / "g.csv")])
        assert rc == EXIT_SPEC
        err = capsys.readouterr().err
        assert message in err and "seed" not in err
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("algo_args, construct_calls", [
        (["--algo", "normals"], ["boundary_gap", "lipschitz_constant"]),
        (["--algo", "embedding", "--phi", "0,1,3"], ["lipschitz_constant"])])
    def test_no_constant_and_no_gap(self, spec_file, algo_args, construct_calls,
                                    tmp_path, monkeypatch):
        """levelsets builds the surrogate and evaluates it: it computes no
        Lipschitz constant and no boundary gap, which only construct's
        report holds."""
        calls = []
        for module, name in ((properties, "lipschitz_constant"), (cli, "boundary_gap")):
            def counted(*args, name=name, original=getattr(module, name)):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(module, name, counted)
        assert main(["levelsets", "--spec", spec_file, *algo_args, "--resolution", "10",
                     "--out", str(tmp_path / "g.csv")]) == EXIT_OK
        assert calls == []
        assert main(["construct", "--spec", spec_file, *algo_args,
                     "--out", str(tmp_path / "sur.json")]) == EXIT_OK
        assert sorted(calls) == construct_calls

    def test_grid_beyond_memory(self, spec_file, tmp_path, capsys, monkeypatch):
        """A resolution whose grid does not fit in memory exits 2 naming
        --resolution and the grid's rows, not with numpy's MemoryError; the
        grid is made to raise here, so nothing large is allocated."""
        def no_memory(resolution):
            raise MemoryError(f"no memory for the grid at resolution {resolution}")

        monkeypatch.setattr("ordelic.cli.triangle_grid", no_memory)
        out = tmp_path / "g.csv"
        assert main(["levelsets", "--spec", spec_file, "--resolution", "3000000000",
                     "--out", str(out)]) == EXIT_SPEC
        assert capsys.readouterr().err == (
            "error: --resolution 3000000000 asks for a grid of (r + 1)(r + 2) / 2 = "
            "4,500,000,004,500,000,001 rows, more than memory holds\n")
        assert not out.exists()

    def test_the_cost_scale_changes_no_row(self, tmp_path):
        """levelsets of the README embedding at phi 0,1,3 from the cost times
        1e-8, with the outer slope scaled alike, has the discrete column of
        the cost itself and its surrogate column within 1e-12.  With the tie
        band absolute in node score, 12 of the 1,326 rows differed, by up to
        0.067."""
        tables = []
        for scale in (1.0, 1e-8):
            spec, out = tmp_path / f"spec{scale}.json", tmp_path / f"lv{scale}.csv"
            cost = np.array(COST_SPEC["cost_matrix"]) * scale
            write_json(spec, {**COST_SPEC, "cost_matrix": cost.tolist()})
            assert main(["levelsets", "--spec", str(spec), "--algo", "embedding", "--phi",
                         "0,1,3", "--outer-slope", repr(4.0 * scale), "--resolution", "50",
                         "--out", str(out)]) == EXIT_OK
            tables.append(np.loadtxt(out, delimiter=",", skiprows=1))
        a, b = tables
        assert a.shape == (1326, 5)
        assert np.array_equal(a[:, :4], b[:, :4])
        assert np.abs(a[:, 4] - b[:, 4]).max() <= 1e-12


class TestScales:
    """The README cost builds at every decade of phi scale 1e-12 .. 1e14
    and of cost scale 1e-14 .. 1e25 with the default outer slope: construct
    and levelsets exit 0 with no warning, K is that of the unscaled input
    (times the phi scale) to 1e-9 relative, and levelsets has its discrete
    column and its surrogate column (over the phi scale) within 1e-12 of
    the value range."""

    @staticmethod
    def _build(path, cost_scale, args, capsys):
        """(K, levelsets table) of the README cost times ``cost_scale``."""
        path.mkdir()
        spec, sur, grid = (str(path / f) for f in ("spec.json", "sur.json", "lv.csv"))
        cost = np.array(COST_SPEC["cost_matrix"]) * cost_scale
        write_json(spec, {**COST_SPEC, "cost_matrix": cost.tolist()})
        assert main(["construct", "--spec", spec, *args, "--out", sur]) == EXIT_OK
        assert main(["levelsets", "--spec", spec, *args, "--resolution", "20",
                     "--out", grid]) == EXIT_OK
        assert capsys.readouterr().err == ""
        return read_json(sur)["lipschitz_bound"], np.loadtxt(grid, delimiter=",", skiprows=1)

    @staticmethod
    def _same(base, scaled, scale):
        (K, table), (K_s, table_s) = base, scaled
        assert K_s / scale == pytest.approx(K, rel=1e-9)
        assert np.array_equal(table[:, :4], table_s[:, :4])
        assert np.abs(table_s[:, 4] / scale - table[:, 4]).max() <= 1e-12 * 3.0

    @pytest.mark.parametrize("k", range(-12, 15))
    def test_phi_scale(self, k, tmp_path, capsys):
        """At phi times 1e8 and 1e9 construct once exited 2 (its writer
        checked the pieces' continuity against 1 + |value| while the tails
        reach |phi|), at 1e10 and 1e11 K read inf, and at 1e13 and 1e14 the
        kernel's denominator guard left main with a traceback."""
        phi = [",".join(repr(x * 10.0**e) for x in (0.0, 1.0, 3.0)) for e in (0, k)]
        self._same(*(self._build(tmp_path / str(i), 1.0, ["--algo", "embedding", "--phi", p],
                                 capsys) for i, p in enumerate(phi)), 10.0**k)

    @pytest.mark.parametrize("algo", ["embedding", "normals"])
    @pytest.mark.parametrize("k", range(-14, 26))
    def test_cost_scale(self, algo, k, tmp_path, capsys):
        """The normals at cost times 1e-13 and 1e-14 were once refused as
        proportional to the all-ones vector."""
        args = ["--algo", algo, *(["--phi", "0,1,3"] if algo == "embedding" else []),
                "--seed", "1"]
        self._same(*(self._build(tmp_path / str(i), 10.0**e, args, capsys)
                     for i, e in enumerate((0, k))), 1.0)


class TestSimulate:
    def test_missing_seed_is_spec_error(self, scenario_file, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.delenv("ORDELIC_SEED", raising=False)
        rc = main(["simulate", "--spec", scenario_file, "--out", str(tmp_path / "sim")])
        assert rc == EXIT_SPEC
        assert capsys.readouterr().err == \
            "error: a seed is required: pass --seed or set ORDELIC_SEED\n"
        assert not list(tmp_path.glob("sim*"))

    def test_env_seed_fallback(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv("ORDELIC_SEED", "9")
        files = []
        for name, seed in (("env", []), ("arg", ["--seed", "9"])):
            prefix = str(tmp_path / name)
            assert main(["simulate", "--spec", scenario_file, "--samples", "50", *seed,
                         "--out", prefix]) == EXIT_OK
            files.append(Path(prefix + ".data.csv").read_bytes())
        assert files[0] == files[1]

    def test_no_samples_refused(self, scenario_file, tmp_path, capsys):
        prefix = tmp_path / "sim"
        assert main(["simulate", "--spec", scenario_file, "--samples", "0",
                     "--seed", "4", "--out", str(prefix)]) == EXIT_SPEC
        assert capsys.readouterr().err == "error: --samples must be at least 1, got 0\n"
        assert not list(tmp_path.glob("sim*"))

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

    @pytest.mark.parametrize("recipe", sorted(GOLDEN_DIGESTS))
    def test_golden_digests(self, recipe, tmp_path, monkeypatch):
        """Every output file of a fixed simulate call keeps the bytes the
        dict-based JSON writer gave it; relative paths keep meta.json
        independent of where the test runs."""
        predictor = {"recipe": recipe}
        if recipe == "perturbed":
            predictor["eta"] = 0.3
        if recipe == "fixed":
            predictor["table"] = {f["id"]: f["conditional"][::-1]
                                  for f in GOLDEN_FEATURES}
        monkeypatch.chdir(tmp_path)
        write_json("sc.json", {"features": GOLDEN_FEATURES, "predictor": predictor})
        assert main(["simulate", "--spec", "sc.json", "--samples", "300",
                     "--seed", "7", "--out", "sim"]) == EXIT_OK
        got = {suffix: hashlib.sha256((tmp_path / f"sim.{suffix}").read_bytes()).hexdigest()
               for suffix in GOLDEN_DIGESTS[recipe]}
        assert got == GOLDEN_DIGESTS[recipe]


    def test_golden_digest_over_blocks(self, tmp_path, monkeypatch):
        """A data file of several row blocks plus a remainder keeps the bytes
        of one whole-array draw."""
        rows = 3 * (1 << 16) + 4321
        assert rows // ROW_BLOCK == 3 and rows % ROW_BLOCK
        monkeypatch.chdir(tmp_path)
        write_json("sc.json", {"features": GOLDEN_FEATURES, "predictor": {"recipe": "bayes"}})
        assert main(["simulate", "--spec", "sc.json", "--samples", str(rows),
                     "--seed", "7", "--out", "sim"]) == EXIT_OK
        data = (tmp_path / "sim.data.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN_BLOCKS_DIGEST

    def test_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        """The peak traced allocation of simulate is set by the row block and
        the guide table, not by the row count: 8x the rows (both several
        blocks, both above the guide's bucket count) adds at most 64 KiB."""
        monkeypatch.setattr("ordelic.scenario.ROW_BLOCK", 1024)
        monkeypatch.setattr("ordelic.scenario.GUIDE_BUCKETS", 1024)
        monkeypatch.chdir(tmp_path)
        write_json("sc.json", {"features": GOLDEN_FEATURES, "predictor": {"recipe": "bayes"}})
        peaks = []
        for rows in (100, 5 * 1024 + 7, 8 * (5 * 1024 + 7)):  # the first warms up
            tracemalloc.start()
            try:
                assert main(["simulate", "--spec", "sc.json", "--samples", str(rows),
                             "--seed", "3", "--out", "sim"]) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] <= peaks[1] + 64 * 1024, peaks


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
            assert set(r) >= {"notion", "norm", "epsilon_hat", "bins", "data", "bounds"}
            assert set(r["bins"]) == {"count", "min_size", "empty"}
        pp = payload["reports"][1]
        ok = all(b["satisfied"] for b in pp["bounds"])
        assert rc == (EXIT_OK if ok else EXIT_BOUND)
        with open(out, encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()  # the report, byte for byte

    def test_reports_carry_data_size(self, surrogate_file, scenario_file, tmp_path):
        """Each report gives the data's total weight (its row count for a
        CSV) and its number of features of positive weight."""
        data = tmp_path / "data.csv"
        data.write_text("x_id,y\na,1\nb,2\na,3\nc,1\na,1\n")
        pred = tmp_path / "pred.json"
        write_json(pred, {"kind": "distribution", "table": {
            x: [0.2, 0.3, 0.5] for x in ("a", "b", "c")}})
        out = str(tmp_path / "audit.json")
        main(["audit", "--surrogate", surrogate_file, "--data", str(data),
              "--predictor", str(pred), "--out", out])
        reports = read_json(out)["reports"]
        assert [r["data"] for r in reports] == [{"weight": 5.0, "features": 3}] * 2

        sc = {"features": [*SCENARIO["features"],
                           {"id": "z", "weight": 0.0, "conditional": [0.2, 0.3, 0.5]}],
              "predictor": {"recipe": "bayes"}}
        write_json(tmp_path / "sc.json", sc)
        write_json(pred, {"kind": "scalar", "table": {"a": 0.5, "b": 1.5, "z": 2.0}})
        main(["audit", "--surrogate", surrogate_file, "--scenario", str(tmp_path / "sc.json"),
              "--predictor", str(pred), "--c-marginal", "0", "--out", out])
        reports = read_json(out)["reports"]
        assert [r["notion"] for r in reports] == ["surrogate", "discretization"]
        for r in reports:
            assert r["data"]["weight"] == pytest.approx(1.0, rel=1e-15)
            assert r["data"]["features"] == 2

    def test_library_reports_are_the_printed_ones(self, surrogate_file, scenario_file,
                                                  tmp_path, capsys):
        """For a distribution, a scalar and a report predictor on one
        simulated dataset, the reports the library's estimators and checks
        return are, as JSON, the reports ``audit`` prints."""
        prefix = str(tmp_path / "sim")
        assert main(["simulate", "--spec", scenario_file, "--samples", "2000",
                     "--seed", "6", "--out", prefix]) == EXIT_OK
        csv_path = prefix + ".data.csv"
        scalar, report = tmp_path / "g.json", tmp_path / "h.json"
        write_json(scalar, {"kind": "scalar", "table": {"a": 0.25, "b": 1.5}})
        write_json(report, {"kind": "report", "table": {"a": 1, "b": 3}})
        s = read_surrogate(surrogate_file)
        data = read_dataset_csv(csv_path, s.n_outcomes)

        def predictor_bins(path, key=None):
            return audit.bin_predictions(read_predictor(path, s.n_outcomes), data, key)

        f_bins = predictor_bins(prefix + ".predictor.json", s.gamma_many)
        g_bins = predictor_bins(scalar)
        g_width = predictor_bins(scalar, lambda u: np.floor(u / 0.5).astype(np.int64))
        cases = [
            (prefix + ".predictor.json", ["--norm", "l1"],
             [audit.dist_calibration_wrt(f_bins, "l1"),
              audit.check_postprocessing_bound(f_bins, s, "l1")]),
            (scalar, ["--norm", "linf", "--bin-width", "0.5"],
             [audit.surrogate_calibration(g_width, s.gamma_many, "linf", bin_width=0.5),
              audit.check_discretization_bound(
                  g_bins, s, audit.estimate_marginal_lipschitz(g_bins, "linf"),
                  c_estimated=True, norm="linf")]),
            (report, [], [audit.discrete_calibration(predictor_bins(report),
                                                     s.discrete_set_many)]),
        ]
        for predictor, flags, reports in cases:
            main(["audit", "--surrogate", surrogate_file, "--data", csv_path,
                  "--predictor", str(predictor), *flags,
                  "--out", str(tmp_path / "audit.json")])
            printed = capsys.readouterr().out
            assert dumps({**json.loads(printed), "reports": reports}) == printed

    @pytest.mark.parametrize("kind,norm,computed", [
        ("report", "l2", []), ("report", "l1", []),
        ("distribution", "l1", ["l1"]), ("scalar", "linf", ["linf"])])
    def test_k_only_in_the_norm_audited(self, surrogate_file, scenario_file, tmp_path,
                                        monkeypatch, kind, norm, computed):
        """An audit computes the exact Lipschitz constant once, in its own
        norm only; a report audit, whose check has no K, computes none."""
        norms, original = [], properties.lipschitz_constant
        monkeypatch.setattr(properties, "lipschitz_constant",
                            lambda *args: norms.append(args[2]) or original(*args))
        value = {"report": 2, "distribution": [0.2, 0.3, 0.5], "scalar": 0.5}[kind]
        pred = tmp_path / "pred.json"
        write_json(pred, {"kind": kind, "table": {"a": value, "b": value}})
        rc = main(["audit", "--surrogate", surrogate_file, "--scenario", scenario_file,
                   "--predictor", str(pred), "--norm", norm,
                   "--out", str(tmp_path / "audit.json")])
        assert rc in (EXIT_OK, EXIT_BOUND)
        assert norms == computed

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

    @pytest.mark.parametrize("args,message", [
        (["--bin-width", "0"], "--bin-width must be finite and positive, got 0.0"),
        (["--bin-width", "-0.1"], "--bin-width must be finite and positive, got -0.1"),
        (["--bin-width", "nan"], "--bin-width must be finite and positive, got nan"),
        (["--bin-width", "inf"], "--bin-width must be finite and positive, got inf"),
        (["--c-marginal", "nan"], "--c-marginal must be at least 0, got nan"),
        (["--c-marginal", "-1"], "--c-marginal must be at least 0, got -1.0"),
    ])
    def test_audit_numbers_checked(self, surrogate_file, tmp_path, capsys, args, message):
        """A bin width that is not finite and positive, or a C_marginal that
        is NaN or negative, exits 2 naming the flag; C_marginal = inf only
        makes the discretization bound vacuous."""
        sc_path, pred_path = tmp_path / "sc.json", tmp_path / "g.json"
        write_json(sc_path, SCENARIO)
        write_json(pred_path, {"kind": "scalar", "table": {"a": 0.5, "b": 1.5}})
        out = tmp_path / "audit.json"
        argv = ["audit", "--surrogate", surrogate_file, "--scenario", str(sc_path),
                "--predictor", str(pred_path), "--out", str(out)]
        assert main([*argv, *args]) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert main([*argv, "--c-marginal", "inf"]) == EXIT_OK
        bound = read_json(out)["reports"][1]["bounds"][0]
        assert bound["params"]["vacuous"] and bound["satisfied"]

    @pytest.mark.parametrize("kind, flags, refused, reader", [
        ("distribution", ["--bin-width", "0.1"], "--bin-width", "scalar"),
        ("distribution", ["--c-marginal", "3"], "--c-marginal", "scalar"),
        ("distribution", ["--bin-width", "0.1", "--c-marginal", "3"], "--bin-width",
         "scalar"),
        ("report", ["--bin-width", "0.1"], "--bin-width", "scalar"),
        ("report", ["--c-marginal", "3"], "--c-marginal", "scalar"),
        ("report", ["--convention", "plot"], "--convention plot", "distribution"),
        ("scalar", ["--convention", "plot"], "--convention plot", "distribution"),
        ("scalar", ["--bin-width", "0.1", "--convention", "plot"], "--convention plot",
         "distribution"),
    ])
    def test_flags_the_predictor_kind_does_not_read(self, surrogate_file, scenario_file,
                                                    tmp_path, capsys, kind, flags,
                                                    refused, reader):
        """--bin-width and --c-marginal apply to a scalar predictor only, and
        --convention plot to a distribution only; any other use exits 2
        naming the flag, the predictor file and its kind, and writes
        nothing.  Without the flags the same audit runs."""
        value = {"distribution": [0.2, 0.3, 0.5], "scalar": 0.5, "report": 2}[kind]
        pred, out = tmp_path / "pred.json", tmp_path / "audit.json"
        write_json(pred, {"kind": kind, "table": {"a": value, "b": value}})
        argv = ["audit", "--surrogate", surrogate_file, "--scenario", scenario_file,
                "--predictor", str(pred), "--out", str(out)]
        assert main([*argv, *flags]) == EXIT_SPEC
        assert capsys.readouterr().err == (
            f"error: {refused} applies only to a {reader} predictor, but {pred} holds "
            f"a {kind} predictor\n")
        assert not out.exists()
        assert main(argv) in (EXIT_OK, EXIT_BOUND)

    def test_bin_width_beyond_int64_bins(self, surrogate_file, tmp_path, capsys):
        """A bin width that puts a scalar prediction u in a bin floor(u / w)
        beyond int64 exits 2 naming the flag and the largest |u| / w; the
        next wider width than the narrowest refused one bins them."""
        sc_path, pred_path = tmp_path / "sc.json", tmp_path / "g.json"
        write_json(sc_path, SCENARIO)
        write_json(pred_path, {"kind": "scalar", "table": {"a": 0.5, "b": -1.5}})
        out = tmp_path / "audit.json"
        argv = ["audit", "--surrogate", surrogate_file, "--scenario", str(sc_path),
                "--predictor", str(pred_path), "--out", str(out), "--c-marginal", "0"]
        edge = 1.5 / 2.0**63
        for width, ratio in [(1e-300, "1.5e+300"), (5e-324, "inf"), (edge, "9.22337e+18")]:
            assert main([*argv, "--bin-width", repr(width)]) == EXIT_SPEC
            assert capsys.readouterr().err == (
                f"error: --bin-width {width!r} puts the predictions of {pred_path} in bins "
                f"beyond the int64 range: the largest |u| / w is {ratio}\n")
            assert not out.exists()
        wider = repr(float(np.nextafter(edge, 1.0)))
        assert main([*argv, "--bin-width", wider]) in (EXIT_OK, EXIT_BOUND)
        assert out.exists()

    def test_calibrated_scalar_next_to_a_threshold(self, tmp_path):
        """A scalar predictor that is the property value of its feature's
        conditional, 1.4e-10 above a threshold of the embedding, passes the
        discretization check with no mismatch: the link of that value is in
        the target set there."""
        _, cost, _ = random_orderable_spec(3, 4, seed=17)
        spec, sur = tmp_path / "spec.json", str(tmp_path / "sur.json")
        write_json(spec, {"n": 3, "reports": [1, 2, 3, 4],
                          "cost_matrix": cost.entries.tolist()})
        assert main(["construct", "--spec", str(spec), "--algo", "embedding",
                     "--out", sur]) == EXIT_OK
        s = read_surrogate(sur)
        u = float(s.gamma_many([EMBEDDING_TIE])[0])
        assert 0.0 < u - 2.5 < 1.5e-10
        assert s.discrete_set_many([EMBEDDING_TIE]).tolist() == [[False, False, False, True]]
        sc, pred, out = tmp_path / "sc.json", tmp_path / "g.json", tmp_path / "audit.json"
        write_json(sc, {"features": [{"id": "x", "weight": 1.0,
                                      "conditional": list(EMBEDDING_TIE)}],
                        "predictor": {"recipe": "bayes"}})
        write_json(pred, {"kind": "scalar", "table": {"x": u}})
        rc = main(["audit", "--surrogate", sur, "--scenario", str(sc), "--predictor",
                   str(pred), "--c-marginal", "0", "--out", str(out)])
        assert read_json(out)["reports"][1]["bounds"][0]["lhs"] == 0.0
        assert rc == EXIT_OK

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

    def test_undecodable_data_names_the_line(self, surrogate_file, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_bytes(b"x_id,y\nab\xff,1\n")
        pred_path = tmp_path / "pred.json"
        write_json(pred_path, {"kind": "report", "table": {"a": 1}})
        rc = main(["audit", "--surrogate", surrogate_file, "--data", str(data),
                   "--predictor", str(pred_path), "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_SPEC
        assert capsys.readouterr().err == (f"error: {data}, line 2: byte 0xff in position 2 "
                                           "is not UTF-8 (invalid start byte)\n")

    @pytest.mark.parametrize("kind,bad,cause", [
        ("scalar", float("nan"), "not finite"),
        ("scalar", float("inf"), "not finite"),
        ("distribution", [0.5, 0.5], "shape (2,) for 3 outcomes"),
        ("distribution", [0.6, 0.6, -0.2], "not on the simplex"),
        ("distribution", [float("nan"), 0.5, 0.5], "not all finite"),
        ("distribution", {"p": 1.0}, "distribution of shape () for 3 outcomes"),
        ("distribution", "abc", "distribution of shape () for 3 outcomes"),
        ("report", 2.7, "report prediction 2.7 is not an integer"),
        ("report", True, "report prediction True is not an integer"),
        ("report", float("nan"), "report prediction nan is not an integer"),
        ("report", "2", "report prediction '2' is not an integer"),
        ("scalar", [0.5], "scalar prediction [0.5] is not a number"),
        ("report", 10**29, "report prediction 100000000000000000000000000000 is not "
                           "an integer in the int64 range"),
        ("scalar", "0.5", "scalar prediction '0.5' is not a number"),
        ("scalar", True, "scalar prediction True is not a number"),
        ("distribution", ["0.5", 0.25, 0.25], "distribution ['0.5', 0.25, 0.25] is not 3 "
                                              "numbers"),
        ("distribution", [True, False, False], "distribution [True, False, False] is not "
                                               "3 numbers"),
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

    @pytest.mark.parametrize("table,line", [
        ({"0": [0.5, 0.5], "1": [0.2, 0.3, 0.5]},
         "x_id '0' in {}: distribution of shape (2,) for 3 outcomes"),
        ({"0": [0.25] * 4, "1": [0.1, 0.2, 0.3, 0.4]},
         "x_id '0' in {}: distribution of shape (4,) for 3 outcomes"),
        ({"0": [0.2, 0.3, 0.5], "1": [float("nan"), 0.5, 0.5]},
         "x_id '1' in {}: distribution is not on the simplex: "
         "entries are not all finite: [nan 0.5 0.5]"),
    ])
    def test_distribution_error_lines(self, surrogate_file, tmp_path, capsys,
                                      table, line):
        data = tmp_path / "data.csv"
        data.write_text("x_id,y\n0,1\n1,2\n")
        pred_path = tmp_path / "pred.json"
        write_json(pred_path, {"kind": "distribution", "table": table})
        capsys.readouterr()
        rc = main(["audit", "--surrogate", surrogate_file, "--data", str(data),
                   "--predictor", str(pred_path), "--out", str(tmp_path / "x.json")])
        assert rc == EXIT_SPEC
        assert capsys.readouterr().err == "error: " + line.format(pred_path) + "\n"

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

    @pytest.fixture()
    def readme_normals(self, spec_file, tmp_path):
        """The README's normals surrogate: K is 18.708 in l2, 12.5 in l1 and
        25.0 in linf."""
        out = str(tmp_path / "readme.json")
        assert main(["construct", "--spec", spec_file, "--algo", "normals",
                     "--seed", "1", "--out", out]) == EXIT_OK
        return out

    def test_violation_found(self, surrogate_file, tmp_path, capsys):
        prefix = str(tmp_path / "ce")
        rc = main(["counterexample", "--surrogate", surrogate_file,
                   "--c", "5", "--seed", "2", "--out", prefix])
        assert rc == EXIT_OK
        with open(prefix + ".report.json", encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()  # the report, byte for byte
        report = read_json(prefix + ".report.json")
        assert report["instance"]["ratio"] > 5.0
        assert report["instance"]["norm"] == "l2"
        assert report["instance"]["K"] == pytest.approx(18.708286933869697, rel=1e-9)
        assert "budget" not in report["config"]
        assert report["audits"]["gap_exceeds_C_times_epsilon"]
        scen = read_json(prefix + ".scenario.json")
        assert scen["predictor"]["recipe"] == "fixed"
        pred = read_json(prefix + ".predictor.json")
        assert pred["kind"] == "distribution"

    def test_no_seed_needed_and_byte_identical(self, surrogate_file, tmp_path,
                                               monkeypatch):
        monkeypatch.delenv("ORDELIC_SEED", raising=False)
        outs, seeds = [], []
        for name, extra in (("a", []), ("b", ["--seed", "9", "--samples", "7"])):
            prefix = str(tmp_path / name)
            assert main(["counterexample", "--surrogate", surrogate_file,
                         "--c", "5", *extra, "--out", prefix]) == EXIT_OK
            report = read_json(prefix + ".report.json")
            outs.append(report["instance"])
            seeds.append(report["config"]["seed"])
        assert outs[0] == outs[1]
        assert seeds == [None, 9]  # echoed, not used

    def test_valid_constant_exits_search_failure(self, surrogate_file,
                                                 tmp_path, capsys):
        rc = main(["counterexample", "--surrogate", surrogate_file,
                   "--c", "25", "--seed", "2", "--samples", "8192",
                   "--out", str(tmp_path / "ce")])
        assert rc == EXIT_SEARCH
        err = capsys.readouterr().err
        assert err.startswith("search failed:") and "K = 18.7082869" in err

    def test_linf_witness_above_the_l2_constant(self, readme_normals, tmp_path):
        """At C = K_l2 no l2 pair exists, but an linf pair does, and the
        post-processing check of that pair in linf holds with K_linf."""
        prefix = str(tmp_path / "ce")
        assert main(["counterexample", "--surrogate", readme_normals,
                     "--norm", "linf", "--c", "18.708286933869697",
                     "--out", prefix]) == EXIT_OK
        instance = read_json(prefix + ".report.json")["instance"]
        assert instance["ratio"] > 18.708
        assert instance["K"] == pytest.approx(25.0, rel=1e-12)
        out = str(tmp_path / "audit.json")
        assert main(["audit", "--surrogate", readme_normals,
                     "--scenario", prefix + ".scenario.json",
                     "--predictor", prefix + ".predictor.json",
                     "--norm", "linf", "--out", out]) == EXIT_OK
        (check,) = read_json(out)["reports"][1]["bounds"]
        assert check["params"]["norm"] == "linf"
        assert check["params"]["K"] == pytest.approx(25.0, rel=1e-12)

    @pytest.mark.parametrize("c, message", [
        ("nan", "--c must be a number, got nan"),
        ("-1", "--c must be at least 0, got -1.0"),
        ("-inf", "--c must be at least 0, got -inf")])
    def test_nan_constant_refused(self, surrogate_file, tmp_path, capsys, c, message):
        """--c is a Lipschitz constant, so a number at least 0; C = 0 is one."""
        prefix = str(tmp_path / "ce")
        assert main(["counterexample", "--surrogate", surrogate_file, f"--c={c}",
                     "--out", prefix]) == EXIT_SPEC
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("ce*"))
        assert main(["counterexample", "--surrogate", surrogate_file, "--c", "0",
                     "--out", prefix]) == EXIT_OK

    @pytest.mark.parametrize("norm, c", [("linf", "25.25"), ("l1", "13")])
    def test_constant_above_the_norms_k_exits_at_once(self, readme_normals,
                                                      tmp_path, capsys, norm, c):
        assert main(["counterexample", "--surrogate", readme_normals,
                     "--norm", norm, "--c", c,
                     "--out", str(tmp_path / "ce")]) == EXIT_SEARCH
        assert f"exact {norm} Lipschitz constant" in capsys.readouterr().err


class TestLoadSurrogate:
    """A surrogate file the property kernel cannot evaluate, or with a
    missing or mistyped field, is refused on load: audit and counterexample
    exit 2 naming the file and the cause, without a traceback."""

    @pytest.fixture()
    def construct(self, spec_file, tmp_path):
        """README surrogate file (as a dict) of the given construction."""
        def run(*algo_args):
            out = str(tmp_path / "built.json")
            assert main(["construct", "--spec", spec_file, *algo_args,
                         "--out", out]) == EXIT_OK
            return read_json(out)
        return run

    @staticmethod
    def _refused(command, d, tmp_path, capsys, cause):
        path = str(tmp_path / "edited.json")
        write_json(path, d)
        if command == "audit":
            pred = tmp_path / "pred.json"
            write_json(pred, {"kind": "distribution", "table": {
                f["id"]: f["conditional"] for f in SCENARIO["features"]}})
            sc = tmp_path / "scenario.json"
            write_json(sc, dict(SCENARIO, predictor={"recipe": "bayes"}))
            argv = ["audit", "--surrogate", path, "--scenario", str(sc),
                    "--predictor", str(pred), "--out", str(tmp_path / "audit.json")]
        else:
            argv = ["counterexample", "--surrogate", path, "--c", "5",
                    "--out", str(tmp_path / "ce")]
        capsys.readouterr()
        assert main(argv) == EXIT_SPEC, cause
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and cause in err, (cause, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["audit", "counterexample"])
    def test_reversed_normals(self, construct, command, tmp_path, capsys):
        d = construct("--algo", "normals", "--seed", "1")
        d["normals"] = d["normals"][::-1]
        self._refused(command, d, tmp_path, capsys,
                      "boundaries 1 and 2 are not met in report order")

    @pytest.mark.parametrize("command", ["audit", "counterexample"])
    @pytest.mark.parametrize("fmt", [4, 3])
    def test_cost_rows_reversed(self, construct, command, fmt, tmp_path, capsys):
        """A normals file whose cost rows are reversed is refused on load:
        the reports' target sets do not hold the normals' regions, which a
        scalar audit once reported as a violated discretization bound."""
        d = construct("--algo", "normals", "--seed", "1") if fmt == 4 else \
            read_json(DATA / "readme_normals_seed1.format3.json")
        assert d["format"] == fmt
        d["cost_matrix"] = d["cost_matrix"][::-1]
        self._refused(command, d, tmp_path, capsys,
                      "the region of report 1 has the vertex p = [1.0, 0.0, 0.0], outside "
                      "the target set of report 1 there (6 of 7 region vertices miss it)")

    @pytest.mark.parametrize("algo", ["normals", "embedding"])
    def test_cost_of_other_outcomes(self, construct, algo, tmp_path, capsys):
        d = construct("--algo", algo,
                      *(["--seed", "1"] if algo == "normals" else ["--phi", "0,1,3"]))
        d["cost_matrix"] = [row + [1.0] for row in d["cost_matrix"]]
        self._refused("audit", d, tmp_path, capsys,
                      "the cost matrix has 4 outcomes, but the nodes have 3")

    @pytest.mark.parametrize("nodes_follow", [False, True], ids=["nodes-kept", "nodes-negated"])
    @pytest.mark.parametrize("command", ["audit", "counterexample"])
    def test_flipped_normal(self, construct, command, nodes_follow, tmp_path, capsys):
        """A file whose second normal points the other way is refused, though
        orienting its normals would mend it, whether or not its nodes were
        negated with the normal."""
        d = construct("--algo", "normals")
        d["normals"][1] = [-x for x in d["normals"][1]]
        if nodes_follow:
            for row in d["nodes"]:
                row[1] = -row[1]
        self._refused(command, d, tmp_path, capsys,
                      "boundaries 1 and 2 are not met in report order; list the "
                      "boundaries from report 1 up")

    @pytest.mark.parametrize("where", ["one-entry", "one-row"])
    @pytest.mark.parametrize("command", ["audit", "counterexample"])
    def test_nan_normals(self, construct, command, where, tmp_path, capsys):
        """A file whose normals hold a NaN is refused as not finite."""
        d = construct("--algo", "normals")
        if where == "one-entry":
            d["normals"][0][0] = float("nan")
        else:
            d["normals"][1] = [float("nan")] * len(d["normals"][1])
        self._refused(command, d, tmp_path, capsys, "the normals are not finite")

    def test_tail_slopes_other_than_one(self, tmp_path, capsys):
        d = read_json(DATA / "readme_normals_seed1.format3.json")
        for v in d["v_bar"]:  # slope 3 outside the grid, still continuous
            b, a, c = v["breakpoints"], v["slopes"], v["intercepts"]
            c[0] += (a[0] - 3.0) * b[0]
            c[-1] += (a[-1] - 3.0) * b[-1]
            a[0] = a[-1] = 3.0
        self._refused("audit", d, tmp_path, capsys,
                      "v_bar of outcome 1 has tail slopes 3.0 and 3.0, not 1")

    def test_nodes_other_than_the_negated_normals(self, tmp_path, capsys):
        d = read_json(DATA / "readme_normals_seed1.format3.json")
        for v in d["v_bar"]:
            v["intercepts"] = [c + 5.0 for c in v["intercepts"]]
        self._refused("audit", d, tmp_path, capsys,
                      "v_bar of outcome 1 differs from the negated normals")

    @pytest.mark.parametrize("fixture", ["readme_normals_seed1", "readme_embedding_phi013"])
    @pytest.mark.parametrize("edit, cause", [
        ("unordered", "breakpoints must be strictly increasing"),
        ("piece_short", "need exactly one more piece than breakpoints"),
        ("broken", "pieces disagree at a breakpoint; function not well-defined"),
        ("empty", "need at least one breakpoint"),
    ])
    def test_malformed_v_bar(self, fixture, edit, cause, tmp_path, capsys):
        """A format-3 v_bar function that is not a continuous piecewise-affine
        function with increasing breakpoints is refused, naming its outcome."""
        d = read_json(DATA / f"{fixture}.format3.json")
        v = d["v_bar"][1]
        if edit == "unordered":
            v["breakpoints"][:2] = v["breakpoints"][1::-1]
        elif edit == "piece_short":
            del v["slopes"][-1], v["intercepts"][-1]
        elif edit == "broken":
            v["intercepts"][0] += 1.0
        else:
            v["breakpoints"] = []
        self._refused("audit", d, tmp_path, capsys, f"v_bar of outcome 2: {cause}")

    @pytest.mark.parametrize("key", ["breakpoints", "slopes", "intercepts"])
    @pytest.mark.parametrize("spoil", ["nested", "nan", "inf"])
    def test_v_bar_fields_are_flat_and_finite(self, key, spoil, tmp_path, capsys):
        """A format-3 v_bar field that is a nested array or holds a NaN or an
        infinity is refused, naming the outcome and the field."""
        d = read_json(DATA / "readme_embedding_phi013.format3.json")
        v = d["v_bar"][1]
        v[key] = [[x] for x in v[key]] if spoil == "nested" else [float(spoil), *v[key][1:]]
        self._refused("audit", d, tmp_path, capsys, f"v_bar of outcome 2: field {key!r} "
                      "must be a flat array of finite numbers")

    def test_decreasing_embedding_v_bar(self, tmp_path, capsys):
        d = read_json(DATA / "readme_embedding_phi013.format3.json")
        v = d["v_bar"][1]
        v["slopes"][1:-1] = [-a for a in v["slopes"][1:-1]]
        v["intercepts"][1:-1] = [-c for c in v["intercepts"][1:-1]]
        for i in (0, -1):  # unit tails continued from the mirrored ends
            end = v["slopes"][i + 1 if i == 0 else i - 1] * v["breakpoints"][i] \
                + v["intercepts"][i + 1 if i == 0 else i - 1]
            v["intercepts"][i] = end - v["breakpoints"][i]
        self._refused("audit", d, tmp_path, capsys,
                      "the identification nodes of outcome 2 decrease along the grid")

    def test_decreasing_embedding_nodes(self, construct, tmp_path, capsys):
        d = construct("--algo", "embedding", "--phi", "0,1,3")
        d["nodes"][1] = d["nodes"][1][::-1]
        self._refused("audit", d, tmp_path, capsys,
                      "the identification nodes of outcome 2 decrease along the grid")

    @pytest.mark.parametrize("thresholds", [[float("nan"), 1.0], [[0.0, 1.0]], [1.0, 0.0], []])
    def test_thresholds_not_increasing(self, construct, thresholds, tmp_path, capsys):
        d = construct("--algo", "normals", "--seed", "1")
        self._refused("audit", {**d, "thresholds": thresholds}, tmp_path, capsys,
                      "the thresholds must be finite and strictly increasing")

    def test_nodes_off_the_negated_normals(self, construct, tmp_path, capsys):
        d = construct("--algo", "normals", "--seed", "1")
        d["nodes"][2][0] += 1e-12
        self._refused("audit", d, tmp_path, capsys,
                      "the identification nodes of outcome 3 are not the negated normals")

    @pytest.mark.parametrize("command", ["audit", "counterexample"])
    @pytest.mark.parametrize("algo, fmt", [("normals", 4), ("embedding", 4),
                                           ("normals", 3), ("embedding", 3)])
    def test_missing_or_mistyped_field(self, construct, command, algo, fmt,
                                       tmp_path, capsys):
        """Every field the loader reads, deleted or holding another JSON
        type; v_bar as a list of numbers; the document wrapped in a list."""
        if fmt == 4:
            d = construct("--algo", algo,
                          *(["--seed", "1"] if algo == "normals" else ["--phi", "0,1,3"]))
            read = ["grid", "nodes"]
        else:
            d = read_json(DATA / f"readme_{algo}_{'seed1' if algo == 'normals' else 'phi013'}"
                          ".format3.json")
            read = ["v_bar"]
        assert d["format"] == fmt
        read += ["kind", "thresholds", "normals" if algo == "normals" else "cost_matrix"]
        cases = [("expected a JSON object with field 'kind', got list", [d])]
        for key in read:
            cases.append((f"field {key!r} is missing",
                          {k: v for k, v in d.items() if k != key}))
            cases += [(f"field {key!r} must be", {**d, key: value})
                      for value in (None, 7, "x", [1.0], {"a": 1})
                      if type(value) is not type(d[key])]
        if fmt == 3:
            cases.append(("v_bar of outcome 1: expected a JSON object with field "
                          "'breakpoints'", {**d, "v_bar": [0.0, 1.0, 2.0]}))
            v = d["v_bar"][0]
            for key in ("breakpoints", "slopes", "intercepts"):
                for cause, bad in (("is missing", {k: x for k, x in v.items() if k != key}),
                                   ("must be", {**v, key: "x"})):
                    cases.append((f"v_bar of outcome 1: field {key!r} {cause}",
                                  {**d, "v_bar": [bad, *d["v_bar"][1:]]}))
        for cause, bad in cases:
            self._refused(command, bad, tmp_path, capsys, cause)

    @pytest.mark.parametrize("algo", ["normals", "embedding"])
    @pytest.mark.parametrize("spoil", [str, bool], ids=["string", "bool"])
    def test_numbers_are_json_numbers(self, construct, algo, spoil, tmp_path, capsys):
        """A numeric string or a bool among the numbers of a field the
        loader reads is refused, naming the field."""
        d = construct("--algo", algo,
                      *(["--seed", "1"] if algo == "normals" else ["--phi", "0,1,3"]))
        for key in ("grid", "nodes", "thresholds",
                    "normals" if algo == "normals" else "cost_matrix"):
            value = json.loads(json.dumps(d[key]))
            row = value[0] if isinstance(value[0], list) else value
            row[0] = spoil(row[0])
            self._refused("audit", {**d, key: value}, tmp_path, capsys,
                          f"field {key!r} must be an array of numbers")

    @pytest.mark.parametrize("command", ["audit", "counterexample"])
    @pytest.mark.parametrize("algo, edit, cause", [
        ("normals", {"thresholds": [0.5]},
         "the thresholds number 1, but the 3 reports of the normals need 2"),
        ("normals", {"thresholds": [0.0, 1.0, 1.5]},
         "the thresholds number 3, but the 3 reports of the normals need 2"),
        ("normals", {"thresholds": [0.0, 1.5]},
         "the thresholds of a normals surrogate must be its grid"),
        ("normals", {"grid": [0.0, 5.0]},
         "the thresholds of a normals surrogate must be its grid"),
        ("embedding", {"thresholds": [0.5]},
         "the thresholds number 1, but the 3 reports of the cost matrix need 2"),
        ("embedding", {"thresholds": [0.5, 2.0, 2.5]},
         "the thresholds number 3, but the 3 reports of the cost matrix need 2"),
    ])
    def test_thresholds_not_tied_to_the_reports(self, construct, command, algo, edit,
                                                cause, tmp_path, capsys):
        d = construct("--algo", algo,
                      *(["--seed", "1"] if algo == "normals" else ["--phi", "0,1,3"]))
        self._refused(command, {**d, **edit}, tmp_path, capsys, cause)


class TestInputFields:
    """A predictor, scenario or property-spec file with a field missing or of
    another JSON type, or that is not a JSON object, makes every command
    that reads it exit 2 naming the file and the field, without a
    traceback."""

    @pytest.fixture()
    def run(self, boundary_spec_file, tmp_path, capsys):
        sur = str(tmp_path / "sur.json")
        assert main(["construct", "--spec", boundary_spec_file, "--seed", "1",
                     "--out", sur]) == EXIT_OK
        pred = {"kind": "distribution",
                "table": {f["id"]: f["conditional"] for f in SCENARIO["features"]}}
        files = {"scenario": str(tmp_path / "sc.json"), "predictor": str(tmp_path / "p.json")}
        argvs = {
            "simulate": ["simulate", "--spec", files["scenario"], "--samples", "10",
                         "--seed", "1", "--out", str(tmp_path / "sim")],
            "audit": ["audit", "--surrogate", sur, "--scenario", files["scenario"],
                      "--predictor", files["predictor"], "--out", str(tmp_path / "a.json")],
        }

        def refused(command, kind, doc, cause):
            write_json(files["scenario"], doc if kind == "scenario" else SCENARIO)
            write_json(files["predictor"], doc if kind == "predictor" else pred)
            capsys.readouterr()
            assert main(argvs[command]) == EXIT_SPEC, (command, cause)
            err = capsys.readouterr().err
            assert err.startswith(f"error: {files[kind]}: ") and cause in err, (cause, err)
            assert "Traceback" not in err
        return refused, pred

    @staticmethod
    def _mutations(d: dict, kinds: dict, prefix: str = "") -> list:
        """(cause, d with one field deleted or of another JSON type)."""
        wrong = {"a string": 7, "an object": [1.0], "an array": {"a": 1},
                 "a number": "x", "an array of numbers": ["a", "b", "c"]}
        cases = []
        for key, want in kinds.items():
            cases.append((f"{prefix}field {key!r} is missing",
                          {k: v for k, v in d.items() if k != key}))
            if want != "a value":
                for bad in (None, True, wrong[want]):
                    cases.append((f"{prefix}field {key!r} must be {want}", {**d, key: bad}))
        return cases

    def test_predictor(self, run):
        refused, pred = run
        cases = [("expected a JSON object with field 'kind', got list", [pred]),
                 ("unknown predictor kind 'odds'", {**pred, "kind": "odds"})]
        cases += self._mutations(pred, {"kind": "a string", "table": "an object"})
        for cause, doc in cases:
            refused("audit", "predictor", doc, cause)

    @pytest.mark.parametrize("command", ["simulate", "audit"])
    def test_scenario(self, run, command):
        refused, _ = run
        sc = json.loads(json.dumps(SCENARIO))
        feature, second = sc["features"]
        cases = [("expected a JSON object with field 'features', got list", [sc]),
                 ("feature 1: expected a JSON object with field 'id', got list",
                  {**sc, "features": [[feature], second]}),
                 ("feature 2: field 'conditional' must be a flat array with one number "
                  "per outcome", {**sc, "features": [feature, {**second, "conditional":
                                                              [0.5, 0.5]}]}),
                 ("field 'predictor' must be an object", {**sc, "predictor": "bayes"})]
        cases += self._mutations(sc, {"features": "an array"})
        cases += [(cause, {**sc, "features": [bad, second]}) for cause, bad in self._mutations(
            feature, {"id": "a value", "weight": "a number",
                      "conditional": "an array of numbers"}, "feature 1: ")]
        cases += [(cause, {**sc, "predictor": bad}) for cause, bad in self._mutations(
            sc["predictor"], {"recipe": "a string", "eta": "a number"}, "predictor: ")
            if "'eta' is missing" not in cause]  # eta is optional
        fixed = {"recipe": "fixed", "table": {"a": [0.5, 0.5, 0.0]}}
        cases += [(cause, {**sc, "predictor": bad}) for cause, bad in self._mutations(
            fixed, {"table": "an object"}, "predictor: ")]
        cases.append(("predictor: field 'a' must be an array of numbers",
                      {**sc, "predictor": {**fixed, "table": {"a": "x"}}}))
        cases.append(("predictor: field 'b' must be a flat array with one number per "
                      "outcome", {**sc, "predictor": {**fixed, "table": {
                          "a": [0.5, 0.5, 0.0], "b": [0.5, 0.5]}}}))
        cases.append(("perturbation scale eta must be nonnegative, got -0.1",
                      {**sc, "predictor": {"recipe": "perturbed", "eta": -0.1}}))
        for cause, doc in cases:
            refused(command, "scenario", doc, cause)

    @pytest.mark.parametrize("bad", [[1], {"a": 1}, None, True],
                             ids=["array", "object", "null", "bool"])
    @pytest.mark.parametrize("command", ["simulate", "audit"])
    def test_scenario_ids(self, run, command, bad):
        """A feature id is a string or a number; any other JSON value exits 2
        naming the file, the feature and the field, whichever feature holds
        it."""
        refused, _ = run
        sc = json.loads(json.dumps(SCENARIO))
        first, second = sc["features"]
        for i, features in ((1, [{**first, "id": bad}, second]),
                            (2, [first, {**second, "id": bad}])):
            refused(command, "scenario", {**sc, "features": features},
                    f"feature {i}: field 'id' must be a string or a number, not {bad!r}")

    def test_scenario_number_ids(self, tmp_path):
        path = tmp_path / "sc.json"
        first, second = SCENARIO["features"]
        write_json(path, {**SCENARIO, "features": [{**first, "id": 1},
                                                   {**second, "id": 2.5}]})
        assert main(["simulate", "--spec", str(path), "--samples", "10", "--seed", "1",
                     "--out", str(tmp_path / "sim")]) == EXIT_OK
        assert (tmp_path / "sim.data.csv").read_text().splitlines()[1].split(",")[0] \
            in ("1", "2.5")

    def test_scenario_number_ids_audit(self, boundary_spec_file, tmp_path):
        """A numeric feature id reads as the str that simulate writes for it
        in the dataset and the predictor, so the exact audit of the scenario
        finds every prediction, as the audit of the dataset does."""
        sc, sur, sim, out = (str(tmp_path / name) for name in ("sc.json", "sur.json", "sim",
                                                                "a.json"))
        first, second = SCENARIO["features"]
        write_json(sc, {**SCENARIO, "features": [{**first, "id": 1}, {**second, "id": 2.5}]})
        assert main(["construct", "--spec", boundary_spec_file, "--seed", "1",
                     "--out", sur]) == EXIT_OK
        assert main(["simulate", "--spec", sc, "--samples", "200", "--seed", "1",
                     "--out", sim]) == EXIT_OK
        for source in (["--scenario", sc], ["--data", sim + ".data.csv"]):
            assert main(["audit", "--surrogate", sur, *source, "--predictor",
                         sim + ".predictor.json", "--out", out]) == EXIT_OK, source
            assert read_json(out)["reports"][0]["data"]["features"] == 2

    # Arrays that numpy would read as numbers but that are not JSON numbers.
    NOT_NUMBERS = (["0.2", "0.3", "0.5"], [True, False, False], [True, 0.0, 0.0])

    @pytest.mark.parametrize("bad", NOT_NUMBERS)
    @pytest.mark.parametrize("command", ["simulate", "audit"])
    def test_scenario_numbers(self, run, command, bad):
        """A conditional, whether the features are read together or one by
        one, and a fixed-recipe row hold JSON numbers only."""
        refused, _ = run
        sc = json.loads(json.dumps(SCENARIO))
        feature, second = sc["features"]
        for features in ([{**feature, "conditional": bad}, second],
                         [{**feature, "conditional": bad}, {**second, "weight": "x"}]):
            refused(command, "scenario", {**sc, "features": features},
                    "feature 1: field 'conditional' must be an array of numbers")
        refused(command, "scenario", {**sc, "predictor": {"recipe": "fixed",
                                                          "table": {"a": bad}}},
                "predictor: field 'a' must be an array of numbers")

    @pytest.mark.parametrize("bad", NOT_NUMBERS)
    @pytest.mark.parametrize("command", ["construct", "levelsets"])
    def test_property_spec_numbers(self, command, bad, tmp_path, capsys):
        """A cost-matrix row and a boundary's coefficients hold JSON numbers
        only."""
        path = str(tmp_path / "spec.json")
        first, second = BOUNDARY_SPEC["boundaries"]
        for doc, cause in (
                ({**COST_SPEC, "cost_matrix": [bad, *COST_SPEC["cost_matrix"][1:]]},
                 "field 'cost_matrix' must be an array of numbers"),
                ({**BOUNDARY_SPEC, "boundaries": [{**first, "c": bad}, second]},
                 "boundary 1: field 'c' must be an array of numbers")):
            write_json(path, doc)
            capsys.readouterr()
            assert main([command, "--spec", path, "--seed", "1",
                         "--out", str(tmp_path / "out")]) == EXIT_SPEC, cause
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and cause in err, (cause, err)

    def test_integer_beyond_float64(self, run, tmp_path, capsys):
        """A JSON integer too large for a float64 is refused, naming its
        field, in a number field and in an array of numbers alike."""
        refused, _ = run
        sc = json.loads(json.dumps(SCENARIO))
        feature, second = sc["features"]
        for key, cause in (("weight", "a number"), ("conditional", "an array of numbers")):
            bad = {**feature, key: 10 ** 400 if key == "weight" else [10 ** 400, 0, 0]}
            refused("simulate", "scenario", {**sc, "features": [bad, second]},
                    f"feature 1: field {key!r} must be {cause}")
        path = str(tmp_path / "spec.json")
        huge = 10 ** 400
        for doc, cause in (({**COST_SPEC, "n": huge}, "field 'n' must be a number"),
                           ({**COST_SPEC, "cost_matrix": [[huge, 0, 0],
                                                          *COST_SPEC["cost_matrix"][1:]]},
                            "field 'cost_matrix' must be an array of numbers")):
            write_json(path, doc)
            capsys.readouterr()
            assert main(["construct", "--spec", path, "--out",
                         str(tmp_path / "out")]) == EXIT_SPEC, cause
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and cause in err, (cause, err)

    @staticmethod
    def _spec_refused(argv, doc, cause, tmp_path, capsys):
        """``argv`` plus ``--spec`` of ``doc`` exits 2, naming the file and
        ``cause``, with no warning."""
        path = str(tmp_path / "spec.json")
        write_json(path, doc)
        capsys.readouterr()
        assert main([*argv, "--spec", path, "--out", str(tmp_path / "out")]) == EXIT_SPEC
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and cause in err, (cause, err)
        assert "Warning" not in err

    def test_a_steep_outcome_widens_a_column_band(self, tmp_path, capsys):
        """Outcome 2's step to 2e10 sets the tie band of the node column
        (-1, 2e10, 0) at 2, so at e1 outcome 1's score -1 there and its 0 at
        the next node are a flat root interval, whose midpoint 1.75 links to
        report 3, the target.  The kernel once took the piece before it,
        whose scores -1 and -1 cancel, and refused the valid convex cost.
        Outcome 3 costs 0 for every report, so at e3 all three reports tie
        and K is inf."""
        spec = tmp_path / "spec.json"
        write_json(spec, {**COST_SPEC, "cost_matrix": [[2, 0, 0], [1, 0, 0], [0, 2e10, 0]]})
        for command in ("construct", "levelsets"):
            assert main([command, "--spec", str(spec), "--algo", "embedding",
                         "--out", str(tmp_path / command)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        s = read_surrogate(str(tmp_path / "construct"))
        assert s.gamma_many(np.eye(3)).tolist() == [1.75, 0.5, 1.0]
        assert s.link_many([1.75]).tolist() == [3]
        assert s.lipschitz_bound == float("inf")

    @pytest.mark.parametrize("key, bad", [("c", [float("nan"), 1.0, 0.0]),
                                          ("c", [float("inf"), 1.0, 0.0]), ("b", float("nan"))])
    def test_boundary_numbers_must_be_finite(self, key, bad, tmp_path, capsys):
        """A NaN or an infinity among a boundary's numbers exits 2 naming the
        spec and the cause, with no warning.  A NaN coefficient once read as
        a boundary that does not meet the simplex, and an infinite one as a
        degenerate boundary, with a warning."""
        first, second = BOUNDARY_SPEC["boundaries"]
        self._spec_refused(["construct", "--seed", "1"],
                           {**BOUNDARY_SPEC, "boundaries": [{**first, key: bad}, second]},
                           "a boundary needs 2 or more finite coefficients and a finite "
                           "offset", tmp_path, capsys)

    @pytest.mark.parametrize("command", ["construct", "levelsets"])
    @pytest.mark.parametrize("algo", ["normals", "embedding"])
    def test_property_spec_magnitudes(self, command, algo, tmp_path, capsys):
        """A cost entry, boundary coefficient or offset beyond 1e150 in
        magnitude, which would overflow the construction, is refused."""
        cost = json.loads(json.dumps(COST_SPEC["cost_matrix"]))
        cost[1][2] = 1e308
        first, second = BOUNDARY_SPEC["boundaries"]
        cases = [({**COST_SPEC, "cost_matrix": cost},
                  "field 'cost_matrix' holds a number of magnitude 1e+308; "
                  "the construction takes at most 1e+150")]
        if algo == "normals":
            cases += [({**BOUNDARY_SPEC, "boundaries": [{**first, key: bad}, second]},
                       f"boundary 1: field {key!r} holds a number of magnitude")
                      for key, bad in (("c", [-3, 1e308, 0]), ("b", -2e200))]
        for doc, cause in cases:
            self._spec_refused([command, "--algo", algo, "--seed", "1"], doc, cause,
                               tmp_path, capsys)

    @pytest.mark.parametrize("command", ["construct", "levelsets"])
    @pytest.mark.parametrize("spec, cause", [
        ({**COST_SPEC, "cost_matrix": [[0, 1, 2], [2, 1, 0], [1, 0, 1]]},
         "boundaries 1 and 2 cross inside the simplex; boundary i is where cost rows "
         "i and i + 1 tie"),
        ({**BOUNDARY_SPEC, "boundaries": BOUNDARY_SPEC["boundaries"][::-1]},
         "boundaries 1 and 2 are not met in report order"),
    ], ids=["cost", "boundaries"])
    def test_property_spec_not_strongly_orderable(self, command, spec, cause, tmp_path,
                                                  capsys):
        self._spec_refused([command, "--seed", "1"], spec, cause, tmp_path, capsys)

    @pytest.mark.parametrize("command", ["construct", "levelsets"])
    def test_cost_out_of_report_order(self, command, tmp_path, capsys):
        """The README cost with rows 2 and 3 swapped has strongly orderable
        boundaries, but its regions are not in report order: a vertex of a
        normals region is outside its report's target set, which is
        refused."""
        rows = COST_SPEC["cost_matrix"]
        self._spec_refused([command],
                           {**COST_SPEC, "cost_matrix": [rows[0], rows[2], rows[1]]},
                           "the region of report 2 has the vertex p = [0.0, 1.0, 0.0], "
                           "outside the target set of report 2 there (4 of 7 region "
                           "vertices miss it)", tmp_path, capsys)

    @pytest.mark.parametrize("command", ["construct", "levelsets"])
    @pytest.mark.parametrize("scale, phi, top", [(1e40, "0,1,3", "3e+40"),
                                                 (1e25, "0,1e-6,3e-6", "3e+31")])
    def test_embedding_nodes_beyond_the_bound(self, command, scale, phi, top, tmp_path,
                                              capsys):
        """Costs and embedding points whose identification nodes pass
        NODE_MAX_MAGNITUDE, where the exact K would overflow, exit 2 naming
        the spec, with no warning."""
        cost = [[scale * c for c in row] for row in COST_SPEC["cost_matrix"]]
        self._spec_refused([command, "--algo", "embedding", "--phi", phi],
                           {**COST_SPEC, "cost_matrix": cost},
                           f"the identification nodes reach magnitude {top}; the exact "
                           "Lipschitz constant takes at most 1e+30", tmp_path, capsys)

    @pytest.mark.parametrize("command", ["construct", "levelsets"])
    @pytest.mark.parametrize("spec", [COST_SPEC, BOUNDARY_SPEC], ids=["cost", "boundaries"])
    def test_property_spec(self, command, spec, tmp_path, capsys):
        path = str(tmp_path / "spec.json")
        table = "cost_matrix" if "cost_matrix" in spec else "boundaries"
        cases = [("expected a JSON object with field 'n', got list", [spec]),
                 ("field 'n' must be an integer, not 2.5", {**spec, "n": 2.5}),
                 ("property spec needs 'cost_matrix' or 'boundaries'",
                  {k: v for k, v in spec.items() if k != table})]
        # one report, or two outcomes: construct and levelsets crashed on the
        # first (IndexError), and refused the second naming no file
        small = {"boundaries": ([], [{"c": [1, -1], "b": 0}]),
                 "cost_matrix": ([[0, 3, 5]], [[0, 1], [1, 0]])}[table]
        cases += [("field 'reports' must list at least 2 reports, not 1",
                   {**spec, "reports": [1], table: small[0]}),
                  ("field 'n' must be at least 3 outcomes, not 2",
                   {**spec, "n": 2, "reports": [1, 2], table: small[1]})]
        cases += [case for case in self._mutations(spec, {
            "n": "a number", "reports": "an array",
            table: "an array of numbers" if table == "cost_matrix" else "an array"})
            if f"field {table!r} is missing" not in case[0]]  # the case above
        if table == "boundaries":
            first, second = spec["boundaries"]
            cases.append(("boundary 1: expected a JSON object with field 'c', got list",
                          {**spec, "boundaries": [[first], second]}))
            cases += [(cause, {**spec, "boundaries": [bad, second]}) for cause, bad in
                      self._mutations(first, {"c": "an array of numbers", "b": "a number"},
                                      "boundary 1: ")]
        for cause, doc in cases:
            write_json(path, doc)
            capsys.readouterr()
            assert main([command, "--spec", path, "--seed", "1",
                         "--out", str(tmp_path / "out")]) == EXIT_SPEC, cause
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and cause in err, (cause, err)
            assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    b'{"kind": "scalar", "table": {"\xff": 0.5}}',
    b'{"kind": "scalar", "table": {"a": ' + b"1" * 5000 + b"}}",
    b'{"kind": "scalar", "table": {"a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}}"],
    ids=["not-utf-8", "integer-of-5000-digits", "arrays-100000-deep"])
def test_json_that_does_not_decode(boundary_spec_file, scenario_file, tmp_path, capsys, text):
    """A JSON file that is not UTF-8, or holds an integer too long or arrays
    too deep for Python to read, exits 2 naming the file."""
    sur, pred = str(tmp_path / "sur.json"), tmp_path / "p.json"
    assert main(["construct", "--spec", boundary_spec_file, "--seed", "1",
                 "--out", sur]) == EXIT_OK
    pred.write_bytes(text)
    capsys.readouterr()
    assert main(["audit", "--surrogate", sur, "--scenario", scenario_file, "--predictor",
                 str(pred), "--out", str(tmp_path / "a.json")]) == EXIT_SPEC
    assert capsys.readouterr().err.startswith(f"error: malformed JSON in {pred}: ")


def _on_glibc() -> bool:
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}):
        return False
    return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")


class TestAllocatorPolicy:
    """main sets glibc's mmap and trim thresholds once per process, and no
    output depends on them."""

    @pytest.fixture(autouse=True)
    def fresh_policy(self):
        _keep_freed_memory.cache_clear()
        yield
        _keep_freed_memory.cache_clear()

    @pytest.mark.skipif(not _on_glibc(), reason="the policy is set on glibc only")
    def test_set_once_per_process(self, spec_file, tmp_path):
        for name in ("a.json", "b.json"):
            assert main(["construct", "--spec", spec_file,
                         "--out", str(tmp_path / name)]) == EXIT_OK
        info = _keep_freed_memory.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert _keep_freed_memory() is True

    def test_off_glibc_it_is_a_no_op(self, spec_file, tmp_path, capsys, monkeypatch):
        out = tmp_path / "sur.json"
        argv = ["construct", "--spec", spec_file, "--out", str(out)]
        assert main(argv) == EXIT_OK
        want = out.read_bytes(), capsys.readouterr().out
        _keep_freed_memory.cache_clear()

        def no_confstr(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(os, "confstr", no_confstr)
        assert _keep_freed_memory() is False
        out.unlink()
        assert main(argv) == EXIT_OK
        assert (out.read_bytes(), capsys.readouterr().out) == want


def test_unknown_arguments_exit_spec(capsys):
    assert main(["frobnicate"]) == EXIT_SPEC
    capsys.readouterr()


class TestValuesThatStartWithADash:
    """``--flag VALUE`` with a VALUE that argparse would take for an option,
    as "-inf", "-1e-3" or "-1,0,2", reaches the same check or result as
    ``--flag=VALUE``."""

    @staticmethod
    def _run(argv, tmp_path, capsys) -> tuple:
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.glob("out*"))}
        for p in tmp_path.glob("out*"):
            p.unlink()
        return code, out, err, files

    @pytest.mark.parametrize("head, flag, value, code, message", [
        (["counterexample", "--surrogate", "sur.json"], "--c", "-inf", EXIT_SPEC,
         "error: --c must be at least 0, got -inf\n"),
        (["counterexample", "--surrogate", "sur.json"], "--c", "-1e5", EXIT_SPEC,
         "error: --c must be at least 0, got -100000.0\n"),
        (["audit", "--surrogate", "sur.json", "--predictor", "p.json"], "--c-marginal",
         "-inf", EXIT_SPEC, "error: --c-marginal must be at least 0, got -inf\n"),
        (["audit", "--surrogate", "sur.json", "--predictor", "p.json"], "--bin-width",
         "-1e5", EXIT_SPEC, "error: --bin-width must be finite and positive, got -100000.0\n"),
        (["construct", "--spec", "spec.json", "--algo", "embedding"], "--outer-slope",
         "-1e-3", EXIT_SPEC, "outer slope must be finite and positive, got -0.001"),
        (["construct", "--spec", "spec.json", "--algo", "embedding"], "--phi", "-1,0,2",
         EXIT_OK, ""),
        (["levelsets", "--spec", "spec.json", "--algo", "embedding", "--resolution", "20"],
         "--phi", "-1,0,2", EXIT_OK, ""),
    ], ids=["c-inf", "c-exponent", "c-marginal", "bin-width", "outer-slope",
            "construct-phi", "levelsets-phi"])
    def test_both_spellings_agree(self, head, flag, value, code, message, tmp_path,
                                  capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_json("spec.json", COST_SPEC)
        assert main(["construct", "--spec", "spec.json", "--out", "sur.json"]) == EXIT_OK
        spaced = self._run([*head, flag, value, "--out", "out"], tmp_path, capsys)
        joined = self._run([*head, f"{flag}={value}", "--out", "out"], tmp_path, capsys)
        assert spaced == joined
        assert spaced[0] == code and message in spaced[2]
        assert bool(spaced[3]) == (code == EXIT_OK)

    def test_options_stay_options(self, tmp_path, capsys, monkeypatch):
        """An option after a flag is still read as an option: the flag lacks
        its value, and -h after a flag asks for no help."""
        monkeypatch.chdir(tmp_path)
        for value in ("--norm", "-h"):
            capsys.readouterr()
            assert main(["counterexample", "--surrogate", "s.json", "--c", value,
                         "--out", "out"]) == EXIT_SPEC
            assert "argument --c: expected one argument" in capsys.readouterr().err
        capsys.readouterr()
        assert main(["construct", "--help", "-1"]) == EXIT_OK
        assert "usage: ordelic construct" in capsys.readouterr().out


# Runs CLI calls, given as a JSON list of argv lists, with scipy unimportable.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from ordelic.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
"""


def test_pipeline_runs_on_numpy_alone(boundary_spec_file, scenario_file, tmp_path):
    """The package depends on numpy alone; scipy is a test oracle only."""
    sur, sim = str(tmp_path / "sur.json"), str(tmp_path / "sim")
    argvs = [["construct", "--spec", boundary_spec_file, "--seed", "1", "--out", sur],
             ["simulate", "--spec", scenario_file, "--samples", "200", "--seed", "2",
              "--out", sim],
             ["audit", "--surrogate", sur, "--data", sim + ".data.csv",
              "--predictor", sim + ".predictor.json", "--out", str(tmp_path / "a.json")]]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "a.json").exists()
