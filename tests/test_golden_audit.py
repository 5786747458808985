"""Golden sha256 digests of the outputs of ``audit`` and ``counterexample``.

The digests were recorded while each estimator and bound check still binned
the data on its own, so they pin every report field, bound and exit code
of the one-binning-per-audit code to the bytes of the earlier code.  The
seven that read the normals surrogate's K or values were recorded again
when its normals came from the spec in closed form rather than by SVD of
sampled boundary points: the 19 audit numbers that moved, moved by at most
1.34e-15 relative; the counterexample's surrogate gap, a difference of
property values, by 1.27e-14.  All paths are relative to the working directory, so the ``config`` blocks do
not depend on where the tests run.
"""

import hashlib
import json

import pytest

from ordelic import audit as audit_mod
from ordelic.cli import main
from ordelic.properties import Surrogate
from ordelic.serialize import read_json, surrogate_from_json, write_json

BOUNDARY_SPEC = {"n": 3, "reports": [1, 2, 3],
                 "boundaries": [{"c": [-3, 1, 0], "b": -2},
                                {"c": [-5, -4, 0], "b": -3}]}
COST_SPEC = {"n": 3, "reports": [1, 2, 3],
             "cost_matrix": [[0, 3, 5], [1, 0, 3], [3, 1, 0]]}
IDS = ("b", "a", "10", "9", "é\"\\", "z")
# "z" has weight 0: simulate draws no row of it and an exact audit leaves it
# out, so its predictions must not reach any report.
FEATURES = [{"id": x, "weight": w, "conditional": q} for x, w, q in zip(IDS, (
    0.25, 0.25, 0.2, 0.2, 0.1, 0.0), (
    [0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5],
    [0.2, 0.2, 0.6], [0.5, 0.25, 0.25]))]
# Predictors shared by several features, so that bins hold several features.
PREDICTORS = {
    "dist": {"kind": "distribution", "table": dict(zip(IDS, (
        [0.6, 0.3, 0.1], [0.6, 0.3, 0.1], [0.2, 0.3, 0.5], [0.2, 0.3, 0.5],
        [0.0, 0.0, 1.0], [0.1, 0.1, 0.8])))},
    "scalar": {"kind": "scalar", "table": dict(zip(IDS, (
        0.5, 0.5, 1.25, 0.54, 2.0, 2.9)))},
    "report": {"kind": "report", "table": dict(zip(IDS, (1, 3, 2, 2, 3, 1)))},
}
DATA = ("--data", "sim.data.csv")
SCENARIO = ("--scenario", "sc.json")
AUDITS = {
    "dist-data": ("nrm", "sim.predictor.json", DATA),
    "dist-scenario": ("nrm", "dist.json", SCENARIO),
    "dist-plot": ("nrm", "sim.predictor.json", DATA, "--convention", "plot"),
    "dist-l1": ("emb", "sim.predictor.json", SCENARIO, "--norm", "l1"),
    "dist-linf": ("nrm", "dist.json", DATA, "--norm", "linf"),
    "scalar-data": ("emb", "scalar.json", DATA),
    "scalar-scenario": ("emb", "scalar.json", SCENARIO),
    "scalar-width": ("emb", "scalar.json", DATA, "--bin-width", "0.1"),
    "scalar-c-marginal": ("nrm", "scalar.json", SCENARIO, "--c-marginal", "0.5"),
    "scalar-c-zero": ("emb", "scalar.json", DATA, "--c-marginal", "0"),
    "scalar-l1": ("nrm", "scalar.json", DATA, "--norm", "l1"),
    "scalar-linf": ("emb", "scalar.json", SCENARIO, "--norm", "linf"),
    "report-data": ("nrm", "report.json", DATA),
    "report-scenario": ("emb", "report.json", SCENARIO),
}
# case -> (exit code, sha256 of stdout and of the --out file, which hold the
# same bytes)
AUDIT_DIGESTS = {
    "dist-data": (0, "e84e9c89fdef81cb8b8b38645ff077d18d62eb5e62661ccddc323515a6534f7c"),
    "dist-l1": (0, "4709efdd8f3ad3a905134ae712b060c5b09a37be0e413f5566e54a846560adeb"),
    "dist-linf": (0, "94423c3e9dcfea00fe866e09a1b16e0421cad1daf47d51fe34b3896ef63bb6f7"),
    "dist-plot": (0, "e3382d3249fe94412ac7fd4ff8ec87067025a39fa712aa5bbd1d4429ee9040c7"),
    "dist-scenario": (0, "518f97e3c46bc52e89c72515b1670019ecc9b31aac70cfd117217e5e1fff9b61"),
    "report-data": (0, "6f4198da8aa085161a538fa8730efb477c58e4756676dca084b82f5245d113d3"),
    "report-scenario": (0, "63bc06b84a34d2ef4795ea376d1af7d0c24ee13099a5a18b5b15253cd11e69f7"),
    "scalar-c-marginal": (0, "c506bb132e9cc0983fdde44c16d0188b42d62ae808e0a87ca8b9af304af9b257"),
    "scalar-c-zero": (0, "393244cec1c90e40ca95eacf97c78c0ba08049ee9d05cf372e24a76520648155"),
    "scalar-data": (0, "732ffb7d45b628e4e833f66d25b4dcc789677304d88d9b706213ee000a132e8e"),
    "scalar-l1": (0, "94704ca20746dcf0d072a66181ec777ac7a9233993d7ff136b924e1335b28c8a"),
    "scalar-linf": (0, "f70aebb3be93a462f56ea8e8d22579364d2df1301afd24f2e461643b89a1ca38"),
    "scalar-scenario": (0, "f340e06445f82b4f05ad35910a26dfa2e51283b2276f1b43c269341f6348ee0c"),
    "scalar-width": (0, "5e187cd543f7ea1490b67d3a19508cc3fd837db07deeba9447c93f629ccb172e"),
}
# surrogate, norm -> (exit code, sha256 of stdout and of the report file,
# which hold the same bytes, then of the scenario and predictor files)
COUNTEREXAMPLES = (("nrm", "l2"), ("emb", "linf"))
COUNTEREXAMPLE_DIGESTS = {
    ("nrm", "l2"): (
        0, "fb49eabb1808aed781d43f47a0690a24962c5d3c3b9fba20587e34a9eca11ab0",
        "efbdf62ba16c4346c300f18fc517eba8ace6ecf5857e0db4484c46fd0acd6bef",
        "59a989f6004bf46e4da7a24e722b25d5d505a13f3e71c3b925f5d4740f01bef5"),
    ("emb", "linf"): (
        0, "8a864625b3f9349de330ae0e66bf38cbaaba3f6583953e257345e97a116abc14",
        "514f277048d19e624a2204fad2e85ddbf1e24277e10a18bb8c7b2095bc0db98e",
        "44e9e5eeab787964e580b93bbd241c5519358a0ac29f9e6e85e4b194dc5d06f9"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Surrogates, scenario, sampled data and predictors for the audits."""
    d = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(d)
        write_json("bspec.json", BOUNDARY_SPEC)
        write_json("spec.json", COST_SPEC)
        assert main(["construct", "--spec", "bspec.json", "--seed", "1",
                     "--out", "nrm.json"]) == 0
        assert main(["construct", "--spec", "spec.json", "--algo", "embedding",
                     "--phi", "0,1,3", "--outer-slope", "3", "--out", "emb.json"]) == 0
        write_json("sc.json", {"features": FEATURES,
                               "predictor": {"recipe": "perturbed", "eta": 0.3}})
        assert main(["simulate", "--spec", "sc.json", "--samples", "3000",
                     "--seed", "7", "--out", "sim"]) == 0
        for name, table in PREDICTORS.items():
            write_json(f"{name}.json", table)
    return d


def run_audit(case: str, capsys) -> tuple:
    surrogate, predictor, source, *extra = AUDITS[case]
    capsys.readouterr()
    rc = main(["audit", "--surrogate", f"{surrogate}.json", *source,
               "--predictor", predictor, *extra, "--out", f"{case}.json"])
    with open(f"{case}.json", "rb") as fh:
        out = fh.read()
    assert capsys.readouterr().out.encode() == out
    return rc, _sha(out)


def run_counterexample(surrogate: str, norm: str, capsys) -> tuple:
    K = surrogate_from_json(read_json(f"{surrogate}.json")).lipschitz(norm)
    prefix = f"ce-{surrogate}-{norm}"
    capsys.readouterr()
    rc = main(["counterexample", "--surrogate", f"{surrogate}.json", "--norm", norm,
               "--c", repr(0.5 * K), "--out", prefix])
    out = {}
    for suffix in ("report", "scenario", "predictor"):
        with open(f"{prefix}.{suffix}.json", "rb") as fh:
            out[suffix] = fh.read()
    assert capsys.readouterr().out.encode() == out["report"]
    return rc, *map(_sha, out.values())


@pytest.mark.parametrize("case", sorted(AUDITS))
def test_audit_outputs_keep_their_bytes(case, workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    assert run_audit(case, capsys) == AUDIT_DIGESTS[case]


@pytest.mark.parametrize("surrogate,norm", COUNTEREXAMPLES)
def test_counterexample_outputs_keep_their_bytes(surrogate, norm, workdir, capsys,
                                                 monkeypatch):
    monkeypatch.chdir(workdir)
    got = run_counterexample(surrogate, norm, capsys)
    assert got == COUNTEREXAMPLE_DIGESTS[surrogate, norm]


def test_audits_cover_every_report(workdir, capsys, monkeypatch):
    """The cases reach every notion, and bins of several features both for
    exact values and for --bin-width."""
    monkeypatch.chdir(workdir)
    reports = {}
    for case in AUDITS:
        run_audit(case, capsys)
        with open(f"{case}.json") as fh:
            reports[case] = json.load(fh)["reports"]
    assert {r["notion"] for rs in reports.values() for r in rs} == {
        "distribution", "postprocessing", "surrogate", "discretization", "discrete"}
    for case, counts in (("dist-scenario", [3, 3]), ("scalar-data", [4, 4]),
                         ("scalar-width", [3, 4]), ("report-data", [3])):
        assert [r["bins"]["count"] for r in reports[case]] == counts
        assert all(r["data"]["features"] == 5 for r in reports[case])


def _counted(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.name`` by a wrapper that appends each call to the
    returned list."""
    calls, original = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("case,binnings", [
    ("dist-data", 1), ("dist-plot", 1), ("scalar-data", 1), ("scalar-c-marginal", 1),
    ("scalar-width", 2), ("report-scenario", 1)])
def test_one_binning_per_audit(case, binnings, workdir, capsys, monkeypatch):
    """An audit bins its data once per distinct binning: the distribution
    and post-processing reports share the bins by property value, and the
    surrogate report, the marginal estimate and the discretization check
    share the bins by value, unless --bin-width asks for uniform bins.  The
    property is evaluated once per binning at the bin conditionals, and a
    distribution audit evaluates it at the predictions too."""
    monkeypatch.chdir(workdir)
    bins = _counted(monkeypatch, audit_mod, "bin_predictions")
    calls = _counted(monkeypatch, Surrogate, "gamma_many")
    run_audit(case, capsys)
    gammas = {"dist": 2, "scalar": binnings, "report": 0}[case.split("-")[0]]
    assert (len(bins), len(calls)) == (binnings, gammas)


def test_one_binning_per_counterexample(workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    bins = _counted(monkeypatch, audit_mod, "bin_predictions")
    run_counterexample("nrm", "l2", capsys)
    assert len(bins) == 1
