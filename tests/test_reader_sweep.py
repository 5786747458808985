"""Every input file the CLI reads, with one value swapped for another JSON
value, makes ``audit`` or ``construct`` exit 0, 2 or 3; an exit 2 names an
input file, and no Python warning is printed."""

import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest

from conftest import EQ1_COSTS
from ordelic.cli import main
from ordelic.normals import full_pipeline
from ordelic.properties import CostMatrix
from ordelic.serialize import surrogate_to_json, write_json

DATA = Path(__file__).parent / "data"
VALUES = [float("nan"), float("inf"), "1", True, None, [], [[1.0]], {}, -1, 0, 1e308,
          [1.0, 2.0], "x", [[]], [None]]
SPEC = {"n": 3, "reports": [1, 2, 3], "cost_matrix": EQ1_COSTS}
CONDITIONALS = {"a": [0.7, 0.2, 0.1], "b": [0.1, 0.3, 0.6]}
SCENARIO = {"features": [{"id": x, "weight": w, "conditional": c} for (x, c), w
                         in zip(CONDITIONALS.items(), (0.4, 0.6))],
            "predictor": {"recipe": "fixed", "table": {"a": [0.6, 0.3, 0.1],
                                                       "b": [0.2, 0.3, 0.5]}}}
PREDICTORS = {"distribution": CONDITIONALS, "scalar": {"a": 1.2, "b": 0.4},
              "report": {"a": 1, "b": 3}}
DATASET = [["x_id", "y"], ["a", "1"], ["b", "3"], ["a", "2"]]
OLD_SURROGATES = ["readme_normals_seed1.format1.json",
                  "readme_embedding_phi013.format2.json",
                  "readme_normals_seed1.format3.json"]


def _paths(doc, path=()):
    """Where to put a value: the document, each member of an object and the
    first entry of each array, down to the numbers."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, (*path, key))
    elif isinstance(doc, list) and doc:
        yield from _paths(doc[0], (*path, 0))


def _mutations(doc, unread=()):
    """(where, doc with the value there replaced) for each path and value,
    but none in the top-level fields ``unread``, which the reader skips."""
    for path in _paths(doc):
        if path[:1] and path[0] in unread:
            continue
        for value in VALUES:
            if not path:
                yield path, value
                continue
            copy = json.loads(json.dumps(doc))
            parent = copy
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            yield path, copy


def _faults(argv: list, inputs: list) -> list:
    """What is wrong with ``main(argv)``: an exit code other than 0, 2 or 3,
    an exit 2 whose message names none of ``inputs``, a warning, or an
    exception that escapes."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - the sweep reports it
            return [f"raised {type(exc).__name__}: {exc}"]
    text = err.getvalue()
    faults = [f"warned {w.category.__name__}: {w.message}" for w in caught]
    if "Warning" in text:
        faults.append(f"printed a warning: {text!r:.200}")
    if code not in (0, 2, 3):
        faults.append(f"exit {code}: {text!r:.200}")
    elif code == 2 and not any(str(p) in text for p in inputs):
        faults.append(f"exit 2 names no input file: {text!r:.200}")
    return faults


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    out = {"surrogate": tmp / "s.json", "scenario": tmp / "sc.json", "spec": tmp / "spec.json",
           "data": tmp / "d.csv", "out": tmp / "out.json", "mutant": tmp / "mutant.json",
           "mutant_csv": tmp / "mutant.csv"}
    write_json(out["surrogate"], surrogate_to_json(full_pipeline(CostMatrix(EQ1_COSTS))[0]))
    write_json(out["scenario"], SCENARIO)
    write_json(out["spec"], SPEC)
    out["data"].write_text("".join(",".join(row) + "\n" for row in DATASET))
    for kind, table in PREDICTORS.items():
        out[kind] = tmp / f"{kind}.json"
        write_json(out[kind], {"kind": kind, "table": table})
    out.update((name, DATA / name) for name in OLD_SURROGATES)
    return out


def _run(files, role: str, path) -> tuple[list, list]:
    """(argv, input files) of the run that reads ``path`` as its ``role``
    file and the valid files for the rest."""
    if role == "spec":
        return ["construct", "--spec", str(path), "--seed", "1", "--out", str(files["out"])], \
            [path]
    source = "--data" if role == "data" else "--scenario"
    inputs = {"--surrogate": files["surrogate"], source: files[source[2:]],
              "--predictor": files["distribution"]}
    inputs[f"--{role}" if role in ("surrogate", "data", "scenario") else "--predictor"] = path
    argv = ["audit", *[str(a) for item in inputs.items() for a in item], "--out",
            str(files["out"])]
    return argv, list(inputs.values())


def _sweep(files, role: str, doc) -> list:
    faults = []
    unread = ()
    if role == "surrogate":  # written for readers; format 4 is read from its nodes
        unread = ("lipschitz_bound", "lipschitz_exact", "value_range", "l_bar", "u_grid",
                  *(("v_bar",) if doc.get("format") == 4 else ()))
    for where, bad in _mutations(doc, unread):
        files["mutant"].write_text(json.dumps(bad))
        faults += [f"{role} at {list(where)}: {fault}"
                   for fault in _faults(*_run(files, role, files["mutant"]))]
    return faults


@pytest.mark.parametrize("role", ["surrogate", *OLD_SURROGATES, *PREDICTORS, "scenario",
                                  "spec"])
def test_json_inputs(files, role):
    path = Path(files[role])
    role = "surrogate" if role in OLD_SURROGATES else role
    assert _faults(_run(files, role, path)[0], []) == []  # the valid file passes
    doc = json.loads(path.read_text())
    faults = _sweep(files, role, doc)
    assert not faults, "\n".join(faults[:20])


def test_dataset_csv(files):
    faults = []
    mutant = files["mutant_csv"]
    for i, row in enumerate(DATASET):
        for j in range(len(row)):
            for value in VALUES:
                cells = [list(r) for r in DATASET]
                cells[i][j] = json.dumps(value)
                mutant.write_text("".join(",".join(r) + "\n" for r in cells))
                faults += [f"csv line {i + 1} field {j + 1} = {cells[i][j]}: {fault}"
                           for fault in _faults(*_run(files, "data", mutant))]
    assert not faults, "\n".join(faults[:20])


@pytest.mark.parametrize("ids,first,second,name", [
    (["a", "a"], 1, 2, "a"), (["b", 1, "1"], 2, 3, "1"), (["x", 2.5, "y", "2.5"], 2, 4, "2.5")])
def test_repeated_scenario_ids(files, capsys, ids, first, second, name):
    """Scenario feature ids compare as the strings simulate writes, so an
    id listed twice, or a number and its string, exit 2 naming both
    features and the id."""
    features = [{"id": x, "weight": 1 / len(ids), "conditional": [0.7, 0.2, 0.1]}
                for x in ids]
    write_json(files["mutant"], {"features": features})
    assert main(_run(files, "scenario", files["mutant"])[0]) == 2
    assert capsys.readouterr().err == (
        f"error: {files['mutant']}: features {first} and {second} both have id "
        f"{name!r} (ids compare as strings)\n")
