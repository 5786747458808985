"""File formats: property specs, surrogate exports, datasets, predictors,
scenarios, and audit reports.

All JSON is emitted with sorted keys and fixed indentation so repeated runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from types import SimpleNamespace

import numpy as np

from ordelic.audit import AuditReport, PredictorTable
from ordelic.errors import SpecError
from ordelic.piecewise import PiecewiseAffine
from ordelic.properties import AffineBoundary, CostMatrix, OrientedNormals, Surrogate
from ordelic.scenario import ScenarioSpec
from ordelic.simplex import LabeledDataset

# Dataset CSV files are read in chunks of about this many bytes.
CSV_CHUNK_BYTES = 1 << 20


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"malformed JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# property specs


def load_property_spec(path) -> dict:
    """Parse a property-spec file into reports plus a cost matrix or
    report-ordered boundaries."""
    raw = read_json(path)
    if not isinstance(raw, dict) or "n" not in raw or "reports" not in raw:
        raise SpecError("property spec needs 'n' and 'reports'")
    n = int(raw["n"])
    reports = list(raw["reports"])
    out = {"n": n, "reports": reports, "cost": None, "boundaries": None}
    if "cost_matrix" in raw:
        cm = np.asarray(raw["cost_matrix"], dtype=np.float64)
        if cm.shape != (len(reports), n):
            raise SpecError(
                f"cost matrix shape {cm.shape} does not match "
                f"{len(reports)} reports x {n} outcomes"
            )
        out["cost"] = CostMatrix(cm)
    elif "boundaries" in raw:
        bds = []
        for item in raw["boundaries"]:
            c = np.asarray(item["c"], dtype=np.float64)
            if len(c) != n:
                raise SpecError("boundary coefficient length does not match n")
            bds.append(AffineBoundary(c, float(item["b"])))
        if len(bds) != len(reports) - 1:
            raise SpecError("need one boundary per consecutive report pair")
        out["boundaries"] = bds
    else:
        raise SpecError("property spec needs 'cost_matrix' or 'boundaries'")
    return out


# ---------------------------------------------------------------------------
# surrogate exports
#
# Format 2 holds the identification functions (``v_bar``) with the link
# thresholds, the bound K, whether K is exact, the value range, and the
# optional normals and cost matrix.  Format 1 files (no ``format`` field)
# also hold the integrated losses and, for the embedding, the grid; both
# follow from ``v_bar`` and are not read.

SURROGATE_FORMAT = 2


def surrogate_to_json(s: Surrogate) -> dict:
    if not isinstance(s, Surrogate):
        raise SpecError(f"cannot serialize surrogate of type {type(s).__name__}")
    out = {
        "format": SURROGATE_FORMAT,
        "kind": s.kind,
        "v_bar": [{"breakpoints": v.breakpoints.tolist(), "slopes": v.slopes.tolist(),
                   "intercepts": v.intercepts.tolist()} for v in s.identification],
        "thresholds": s.thresholds.tolist(),
        "lipschitz_bound": s.lipschitz_bound,
        "lipschitz_exact": s.lipschitz_exact,
        "value_range": list(s.value_range),
    }
    if s.normals is not None:
        out["normals"] = s.normals.o.tolist()
    if s.cost is not None:
        out["cost_matrix"] = s.cost.entries.tolist()
    return out


def surrogate_from_json(d: dict) -> Surrogate:
    """Rebuild a surrogate from format 1 or 2."""
    if d.get("format", 1) not in (1, SURROGATE_FORMAT):
        raise SpecError(f"unknown surrogate format {d['format']!r}")
    if d.get("kind") not in ("embedding", "normals") \
            or (d["kind"] == "normals") != ("normals" in d):
        raise SpecError(f"unknown surrogate kind {d.get('kind')!r}")
    return Surrogate(
        identification=tuple(
            PiecewiseAffine(np.asarray(v["breakpoints"]), np.asarray(v["slopes"]),
                            np.asarray(v["intercepts"])) for v in d["v_bar"]),
        thresholds=np.asarray(d["thresholds"]),
        lipschitz_bound=float(d["lipschitz_bound"]),
        lipschitz_exact=bool(d.get("lipschitz_exact", False)),
        value_range=tuple(d["value_range"]),
        normals=OrientedNormals(np.asarray(d["normals"])) if "normals" in d else None,
        cost=CostMatrix(np.asarray(d["cost_matrix"])) if "cost_matrix" in d else None,
    )


# ---------------------------------------------------------------------------
# datasets


def write_dataset_csv(path, data: LabeledDataset) -> None:
    """Write ``x_id,y`` rows.  csv.writer formats each (id, label) pair once;
    rows are then written by feature code and label."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerows([key, y] for key in data.keys for y in range(1, data.n + 1))
    table = np.array(lines, dtype=object).reshape(len(data.keys), data.n)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x_id,y\n")
        fh.write("".join(table[data.codes, data.y - 1]))


def read_dataset_csv(path, n: int) -> LabeledDataset:
    """Read an ``x_id,y`` file in chunks of whole lines, coding ids in order
    of first appearance as they arrive; errors name the line at fault."""
    index: dict = {}
    codes, labels = [], []
    with open(path, "rb") as fh:
        header = next(csv.reader([fh.readline().decode("utf-8")]), None)
        if header != ["x_id", "y"]:
            raise SpecError(f"{path}, line 1: expected header 'x_id,y', got {header}")
        line = 2
        while chunk := fh.read(CSV_CHUNK_BYTES):
            chunk += fh.readline()
            while chunk.count(b'"') % 2 and (more := fh.readline()):
                chunk += more  # finish a quoted field that spans lines
            if not chunk.endswith(b"\n"):
                chunk += b"\n"
            ids, y = _parse_rows(chunk, line, path, n)
            for key in dict.fromkeys(ids):
                index.setdefault(key, len(index))
            codes.append(np.fromiter(map(index.__getitem__, ids), np.int64, len(ids)))
            labels.append(y)
            line += chunk.count(b"\n")
    if not codes:
        raise SpecError(f"{path}, line 2: dataset file has no rows")
    return LabeledDataset.from_codes(np.concatenate(codes), tuple(index),
                                     np.concatenate(labels), n)


def _parse_rows(chunk: bytes, line: int, path, n: int) -> tuple[list, np.ndarray]:
    """(ids, labels) of newline-terminated CSV lines numbered from ``line``.

    A chunk without quotes or carriage returns whose lines each hold one
    comma and a one-digit label in range is split with str.split; any other
    chunk goes through csv.reader, which also pins down the line at fault.
    """
    if b'"' not in chunk and b"\r" not in chunk:
        buf = np.frombuffer(chunk, dtype=np.uint8)
        seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
        y = buf[seps[1::2] - 1].astype(np.int64) - ord("0")
        if (np.array_equal(buf[seps], np.resize(np.frombuffer(b",\n", np.uint8), len(seps)))
                and np.all(np.diff(seps)[0::2] == 2) and np.all((y >= 1) & (y <= min(n, 9)))):
            return chunk.decode("utf-8").replace("\n", ",").split(",")[0:-1:2], y
    ids, labels = [], []
    reader = csv.reader(io.StringIO(chunk.decode("utf-8")))
    try:
        for fields in reader:
            where = f"{path}, line {line + reader.line_num - 1}"
            if len(fields) != 2:
                raise SpecError(f"{where}: expected 2 fields (x_id,y), got {len(fields)}")
            label = fields[1].strip()
            if not (label.isdecimal() and 1 <= int(label) <= n):
                raise SpecError(f"{where}: label {fields[1]!r} is not an integer in 1..{n}")
            ids.append(fields[0])
            labels.append(int(label))
    except csv.Error as exc:
        raise SpecError(f"{path}, line {line + reader.line_num - 1}: {exc}") from None
    return ids, np.array(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# predictors, scenarios, audit reports


def predictor_to_json(p: PredictorTable) -> dict:
    table = {}
    for key, value in p.table.items():
        if p.kind == "distribution":
            table[str(key)] = np.asarray(value, dtype=np.float64).tolist()
        elif p.kind == "scalar":
            table[str(key)] = float(value)
        else:
            table[str(key)] = int(value)
    return {"kind": p.kind, "table": table}


def predictor_from_json(d: dict) -> PredictorTable:
    kind = d["kind"]
    table = {}
    for key, value in d["table"].items():
        if kind == "distribution":
            table[key] = np.asarray(value, dtype=np.float64)
        elif kind == "scalar":
            table[key] = float(value)
        else:
            table[key] = int(value)
    return PredictorTable(kind, table)


def scenario_to_json(s: ScenarioSpec) -> dict:
    out = {
        "features": [
            {"id": str(x), "weight": float(w), "conditional": c.tolist()}
            for x, w, c in zip(s.feature_ids, s.weights, s.conditionals)
        ],
        "predictor": {"recipe": s.recipe},
    }
    if s.recipe == "perturbed":
        out["predictor"]["eta"] = s.eta
    if s.recipe == "fixed":
        out["predictor"]["table"] = {
            str(k): np.asarray(v, dtype=np.float64).tolist()
            for k, v in s.fixed_table.items()
        }
    return out


def scenario_from_json(d: dict) -> ScenarioSpec:
    feats = d["features"]
    pred = d.get("predictor", {"recipe": "bayes"})
    fixed = None
    if pred["recipe"] == "fixed":
        fixed = {k: np.asarray(v, dtype=np.float64)
                 for k, v in pred["table"].items()}
    return ScenarioSpec(
        feature_ids=tuple(f["id"] for f in feats),
        weights=np.asarray([f["weight"] for f in feats], dtype=np.float64),
        conditionals=np.asarray([f["conditional"] for f in feats], dtype=np.float64),
        recipe=pred["recipe"],
        eta=float(pred.get("eta", 0.0)),
        fixed_table=fixed,
    )


def audit_report_to_json(r: AuditReport) -> dict:
    return r.as_dict()
