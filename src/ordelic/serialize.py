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
from ordelic.errors import SimplexError, SpecError
from ordelic.piecewise import PiecewiseAffine
from ordelic.properties import AffineBoundary, CostMatrix, OrientedNormals, Surrogate
from ordelic.scenario import ScenarioSpec
from ordelic.simplex import LabeledDataset, as_simplex_point, as_simplex_points

# Dataset CSV files are read in chunks of about this many bytes.
CSV_CHUNK_BYTES = 1 << 18


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
# Format 3 holds the identification functions (``v_bar``) with the link
# thresholds, the Lipschitz constant K (always exact), the value range, and
# the optional normals and cost matrix.  K follows from the node values and
# is derived again on load, never read, so format 2 files, whose embedding K
# was max |v|, load to the exact K too.  Format 1 files (no ``format`` field)
# also hold the integrated losses and, for the embedding, the grid; both
# follow from ``v_bar`` and are not read.

SURROGATE_FORMAT = 3


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
    """Rebuild a surrogate from format 1, 2 or 3."""
    if d.get("format", 1) not in (1, 2, SURROGATE_FORMAT):
        raise SpecError(f"unknown surrogate format {d['format']!r}")
    if d.get("kind") not in ("embedding", "normals") \
            or (d["kind"] == "normals") != ("normals" in d):
        raise SpecError(f"unknown surrogate kind {d.get('kind')!r}")
    return Surrogate(
        identification=tuple(
            PiecewiseAffine(np.asarray(v["breakpoints"]), np.asarray(v["slopes"]),
                            np.asarray(v["intercepts"])) for v in d["v_bar"]),
        thresholds=np.asarray(d["thresholds"]),
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
    coder = _IdCoder()
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
            c, y = _parse_rows(chunk, line, path, n, coder)
            codes.append(c)
            labels.append(y)
            line += chunk.count(b"\n")
    if not codes:
        raise SpecError(f"{path}, line 2: dataset file has no rows")
    return LabeledDataset.from_codes(np.concatenate(codes), tuple(coder.index),
                                     np.concatenate(labels), n)


def _parse_rows(chunk: bytes, line: int, path, n: int,
                coder: _IdCoder) -> tuple[np.ndarray, np.ndarray]:
    """(codes, labels) of newline-terminated CSV lines numbered from ``line``.

    A chunk without quotes or carriage returns whose lines each hold one
    comma and a label of ASCII digits in 1..n is coded from its bytes; any
    other chunk goes through csv.reader, which also pins down the line at
    fault.
    """
    if b'"' not in chunk and b"\r" not in chunk:
        buf = np.frombuffer(chunk, dtype=np.uint8)
        seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
        commas, ends = seps[0::2], seps[1::2]
        if (len(commas) == len(ends) and np.all(buf[commas] == ord(","))
                and np.all(buf[ends] == ord("\n"))):
            y = _digit_labels(buf, commas, ends, n)
            if y is not None:
                starts = np.concatenate(([0], ends[:-1] + 1))
                return coder.code_bytes(chunk, starts, commas - starts), y
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
    return coder.code_strings(ids), np.array(labels, dtype=np.int64)


def _digit_labels(buf: np.ndarray, commas: np.ndarray, ends: np.ndarray,
                  n: int) -> np.ndarray | None:
    """Labels buf[commas[i] + 1:ends[i]] when each is 1 to len(str(n)) ASCII
    digits with a value in 1..n, else None."""
    width = ends - commas - 1
    if width.min() < 1 or width.max() > len(str(n)):
        return None
    y = np.zeros(len(ends), dtype=np.int64)
    for k in range(int(width.max())):  # the k-th digit from the right
        digit = buf[np.maximum(ends - 1 - k, 0)].astype(np.int64) - ord("0")
        inside = width > k
        if np.any(inside & ((digit < 0) | (digit > 9))):
            return None
        y += np.where(inside, digit * 10**k, 0)
    return y if y.min() >= 1 and y.max() <= n else None


# An id of b bytes packs into b // 8 + 1 little-endian uint64 words: its bytes,
# one 0xFF byte, then zero bytes.  Two byte strings of different lengths
# differ at the longer one's 0xFF byte, so the packing is one to one.
# Entry clip(r, -1, 8) + 1 of these tables builds a word that holds r more
# bytes of the id: none and no 0xFF (r < 0), r bytes and the 0xFF (r < 8),
# or 8 bytes with the 0xFF in a later word.
_WORD_MASK = np.array([0] + [(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
_WORD_END = np.array([0] + [0xFF << 8 * r for r in range(8)] + [0], dtype=np.uint64)
# Ids of 8 * _KEY_WORDS bytes or more do not fit a key and are decoded row
# by row.
_KEY_WORDS = 8
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)
_MIN_SLOT_BITS = 10
_SLOTS_PER_ID = 4


def _pack_ids(data: bytes, starts: np.ndarray, lengths: np.ndarray,
              words: int) -> np.ndarray:
    """(rows, words) packed keys of data[starts[i]:starts[i] + lengths[i]],
    for lengths below 8 * words."""
    padded = data + bytes(8 * words)
    at = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    keys = np.empty((len(starts), words), dtype=np.uint64)
    for j in range(words):
        part = np.clip(lengths - 8 * j, -1, 8) + 1
        keys[:, j] = (at[starts + 8 * j] & _WORD_MASK[part]) | _WORD_END[part]
    return keys


def _first_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct row of ``keys``, index into those of every row)."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inv = np.empty(len(order), dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return order[new], inv


class _IdCoder:
    """Codes x_ids in order of first appearance.

    ``index`` (x_id -> code) is the vocabulary and decides every code.  Ids
    that arrive as bytes are first looked up by packed key in a
    direct-mapped hash table (multiplicative hash, exact key comparison)
    that caches part of ``index``.  Only the misses are decoded and looked
    up in ``index``, in order of first appearance and once per distinct key
    in a chunk: new ids, ids whose slot holds another key, and ids too long
    to pack.  The table keeps 2 to 4 slots per id; it is rebuilt from
    ``index`` when it grows or its keys widen.
    """

    def __init__(self):
        self.index: dict = {}
        self._rebuild(_MIN_SLOT_BITS, 1)

    def code_strings(self, ids) -> np.ndarray:
        index = self.index
        return np.fromiter((index.setdefault(x, len(index)) for x in ids),
                           dtype=np.int64, count=len(ids))

    def code_bytes(self, data: bytes, starts: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
        """Codes of the ids data[starts[i]:starts[i] + lengths[i]]."""
        long = lengths >= 8 * _KEY_WORDS
        words = int(lengths[~long].max(initial=0)) // 8 + 1
        if words > self.keys.shape[1]:
            self._rebuild(self.bits, min(_KEY_WORDS, max(words, 2 * self.keys.shape[1])))
        keys = _pack_ids(data, starts, np.where(long, 0, lengths), self.keys.shape[1])
        slot = self._slot(keys)
        codes = self.codes[slot]
        miss = np.flatnonzero((codes < 0) | np.any(self.keys[slot] != keys, axis=1) | long)
        short, longs = miss[~long[miss]], miss[long[miss]]
        first, inv = _first_rows(keys[short])
        rows = np.concatenate([short[first], longs])
        order = np.argsort(rows)
        begin, size = starts[rows[order]], lengths[rows[order]]
        index = self.index
        found = np.empty(len(rows), dtype=np.int64)
        found[order] = [index.setdefault(data[a:b].decode("utf-8"), len(index))
                        for a, b in zip(begin.tolist(), (begin + size).tolist())]
        codes[short] = found[inv]
        codes[longs] = found[len(first):]
        if _SLOTS_PER_ID * len(index) > 2 * len(self.codes):
            self._rebuild(max(self.bits, (_SLOTS_PER_ID * len(index) - 1).bit_length()),
                          self.keys.shape[1])
        else:
            self._insert(keys[short[first]], found[:len(first)])
        return codes

    def _slot(self, keys: np.ndarray) -> np.ndarray:
        h = np.zeros(len(keys), dtype=np.uint64)
        for j in range(keys.shape[1]):
            h = (h ^ keys[:, j]) * _HASH_MULT
        return (h >> np.uint64(64 - self.bits)).astype(np.intp)

    def _insert(self, keys: np.ndarray, codes: np.ndarray) -> None:
        """Put keys into free slots; the first key wins a shared slot."""
        slot = self._slot(keys)
        free = np.flatnonzero(self.codes[slot] < 0)
        taken, pick = np.unique(slot[free], return_index=True)
        self.keys[taken] = keys[free[pick]]
        self.codes[taken] = codes[free[pick]]

    def _rebuild(self, bits: int, words: int) -> None:
        self.bits = bits
        self.keys = np.zeros((1 << bits, words), dtype=np.uint64)
        self.codes = np.full(1 << bits, -1, dtype=np.int64)
        blobs = [x.encode("utf-8") for x in self.index]
        lengths = np.fromiter(map(len, blobs), dtype=np.int64, count=len(blobs))
        fit = np.flatnonzero(lengths < 8 * words)
        starts = np.cumsum(lengths) - lengths
        self._insert(_pack_ids(b"".join(blobs), starts[fit], lengths[fit], words),
                     fit.astype(np.int64))


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


def predictor_from_json(d: dict, source: str = "the predictor") -> PredictorTable:
    """Predictor table from JSON; a report prediction must be an integer (an
    integral float such as 2.0 counts), and an error names the x_id and
    ``source``."""
    kind, raw = d["kind"], d["table"]
    if kind == "distribution":
        try:  # one conversion for the whole table; its rows become the values
            values = np.array(list(raw.values()), dtype=np.float64)
        except ValueError:  # rows of different lengths
            values = [np.asarray(v, dtype=np.float64) for v in raw.values()]
    elif kind == "scalar":
        values = [float(v) for v in raw.values()]
    else:  # bools, strings, NaN and fractions are not reports
        values = [int(v) if isinstance(v, float) and v.is_integer() else v
                  for v in raw.values()]
        for x, v in zip(raw, values):
            if type(v) is not int:
                raise SpecError(f"x_id {x!r} in {source}: report prediction "
                                f"{v!r} is not an integer")
    return PredictorTable(kind, dict(zip(raw, values)))


def read_predictor(path, n: int) -> PredictorTable:
    """Read a predictor file for a property with n outcomes.  Distributions
    must be points of the n-outcome simplex, scalars finite and reports
    integers; an error names the file and the x_id at fault."""
    p = predictor_from_json(read_json(path), str(path))
    if p.kind == "report":
        return p
    try:
        batch = np.array(list(p.table.values()), dtype=np.float64)
        if p.kind == "scalar" and np.all(np.isfinite(batch)):
            return p
        if p.kind == "distribution" and batch.shape[1:] == (n,):
            as_simplex_points(batch)
            return p
    except (ValueError, SimplexError):
        pass
    for x, value in p.table.items():
        if fault := _prediction_fault(p.kind, value, n):
            raise SpecError(f"x_id {x!r} in {path}: {fault}")
    return p


def _prediction_fault(kind: str, value, n: int) -> str | None:
    """Why one scalar or distributional prediction is unusable, or None."""
    if kind == "scalar":
        return None if np.isfinite(value) else f"scalar prediction {value} is not finite"
    if np.shape(value) != (n,):
        return f"distribution of shape {np.shape(value)} for {n} outcomes"
    try:
        as_simplex_point(value)
    except SimplexError as exc:
        return f"distribution is not on the simplex: {exc}"
    return None


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
