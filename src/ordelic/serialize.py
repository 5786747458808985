"""File formats: property specs, surrogate exports, datasets, predictors,
scenarios, and audit reports.

All JSON is emitted with sorted keys and fixed indentation so repeated runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from ordelic._floatrepr import float_reprs
from ordelic.audit import PredictorTable
from ordelic.errors import OrdelicError, SimplexError, SpecError
from ordelic.properties import AffineBoundary, CostMatrix, OrientedNormals, Surrogate, _misordered
from ordelic.scenario import ScenarioSpec
from ordelic.simplex import LabelCounts, as_simplex_points

# Dataset CSV files are read in chunks of about this many bytes.
CSV_CHUNK_BYTES = 1 << 18
# Level-set grids are written this many rows at a time.
LEVELSETS_BLOCK_ROWS = 8192
# Largest magnitude of a property-spec number or a scalar prediction: the
# construction squares differences of spec numbers, and the audits take
# differences of predictions and divide them by small widths.
MAX_MAGNITUDE = 1e150


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> str:
    """Write ``dumps(obj)`` to ``path`` and return that text."""
    text = dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # also not UTF-8, too long or too deep
        raise SpecError(f"malformed JSON in {path}: {exc}") from exc


def _read(path, parse):
    """``parse`` of the JSON in ``path``; errors in its contents name the path."""
    d = read_json(path)
    try:
        return parse(d)
    except OrdelicError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# property specs


def load_property_spec(path) -> dict:
    """Parse a property-spec file into reports plus a cost matrix or
    report-ordered boundaries; errors in its contents name the path and the
    field at fault."""
    return _read(path, _property_spec)


def _property_spec(raw) -> dict:
    n = _field(raw, "n", float)
    if not n.is_integer():
        raise SpecError(f"field 'n' must be an integer, not {n!r}")
    n = int(n)
    if n < 3:
        raise SpecError(f"field 'n' must be at least 3 outcomes, not {n}")
    reports = _field(raw, "reports", list)
    if len(reports) < 2:
        raise SpecError(f"field 'reports' must list at least 2 reports, not {len(reports)}")
    out = {"n": n, "reports": reports, "cost": None, "boundaries": None}
    if "cost_matrix" in raw:
        cm = _spec_numbers(raw, "cost_matrix", np.ndarray)
        if cm.shape != (len(reports), n):
            raise SpecError(f"cost matrix shape {cm.shape} does not match "
                            f"{len(reports)} reports x {n} outcomes")
        out["cost"] = CostMatrix(cm)
    elif "boundaries" in raw:
        bds = []
        for i, item in enumerate(_field(raw, "boundaries", list), start=1):
            try:
                c, b = _spec_numbers(item, "c", np.ndarray), _spec_numbers(item, "b", float)
            except SpecError as exc:
                raise SpecError(f"boundary {i}: {exc}") from None
            if len(c) != n:
                raise SpecError("boundary coefficient length does not match n")
            bds.append(AffineBoundary(c, b))
        if len(bds) != len(reports) - 1:
            raise SpecError("need one boundary per consecutive report pair")
        out["boundaries"] = bds
    else:
        raise SpecError("property spec needs 'cost_matrix' or 'boundaries'")
    return out


def _spec_numbers(d, key: str, kind: type):
    """``_field(d, key, kind)`` for the numbers of a property spec; a finite
    one beyond ``MAX_MAGNITUDE`` in magnitude is a SpecError that names
    the key (NaN and infinities are left to the checks that name them)."""
    value = _field(d, key, kind)
    big = np.abs(value)[np.isfinite(value)].max(initial=0.0)
    if big > MAX_MAGNITUDE:
        raise SpecError(f"field {key!r} holds a number of magnitude {big:g}; the "
                        f"construction takes at most {MAX_MAGNITUDE:g}")
    return value


# ---------------------------------------------------------------------------
# surrogate exports
#
# Format 4 holds the identification nodes (``grid``, ``nodes``), the link
# thresholds and the optional normals and cost matrix; only these are read.
# The identification functions (``v_bar``), the exact Lipschitz constant K
# and the value range are written for readers and derived again on load.
# Formats 1-3 have no nodes; they are read from ``v_bar``.  Format 1 files
# also hold integrated losses and, for the embedding, the grid (not read).

SURROGATE_FORMAT = 4
# Identification pieces must meet at each breakpoint within this, relative.
CONTINUITY_TOL = 1e-9


def interpolate(breakpoints, values) -> tuple[np.ndarray, np.ndarray]:
    """(slopes, intercepts), one row per row of ``values``, of the linear
    interpolations through (breakpoint, value) nodes with unit-slope tails:
    piece i lives on [b_{i-1}, b_i], unbounded at the ends.  These are the
    ``v_bar`` functions a surrogate file spells out, computed so that files
    are bit-stable; they meet at each breakpoint up to rounding."""
    bp, V = np.asarray(breakpoints, dtype=np.float64), np.asarray(values, dtype=np.float64)
    a = np.ones((len(V), len(bp) + 1))
    a[:, 1:-1] = np.diff(V, axis=1) / np.diff(bp)
    c = np.empty_like(a)
    c[:, :-1] = V - a[:, :-1] * bp
    c[:, -1] = V[:, -1] - bp[-1]
    return a, c


def _check_continuity(bp: np.ndarray, a: np.ndarray, c: np.ndarray) -> None:
    """Raise unless the pieces (slopes a, intercepts c) meet at every
    breakpoint b_i within CONTINUITY_TOL times the largest of the terms a_i
    b_i, c_i, a_{i+1} b_i, c_{i+1} compared there, as their rounding is."""
    terms = np.array([a[:-1] * bp, c[:-1], a[1:] * bp, c[1:]])
    gap = np.abs(terms[0] + terms[1] - terms[2] - terms[3])
    if np.any(gap > CONTINUITY_TOL * np.abs(terms).max(axis=0)):
        raise SpecError("pieces disagree at a breakpoint; function not well-defined")


def surrogate_to_json(s: Surrogate) -> dict:
    if not isinstance(s, Surrogate):
        raise SpecError(f"cannot serialize surrogate of type {type(s).__name__}")
    grid = s.grid.tolist()
    slopes, intercepts = interpolate(s.grid, s.nodes)
    out = {
        "format": SURROGATE_FORMAT,
        "kind": s.kind,
        "grid": grid,
        "nodes": s.nodes.tolist(),
        "v_bar": [{"breakpoints": list(grid), "slopes": a, "intercepts": c}
                  for a, c in zip(slopes.tolist(), intercepts.tolist())],
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


def surrogate_from_json(d) -> Surrogate:
    """Rebuild a surrogate from format 1, 2, 3 or 4; errors name the field
    at fault."""
    kind = _field(d, "kind", str)
    if d.get("format", 1) not in (1, 2, 3, SURROGATE_FORMAT):
        raise SpecError(f"unknown surrogate format {d['format']!r}")
    if kind not in ("embedding", "normals") or (kind == "embedding" and "normals" in d):
        raise SpecError(f"unknown surrogate kind {kind!r}")
    raw = _field(d, "normals", np.ndarray) if kind == "normals" else None
    normals = None if raw is None else OrientedNormals(raw)
    if normals is not None and (normals.o != raw).any():  # a file holds them oriented
        raise _misordered(int(np.argmax((normals.o != raw).any(axis=1))))
    if d.get("format") == SURROGATE_FORMAT:
        grid, nodes = _field(d, "grid", np.ndarray), _field(d, "nodes", np.ndarray)
    else:
        grid, nodes = _nodes_from_v_bar(d, normals)
    cost = CostMatrix(_field(d, "cost_matrix", np.ndarray)) if "cost_matrix" in d else None
    return Surrogate(grid, nodes, _field(d, "thresholds", np.ndarray), normals, cost)


def read_surrogate(path) -> Surrogate:
    """The surrogate in ``path``, which must hold the discrete target it
    links to (an embedding its cost matrix); errors in its contents name the
    path."""
    surrogate = _read(path, surrogate_from_json)
    if surrogate.cost is None and surrogate.normals is None:
        raise SpecError(f"{path}: field 'cost_matrix' is missing: an embedding surrogate "
                        "needs its cost matrix; re-run construct")
    return surrogate


def _nodes_from_v_bar(d: dict, normals) -> tuple[np.ndarray, np.ndarray]:
    """(grid, nodes) from the ``v_bar`` of a format 1-3 file, which must be
    what the property kernel evaluates: one grid, unit tail slopes, and for
    normals the negated normals within CONTINUITY_TOL, then the nodes."""
    v_bar = []
    for y, v in enumerate(_field(d, "v_bar", list), start=1):
        try:
            bp, a, c = (_field(v, key, "finite") for key in ("breakpoints", "slopes", "intercepts"))
            if len(bp) < 1:
                raise SpecError("need at least one breakpoint")
            if np.any(np.diff(bp) <= 0):
                raise SpecError("breakpoints must be strictly increasing")
            if len(a) != len(bp) + 1 or len(c) != len(bp) + 1:
                raise SpecError("need exactly one more piece than breakpoints")
            _check_continuity(bp, a, c)
        except SpecError as exc:
            raise SpecError(f"v_bar of outcome {y}: {exc}") from None
        v_bar.append((bp, a, c))
    if not v_bar:
        raise SpecError("field 'v_bar' holds no functions")
    grid = v_bar[0][0]
    shape = (len(v_bar), len(grid))
    want = None if normals is None else -normals.o.T
    nodes = []
    for y, (bp, a, c) in enumerate(v_bar, start=1):
        if not np.array_equal(bp, grid):
            why = "has another grid than outcome 1"
        elif a[0] != 1.0 or a[-1] != 1.0:
            why = f"has tail slopes {float(a[0])!r} and {float(a[-1])!r}, not 1"
        else:
            nodes.append(a[:-1] * grid + c[:-1])  # each piece at its right end
            if want is None or (want.shape == shape and not
                                np.abs(nodes[-1] - want[y - 1]).max() > CONTINUITY_TOL):
                continue
            why = f"differs from the negated normals on its grid by more than {CONTINUITY_TOL}"
        raise SpecError(f"v_bar of outcome {y} {why}, which the property kernel "
                        "does not evaluate")
    return grid, np.stack(nodes) if want is None else want


# _field kinds: the JSON types each accepts, and how an error names it.
_KINDS = {str: (str, "a string"), list: (list, "an array"), dict: (dict, "an object"),
          float: ((int, float), "a number"), np.ndarray: (list, "an array of numbers"),
          "finite": (list, "a flat array of finite numbers"),
          "id": ((str, int, float), "a string or a number")}


def _field(d, key: str, kind: type):
    """``d[key]`` when d is a JSON object holding a ``kind`` there: str,
    list, dict, "id" (a string or a number, returned as its ``str``), float
    (a number, returned as float), np.ndarray (an array of numbers, or of
    such arrays, returned as float64 by :func:`_array`) or "finite" (a flat
    np.ndarray of finite numbers); otherwise a SpecError that names the
    key.  Bools and strings are not numbers."""
    if not isinstance(d, dict):
        raise SpecError(f"expected a JSON object with field {key!r}, got {type(d).__name__}")
    if key not in d:
        raise SpecError(f"field {key!r} is missing")
    value = d[key]
    types, want = _KINDS[kind]
    if kind in (np.ndarray, "finite"):
        array = _array(value)
        if array is not None and (kind is np.ndarray or array.ndim == 1
                                  and np.all(np.isfinite(array))):
            return array
    elif isinstance(value, types) and not (kind in (float, "id") and isinstance(value, bool)):
        try:
            return float(value) if kind is float else str(value) if kind == "id" else value
        except OverflowError:  # an integer beyond float64
            pass
    raise SpecError(f"field {key!r} must be {want}, not {value!r:.40}")


def _array(value, dtype=np.float64) -> np.ndarray | None:
    """``value`` as a float64 or int64 array when it is a JSON array of
    numbers, or of such arrays of one shape, that all fit ``dtype`` (for
    int64, integers only); otherwise None.  Bools and strings are not
    numbers.  numpy reads the array once, and the kind of what it makes
    shows a string, null or an object; integers beyond int64 make an object
    or uint64 array, converted entry by entry.  A bool among numbers reads
    as 0 or 1, so only the innermost arrays that hold a 0 or a 1 are
    checked value by value."""
    if type(value) is not list:
        return None
    try:
        array = np.array(value)
    except ValueError:  # ragged
        return None
    kind = array.dtype.kind
    if kind == "O":
        numbers = {int} if dtype is np.int64 else {int, float}
        if not set(map(type, array.ravel().tolist())) <= numbers:
            return None
        try:
            return array.astype(dtype)
        except OverflowError:
            return None
    if array.size and kind not in ("i" if dtype is np.int64 else "iuf"):
        return None
    suspect = (array == 0) | (array == 1)
    if suspect.any():
        rows = value  # the innermost arrays, or the values of a flat one
        for _ in range(array.ndim - 2):
            rows = list(itertools.chain.from_iterable(rows))
        hit = np.flatnonzero(suspect.reshape(len(rows), -1).any(axis=1))
        picked = map(rows.__getitem__, hit.tolist())
        if array.ndim > 1:
            picked = itertools.chain.from_iterable(picked)
        if not set(map(type, picked)) <= {int, float}:
            return None
    return array.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# datasets


def write_dataset_csv(path, keys, n: int, blocks) -> None:
    """Write ``x_id,y`` rows from blocks (codes, y): row i of a block has
    x_id ``keys[codes[i]]`` and label ``y[i]`` in 1..n.  csv.writer formats
    each (x_id, label) line the first time a block holds it, so memory is
    one block plus the lines drawn, however many rows there are."""
    lines = np.empty(len(keys) * n, dtype=object)
    seen = np.zeros(len(lines), dtype=bool)
    fresh: list[str] = []
    writer = csv.writer(SimpleNamespace(write=fresh.append), lineterminator="\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x_id,y\n")
        for codes, y in blocks:
            line = codes * n
            line += y - 1
            new = np.unique(line[~seen[line]])
            if len(new):
                writer.writerows([keys[c // n], c % n + 1] for c in new.tolist())
                lines[new] = np.array(fresh, dtype=object)
                seen[new] = True
                fresh.clear()
            fh.write("".join(lines[line].tolist()))  # str.join is faster on a list


def read_dataset_csv(path, n: int) -> LabelCounts:
    """Label counts of an ``x_id,y`` file, read in chunks of whole lines,
    with x_ids in order of first appearance; errors name the line at fault.
    A byte-order mark before the header is skipped.

    A chunk is counted line by line (:class:`_LineCounts`) unless a line
    seen there for the first time is not a plain ``x_id,y`` line; such a
    chunk goes through csv.reader, which also pins down the line at fault.
    """
    table = _LineCounts(n)
    with open(path, "rb") as fh:
        try:
            header = next(csv.reader([fh.readline().decode("utf-8-sig")]), None)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, 1, exc) from None
        if header != ["x_id", "y"]:
            raise SpecError(f"{path}, line 1: expected header 'x_id,y', got {header}")
        line = 2
        while chunk := fh.read(CSV_CHUNK_BYTES):
            chunk += fh.readline()
            while b'"' in chunk and chunk.count(b'"') % 2 and (more := fh.readline()):
                chunk += more  # finish a quoted field that spans lines
            if not chunk.endswith(b"\n"):
                chunk += b"\n"
            ends = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
            if not table.add_lines(chunk, ends):
                table.add_rows(*_parse_rows(chunk, line, path, n))
            line += len(ends)
    if line == 2:
        raise SpecError(f"{path}, line 2: dataset file has no rows")
    return table.counts()


def _parse_rows(chunk: bytes, line: int, path, n: int) -> tuple[list, np.ndarray]:
    """(x_ids, labels) of newline-terminated CSV lines numbered from ``line``,
    parsed by csv.reader; an error names the line at fault."""
    ids, labels = [], []
    try:
        reader = csv.reader(io.StringIO(chunk.decode("utf-8")))
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, line, exc) from None
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


def _not_utf8(path, line: int, exc: UnicodeDecodeError) -> SpecError:
    """The error of text that ``exc`` could not decode, naming the file and
    the line of the first bad byte; the text's lines are numbered from
    ``line``."""
    data, at = exc.object, exc.start
    line += data.count(b"\n", 0, at)
    column = at - data.rfind(b"\n", 0, at) - 1
    return SpecError(f"{path}, line {line}: byte 0x{data[at]:02x} in position {column} "
                     f"is not UTF-8 ({exc.reason})")


def _plain_lines(n: int) -> re.Pattern:
    """Pattern of plain ``x_id,y`` lines ended by a newline or a carriage
    return and a newline: no quote or carriage return in the x_id, one
    comma, and a label of 1 to len(str(n)) ASCII digits; the label's value
    is checked apart."""
    return re.compile(rb'(?:[^,"\r\n]*,[0-9]{1,%d}\r?\n)*' % len(str(n)))


# A line of b bytes, with its newline, packs into ceil(b / 8) little-endian
# uint64 words, zero-padded.  Two different lines differ in a byte before
# the shorter one's newline or at it, so the packing is one to one, and no
# key is zero.  _WORD_MASK[r] keeps the low r bytes of a word.
_WORD_MASK = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
# Lines longer than 8 * _KEY_WORDS bytes do not fit a key and are looked up
# by their bytes.
_KEY_WORDS = 8
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)
_MIN_SLOT_BITS = 10
_SLOTS_PER_LINE = 8


def _pack(data: bytes, starts: np.ndarray, lengths: np.ndarray, words: int,
          width: int) -> np.ndarray:
    """(width, rows) packed keys of data[starts[i]:starts[i] + lengths[i]],
    for lengths up to 8 * words; words from ``words`` on are zero."""
    padded = data + bytes(8 * words)
    at = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    keys = np.empty((width, len(starts)), dtype=np.uint64)
    if words == 1:  # every line fits one word
        np.bitwise_and(at[starts], _WORD_MASK.take(lengths), out=keys[0])
    else:
        for j in range(words):
            np.bitwise_and(at[starts + 8 * j], _WORD_MASK[np.clip(lengths - 8 * j, 0, 8)],
                           out=keys[j])
    keys[words:] = 0
    return keys


def _hash(keys: np.ndarray) -> np.ndarray:
    """Multiplicative hash of each column of (words, rows) packed keys; one
    to one for keys of one word."""
    h = keys[0] * _HASH_MULT
    for word in keys[1:]:
        h ^= word
        h *= _HASH_MULT
    return h


def _groups(keys: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first column of each distinct column, its group for every column) of
    (words, rows) packed keys with hashes ``h``.

    Columns are sorted by the top bits of their hash with the column number
    in the low bits, so each group's first column leads it; where two keys
    that differ share those bits, by hash and key words instead."""
    if not len(h):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    low = len(h).bit_length()
    order = h >> np.uint64(low)
    order <<= np.uint64(low)
    order |= np.arange(len(h), dtype=np.uint64)
    order.sort()
    differ = order[1:] >> np.uint64(low) != order[:-1] >> np.uint64(low)
    order &= np.uint64((1 << low) - 1)
    order = order.view(np.int64)
    ordered = keys[:, order]
    if np.any(np.any(ordered[:, 1:] != ordered[:, :-1], axis=0) & ~differ):
        order = np.lexsort((*keys[::-1], h))  # stable: a group's first column leads
        ordered = keys[:, order]
        differ = np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)
    lead = np.concatenate(([True], differ))
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(lead) - 1
    return order[lead], group


def _coded(index: dict, keys: list) -> np.ndarray:
    """Code of each key in ``index``, where keys not in it are first given
    the next codes in order of first appearance."""
    index.update(zip(itertools.filterfalse(index.__contains__, dict.fromkeys(keys)),
                     itertools.count(len(index))))
    return np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions starts[i] + 0..lengths[i] - 1, for each i in turn."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


class _LineCounts:
    """Label counts of a dataset file, gathered chunk by chunk.

    Lines are counted whole.  Each distinct line (newline included) gets a
    code in order of first appearance, and is split into its x_id, coded in
    ``features`` in order of first appearance, and its label once, when
    first seen; ``total`` counts the lines of each code, one bincount of a
    chunk's line codes at a time, and :meth:`counts` sums those into
    (feature, label) counts.

    A line is coded by its packed key (``packed`` holds the key of each
    code; zero for a line too long to pack, which ``long`` maps from its
    bytes instead).  One open-addressing hash table holds every packed line
    (multiplicative hash, linear probing, exact key comparison, 4 to 16
    slots per line); ``reach`` is the largest distance of a key from its
    home slot.  A lookup compares every row with its home slot, then probes
    up to ``reach`` slots further, one round at a time over the rows not
    yet resolved, so its cost grows with ``reach``: keys that crowd one run
    of slots (such as many keys sharing the top bits of their hash) slow a
    read but do not change its counts.  The table is rebuilt when it grows
    or its keys widen.
    """

    def __init__(self, n: int):
        self.n = n
        self.plain = _plain_lines(n)
        self.features: dict = {}  # x_id -> feature code
        self.long: dict = {}      # line too long to pack -> line code
        self.feature = np.zeros(0, dtype=np.int64)  # per line code
        self.label = np.zeros(0, dtype=np.int64)
        self.total = np.zeros(0, dtype=np.int64)    # lines counted per code
        self.packed = np.zeros((1, 0), dtype=np.uint64)
        self.parsed = np.zeros(0, dtype=np.int64)  # (feature, label) totals of csv.reader rows
        self._rebuild(_MIN_SLOT_BITS, 1)

    def add_lines(self, chunk: bytes, ends: np.ndarray) -> bool:
        """Count the lines of ``chunk`` ending at the newlines ``ends``;
        False, counting nothing, when a line not seen before is not a plain
        ``x_id,y`` line (:func:`_plain_lines`) with a label in 1..n."""
        starts, lengths = np.empty_like(ends), np.empty_like(ends)
        starts[0], lengths[0] = 0, ends[0] + 1
        np.add(ends[:-1], 1, out=starts[1:])
        np.subtract(ends[1:], ends[:-1], out=lengths[1:])
        fit, longs = lengths, None
        if lengths.max() > 8 * _KEY_WORDS:
            longs = np.flatnonzero(lengths > 8 * _KEY_WORDS)
            fit = lengths.copy()
            fit[longs] = 0
        words = (int(fit.max()) + 7) // 8 or 1
        if words > len(self.packed):
            self._rebuild(self.bits, min(_KEY_WORDS, max(words, 2 * len(self.packed))))
        keys = _pack(chunk, starts, fit, words, len(self.packed))
        code, new = self._lookup(keys)
        if longs is not None:  # a long line's zero key is held nowhere
            lines = list(map(chunk.__getitem__, map(slice, starts[longs].tolist(),
                                                     (ends[longs] + 1).tolist())))
            code[longs] = [self.long.get(line, -1) for line in lines]
            new = np.union1d(new, longs)
            new = new[code[new] < 0]
        if len(new):
            short = new if longs is None else new[lengths[new] <= 8 * _KEY_WORDS]
            first, group = _groups(keys[:, short], _hash(keys[:, short]))
            rows = short[first]
            if len(short) < len(new):  # new long lines, grouped by their bytes
                seen: dict = {}
                long_group = [seen.setdefault(line, len(seen)) for line, c
                              in zip(lines, code[longs].tolist()) if c < 0]
                new_long = longs[code[longs] < 0]
                rows = np.concatenate([rows, new_long[np.unique(long_group, return_index=True)[1]]])
                group = np.concatenate([group, len(first) + np.asarray(long_group, dtype=np.intp)])
                new = np.concatenate([short, new_long])  # in the order of group
            order = np.argsort(rows)  # first appearance
            added = self._add(chunk, starts[rows[order]], lengths[rows[order]])
            if added is None:
                return False
            code_of = np.empty(len(rows), dtype=np.int64)
            code_of[order] = added
            code[new] = code_of[group]
        self.total += np.bincount(code, minlength=len(self.total))  # before a rebuild ranks lines
        if len(new):
            self._place(keys[:, rows[order]], added)
        return True

    def add_rows(self, x_ids: list, labels: np.ndarray) -> None:
        """Count rows parsed by csv.reader into ``parsed``, which holds
        features x n totals however many rows there are."""
        codes = _coded(self.features, x_ids)
        parsed = np.bincount(codes * self.n + labels - 1, minlength=len(self.features) * self.n)
        parsed[:len(self.parsed)] += self.parsed
        self.parsed = parsed

    def counts(self) -> LabelCounts:
        n = self.n
        counts = np.bincount(self.feature * n + self.label - 1, weights=self.total,
                             minlength=len(self.features) * n)
        counts[:len(self.parsed)] += self.parsed
        return LabelCounts(tuple(self.features), counts.reshape(-1, n))

    def _home(self, keys: np.ndarray) -> np.ndarray:
        """Home slot of each column of (words, rows) packed keys."""
        h = _hash(keys)
        h >>= np.uint64(64 - self.bits)
        return h.view(np.int64)

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(line code of each packed key, -1 where the table does not hold
        it; columns of the keys not held).

        A key is compared with the key in its home slot and, where that
        differs, in up to ``reach`` slots after it; a probe ends early at an
        empty slot, since no key lies past one."""
        slot = self._home(keys)
        miss = np.flatnonzero(self._differ(keys, slot))
        probe = miss
        for _ in range(self.reach):
            probe = probe[self.codes.take(slot[probe]) >= 0]
            if not len(probe):
                break
            slot[probe] += 1
            slot[probe] &= len(self.codes) - 1
            probe = probe[self._differ(keys[:, probe], slot[probe])]
        if self.reach:
            miss = miss[self._differ(keys[:, miss], slot[miss])]
        code = self.codes.take(slot)
        code[miss] = -1
        return code, miss

    def _differ(self, keys: np.ndarray, slot: np.ndarray) -> np.ndarray:
        """Whether each packed key differs from the key held in its slot."""
        other = self.keys[0].take(slot) != keys[0]
        for held, word in zip(self.keys[1:], keys[1:]):
            other |= held.take(slot) != word
        return other

    def _add(self, chunk: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
        """Add the distinct new lines chunk[starts[i]:starts[i] + lengths[i]],
        in order of first appearance, and return their codes; None, adding
        nothing, when one is not plain or not UTF-8."""
        text = np.frombuffer(chunk, dtype=np.uint8)[_ragged(starts, lengths)].tobytes()
        if not self.plain.fullmatch(text):
            return None
        try:
            fields = text.decode("utf-8").replace("\n", ",").split(",")
        except UnicodeDecodeError:  # csv.reader's pass names the line
            return None
        labels = np.fromstring(" ".join(fields[1::2]), dtype=np.int64, sep=" ")
        if labels.min() < 1 or labels.max() > self.n:
            return None
        codes = np.arange(len(self.total), len(self.total) + len(labels))
        self.feature = np.concatenate([self.feature, _coded(self.features, fields[:-1:2])])
        self.label = np.concatenate([self.label, labels])
        self.total = np.concatenate([self.total, np.zeros(len(labels), dtype=np.int64)])
        if lengths.max() > 8 * _KEY_WORDS:
            longs = lengths > 8 * _KEY_WORDS
            self.long.update((chunk[a:a + b], code) for a, b, code in
                             zip(starts[longs].tolist(), lengths[longs].tolist(),
                                 codes[longs].tolist()))
        return codes

    def _place(self, keys: np.ndarray, codes: np.ndarray) -> None:
        """Hold the new lines ``codes``, with packed keys ``keys`` (zero for a
        long line), in the table, rebuilding it when it is too full."""
        self.packed = np.concatenate([self.packed, keys], axis=1)
        if _SLOTS_PER_LINE * len(self.total) > 2 * len(self.codes):
            self._rebuild(max(self.bits, (_SLOTS_PER_LINE * len(self.total) - 1).bit_length()),
                          len(self.packed))
        else:
            fit = np.flatnonzero(keys.any(axis=0))
            self._insert(keys[:, fit], codes[fit])

    def _insert(self, keys: np.ndarray, codes: np.ndarray) -> None:
        """Put distinct keys not in the table into it: each takes the first
        free slot from its home slot on; of keys that reach a free slot at
        once, the one whose code is written there last (the first key, as
        numpy writes in order) takes it."""
        home = self._home(keys)
        left = np.arange(len(codes))
        step = 0
        while len(left):
            at = home[left] + step
            at &= len(self.codes) - 1
            free = np.flatnonzero(self.codes.take(at) < 0)
            self.codes[at[free[::-1]]] = codes[left[free[::-1]]]
            won = self.codes.take(at) == codes[left]
            self.keys[:, at[won]] = keys[:, left[won]]
            if won.any():
                self.reach = max(self.reach, step)
            left = left[~won]
            step += 1

    def _rebuild(self, bits: int, words: int) -> None:
        """Empty table of 2**bits slots for keys of ``words`` words, then
        every packed line inserted, the most counted first so that they
        keep their home slots."""
        self.bits, self.reach = bits, 0
        self.packed = np.concatenate(
            [self.packed, np.zeros((words - len(self.packed), self.packed.shape[1]),
                                   dtype=np.uint64)])
        self.keys = np.zeros((words, 1 << bits), dtype=np.uint64)
        self.codes = np.full(1 << bits, -1, dtype=np.int64)
        fit = np.flatnonzero(self.packed.any(axis=0))
        fit = fit[np.argsort(-self.total[fit], kind="stable")]
        self._insert(self.packed[:, fit], fit)


# ---------------------------------------------------------------------------
# level-set grids


def write_levelsets_csv(path, points, gamma_discrete, gamma_surrogate) -> None:
    """Write ``p1,p2,p3,gamma_discrete,gamma_surrogate`` rows, one per grid
    point, in the order given: floats as their shortest round-trip ``repr``,
    reports as integers, ``\\n`` line ends.

    Each column is formatted once per distinct value (by bit pattern, so
    -0.0 keeps its sign), and rows are joined and written
    ``LEVELSETS_BLOCK_ROWS`` at a time.  The line end before each row goes
    with its first cell, so that the surrogate column, whose values are
    nearly all distinct, is formatted with no suffix.
    """
    columns = (*np.asarray(points, dtype=np.float64).T,
               np.asarray(gamma_discrete, dtype=np.int64),
               np.asarray(gamma_surrogate, dtype=np.float64))
    cells = [_cell_table(col, start, end) for col, start, end
             in zip(columns, ("\n", "", "", "", ""), (",", ",", ",", ",", ""))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("p1,p2,p3,gamma_discrete,gamma_surrogate")
        for first in range(0, len(columns[0]), LEVELSETS_BLOCK_ROWS):
            rows = slice(first, first + LEVELSETS_BLOCK_ROWS)
            block = np.column_stack([text[index[rows]] for text, index in cells])
            fh.write("".join(block.ravel().tolist()))
        fh.write("\n")


def _cell_table(column: np.ndarray, start: str, end: str) -> tuple[np.ndarray, np.ndarray]:
    """(text, index) of a float64 or int64 column: ``text[index[r]]`` is the
    ``repr`` of row r's value between ``start`` and ``end``."""
    col = np.ascontiguousarray(column)
    bits, index = np.unique(col.view(np.uint64), return_inverse=True)
    text = _number_texts(bits.view(col.dtype))
    if start or end:
        text = [start + t + end for t in text]
    return np.array(text, dtype=object), index


def _number_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each entry of a float64 or int64 array, in C order; the
    floats through :func:`float_reprs`."""
    if values.dtype == np.float64:
        return float_reprs(values)
    return list(map(repr, values.ravel().tolist()))


# ---------------------------------------------------------------------------
# predictors, scenarios, audit reports


# JSON's spellings of the floats whose repr is nan, inf and -inf
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_predictor(path, p: PredictorTable) -> None:
    """Write the predictor file whose text is :func:`predictor_to_json`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(predictor_to_json(p))


def predictor_to_json(p: PredictorTable) -> str:
    """The text of a predictor file: byte for byte ``dumps`` of
    ``{"kind": p.kind, "table": {str(x_id): prediction}}``, written as a
    table.

    Keys come in sorted order, escaped as ``json`` escapes them for ASCII
    output.  Each number is formatted once: floats by :func:`float_reprs`,
    whose text is ``float.__repr__``'s, with NaN and the infinities spelled
    as ``json`` spells them, and reports by ``int.__repr__``.  The rows are
    filled in by one ``%`` of a row template repeated.  Of x_ids with the
    same ``str``, the last one's row is written, as in a dict.
    """
    row_of = dict(zip(map(str, p.index), p.index.values()))
    names = sorted(row_of)
    head = f'{{\n  "kind": {encode_basestring_ascii(p.kind)},\n  "table": '
    if not names:
        return head + "{}\n}\n"
    values = p.values[np.fromiter(map(row_of.__getitem__, names), np.intp, len(names))]
    width = values.shape[1] if p.kind == "distribution" else 1
    texts = _number_texts(values)
    if p.kind != "report" and not np.all(np.isfinite(values)):
        texts = [_JSON_FLOATS.get(t, t) for t in texts]
    if p.kind != "distribution":
        template = "    %s: %s"
    elif width:
        template = "    %s: [" + ",".join(["\n      %s"] * width) + "\n    ]"
    else:
        template = "    %s: []"
    cells = [None] * (len(names) * (width + 1))  # each row's name, then its numbers
    cells[::width + 1] = map(encode_basestring_ascii, names)
    for j in range(width):
        cells[j + 1::width + 1] = texts[j::width]
    body = ",\n".join([template] * len(names)) % tuple(cells)
    return head + "{\n" + body + "\n  }\n}\n"


def predictor_from_json(d, n: int, source: str = "the predictor") -> PredictorTable:
    """Predictor table from JSON, for a property with n outcomes: a
    distribution must be n numbers, a scalar a number and a report an
    integer (an integral float such as 2.0 counts); bools and strings are
    not numbers.  An error names ``source`` and the field or x_id at fault."""
    try:
        kind, raw = _field(d, "kind", str), _field(d, "table", dict)
        if kind not in ("distribution", "scalar", "report"):
            raise SpecError(f"unknown predictor kind {kind!r}")
    except SpecError as exc:
        raise SpecError(f"{source}: {exc}") from None
    keys, rows = tuple(raw), list(raw.values())
    if kind == "report" and float in set(map(type, rows)):
        rows = [int(v) if type(v) is float and v.is_integer() else v for v in rows]
    dtype = np.int64 if kind == "report" else np.float64
    shape = (len(rows), n) if kind == "distribution" else (len(rows),)
    values = _array(rows, dtype)
    if np.shape(values) == shape or not rows:
        return PredictorTable(kind, keys, values.reshape(shape))
    for x, v in zip(keys, rows):  # name the first value at fault
        if kind == "distribution" and (type(v) is not list or len(v) != n):
            raise SpecError(f"x_id {x!r} in {source}: distribution of shape "
                            f"{(len(v),) if type(v) is list else ()} for {n} outcomes")
        if np.shape(_array([v], dtype)) != (1, *shape[1:]):
            raise SpecError(f"x_id {x!r} in {source}: " + _NOT_A_PREDICTION[kind].format(v, n))
    raise AssertionError("every value is a prediction, so the table converts")


# Why a value of a predictor table of each kind is refused, given the value
# and the number of outcomes.
_NOT_A_PREDICTION = {
    "distribution": "distribution {!r:.60} is not {} numbers in the float64 range",
    "scalar": "scalar prediction {!r:.40} is not a number in the float64 range",
    "report": "report prediction {!r:.40} is not an integer in the int64 range"}


def read_predictor(path, n: int) -> PredictorTable:
    """Read a predictor file for a property with n outcomes.  Distributions
    must be points of the n-outcome simplex, scalars finite and at most
    ``MAX_MAGNITUDE`` in magnitude, and reports integers; an error names the
    file and the x_id at fault."""
    p = predictor_from_json(read_json(path), n, str(path))
    if p.kind == "scalar" and not np.all(np.abs(p.values) <= MAX_MAGNITUDE):
        i = int(np.argmin(np.abs(p.values) <= MAX_MAGNITUDE))  # the first row at fault
        why = "is not finite" if not np.isfinite(p.values[i]) else \
            f"is beyond {MAX_MAGNITUDE:g} in magnitude"
        raise SpecError(f"x_id {p.keys[i]!r} in {path}: scalar prediction "
                        f"{p.values[i]} {why}")
    if p.kind == "distribution":
        try:
            as_simplex_points(p.values)
        except SimplexError as exc:
            raise SpecError(f"x_id {p.keys[exc.row]!r} in {path}: distribution is not "
                            f"on the simplex: {exc.reason}") from None
    return p


def scenario_from_json(d) -> ScenarioSpec:
    """Scenario from JSON; errors name the field at fault, and the feature
    or predictor that holds it."""
    features = _field(d, "features", list)
    try:  # every feature at once
        ids = [f["id"] for f in features]
        weights = _array([f["weight"] for f in features])
        conditionals = _array([f["conditional"] for f in features])
        kinds = set(map(type, ids))
        if not (kinds <= {str, int, float} and np.ndim(weights) == 1
                and np.ndim(conditionals) == 2):
            raise ValueError
        if not kinds <= {str}:
            ids = list(map(str, ids))  # as simulate writes them
    except (KeyError, TypeError, ValueError):
        ids, weights, conditionals = _features(features)
    if len(set(ids)) < len(ids):
        first: dict[str, int] = {}
        for i, x in enumerate(ids, start=1):
            if first.setdefault(x, i) != i:
                raise SpecError(f"features {first[x]} and {i} both have id {x!r} "
                                "(ids compare as strings)")
    pred = _field(d, "predictor", dict) if "predictor" in d else {"recipe": "bayes"}
    try:
        recipe = _field(pred, "recipe", str)
        eta = _field(pred, "eta", float) if "eta" in pred else 0.0
        fixed = None
        if recipe == "fixed":
            table = _field(pred, "table", dict)
            fixed = {k: _field(table, k, np.ndarray) for k in table}
            for k, row in fixed.items():
                if row.shape != np.shape(conditionals)[1:]:
                    raise SpecError(f"field {k!r} must be a flat array with one number "
                                    f"per outcome, not {table[k]!r:.40}")
    except SpecError as exc:
        raise SpecError(f"predictor: {exc}") from None
    return ScenarioSpec(tuple(ids), weights, conditionals, recipe, eta, fixed)


def _features(features: list) -> tuple[list, list, list]:
    """(ids, weights, conditionals) of scenario features read one by one;
    an error names the feature and its field."""
    ids, weights, conditionals = [], [], []
    for i, f in enumerate(features, start=1):
        try:
            ids.append(_field(f, "id", "id"))
            weights.append(_field(f, "weight", float))
            conditionals.append(_field(f, "conditional", np.ndarray))
            if conditionals[-1].shape != conditionals[0].shape[:1]:
                raise SpecError("field 'conditional' must be a flat array with one number "
                                f"per outcome, as in feature 1, not "
                                f"{f['conditional']!r:.40}")
        except SpecError as exc:
            raise SpecError(f"feature {i}: {exc}") from None
    return ids, weights, conditionals


def read_scenario(path) -> ScenarioSpec:
    """The scenario in ``path``; errors in its contents name the path."""
    return _read(path, scenario_from_json)

