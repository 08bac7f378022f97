"""Document format 1, and the format-8 parser's checks one row at a time, kept as references.

Format 1 names every vertex by its label everywhere: a level is a list of
``{"id", "label", "sequence"}`` records, an edge a pair of ids, and a
sequence entry a list of level-0 labels, all written by
``json.dumps(indent=2, sort_keys=True)``. The library reads and writes
format 8 only, which stores no sequences and no generated label; tests
require both formats to decode to the same labelled graph, and each
sequence format 1 stores to be the one ``characterising_sequence``
recovers from the format-8 graph. Format 1
fills its sequences with ``reference_sequence``, which reads labelled
neighbourhoods, so that comparison checks the library against a second
implementation.

``reference_parse_v8`` is ``parse_document`` written plainly: it tests
each level's labels with ``reference_labels_ascend``, decodes each level's
stored down rows with ``reference_decode_level``, which adds each first gap
to the previous first index and then decodes each row with
``reference_decode_row``, a running sum, finds the first decoded row at
fault with ``reference_row_fault``, which tests each row on its own with
``reference_strict``, and tests each decoded row of a generated level, a
seed above level 1, against the row before it. Like the
library it rebuilds no row; ``reference_rebuild``, a set intersection,
gives a seed's whole row to the tests that compare the graph's. Tests
require the library to raise the same message, or return an equal
document, on any text.

``reference_read_edge_list`` is the edge-list reader that reads each line
from a ``StringIO`` in universal-newline mode and strips it; the library
splits the text at ``\n``, ``\r\n`` and a lone ``\r`` instead. Tests require
both to give equal graphs, or the same error, on any text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from io import StringIO
from itertools import chain
from pathlib import Path
from typing import Any

from cleanfactor import (
    DecompositionDocument,
    DocumentFormatError,
    EdgeListParseError,
    Graph,
    InvalidArgumentError,
    MultipartiteGraph,
    SeriesResult,
)
from cleanfactor.io import _not_utf8
from reference_graphs import Neighbours
from reference_oracle import reference_sequence

FORMAT_VERSION = 1


def reference_read_edge_list(path: str | Path) -> Graph:
    """Parse a whitespace edge list: 'u v' per line, 'v' alone declares a vertex.

    One leading byte-order mark is dropped. Lines starting with '#' and
    blank lines are skipped; duplicate edges collapse silently; self-loops
    and malformed lines are rejected with their line number. An edge list
    declaring no vertices is rejected, and so is a file that is not UTF-8,
    with the offset of the first bad byte.
    """
    data = Path(path).read_bytes()
    try:
        # not the utf-8-sig codec, which would count a bad byte's offset from after the mark
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise EdgeListParseError(before.count(b"\n") + 1, _not_utf8(exc)) from None
    vertices: set[str] = set()
    edges: set[tuple[str, str]] = set()
    # universal newlines, as reading the file in text mode would give
    for lineno, raw in enumerate(StringIO(text, newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            vertices.add(parts[0])
        elif len(parts) == 2:
            u, v = parts
            if u == v:
                raise InvalidArgumentError(f"line {lineno}: self-loop on vertex {u!r}")
            vertices.update((u, v))
            edges.add((min(u, v), max(u, v)))
        else:
            raise EdgeListParseError(lineno, f"expected one or two labels, got {len(parts)}")
    if not vertices:
        raise InvalidArgumentError(f"{path}: edge list declares no vertices")
    return Graph(vertices, edges)


@dataclass(frozen=True)
class VertexRecord:
    id: str
    label: str
    sequence: tuple[tuple[str, ...], ...] | None = None


@dataclass(frozen=True)
class LevelRecord:
    index: int
    vertices: tuple[VertexRecord, ...]


@dataclass(frozen=True)
class V1Document:
    format_version: int
    source_hash: str
    operator: str
    status: str
    levels: tuple[LevelRecord, ...]
    edges: tuple[tuple[str, str], ...]


def reference_build_document(result: SeriesResult, source_hash: str) -> V1Document:
    m = result.final
    adj = Neighbours(m)
    sequences = {
        x: tuple(tuple(sorted(o)) for o in reference_sequence(m, adj, x)) for x in chain.from_iterable(m.levels[2:])
    }
    levels = tuple(
        LevelRecord(index=li, vertices=tuple(VertexRecord(v, v, sequences.get(v)) for v in members))
        for li, members in enumerate(m.levels)
    )
    return V1Document(FORMAT_VERSION, source_hash, result.operator.value, result.status.value, levels, m.edges())


def reference_to_json(doc: V1Document) -> str:
    payload: dict[str, Any] = {
        "format_version": doc.format_version,
        "source_hash": doc.source_hash,
        "operator": doc.operator,
        "status": doc.status,
        "levels": [
            {
                "index": level.index,
                "vertices": [
                    {"id": vr.id, "label": vr.label}
                    | ({"sequence": [list(o) for o in vr.sequence]} if vr.sequence is not None else {})
                    for vr in level.vertices
                ],
            }
            for level in doc.levels
        ],
        "edges": [[a, b] for a, b in doc.edges],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentFormatError(message)


def reference_parse_document(text: str) -> V1Document:
    """One plain check per field, in document order; the first failure is named."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"not valid JSON: {exc}") from None
    _expect(isinstance(payload, dict), "top level must be an object")
    for key in ("format_version", "source_hash", "operator", "status", "levels", "edges"):
        _expect(key in payload, f"missing key {key!r}")
    version = payload["format_version"]
    _expect(type(version) is int and version == FORMAT_VERSION, "unsupported format_version")
    _expect(isinstance(payload["source_hash"], str), "source_hash must be a string")
    _expect(payload["operator"] in ("weak", "factor", "clean"), "unknown operator")
    _expect(payload["status"] in ("terminated", "budget-exceeded"), "unknown status")
    _expect(isinstance(payload["levels"], list) and len(payload["levels"]) >= 2, "need at least two levels")

    ids: set[str] = set()
    levels = []
    for pos, level in enumerate(payload["levels"]):
        _expect(isinstance(level, dict), "levels must be objects")
        index = level.get("index")
        _expect(type(index) is int and index == pos, f"level index {index!r} out of order")
        raw_vertices = level.get("vertices")
        _expect(isinstance(raw_vertices, list) and raw_vertices, f"level {pos} needs vertices")
        records = []
        for rv in raw_vertices:
            _expect(isinstance(rv, dict), "vertex records must be objects")
            vid = rv.get("id")
            _expect(isinstance(vid, str), "vertex id must be a string")
            _expect(vid not in ids, f"duplicate vertex id {vid!r}")
            ids.add(vid)
            label = rv.get("label")
            _expect(isinstance(label, str), "vertex label must be a string")
            sequence = None
            if "sequence" in rv:
                raw_seq = rv["sequence"]
                _expect(
                    isinstance(raw_seq, list)
                    and all(isinstance(o, list) and all(isinstance(v, str) for v in o) for o in raw_seq),
                    f"vertex {vid!r}: sequence must be a list of label lists",
                )
                sequence = tuple(tuple(o) for o in raw_seq)
            _expect(pos < 2 or sequence is not None, f"vertex {vid!r} at level {pos} needs a sequence")
            records.append(VertexRecord(id=vid, label=label, sequence=sequence))
        levels.append(LevelRecord(index=pos, vertices=tuple(records)))

    _expect(isinstance(payload["edges"], list), "edges must be a list")
    edges = []
    for raw in payload["edges"]:
        _expect(
            isinstance(raw, list) and len(raw) == 2 and all(isinstance(v, str) for v in raw),
            "edges must be pairs of ids",
        )
        a, b = raw
        _expect(a in ids and b in ids, f"edge [{a!r}, {b!r}] references an undeclared id")
        edges.append((a, b))

    return V1Document(
        format_version=FORMAT_VERSION,
        source_hash=payload["source_hash"],
        operator=payload["operator"],
        status=payload["status"],
        levels=tuple(levels),
        edges=tuple(edges),
    )


def reference_decode(doc: V1Document) -> tuple[MultipartiteGraph, dict[str, tuple[tuple[str, ...], ...]]]:
    """The graph a format-1 document describes, and each stored sequence by vertex label."""
    graph = MultipartiteGraph([[vr.id for vr in level.vertices] for level in doc.levels], doc.edges)
    sequences = {vr.id: vr.sequence for level in doc.levels for vr in level.vertices if vr.sequence is not None}
    return graph, sequences


def reference_labels_ascend(level: list[str]) -> bool:
    """Whether a level's labels are sorted and distinct."""
    return sorted(set(level)) == level


def reference_strict(row: list[int], lo: int, limit: int) -> bool:
    """Whether a row, on its own, is strictly ascending inside ``range(lo, limit)``."""
    return all(lo <= j < limit for j in row) and sorted(set(row)) == row


def _down_problem(row: list[int], lo: int, limit: int, n: int) -> str:
    for j in row:
        if not 0 <= j < n:
            return f"index {j} is out of range"
        if j >= limit:
            return f"index {j} is not on a lower level"
        if j < lo:
            return f"index {j} is not on the level below"
    return "indexes are not strictly ascending"


def reference_row_fault(rows: list[list[int]], lo: int, limit: int, n: int, seeds: bool) -> tuple[int, str] | None:
    """The first of a level's stored down rows at fault, and why: each row on its own, and a seed's length."""
    for t, row in enumerate(rows):
        if not reference_strict(row, lo, limit):
            return t, _down_problem(row, lo, limit, n)
        if seeds and len(row) < 2:
            return t, "a seed holds at least two indexes"
    return None


def reference_decode_row(stored: list[int]) -> list[int]:
    """A stored row's indexes: its first index, then each gap added to the index before."""
    row, total = [], 0
    for gap in stored:
        total += gap
        row.append(total)
    return row


def reference_encode_row(row: list[int]) -> list[int]:
    """A row as a document stores it: its first index, then each index less the one before."""
    return [j - before for before, j in zip([0] + row, row)]


def reference_decode_level(stored: list[list[int]]) -> list[list[int]]:
    """A level's stored rows as indexes: a non-empty row's first gap added to the previous one's first index, from 0."""
    rows, first = [], 0
    for row in stored:
        if row:
            first += row[0]
            row = [first, *row[1:]]
        rows.append(reference_decode_row(row))
    return rows


def reference_encode_level(rows: list[list[int]]) -> list[list[int]]:
    """A level's rows as a document stores them: each gap-coded, its first index less the previous non-empty row's."""
    stored, first = [], 0
    for row in rows:
        coded = reference_encode_row(list(row))
        if row:
            coded[0], first = row[0] - first, row[0]
        stored.append(coded)
    return stored


def _level_spans(levels: list) -> list[slice]:
    """The down rows of each level above 0, by the sizes in ``levels``; rows past the top count as the top level's."""
    starts = [0]
    for level in levels[1:-1]:
        starts.append(starts[-1] + (level if type(level) is int else len(level)))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [None])]


def reference_decode_down(levels: list, stored: list[list[int]]) -> list[list[int]]:
    """A document's down rows as indexes, level by level."""
    return [row for span in _level_spans(levels) for row in reference_decode_level(stored[span])]


def reference_encode_down(levels: list, rows) -> list[list[int]]:
    """Down rows as a document stores them, level by level, as ``to_json`` writes them."""
    return [row for span in _level_spans(levels) for row in reference_encode_level(list(rows[span]))]


def with_rows(payload: dict, edit) -> dict:
    """``payload`` with ``edit`` applied to its down rows as indexes, and the rows coded again as the writer would.

    The tests' one tamper helper: a test edits a document's rows by index, and only this module and the library
    know how a document codes them."""
    rows = reference_decode_down(payload["levels"], payload["down"])
    edit(rows)
    payload["down"] = reference_encode_down(payload["levels"], rows)
    return payload


def reference_rebuild(seed: list[int], whole: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """A seed's whole row from the whole rows of its members: their common neighbourhood, sorted, then the seed."""
    return tuple(sorted(set.intersection(*(set(whole[j]) for j in seed)))) + tuple(seed)


def reference_parse_v8(text: str) -> DecompositionDocument:
    """A format-8 document, checked one level's labels and one decoded down row at a time."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentFormatError("not valid JSON: nested too deeply") from None
    _expect(type(payload) is dict, "top level must be an object")
    version = payload.get("format_version")
    _expect(type(version) is int and version == 8, "unsupported format_version: this reader takes 8")
    keys = ("format_version", "source_hash", "operator", "status", "levels", "down")
    for key in keys:
        _expect(key in payload, f"missing key {key!r}")
    unknown = next((key for key in payload if key not in keys), None)
    _expect(unknown is None, f"unknown key {unknown!r}")
    _expect(type(payload["source_hash"]) is str, "source_hash must be a string")
    _expect(payload["operator"] in ("weak", "factor", "clean"), "unknown operator")
    _expect(payload["status"] in ("terminated", "budget-exceeded"), "unknown status")

    levels = payload["levels"]
    _expect(type(levels) is list and len(levels) >= 2, "need at least two levels")
    for li, level in enumerate(levels):
        if li > 0 and type(level) is int and level >= 1:
            continue  # a generated level: its size
        _expect(li < 2, f"level {li} must be a positive vertex count: only levels 0 and 1 are given")
        labelled = type(level) is list and level and set(map(type, level)) == {str}
        _expect(labelled, f"level {li} must be a non-empty list of labels or, above level 0, a vertex count")
        _expect(reference_labels_ascend(level), f"level {li}: labels are not sorted and distinct")
    labels = [v for level in levels if type(level) is list for v in level]
    _expect(len(set(labels)) == len(labels), "a label appears on more than one level")
    sizes = [level if type(level) is int else len(level) for level in levels]
    n, n0 = sum(sizes), sizes[0]

    down = payload["down"]
    _expect(type(down) is list and set(map(type, down)) <= {list}, "down must be a list of index lists")
    _expect(set(map(type, chain.from_iterable(down))) <= {int}, "down must hold integer indexes")
    stored: dict[int, tuple[int, ...]] = {}  # every checked vertex's decoded row, by its index
    starts = [sum(sizes[:li]) for li in range(len(sizes))]
    for li, level in enumerate(levels[1:], start=1):
        limit, generated = starts[li], type(level) is int
        rows = reference_decode_level(down[limit - n0 : limit - n0 + sizes[li]])
        _expect(len(rows) == sizes[li], f"down must hold {n - n0} rows, not {len(down)}: they end on level {li}")
        fault = reference_row_fault(rows, starts[li - 1], limit, n, li > 1)
        if fault is not None:
            t, problem = fault
            vertex = f"vertex {limit + t} on level {li}" if generated else repr(level[t])
            raise DocumentFormatError(f"down row of {vertex}: {problem}")
        for t, row in enumerate(rows):
            stored[limit + t] = tuple(row)
        for t in range(1, sizes[li]):
            if generated and not stored[limit + t - 1] < stored[limit + t]:
                vertex = f"vertex {limit + t} on level {li}"
                raise DocumentFormatError(f"down row of {vertex}: the level's rows are not ascending")
    top = len(levels) - 1
    _expect(len(down) == n - n0, f"down must hold {n - n0} rows, not {len(down)}: rows remain after level {top}")

    return DecompositionDocument(
        format_version=8,
        source_hash=payload["source_hash"],
        operator=payload["operator"],
        status=payload["status"],
        levels=tuple(level if type(level) is int else tuple(level) for level in levels),
        down=tuple(stored[i] for i in range(n0, n)),
    )
