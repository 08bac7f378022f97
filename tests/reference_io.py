"""Document format 1, and the format-3 parser's first checks, kept as references.

Format 1 names every vertex by its label everywhere: a level is a list of
``{"id", "label", "sequence"}`` records, an edge a pair of ids, and a
sequence entry a list of level-0 labels, all written by
``json.dumps(indent=2, sort_keys=True)``. The library reads and writes
format 3 only, which stores no sequences; tests require both formats to
decode to the same graph, and each sequence format 1 stores to be the one
``characterising_sequence`` recovers from the format-3 graph. Format 1
fills its sequences with ``reference_sequence``, which reads labelled
neighbourhoods, so that comparison checks the library against a second
implementation.

``reference_parse_v3`` is ``parse_document`` as it was before its label
and row checks read a whole level in a few flat passes: it tests each
level's labels with ``reference_labels_ascend`` and each down row on its
own with ``reference_strict``. Tests require the library to raise the same
message, or return an equal document, on any text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Any

from cleanfactor import DecompositionDocument, DocumentFormatError, MultipartiteGraph, SeriesResult
from reference_graphs import Neighbours
from reference_oracle import reference_sequence

FORMAT_VERSION = 1


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


def reference_strict(rows: list[list[int]], limit: int) -> bool:
    """Whether every row, on its own, is strictly ascending inside ``range(limit)``."""
    return all(all(0 <= j < limit for j in row) and sorted(set(row)) == row for row in rows)


def _down_problem(row: list[int], limit: int, n: int) -> str:
    for j in row:
        if not 0 <= j < n:
            return f"index {j} is out of range"
        if j >= limit:
            return f"index {j} is not on a lower level"
    return "indexes are not strictly ascending"


def reference_parse_v3(text: str) -> DecompositionDocument:
    """A format-3 document, checked one level's labels and one down row at a time."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentFormatError("not valid JSON: nested too deeply") from None
    _expect(type(payload) is dict, "top level must be an object")
    version = payload.get("format_version")
    _expect(type(version) is int and version == 3, "unsupported format_version: this reader takes 3")
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
        labelled = type(level) is list and level and set(map(type, level)) == {str}
        _expect(labelled, f"level {li} must be a non-empty list of labels")
        _expect(reference_labels_ascend(level), f"level {li}: labels are not sorted and distinct")
    labels = list(chain.from_iterable(levels))
    n, n0 = len(labels), len(levels[0])
    _expect(len(set(labels)) == n, "a label appears on more than one level")

    down = payload["down"]
    _expect(type(down) is list and set(map(type, down)) <= {list}, "down must be a list of index lists")
    _expect(len(down) == n - n0, f"down must hold {n - n0} rows, not {len(down)}")
    _expect(set(map(type, chain.from_iterable(down))) <= {int}, "down must hold integer indexes")
    limit = n0
    for level in levels[1:]:
        for label, row in zip(level, down[limit - n0 : limit - n0 + len(level)]):
            _expect(reference_strict([row], limit), f"down row of {label!r}: {_down_problem(row, limit, n)}")
        limit += len(level)

    return DecompositionDocument(
        format_version=3,
        source_hash=payload["source_hash"],
        operator=payload["operator"],
        status=payload["status"],
        levels=tuple(map(tuple, levels)),
        down=tuple(map(tuple, down)),
    )
