"""Edge-list input, canonical JSON decomposition documents, DOT export.

Documents are byte-deterministic: keys sorted, vertices sorted by (level,
label), edges sorted lexicographically with the lower-level endpoint
first. A document binds itself to its input through a content hash of the
canonical edge list, so verification can refuse mismatched pairs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from io import StringIO
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .errors import DocumentFormatError, EdgeListParseError, InvalidArgumentError
from .graphs import Graph, MultipartiteGraph, bits
from .oracle import VerificationReport, _sequence_masks
from .series import SeriesResult

__all__ = [
    "FORMAT_VERSION",
    "VertexRecord",
    "LevelRecord",
    "DecompositionDocument",
    "read_edge_list",
    "format_edge_list",
    "graph_content_hash",
    "build_document",
    "verify_document_fields",
    "to_json",
    "write_decomposition",
    "parse_document",
    "read_document",
    "document_to_multipartite",
    "reconstruct_graph",
    "to_dot",
]

FORMAT_VERSION = 1


def read_edge_list(path: str | Path) -> Graph:
    """Parse a whitespace edge list: 'u v' per line, 'v' alone declares a vertex.

    Lines starting with '#' and blank lines are skipped; duplicate edges
    collapse silently; self-loops and malformed lines are rejected with
    their line number. An edge list declaring no vertices is rejected, and
    so is a file that is not UTF-8, with the offset of the first bad byte.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
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


def format_edge_list(g: Graph) -> str:
    """Canonical edge-list text: isolated vertices first, then sorted edges."""
    lines = [v for v in g.vertices if g.degree(v) == 0]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_content_hash(g: Graph) -> str:
    """Content hash of the canonical form of a graph."""
    lines = [f"v {v}" for v in g.vertices]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


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
class DecompositionDocument:
    """Serializable form of a decomposition run.

    Vertex ids are the canonical labels (unique by construction); vertices
    from level 2 upward carry their characterising sequence.
    """

    format_version: int
    source_hash: str
    operator: str
    status: str
    levels: tuple[LevelRecord, ...]
    edges: tuple[tuple[str, str], ...]


def _stored_sequences(m: MultipartiteGraph) -> dict[int, tuple[tuple[str, ...], ...]]:
    """Each level >= 2 vertex's sequence as a document stores it, by global index."""
    labels = m._labels
    names: dict[int, tuple[str, ...]] = {}  # level-0 indexes follow label order, so names come out sorted
    out = {}
    for x, seq in _sequence_masks(m).items():
        for o in seq:
            if o not in names:
                names[o] = tuple(labels[i] for i in bits(o))
        out[x] = tuple(names[o] for o in seq)
    return out


def build_document(result: SeriesResult, source_hash: str) -> DecompositionDocument:
    """Canonical document for a finished series run."""
    m = result.final
    sequences = _stored_sequences(m)
    index = m._index
    levels = tuple(
        LevelRecord(
            index=li,
            vertices=tuple(VertexRecord(id=v, label=v, sequence=sequences.get(index[v])) for v in members),
        )
        for li, members in enumerate(m.levels)
    )
    return DecompositionDocument(
        format_version=FORMAT_VERSION,
        source_hash=source_hash,
        operator=result.operator.value,
        status=result.status.value,
        levels=levels,
        edges=m.edges(),
    )


def verify_document_fields(doc: DecompositionDocument, m: MultipartiteGraph) -> VerificationReport:
    """Check the fields that the graph checks do not read.

    The document must record a terminated clean series, the only kind the
    oracle certifies; every label must equal its id; and every stored
    sequence must be the one ``m`` gives. ``m`` is
    ``document_to_multipartite(doc)``, which reads none of these fields.
    """
    if doc.operator != "clean":
        return VerificationReport(False, f"operator {doc.operator!r}: only clean decompositions are certified")
    if doc.status != "terminated":
        return VerificationReport(False, f"status {doc.status!r}: only terminated series are certified")
    sequences = _stored_sequences(m)
    for level in doc.levels:
        for vr in level.vertices:
            if vr.label != vr.id:
                return VerificationReport(False, f"vertex {vr.id!r}: label {vr.label!r} differs from its id")
            want = sequences.get(m._index[vr.id])
            if vr.sequence != want:
                message = f"stored sequence {json.dumps(vr.sequence)} but the graph gives {json.dumps(want)}"
                return VerificationReport(False, f"vertex {vr.id!r}: {message}")
    return VerificationReport(True)


def _list(items: list[str], pad: str) -> str:
    """A JSON list of rendered ``items``, one per line at indent ``pad``, closed two spaces less."""
    if not items:
        return "[]"
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}]"


def to_json(doc: DecompositionDocument) -> str:
    """Serialize a document; identical documents give identical bytes.

    The text is exactly ``json.dumps(payload, indent=2, sort_keys=True)``
    plus a newline, written directly for this schema: keys in sorted order,
    two-space indent, every string escaped to ASCII by the ``json`` module's
    own escaper. ``json.dumps`` runs its pure-Python encoder whenever it
    indents, which is several times slower.
    """
    esc = encode_basestring_ascii
    pad = " " * 14
    rendered: dict[tuple[str, ...], str] = {}  # sequence elements repeat across a document
    levels = []
    for level in doc.levels:
        vertices = []
        for vr in level.vertices:
            head = f'{{\n          "id": {esc(vr.id)},\n          "label": {esc(vr.label)}'
            if vr.sequence is None:
                vertices.append(head + "\n        }")
                continue
            items = []
            for o in vr.sequence:
                if (item := rendered.get(o)) is None:
                    item = rendered[o] = _list([esc(v) for v in o], pad)
                items.append(item)
            vertices.append(f'{head},\n          "sequence": {_list(items, pad[:-2])}\n        }}')
        levels.append(
            f'{{\n      "index": {int.__repr__(level.index)},\n      "vertices": {_list(vertices, " " * 8)}\n    }}'
        )
    edges = [f"[\n      {esc(a)},\n      {esc(b)}\n    ]" for a, b in doc.edges]
    return (
        f'{{\n  "edges": {_list(edges, "    ")},\n'
        f'  "format_version": {int.__repr__(doc.format_version)},\n'
        f'  "levels": {_list(levels, "    ")},\n'
        f'  "operator": {esc(doc.operator)},\n'
        f'  "source_hash": {esc(doc.source_hash)},\n'
        f'  "status": {esc(doc.status)}\n}}\n'
    )


def write_decomposition(result: SeriesResult, source_hash: str) -> str:
    """Canonical JSON text for a finished series run."""
    return to_json(build_document(result, source_hash))


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"byte {exc.start} (0x{exc.object[exc.start]:02x}) is not valid UTF-8"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentFormatError(message)


def _vertex_record(rv: Any, pos: int, ids: set[str]) -> VertexRecord:
    """Run every check on one vertex record, in order, and build it.

    ``parse_document`` calls this only for a record its fast test refused,
    so that the rejection names the first check that fails.
    """
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
    return VertexRecord(id=vid, label=label, sequence=sequence)


def _sequence(raw_seq: list, elements: dict[tuple, tuple[str, ...]]) -> tuple[tuple[str, ...], ...] | None:
    """``raw_seq`` as a tuple of label tuples, or None if it is not a list of label lists.

    ``elements`` maps each label tuple accepted so far to itself, so a
    document checks each distinct sequence element once and shares it.
    """
    out = []
    for o in raw_seq:
        if type(o) is not list:
            return None
        key = tuple(o)
        try:
            out.append(elements[key])
        except KeyError:
            if not all(type(v) is str for v in key):
                return None
            elements[key] = key
            out.append(key)
        except TypeError:  # an unhashable element, so not a label
            return None
    return tuple(out)


def parse_document(text: str) -> DecompositionDocument:
    """Parse and validate a JSON decomposition document.

    Records are tested with exact-type checks first; a record that fails
    them goes through every check in order, so a rejection always names
    the first problem in the document.
    """
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
    elements: dict[tuple, tuple[str, ...]] = {}
    levels = []
    for pos, level in enumerate(payload["levels"]):
        _expect(isinstance(level, dict), "levels must be objects")
        index = level.get("index")
        _expect(type(index) is int and index == pos, f"level index {index!r} out of order")
        raw_vertices = level.get("vertices")
        _expect(isinstance(raw_vertices, list) and raw_vertices, f"level {pos} needs vertices")
        records = []
        for rv in raw_vertices:
            sequence = None
            if (
                type(rv) is dict
                and type(vid := rv.get("id")) is str
                and vid not in ids
                and type(label := rv.get("label")) is str
                and (
                    ("sequence" not in rv and pos < 2)
                    or (
                        type(raw_seq := rv.get("sequence")) is list
                        and (sequence := _sequence(raw_seq, elements)) is not None
                    )
                )
            ):
                ids.add(vid)
                records.append(VertexRecord(vid, label, sequence))
            else:
                records.append(_vertex_record(rv, pos, ids))
        levels.append(LevelRecord(index=pos, vertices=tuple(records)))

    _expect(isinstance(payload["edges"], list), "edges must be a list")
    edges = []
    for raw in payload["edges"]:
        if type(raw) is list and len(raw) == 2:
            a, b = raw
            if type(a) is str and type(b) is str and a in ids and b in ids:
                edges.append((a, b))
                continue
        _expect(
            isinstance(raw, list) and len(raw) == 2 and all(isinstance(v, str) for v in raw),
            "edges must be pairs of ids",
        )
        a, b = raw
        _expect(a in ids and b in ids, f"edge [{a!r}, {b!r}] references an undeclared id")
        edges.append((a, b))

    return DecompositionDocument(
        format_version=FORMAT_VERSION,
        source_hash=payload["source_hash"],
        operator=payload["operator"],
        status=payload["status"],
        levels=tuple(levels),
        edges=tuple(edges),
    )


def read_document(path: str | Path) -> DecompositionDocument:
    """Read and parse a document file; a file that is not UTF-8 is rejected."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentFormatError(f"{path}: {_not_utf8(exc)}") from None
    return parse_document(text)


def document_to_multipartite(doc: DecompositionDocument) -> MultipartiteGraph:
    """Rebuild the multipartite graph a document describes."""
    levels = [[vr.id for vr in level.vertices] for level in doc.levels]
    return MultipartiteGraph(levels, doc.edges)


def reconstruct_graph(doc: DecompositionDocument) -> Graph:
    """Recover the original graph: level-0 vertices, clique unions as edges."""
    if len(doc.levels) < 2:
        raise DocumentFormatError("reconstruction needs at least two levels")
    level0 = [vr.id for vr in doc.levels[0].vertices]
    level0_set = set(level0)
    level1_set = {vr.id for vr in doc.levels[1].vertices}
    members: dict[str, list[str]] = {c: [] for c in level1_set}
    for a, b in doc.edges:
        if a in level0_set and b in level1_set:
            members[b].append(a)
        elif b in level0_set and a in level1_set:
            members[a].append(b)
    edges: set[tuple[str, str]] = set()
    for clique in members.values():
        clique.sort()
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                edges.add((u, v))
    return Graph(level0, edges)


def to_dot(m: MultipartiteGraph) -> str:
    """Graphviz text for visual inspection; one rank per level. Non-canonical."""

    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    out = ["graph decomposition {", "  rankdir=BT;"]
    for li, level in enumerate(m.levels):
        row = " ".join(quote(v) + ";" for v in level)
        out.append(f"  subgraph level_{li} {{ rank=same; {row} }}")
    for a, b in m.edges():
        out.append(f"  {quote(a)} -- {quote(b)};")
    out.append("}")
    return "\n".join(out) + "\n"
