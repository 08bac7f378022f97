"""Edge-list input, compact JSON decomposition documents, DOT export.

A document (format 3) stores the decomposition graph and nothing derived
from it. It names each vertex once, in ``levels``, and refers to it
everywhere else by its global index: level-major, label order within a
level, as in ``MultipartiteGraph``. ``down`` lists each vertex's lower
neighbours, so every edge appears once; characterising sequences are
recovered, not stored. The text is exactly ``json.dumps`` with sorted keys
and no spaces, so byte-deterministic; ``down`` is encoded 256 rows at a
time, and the text joined once. A content hash of the canonical edge list
binds a document to its input, so verification can refuse mismatched pairs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from io import StringIO
from itertools import accumulate, chain, compress, count, islice
from operator import ge, lt
from pathlib import Path
from typing import Any

from .errors import DocumentFormatError, EdgeListParseError, InvalidArgumentError
from .factorisation import OperatorKind
from .graphs import Graph, MultipartiteGraph, _level_labels, _mask
from .oracle import VerificationReport
from .series import SeriesResult, SeriesStatus

__all__ = [
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

FORMAT_VERSION = 3
_PIECE = 256  # down rows per json.dumps call, which holds one string per token until it joins them


def read_edge_list(path: str | Path) -> Graph:
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


def format_edge_list(g: Graph) -> str:
    """Canonical edge-list text that ``read_edge_list`` reads back as ``g``.

    Isolated vertices first, then the sorted edges, lower label first unless
    it starts with '#'. Refused: the empty graph, a label that is empty or
    holds whitespace, an edge between two '#' labels, and an isolated '#'
    vertex.
    """
    if not g.vertices:
        raise InvalidArgumentError("an edge list declares at least one vertex, so none can hold the empty graph")
    joined = " ".join(g.vertices)
    if joined.split() != list(g.vertices):
        bad = next(v for v in g.vertices if v.split() != [v])
        raise InvalidArgumentError(f"label {bad!r} is empty or holds whitespace, so no edge list can hold it")
    edges = g.edges()
    if " #" in " " + joined:  # only a label that starts with '#' needs the per-edge test
        edges = [(v, u) if u[0] == "#" else (u, v) for u, v in edges]
    lines = [v for v in g.vertices if g.degree(v) == 0]
    lines.extend(f"{u} {v}" for u, v in edges)
    text = "\n".join(lines) + "\n"
    if text[0] == "#" or "\n#" in text:
        comment = next(line for line in lines if line[0] == "#")
        raise InvalidArgumentError(f"edge-list line {comment!r} would read as a comment")
    return "\ufeff" + text if text[0] == "\ufeff" else text  # the reader drops one leading U+FEFF


def graph_content_hash(g: Graph) -> str:
    """Content hash of the canonical form of a graph."""
    lines = [f"v {v}" for v in g.vertices]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


@dataclass(frozen=True)
class DecompositionDocument:
    """Serializable form of a decomposition run; the fields are the document's keys.

    With ``n0`` vertices on level 0, ``down[i - n0]`` lists the lower
    neighbours of vertex ``i``.
    """

    format_version: int
    source_hash: str
    operator: str
    status: str
    levels: tuple[tuple[str, ...], ...]
    down: tuple[tuple[int, ...], ...]


def build_document(result: SeriesResult, source_hash: str) -> DecompositionDocument:
    """Canonical document for a finished series run."""
    m = result.final
    return DecompositionDocument(
        format_version=FORMAT_VERSION,
        source_hash=source_hash,
        operator=result.operator.value,
        status=result.status.value,
        levels=m.levels,
        down=m._idx[len(m.levels[0]) :],
    )


def verify_document_fields(doc: DecompositionDocument, m: MultipartiteGraph) -> VerificationReport:
    """Check the fields that the graph checks do not read.

    The document must record a terminated clean series, the only kind the
    oracle certifies, and every label above level 0 must be the one
    ``_level_labels``, which names every generated level, gives that
    vertex. ``m`` is ``document_to_multipartite(doc)``.
    """
    if doc.operator != "clean":
        return VerificationReport(False, f"operator {doc.operator!r}: only clean decompositions are certified")
    if doc.status != "terminated":
        return VerificationReport(False, f"status {doc.status!r}: only terminated series are certified")
    labels, down, n0 = m._labels, m._idx, len(m._levels[0])
    for k in range(1, m.level_count):
        level = m._level_range(k)
        given = _level_labels(labels, n0, k, down[level.start : level.stop])
        for x, want in zip(level, given):
            if labels[x] != want:
                return VerificationReport(False, f"vertex {x}: label {labels[x]!r} but the graph gives {want!r}")
    return VerificationReport(True)


def to_json(doc: DecompositionDocument) -> str:
    """Exactly ``json.dumps(vars(doc), sort_keys=True, separators=(",", ":"))`` and a newline, all ASCII.

    ``down``, the first key, is encoded ``_PIECE`` rows per ``json.dumps`` call, the rest in one, and all joined once.
    """
    rest = {key: value for key, value in vars(doc).items() if key != "down"}
    text = ['{"down":[']
    for start in range(0, len(doc.down), _PIECE):
        text += ("," if start else ""), json.dumps(doc.down[start : start + _PIECE], separators=(",", ":"))[1:-1]
    return "".join([*text, "],", json.dumps(rest, sort_keys=True, separators=(",", ":"))[1:], "\n"])


def write_decomposition(result: SeriesResult, source_hash: str) -> str:
    """Canonical JSON text for a finished series run."""
    return to_json(build_document(result, source_hash))


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"byte {exc.start} (0x{exc.object[exc.start]:02x}) is not valid UTF-8"


def _expect(condition: bool, message: str, *args: object) -> None:
    """Raise ``DocumentFormatError(message.format(*args))`` unless ``condition`` holds; only a failure formats it."""
    if not condition:
        raise DocumentFormatError(message.format(*args))


def _index_rows(rows: Any, length: int) -> list[list[int]]:
    """``rows``, a document's ``down``, if it is a list of ``length`` integer lists."""
    _expect(type(rows) is list and set(map(type, rows)) <= {list}, "down must be a list of index lists")
    _expect(len(rows) == length, "down must hold {} rows, not {}", length, len(rows))
    _expect(set(map(type, chain.from_iterable(rows))) <= {int}, "down must hold integer indexes")
    return rows


def _strict(rows: list[list[int]], limit: int) -> bool:
    """Whether every row of integers is strictly ascending inside ``range(limit)``.

    The rows are read as one flat list: inside the range, and every position
    where the indexes fail to rise starts a row.
    """
    flat = list(chain.from_iterable(rows))
    falls = compress(count(1), map(ge, flat, islice(flat, 1, None)))
    return not flat or (min(flat) >= 0 and max(flat) < limit and set(falls) <= set(accumulate(map(len, rows))))


# a document's vocabularies, from the types that define them; tuples, since a JSON value may be unhashable
_KEYS = tuple(field.name for field in fields(DecompositionDocument))
_OPERATORS = tuple(kind.value for kind in OperatorKind)
_STATUSES = tuple(status.value for status in SeriesStatus)


def _down_problem(row: list[int], limit: int, n: int) -> str:
    """Why a down row is not strictly ascending below ``limit``."""
    for j in row:
        if not 0 <= j < n:
            return f"index {j} is out of range"
        if j >= limit:
            return f"index {j} is not on a lower level"
    return "indexes are not strictly ascending"


def parse_document(text: str) -> DecompositionDocument:
    """Parse and validate a JSON decomposition document.

    Every field is checked for its exact type (an index is an ``int``, not
    a ``bool``), its range and its order, so the document decodes to a
    well-formed multipartite graph. The first problem found is named. A
    level's labels and a level's down rows are each checked in a few
    passes over the whole level; only a failure searches for the row at
    fault.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentFormatError("not valid JSON: nested too deeply") from None
    _expect(type(payload) is dict, "top level must be an object")
    version = payload.get("format_version")
    supported = type(version) is int and version == FORMAT_VERSION
    _expect(supported, "unsupported format_version: this reader takes {}", FORMAT_VERSION)
    for key in _KEYS:
        _expect(key in payload, "missing key {!r}", key)
    unknown = next((key for key in payload if key not in _KEYS), None)
    _expect(unknown is None, "unknown key {!r}", unknown)
    _expect(type(payload["source_hash"]) is str, "source_hash must be a string")
    _expect(payload["operator"] in _OPERATORS, "unknown operator")
    _expect(payload["status"] in _STATUSES, "unknown status")

    levels = payload["levels"]
    _expect(type(levels) is list and len(levels) >= 2, "need at least two levels")
    for li, level in enumerate(levels):
        labelled = type(level) is list and level and set(map(type, level)) == {str}
        _expect(labelled, "level {} must be a non-empty list of labels", li)
        _expect(all(map(lt, level, islice(level, 1, None))), "level {}: labels are not sorted and distinct", li)
    labels = list(chain.from_iterable(levels))
    n, n0 = len(labels), len(levels[0])
    _expect(len(set(labels)) == n, "a label appears on more than one level")

    down = _index_rows(payload["down"], n - n0)
    limit = n0
    for level in levels[1:]:
        span = slice(limit - n0, limit - n0 + len(level))
        rows = down[span]
        if not _strict(rows, limit):
            label, row = next((v, r) for v, r in zip(level, rows) if not _strict([r], limit))
            raise DocumentFormatError(f"down row of {label!r}: {_down_problem(row, limit, n)}")
        down[span] = map(tuple, rows)  # in place, so only one level is held both as lists and as tuples
        limit += len(level)

    return DecompositionDocument(
        format_version=FORMAT_VERSION,
        source_hash=payload["source_hash"],
        operator=payload["operator"],
        status=payload["status"],
        levels=tuple(map(tuple, levels)),
        down=tuple(down),
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
    """Rebuild the multipartite graph a document from ``build_document`` or ``parse_document`` describes."""
    return MultipartiteGraph._from_rows(doc.levels, doc.down)


def reconstruct_graph(doc: DecompositionDocument) -> Graph:
    """Recover the original graph: level-0 vertices, each level-1 clique's members pairwise adjacent."""
    level0 = doc.levels[0]
    adj = [0] * len(level0)
    for row in doc.down[: len(doc.levels[1])]:
        clique = _mask(row)
        for j in row:
            adj[j] |= clique
    return Graph._from_rows(level0, [mask & ~(1 << i) for i, mask in enumerate(adj)])


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
