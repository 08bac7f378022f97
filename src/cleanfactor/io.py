"""Edge-list input, compact JSON decomposition documents, DOT export.

A document (format 8) stores the decomposition graph as the graph holds it, and nothing derived from it. ``levels``
holds the labels that were given (level 0, and level 1 of a bipartite start), each level sorted, and the size of each
level the library generated, whose vertices are in row order and are named by their rows. A vertex is referred to by
its level-major global index, and ``down`` lists its neighbours on the level below; above level 1 that is its seed,
from which the graph rebuilds the rest of its row. A row is written as its first index less that of the previous
non-empty row on its level (from 0 on the level's first), then the gap to each next index: small on a level in row
order, negative where a bipartite start's level 1 is in label order. The text is exactly ``json.dumps`` with sorted
keys and no spaces, so byte-deterministic; it is made by two ``json.JSONEncoder.encode`` methods bound at import,
since ``json.dumps`` given a separator builds an encoder per call: one for ``down``, 256 rows at a time, one for the
other keys. A content hash of the canonical edge list binds a document to its input."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from itertools import accumulate, chain, compress, count, islice
from operator import le, lt, sub
from pathlib import Path
from typing import Iterator, Sequence

from .errors import DocumentFormatError, EdgeListParseError, InvalidArgumentError
from .factorisation import OperatorKind
from .graphs import Graph, MultipartiteGraph, _mask
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

FORMAT_VERSION = 8
_PIECE = 256  # down rows per encoder call, which holds one string per token until it joins them
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_ENCODE_SORTED = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def read_edge_list(path: str | Path) -> Graph:
    """Parse a whitespace edge list: 'u v' per line, 'v' alone declares a vertex.

    One leading byte-order mark is dropped. Lines starting with '#' and
    blank lines are skipped; duplicate edges collapse silently; self-loops
    and malformed lines are rejected with their line number. An edge list
    declaring no vertices is rejected, and so is a file that is not UTF-8,
    with the offset of the first bad byte.
    """
    data = _read_bytes(path)
    try:
        # not the utf-8-sig codec, which would count a bad byte's offset from after the mark
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise EdgeListParseError(before.count(b"\n") + 1, _not_utf8(exc)) from None
    isolated, edges = [], []  # the labels of one-label lines, and the label pairs
    # universal newlines, as reading the file in text mode would give; other str.splitlines breaks are whitespace
    for lineno, parts in enumerate(map(str.split, text.replace("\r\n", "\n").replace("\r", "\n").split("\n")), 1):
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) == 2:
            if parts[0] == parts[1]:
                raise InvalidArgumentError(f"line {lineno}: self-loop on vertex {parts[0]!r}")
            edges.append(parts)
        elif len(parts) == 1:
            isolated.append(parts[0])
        else:
            raise EdgeListParseError(lineno, f"expected one or two labels, got {len(parts)}")
    if not isolated and not edges:
        raise InvalidArgumentError(f"{path}: edge list declares no vertices")
    return Graph({*isolated, *chain.from_iterable(edges)}, edges)


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

    A level is its labels, or a generated level's size; a generated level is
    in the order of its rows. With ``n0`` vertices on level 0, ``down[i - n0]``
    is vertex ``i``'s row as the graph stores it, a seed above level 1, which
    the text holds gap-coded and the reader does not rebuild.
    """

    format_version: int
    source_hash: str
    operator: str
    status: str
    levels: tuple[tuple[str, ...] | int, ...]
    down: tuple[tuple[int, ...], ...]


def build_document(result: SeriesResult, source_hash: str) -> DecompositionDocument:
    """Canonical document for a finished series run; a series gives labels to levels 0 and 1 only, as a document can."""
    m = result.final
    given = next((k for k, level in enumerate(m._levels[2:], 2) if type(level) is tuple), None)
    if given is not None:
        raise InvalidArgumentError(f"level {given} lists labels, but a document holds labels on levels 0 and 1 only")
    return DecompositionDocument(
        format_version=FORMAT_VERSION,
        source_hash=source_hash,
        operator=result.operator.value,
        status=result.status.value,
        levels=m._levels,
        down=m._idx[len(m._levels[0]) :],
    )


def verify_document_fields(doc: DecompositionDocument) -> VerificationReport:
    """Check the fields that the graph checks do not read: a terminated clean series, the only kind certified.

    The series must start from a graph, so that level 1, its cliques, is generated: a document of that
    series then holds no label but level 0's, and each decomposition has one document.
    """
    if doc.operator != "clean":
        return VerificationReport(False, f"operator {doc.operator!r}: only clean decompositions are certified")
    if doc.status != "terminated":
        return VerificationReport(False, f"status {doc.status!r}: only terminated series are certified")
    if type(doc.levels[1]) is not int:
        return VerificationReport(False, "level 1 lists labels: the series of a graph generates it")
    return VerificationReport(True)


def to_json(doc: DecompositionDocument) -> str:
    """Exactly ``json.dumps(vars(doc), sort_keys=True, separators=(",", ":"))`` and a newline, all ASCII, except that
    what is written of a ``down`` row, as the document holds it (a seed above level 1, uncut), is its first index less
    that of the previous non-empty row on its level (0 on the level's first), then the gap to each next index; rows past
    the top level count as the top level's. ``down``, the first key, is encoded ``_PIECE`` rows per call of the bound
    encoder ``_ENCODE``, the other keys by ``_ENCODE_SORTED`` in one call, and all joined once."""
    rest = {key: value for key, value in vars(doc).items() if key != "down"}
    starts = [*accumulate((level if type(level) is int else len(level) for level in doc.levels[1:-1]), initial=0)]
    rows = chain.from_iterable(_coded(doc.down[a:b]) for a, b in zip(starts, [*starts[1:], None]))
    text = []
    while piece := list(islice(rows, _PIECE)):
        text += ",", _ENCODE(piece)[1:-1]
    return "".join(['{"down":[', *text[1:], "],", _ENCODE_SORTED(rest)[1:], "\n"])


def _coded(rows: Sequence[tuple[int, ...]]) -> Iterator[list[int]]:
    """A level's rows as written: a non-empty row's first index less the previous one's, from 0, then its gaps."""
    first = 0
    for row in rows:
        yield [row[0] - first, *map(sub, row[1:], row)] if row else []
        first = row[0] if row else first


def write_decomposition(result: SeriesResult, source_hash: str) -> str:
    """Canonical JSON text for a finished series run."""
    return to_json(build_document(result, source_hash))


def _read_bytes(path: str | Path) -> bytes:
    """A file's bytes, read unbuffered; ``os.fspath`` refuses a file descriptor, which ``open`` would read."""
    with open(os.fspath(path), "rb", buffering=0) as file:
        return file.read()


def _not_utf8(exc: UnicodeDecodeError) -> str:
    return f"byte {exc.start} (0x{exc.object[exc.start]:02x}) is not valid UTF-8"


def _expect(condition: bool, message: str, *args: object) -> None:
    """Raise ``DocumentFormatError(message.format(*args))`` unless ``condition`` holds; only a failure formats it."""
    if not condition:
        raise DocumentFormatError(message.format(*args))


def _first_fault(rows: list[list[int]], lo: int, limit: int, least: int) -> int | None:
    """The first of a level's rows, as written, shorter than ``least`` or not strictly ascending in ``range(lo,
    limit)``: its first index, restored in place as the previous row's plus its first gap, under ``lo``, a gap under 1,
    or its sum, the last index, ``limit`` or more. Only a row with a minimum under 1 has its gaps tested apart."""
    first = 0
    for t, row in enumerate(rows):
        if row:
            first = row[0] = first + row[0]
            if first < lo or sum(row) >= limit or len(row) < least or min(row) < 1 and min(row[1:] or [1]) < 1:
                return t
        elif least:
            return t
    return None


# a document's vocabularies, from their types: the keys in a dict, whose keys view compares as a set, and the values
# in tuples, since a JSON value may be unhashable
_KEYS = dict.fromkeys(field.name for field in fields(DecompositionDocument))
_OPERATORS = tuple(kind.value for kind in OperatorKind)
_STATUSES = tuple(status.value for status in SeriesStatus)


def _down_problem(row: list[int], lo: int, limit: int, n: int) -> str:
    """Why a down row is not strictly ascending inside ``range(lo, limit)``, or else why it is too short for a seed."""
    for j in row:
        if not 0 <= j < n:
            return f"index {j} is out of range"
        if not lo <= j < limit:
            return f"index {j} is not on {'a lower level' if j >= limit else 'the level below'}"
    ascends = all(map(lt, row, islice(row, 1, None)))
    return "a seed holds at least two indexes" if ascends else "indexes are not strictly ascending"


def parse_document(text: str) -> DecompositionDocument:
    """Parse and validate a JSON decomposition document.

    Every field is checked for its exact type (an index is an ``int``, not
    a ``bool``), its range and its order, so the document decodes to a
    well-formed multipartite graph; the first problem found is named. Only
    levels 0 and 1 may list labels; a seed holds two or more indexes, and a
    generated level's rows, or seeds, must ascend, the order the library
    writes. Each level's rows are checked in one pass that restores their
    first indexes and stops at the first row at fault; only that row is
    decoded and walked again for the reason, so a message names indexes,
    never gaps. No row is rebuilt.
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
    if payload.keys() != _KEYS.keys():
        missing = next((key for key in _KEYS if key not in payload), None)
        _expect(missing is None, "missing key {!r}", missing)
        raise DocumentFormatError(f"unknown key {next(key for key in payload if key not in _KEYS)!r}")
    _expect(type(payload["source_hash"]) is str, "source_hash must be a string")
    _expect(payload["operator"] in _OPERATORS, "unknown operator")
    _expect(payload["status"] in _STATUSES, "unknown status")

    levels = payload["levels"]
    _expect(type(levels) is list and len(levels) >= 2, "need at least two levels")
    for li, level in enumerate(levels):
        if li and type(level) is int and level > 0:
            continue
        _expect(li < 2, "level {} must be a positive vertex count: only levels 0 and 1 are given", li)
        labelled = type(level) is list and level and set(map(type, level)) == {str}
        _expect(labelled, "level {} must be a non-empty list of labels or, above level 0, a vertex count", li)
        _expect(all(map(lt, level, islice(level, 1, None))), "level {}: labels are not sorted and distinct", li)
    # each list of labels is distinct, and only levels 0 and 1 list them
    _expect(type(levels[1]) is int or set(levels[0]).isdisjoint(levels[1]), "a label appears on more than one level")
    sizes = [level if type(level) is int else len(level) for level in levels]
    n, n0 = sum(sizes), sizes[0]

    down = payload["down"]
    _expect(type(down) is list and set(map(type, down)) <= {list}, "down must be a list of index lists")
    _expect(set(map(type, chain.from_iterable(down))) <= {int}, "down must hold integer indexes")
    limit = n0
    for li, level in enumerate(levels[1:], 1):
        lo, span = limit - sizes[li - 1], slice(limit - n0, limit - n0 + sizes[li])
        rows, generated = down[span], type(level) is int
        _expect(len(rows) == sizes[li], "down must hold {} rows, not {}: they end on level {}", n - n0, len(down), li)
        t = _first_fault(rows, lo, limit, 2 if li > 1 else 0)
        if t is not None:
            vertex = f"vertex {limit + t} on level {li}" if generated else repr(level[t])
            raise DocumentFormatError(f"down row of {vertex}: {_down_problem(list(accumulate(rows[t])), lo, limit, n)}")
        # in place, so only one level is held both as lists and as tuples
        down[span] = rows = list(map(tuple, map(accumulate, rows)))
        t = next(compress(count(limit + 1), map(le, islice(rows, 1, None), rows)), None) if generated else None
        _expect(t is None, "down row of vertex {} on level {}: the level's rows are not ascending", t, li)
        limit += sizes[li]
    _expect(len(down) == n - n0, "down must hold {} rows, not {}: rows remain after level {}", n - n0, len(down), li)

    return DecompositionDocument(
        format_version=FORMAT_VERSION,
        source_hash=payload["source_hash"],
        operator=payload["operator"],
        status=payload["status"],
        levels=tuple(level if type(level) is int else tuple(level) for level in levels),
        down=tuple(down),
    )


def read_document(path: str | Path) -> DecompositionDocument:
    """Read and parse a document file; a file that is not UTF-8 is rejected."""
    data = _read_bytes(path)
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
    level0, level1 = doc.levels[0], doc.levels[1]
    adj = [0] * len(level0)
    for row in doc.down[: level1 if type(level1) is int else len(level1)]:
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
