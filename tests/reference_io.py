"""The format-8 parser's checks one row at a time, its gap coding, and the edge-list reader, kept as references.

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
from io import StringIO
from itertools import chain
from pathlib import Path

from cleanfactor import (
    DecompositionDocument,
    DocumentFormatError,
    EdgeListParseError,
    Graph,
    InvalidArgumentError,
)
from cleanfactor.io import _not_utf8


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


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentFormatError(message)


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
