"""Graphs and levelled multipartite graphs over string vertex labels.

Vertex sets are handled internally as integer bitmasks over a per-graph
vertex index (level-major, label-sorted within each level), so every set
operation is deterministic across runs. A ``MultipartiteGraph`` stores only
each vertex's lower neighbourhood, as a tuple of ascending indexes, so
appending a level rewrites no row and no constructor builds a mask of a
row. ``factorise``, the decoder and the incidence graph build through
``_from_rows``, which keeps the tuples it is given; ``__init__`` and
``append_level`` resolve labelled edges into rows through ``_rows``. Labels,
documents and the pairing walk read the tuples: a generated vertex is
named by its level-0 neighbours, the leading run of its row. Only the
candidate walk ANDs rows, and only the top level's: it keeps them as masks
in ``_top``, which ``factorise`` leaves on the graph it returns for the
next step's walk and a finished series drops; the walk builds them for any
other graph without storing them. ``edges()`` transposes the tuples. The
public surface speaks plain labels and frozensets. A graph's vertices and
rows never change after construction; its caches, ``_pairing``,
``Graph._cliques`` and the label index (``_index``, ``_level_of``), which
only a label lookup builds, are filled on first use, and ``__eq__`` and
``__hash__`` ignore them and ``_top``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, repeat
from typing import Iterable, Sequence

from .errors import InvalidArgumentError

__all__ = ["Graph", "MultipartiteGraph"]

IndexRows = Sequence[tuple[int, ...]]  # per vertex, some of its neighbours as ascending indexes


def bits(mask: int) -> list[int]:
    """The indexes of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(row: Iterable[int]) -> int:
    """The mask of distinct indexes: their sum is their union."""
    return sum(map((1).__lshift__, row))


def _span(indexes: range) -> int:
    """The mask of a run of consecutive indexes, such as a level's."""
    return (1 << indexes.stop) - (1 << indexes.start)


def _check_labels(labels: Iterable[object]) -> None:
    for v in labels:
        if not isinstance(v, str):
            raise InvalidArgumentError(f"vertex labels must be strings, got {v!r}")


class Graph:
    """A finite simple undirected graph.

    Vertices carry stable string labels and are kept sorted. Duplicate
    edges collapse silently; self-loops are rejected. May be empty; the
    operations that need a non-empty graph check for themselves.
    """

    __slots__ = ("_labels", "_index", "_adj", "_cliques")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]] = ()) -> None:
        vertex_list = list(vertices)
        _check_labels(vertex_list)
        labels = tuple(sorted(set(vertex_list)))
        index = {v: i for i, v in enumerate(labels)}
        adj = [0] * len(labels)
        for u, v in edges:
            if u == v:
                raise InvalidArgumentError(f"self-loop on vertex {u!r}")
            iu = index.get(u)
            iv = index.get(v)
            if iu is None or iv is None:
                missing = u if iu is None else v
                raise InvalidArgumentError(f"edge endpoint {missing!r} is not a declared vertex")
            adj[iu] |= 1 << iv
            adj[iv] |= 1 << iu
        self._labels = labels
        self._index = index
        self._adj = tuple(adj)
        self._cliques = None  # the oracle's maximal-clique masks, enumerated on first use

    @classmethod
    def _from_rows(cls, labels: tuple[str, ...], adj: Iterable[int]) -> Graph:
        """The graph on ``labels`` (sorted, distinct) with these adjacency masks, unchecked."""
        g = cls.__new__(cls)
        g._labels = labels
        g._index = dict(zip(labels, range(len(labels))))
        g._adj = tuple(adj)
        g._cliques = None
        return g

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def neighbours(self, v: str) -> frozenset[str]:
        self._require(v)
        return frozenset(self._labels[i] for i in bits(self._adj[self._index[v]]))

    def degree(self, v: str) -> int:
        self._require(v)
        return self._adj[self._index[v]].bit_count()

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All edges as (u, v) pairs with u < v, sorted."""
        labels = self._labels
        out = []
        for i, mask in enumerate(self._adj):
            u, above = labels[i], i + 1
            for j in bits(mask >> above):
                out.append((u, labels[above + j]))
        out.sort()
        return tuple(out)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def _require(self, v: str) -> None:
        if v not in self._index:
            raise InvalidArgumentError(f"unknown vertex {v!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._labels, self._adj))

    def __repr__(self) -> str:
        return f"Graph({len(self._labels)} vertices, {self.edge_count()} edges)"


class MultipartiteGraph:
    """An ordered multipartite graph: disjoint non-empty levels V0..V(k-1), k >= 2.

    Every edge joins two distinct levels. Vertices within a level are kept
    in label order and the global vertex index is level-major, which makes
    enumeration over bitmasks deterministic. Each vertex stores only its
    lower neighbours, and ``edges()`` is the one public view of the edge
    set. Instances never mutate; ``append_level`` returns a new graph.
    """

    __slots__ = ("_levels", "_labels", "_index", "_level_of", "_idx", "_top", "_pairing")

    def __init__(self, levels: Sequence[Iterable[str]], edges: Iterable[tuple[str, str]] = ()) -> None:
        level_tuples: list[tuple[str, ...]] = []
        for li, level in enumerate(levels):
            members = list(level)
            _check_labels(members)
            if not members:
                raise InvalidArgumentError(f"level {li} is empty")
            level_tuples.append(tuple(sorted(members)))
        if len(level_tuples) < 2:
            raise InvalidArgumentError("a multipartite graph needs at least two levels")
        self._set_levels(tuple(level_tuples))
        self._idx = self._rows(edges, 0)

    def _rows(self, edges: Iterable[tuple[str, str]], first: int) -> tuple[tuple[int, ...], ...]:
        """The rows of vertices ``first`` and up, as ascending index tuples, from labelled edges that end at them."""
        index, level_of = self._indexed(), self._level_of
        down: list[set[int]] = [set() for _ in range(first, len(self._labels))]
        for u, v in edges:
            iu = index.get(u)
            iv = index.get(v)
            if iu is None or iv is None:
                missing = u if iu is None else v
                raise InvalidArgumentError(f"edge endpoint {missing!r} is not a declared vertex")
            if level_of[iu] == level_of[iv]:
                raise InvalidArgumentError(f"edge {u!r}-{v!r} stays inside level {level_of[iu]}")
            # level-major index order: the lower endpoint has the lower index
            down[max(iu, iv) - first].add(min(iu, iv))
        return tuple(tuple(sorted(row)) for row in down)

    def _set_levels(self, levels: tuple[tuple[str, ...], ...]) -> None:
        """Set every field but the rows, leaving the label index to the first lookup; the one repeated-label check."""
        self._levels = levels
        self._labels = tuple(chain.from_iterable(levels))
        if len(set(self._labels)) != len(self._labels):
            seen: set[str] = set()
            # the first label, in index order, that an earlier vertex already has
            clash = next(v for v in self._labels if v in seen or seen.add(v))
            raise InvalidArgumentError(f"vertex {clash!r} appears more than once")
        self._index = self._level_of = None  # the label index, built on the first label lookup (_indexed)
        self._top = None  # the top level's rows as masks, which factorise leaves for the next step's walk
        self._pairing = None

    def _indexed(self) -> dict[str, int]:
        """The label index ``_index``, built with ``_level_of`` (each vertex's level) on the first label lookup."""
        if self._index is None:
            self._index = dict(zip(self._labels, range(len(self._labels))))
            self._level_of = tuple(chain.from_iterable(repeat(li, len(level)) for li, level in enumerate(self._levels)))
        return self._index

    @classmethod
    def _from_rows(cls, levels: tuple[tuple[str, ...], ...], idx: Iterable[tuple[int, ...]]) -> MultipartiteGraph:
        """The graph on ``levels`` with rows ``idx`` (index tuples, level 1 up).

        Only a repeated label is checked: the caller guarantees the rest of what ``__init__`` would.
        """
        out = cls.__new__(cls)
        out._set_levels(levels)
        out._idx = ((),) * len(levels[0]) + tuple(idx)
        return out

    @property
    def levels(self) -> tuple[tuple[str, ...], ...]:
        return self._levels

    @property
    def level_count(self) -> int:
        return len(self._levels)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in (self._index or self._indexed())

    def level_of(self, v: str) -> int:
        i = (self._index or self._indexed()).get(v)
        if i is None:
            raise InvalidArgumentError(f"unknown vertex {v!r}")
        return self._level_of[i]

    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every edge as (lower-level endpoint, higher-level endpoint), sorted.

        Each edge is stored once, in its higher endpoint's row, so the rows are transposed first.
        """
        labels = self._labels
        above: list[list[int]] = [[] for _ in labels]
        for i, row in enumerate(self._idx):
            for j in row:
                above[j].append(i)
        # grouped by lower endpoint, each group in index order: few runs for the sort to merge
        out = [(labels[j], labels[i]) for j, up in enumerate(above) for i in up]
        out.sort()
        return tuple(out)

    def edge_count(self) -> int:
        return sum(map(len, self._idx))

    def append_level(self, new_vertices: Sequence[tuple[str, Iterable[str]]]) -> MultipartiteGraph:
        """Return a (k+1)-level graph with one extra level on top.

        ``new_vertices`` holds (label, neighbours) pairs; neighbours must
        already be vertices of this graph. Existing levels and edges are
        retained unchanged. An empty list is rejected: callers model "no
        new vertices" as a non-effective step, not as an empty level.
        """
        if not new_vertices:
            raise InvalidArgumentError("append_level needs at least one new vertex")
        fresh = [label for label, _ in new_vertices]
        _check_labels(fresh)
        out = MultipartiteGraph.__new__(MultipartiteGraph)
        out._set_levels(self._levels + (tuple(sorted(fresh)),))
        # the index is level-major, so every existing index and row survives and only the new edges are resolved
        new_edges = ((u, label) for label, nbrs in new_vertices for u in nbrs)
        out._idx = self._idx + out._rows(new_edges, len(self))
        return out

    # -- internal helpers shared inside the package ---------------------

    def _level_range(self, k: int) -> range:
        """Global indexes of level ``k``, which are contiguous and in label order."""
        start = sum(map(len, self._levels[:k]))
        return range(start, start + len(self._levels[k]))

    def _labels_from_mask(self, mask: int) -> frozenset[str]:
        return frozenset(self._labels[i] for i in bits(mask))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultipartiteGraph):
            return NotImplemented
        return self._levels == other._levels and self._idx == other._idx

    def __hash__(self) -> int:
        return hash((self._levels, self._idx))

    def __repr__(self) -> str:
        sizes = ",".join(str(len(lv)) for lv in self._levels)
        return f"MultipartiteGraph(levels=[{sizes}], {self.edge_count()} edges)"


def _level_labels(labels: Sequence[str], n0: int, k: int, rows: IndexRows) -> list[str]:
    """Labels of level-``k`` vertices given by index rows over ``labels``, in input order.

    A vertex is ``K:`` on level 1, and ``L<k>:`` above, plus the sorted
    labels of its level-0 neighbours: the leading run of its row below
    ``n0``, the size of level 0. Vertices that share their level-0
    neighbours get a ``#n`` suffix (``#2``, ``#3``, ...) in the order of
    their sorted member labels; a level-1 row is its clique, so level 1
    never has one. Every generated level is named here, and ``verify``
    checks with it.
    """
    prefix = "K:" if k == 1 else f"L{k}:"
    groups: dict[tuple[int, ...], list[int]] = {}
    for t, row in enumerate(rows):
        groups.setdefault(row[: bisect_left(row, n0)], []).append(t)
    out = [""] * len(rows)
    for base_row, group in groups.items():
        # level-0 indexes follow label order, so the names come out sorted
        base = prefix + ",".join([labels[i] for i in base_row])
        if len(group) > 1:
            group.sort(key=lambda t: sorted([labels[i] for i in rows[t]]))
        for n, t in enumerate(group, start=1):
            out[t] = f"{base}#{n}" if n > 1 else base
    return out
