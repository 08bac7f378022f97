"""Graphs and levelled multipartite graphs over string vertex labels.

Vertex sets are handled internally as integer bitmasks over a per-graph
vertex index (level-major, label-sorted within each level), so every set
operation is deterministic across runs. A ``MultipartiteGraph`` stores only
each vertex's lower neighbourhood, so appending a level rewrites no row.
Up-neighbourhoods are derived where read: ``edges()`` transposes the rows,
and the first public up-query on a graph builds its up-index, one tuple of
ascending indexes per vertex. The public surface speaks plain labels and
frozensets. All types are immutable after construction.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

from .errors import InvalidArgumentError

__all__ = ["Graph", "MultipartiteGraph", "bits", "level0_ancestors"]


def bits(mask: int) -> Iterator[int]:
    """Yield the indexes of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    __slots__ = ("_labels", "_index", "_adj")

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

    @classmethod
    def _from_rows(cls, labels: tuple[str, ...], adj: Iterable[int]) -> Graph:
        """The graph on ``labels`` (sorted, distinct) with these adjacency masks, unchecked."""
        g = cls.__new__(cls)
        g._labels = labels
        g._index = dict(zip(labels, range(len(labels))))
        g._adj = tuple(adj)
        return g

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def has_edge(self, u: str, v: str) -> bool:
        self._require(u)
        self._require(v)
        return u != v and (self._adj[self._index[u]] >> self._index[v]) & 1 == 1

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


def _checked_levels(levels: Sequence[Iterable[str]]) -> tuple[tuple[str, ...], ...]:
    """``levels`` as sorted label tuples, after the checks a multipartite graph needs."""
    level_tuples: list[tuple[str, ...]] = []
    for li, level in enumerate(levels):
        members = list(level)
        _check_labels(members)
        if len(set(members)) != len(members):
            raise InvalidArgumentError(f"duplicate vertex label inside level {li}")
        if not members:
            raise InvalidArgumentError(f"level {li} is empty")
        level_tuples.append(tuple(sorted(members)))
    if len(level_tuples) < 2:
        raise InvalidArgumentError("a multipartite graph needs at least two levels")
    seen: set[str] = set()
    for v in chain.from_iterable(level_tuples):
        if v in seen:
            raise InvalidArgumentError(f"vertex {v!r} appears in more than one level")
        seen.add(v)
    return tuple(level_tuples)


class MultipartiteGraph:
    """An ordered multipartite graph: disjoint non-empty levels V0..V(k-1), k >= 2.

    Every edge joins two distinct levels. Vertices within a level are kept
    in label order and the global vertex index is level-major, which makes
    enumeration over bitmasks deterministic. Instances never mutate;
    ``append_level`` returns a new graph.
    """

    __slots__ = ("_levels", "_labels", "_index", "_level_of", "_level_masks", "_down", "_anc", "_up", "_seq")

    def __init__(self, levels: Sequence[Iterable[str]], edges: Iterable[tuple[str, str]] = ()) -> None:
        self._set_levels(_checked_levels(levels))
        index, level_of = self._index, self._level_of
        down = [0] * len(self._labels)
        for u, v in edges:
            iu = index.get(u)
            iv = index.get(v)
            if iu is None or iv is None:
                missing = u if iu is None else v
                raise InvalidArgumentError(f"edge endpoint {missing!r} is not a declared vertex")
            if level_of[iu] == level_of[iv]:
                raise InvalidArgumentError(f"edge {u!r}-{v!r} stays inside level {level_of[iu]}")
            # level-major index order: the lower endpoint has the lower index
            down[max(iu, iv)] |= 1 << min(iu, iv)
        self._down = tuple(down)

    def _set_levels(self, levels: tuple[tuple[str, ...], ...]) -> None:
        """Set every field but ``_down`` from ``levels``, each a sorted tuple of distinct labels."""
        self._levels = levels
        self._labels = tuple(chain.from_iterable(levels))
        self._index = dict(zip(self._labels, range(len(self._labels))))
        self._level_of = tuple(chain.from_iterable(repeat(li, len(level)) for li, level in enumerate(levels)))
        masks = []
        offset = 0
        for level in levels:
            masks.append(((1 << len(level)) - 1) << offset)
            offset += len(level)
        self._level_masks = tuple(masks)
        self._anc = None
        self._up = None
        self._seq = None

    @classmethod
    def _from_rows(cls, levels: tuple[tuple[str, ...], ...], rows: Iterable[int]) -> MultipartiteGraph:
        """The graph on ``levels`` with these lower-neighbourhood masks, one per vertex from level 1 up.

        Nothing is checked: the caller guarantees what ``__init__`` would.
        """
        out = cls.__new__(cls)
        out._set_levels(levels)
        out._down = (0,) * len(levels[0]) + tuple(rows)
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
        return label in self._index

    def level_of(self, v: str) -> int:
        self._require(v)
        return self._level_of[self._index[v]]

    def neighbourhood(self, x: str) -> frozenset[str]:
        """N(x) across all levels."""
        self._require(x)
        i = self._index[x]
        return self._labels_from_mask(self._down[i]).union([self._labels[j] for j in self._up_index()[i]])

    def neighbourhood_at_level(self, x: str, i: int) -> frozenset[str]:
        """N_i(x): the neighbours of ``x`` inside level ``i``. Pure query."""
        self._require(x)
        if not 0 <= i < len(self._levels):
            raise InvalidArgumentError(f"level index {i} out of range 0..{len(self._levels) - 1}")
        ix = self._index[x]
        if i <= self._level_of[ix]:
            return self._labels_from_mask(self._down[ix] & self._level_masks[i])
        return frozenset([self._labels[j] for j in self._up_index()[ix] if self._level_of[j] == i])

    def degree(self, v: str) -> int:
        self._require(v)
        i = self._index[v]
        return self._down[i].bit_count() + len(self._up_index()[i])

    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every edge as (lower-level endpoint, higher-level endpoint), sorted."""
        labels = self._labels
        # grouped by lower endpoint, each group in index order: few runs for the sort to merge
        out = [(labels[j], labels[i]) for j, above in enumerate(self._above()) for i in above]
        out.sort()
        return tuple(out)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._down)

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
        fresh_set = set(fresh)
        if len(fresh_set) != len(fresh):
            raise InvalidArgumentError("duplicate label among new vertices")
        _check_labels(fresh)
        level = tuple(sorted(fresh))
        index = self._index
        k = len(self._levels)

        def rows() -> Iterator[int]:
            row_of = {}
            for label, nbrs in new_vertices:
                row = 0
                for u in nbrs:
                    j = index.get(u)
                    if j is None:
                        if u in fresh_set:
                            raise InvalidArgumentError(f"edge {u!r}-{label!r} stays inside level {k}")
                        raise InvalidArgumentError(f"edge endpoint {u!r} is not a declared vertex")
                    row |= 1 << j
                row_of[label] = row
            for v in level:
                yield row_of[v]

        return self._append_rows(level, rows())

    def _append_rows(self, level: tuple[str, ...], rows: Iterable[int], anc: tuple[int, ...] = ()) -> MultipartiteGraph:
        """The (k+1)-level graph with ``level`` on top, adjacent by row masks.

        ``level`` holds the new labels, sorted; a repeated or existing one
        is rejected. ``rows`` gives each one's neighbours as a mask over
        this graph's indexes, in the same order, and ``anc``, when not
        empty, each one's level-0 ancestor mask. ``rows`` is read only after
        the labels are checked, so a lazy ``rows`` reports its own errors
        after any label clash.
        The index is level-major, so every existing index and row survives
        and the new ones follow.
        """
        out = MultipartiteGraph.__new__(MultipartiteGraph)
        out._set_levels(self._levels + (level,))
        if len(out._index) != len(out._labels):
            # the first new label that names an old vertex or repeats its sorted predecessor
            clash = next(v for v, before in zip(level, (None,) + level) if v == before or v in self._index)
            raise InvalidArgumentError(f"vertex {clash!r} appears in more than one level")
        out._down = self._down + tuple(rows)
        if anc:
            out._anc = self._ancestors() + anc
        return out

    # -- internal helpers shared inside the package ---------------------

    def _ancestors(self) -> tuple[int, ...]:
        """Level-0 ancestor mask per vertex: carried by ``factorise``, else computed on first use."""
        if self._anc is None:
            self._anc = _ancestor_masks(self)
        return self._anc

    def _above(self) -> list[list[int]]:
        """Per vertex, the ascending indexes of its higher-level neighbours."""
        above: list[list[int]] = [[] for _ in self._labels]
        for i, row in enumerate(self._down):
            for j in bits(row):
                above[j].append(i)
        return above

    def _up_index(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the ascending indexes of its higher-level neighbours, built on first use.

        Index lists, not masks: a mask would be as wide as the whole graph.
        """
        if self._up is None:
            self._up = tuple(map(tuple, self._above()))
        return self._up

    def _labels_from_mask(self, mask: int) -> frozenset[str]:
        return frozenset(self._labels[i] for i in bits(mask))

    def _require(self, v: str) -> None:
        if v not in self._index:
            raise InvalidArgumentError(f"unknown vertex {v!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultipartiteGraph):
            return NotImplemented
        return self._levels == other._levels and self._down == other._down

    def __hash__(self) -> int:
        return hash((self._levels, self._down))

    def __repr__(self) -> str:
        sizes = ",".join(str(len(lv)) for lv in self._levels)
        return f"MultipartiteGraph(levels=[{sizes}], {self.edge_count()} edges)"


def _ancestor_masks(m: MultipartiteGraph) -> tuple[int, ...]:
    """Level-0 ancestor bitmask per vertex, following strictly descending edges."""
    # a level-0 vertex is its own ancestor, so the level-0 part of a row is
    # taken whole; the index is level-major, so lower levels are low bits
    level0 = m._level_masks[0]
    anc = [1 << i for i in range(len(m._levels[0]))]
    for row in m._down[len(anc) :]:
        below = row & level0
        for j in bits(row & ~level0):
            below |= anc[j]
        anc.append(below)
    return tuple(anc)


def level0_ancestors(m: MultipartiteGraph) -> dict[str, frozenset[str]]:
    """Map each vertex to the level-0 vertices reachable by descending paths."""
    return {v: m._labels_from_mask(a) for v, a in zip(m._labels, m._ancestors())}
