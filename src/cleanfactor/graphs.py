"""Graphs and levelled multipartite graphs over string vertex labels.

Vertex sets are integer bitmasks over a per-graph, level-major vertex index.
A ``MultipartiteGraph`` stores each vertex's lower neighbourhood as a tuple
of ascending indexes, so appending a level rewrites no row; ``factorise``,
the decoder and the incidence graph hand it the tuples (``_from_rows``). On
every level above 1 the tuple is the vertex's seed, which fixes the rest
(``_rebuilt``); the constructor and ``append_level`` refuse a row that its
seed does not fix. The pairing and the names read the seeds, and ``_whole``
rebuilds whole rows once for ``edges()`` and other readers. Only a step's
walk ANDs rows, as masks of the top level in ``_top``, which ``factorise``
leaves for the next step. A level the library generates stores only its
size: its names, a function of its rows, are built on the first label
lookup, so decomposing and verifying name nothing. Vertices and rows never
change; the caches (``_pairing``, ``Graph._cliques``, whole rows, names,
label index) fill on first use, and equality and hashing ignore them and
``_top``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import chain, count, repeat
from operator import and_
from typing import Iterable, Sequence

from .errors import InvalidArgumentError

__all__ = ["Graph", "MultipartiteGraph"]

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


def _rebuilt(rows: Sequence[tuple[int, ...]], seed: tuple[int, ...], sets: dict) -> tuple[int, ...]:
    """The whole row that ``seed`` fixes: its members' common row in ``rows``, then the seed itself.

    ``sets`` keeps each member's row as a set's membership test, made on first use, for the seeds of one level.
    """
    members = iter(seed)
    common = rows[next(members)]
    for j in members:
        if (has := sets.get(j)) is None:
            has = sets[j] = set(rows[j]).__contains__
        common = filter(has, common)
    return (*common, *seed)


def _check_labels(labels: Iterable[object]) -> None:
    for v in labels:
        if not isinstance(v, str):
            raise InvalidArgumentError(f"vertex labels must be strings, got {v!r}")


def _check_distinct(labels: Sequence[str], held: int) -> None:
    """Refuse ``labels`` unless ``held`` of them are distinct, naming the first that repeats an earlier one."""
    if held != len(labels):
        seen: set[str] = set()
        clash = next(v for v in labels if v in seen or seen.add(v))
        raise InvalidArgumentError(f"vertex {clash!r} appears more than once")


# a level-0 label inside a generated name: ',' separates labels and '#' starts the suffix, so both are escaped;
# the empty label is written \0, which no escaped label holds: each backslash written here is followed by \, ',' or '#'
_ESCAPES = str.maketrans({"\\": "\\\\", ",": "\\,", "#": "\\#"})


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
        """All edges as (u, v) pairs with u < v, sorted: in index order, which is label order."""
        labels = self._labels
        return tuple(
            [(labels[i], labels[i + 1 + j]) for i, mask in enumerate(self._adj) for j in bits(mask >> (i + 1))]
        )

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

    Every edge joins two distinct levels. Each vertex stores only its lower
    neighbours; above level 1, only its seed, those on the level below, as
    the rest are those that its members share. ``edges()`` is the one public
    view of the edge set. Instances never mutate. A level given to the
    constructor is in label order; a level the library generates (level 1 of
    ``vertex_clique_incidence``, each level ``factorise`` appends) and one
    ``append_level`` adds are in row order, by their seeds as index tuples.
    A generated vertex is ``K:`` on level 1, else ``L<k>:``, plus the
    escaped labels of the level-0 neighbours its row starts with, and
    ``#n`` if it is the n-th (n >= 2) of its level with those neighbours.
    """

    __slots__ = ("_levels", "_sizes", "_labels", "_index", "_level_of", "_idx", "_full", "_top", "_pairing")

    def __init__(self, levels: Sequence[Iterable[str]], edges: Iterable[tuple[str, str]] = ()) -> None:
        """The graph on ``levels``, each in label order, and ``edges``; each row above level 1 is kept as its seed."""
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
        self._labels = tuple(chain.from_iterable(level_tuples))  # every level given: the rows name nothing
        rows = self._rows(edges, 0)
        self._idx = rows[: sum(self._sizes[:2])] + self._seeds(rows, 2)
        self._full = rows if len(level_tuples) > 2 else None  # as _whole keeps them

    def _rows(self, edges: Iterable[tuple[str, str]], first: int) -> tuple[tuple[int, ...], ...]:
        """The rows of vertices ``first`` and up, as ascending index tuples, from labelled edges that end at them."""
        index, level_of = self._indexed(), self._level_of
        down: list[set[int]] = [set() for _ in range(first, len(level_of))]
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

    def _seeds(self, rows: Sequence[tuple[int, ...]], first: int) -> tuple[tuple[int, ...], ...]:
        """Levels ``first`` (>= 2) and up as seeds, from every whole row; refuse the first row its seed does not fix."""
        out = []
        for k in range(first, len(self._sizes)):
            lo, sets = self._level_range(k - 1).start, {}
            for label, row in zip(self._levels[k], rows[self._level_range(k).start :]):
                out.append(seed := row[bisect_left(row, lo) :])
                if len(seed) < 2 or _rebuilt(rows, seed, sets) != row:
                    short = f"fewer than two neighbours on level {k - 1}"
                    other = f"other neighbours below level {k - 1} than those its neighbours on level {k - 1} share"
                    raise InvalidArgumentError(f"vertex {label!r} on level {k} has {short if len(seed) < 2 else other}")
        return tuple(out)

    def _set_levels(self, levels: tuple[tuple[str, ...] | int, ...]) -> None:
        """Set every field but the rows from each level's labels, or a generated level's size; check given labels."""
        self._levels = levels
        self._sizes = tuple(level if type(level) is int else len(level) for level in levels)
        given = [v for level in levels if type(level) is tuple for v in level]
        _check_distinct(given, len(set(given)))
        self._labels = self._index = self._level_of = None  # built on the first label lookup
        self._full = self._pairing = None  # the whole rows (_whole); the oracle's pairing
        self._top = None  # the top level's rows as masks, which factorise leaves for the next step's walk

    def _named(self) -> tuple[str, ...]:
        """Every vertex's label in index order (``_labels``), the generated ones built in one pass on first use.

        A name reads its level-0 run, a mask, from its row on level 1, else ANDs its seed members' runs: no whole
        row is built. ``#n`` counts a level's runs in a dict, so rows in any order get distinct names.
        """
        if self._labels is None:
            n0, n1, out = self._sizes[0], sum(self._sizes[:2]), list(self._levels[0])
            runs = [0] * n0 + [_mask(row[: bisect_left(row, n0)]) for row in self._idx[n0:n1]]
            for seed in self._idx[n1:]:
                runs.append(reduce(and_, map(runs.__getitem__, seed)))
            escaped = [v.translate(_ESCAPES) or "\\0" for v in self._levels[0]]
            for k, level in enumerate(self._levels[1:], 1):
                if type(level) is tuple:
                    out += level
                    continue
                prefix, seen = ("K:" if k == 1 else f"L{k}:"), {}
                for run in runs[len(out) : len(out) + level]:
                    if (named := seen.get(run)) is None:
                        seen[run] = named = [prefix + ",".join([escaped[i] for i in bits(run)]), 1]
                        out.append(named[0])
                    else:
                        named[1] += 1
                        out.append(f"{named[0]}#{named[1]}")
            self._labels = tuple(out)
        return self._labels

    def _whole(self) -> tuple[tuple[int, ...], ...]:
        """Every whole row in index order: ``_idx``, each seed rebuilt once (``_rebuilt``)."""
        if self._full is None and len(self._sizes) > 2:
            rows = list(self._idx)
            for k in range(2, len(self._sizes)):
                sets: dict = {}
                for i in self._level_range(k):
                    rows[i] = _rebuilt(rows, rows[i], sets)
            self._full = tuple(rows)
        return self._full or self._idx

    def _indexed(self) -> dict[str, int]:
        """The label index, built with the names and ``_level_of`` on the first lookup; it refuses a shared label."""
        if self._index is None:
            labels = self._named()
            index = dict(zip(labels, range(len(labels))))
            _check_distinct(labels, len(index))
            self._index, self._level_of = index, tuple(chain.from_iterable(map(repeat, count(), self._sizes)))
        return self._index

    @classmethod
    def _from_rows(cls, levels: tuple[tuple[str, ...] | int, ...], idx: Iterable[tuple[int, ...]]) -> MultipartiteGraph:
        """The graph on ``levels`` (labels or sizes) with rows ``idx`` from level 1 up, seeds above level 1, unchecked
        but for a repeated given label."""
        out = cls.__new__(cls)
        out._set_levels(levels)
        out._idx = ((),) * len(levels[0]) + tuple(idx)
        return out

    @property
    def levels(self) -> tuple[Sequence[str], ...]:
        """Each level's labels; a generated level's are a ``_Named`` view, whose length needs no name."""
        return tuple(level if type(level) is tuple else _Named(self, k) for k, level in enumerate(self._levels))

    @property
    def level_count(self) -> int:
        return len(self._levels)

    @property
    def vertices(self) -> tuple[str, ...]:
        self._index or self._indexed()
        return self._labels

    def __len__(self) -> int:
        return len(self._idx)

    def __contains__(self, label: object) -> bool:
        return label in (self._index or self._indexed())

    def level_of(self, v: str) -> int:
        i = (self._index or self._indexed()).get(v)
        if i is None:
            raise InvalidArgumentError(f"unknown vertex {v!r}")
        return self._level_of[i]

    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every edge as (lower-level endpoint, higher-level endpoint), sorted.

        Each edge is stored once, in its higher endpoint's row, so the rows are transposed first, the
        vertices taken in label order, so that the edges come out sorted without sorting them.
        """
        labels, rows = self.vertices, self._whole()
        order = sorted(range(len(labels)), key=labels.__getitem__)
        above: list[list[int]] = [[] for _ in labels]
        for i in order:
            for j in rows[i]:
                above[j].append(i)
        return tuple([(labels[j], labels[i]) for j in order for i in above[j]])

    def edge_count(self) -> int:
        return sum(map(len, self._whole()))

    def append_level(self, new_vertices: Sequence[tuple[str, Iterable[str]]]) -> MultipartiteGraph:
        """Return a (k+1)-level graph with one extra level on top, in seed order as ``factorise`` appends one.

        ``new_vertices`` holds (label, neighbours) pairs; neighbours must already be vertices of this graph and form
        a series' row, as in the constructor. The new level holds their seeds, in seed order, then label order.
        Existing levels and edges are retained unchanged. An empty list is rejected: callers model "no new
        vertices" as a non-effective step, not as an empty level.
        """
        if not new_vertices:
            raise InvalidArgumentError("append_level needs at least one new vertex")
        fresh = tuple(label for label, _ in new_vertices)
        _check_labels(fresh)
        out = MultipartiteGraph.__new__(MultipartiteGraph)
        out._set_levels(self._levels + (fresh,))
        index = self._indexed()  # built once however often this graph is extended; the new graph's waits
        try:
            rows = tuple([tuple(sorted({index[u] for u in nbrs})) for _, nbrs in new_vertices])
        except KeyError:
            out._labels = self._labels + fresh
            out._rows(((u, label) for label, nbrs in new_vertices for u in nbrs), len(self))  # raises as __init__
        # the index is level-major, so every existing index and row survives; the new level in seed order
        seeds, rows, fresh = zip(*sorted(zip(out._seeds(self._whole() + rows, len(self._sizes)), rows, fresh)))
        out._levels, out._idx, out._full = self._levels + (fresh,), self._idx + seeds, self._whole() + rows
        return out

    # -- internal helpers shared inside the package ---------------------

    def _level_range(self, k: int) -> range:
        """Global indexes of level ``k``, which are contiguous."""
        start = sum(self._sizes[:k])
        return range(start, start + self._sizes[k])

    def __eq__(self, other: object) -> bool:
        """Equal sizes, rows and given labels; a level given on one side only is compared with the other's names."""
        if not isinstance(other, MultipartiteGraph):
            return NotImplemented
        if self._sizes != other._sizes or self._idx != other._idx:
            return False
        pairs = enumerate(zip(self._levels, other._levels))
        return all(a == b if type(a) is type(b) else self.levels[k] == other.levels[k] for k, (a, b) in pairs)

    def __hash__(self) -> int:
        # level 0 is always given; a level above may be given on one of two equal graphs only
        return hash((self._levels[0], self._sizes, self._idx[self._sizes[0] : self._sizes[0] + self._sizes[1]]))

    def __repr__(self) -> str:
        return f"MultipartiteGraph(levels=[{','.join(map(str, self._sizes))}], {self.edge_count()} edges)"


class _Named(Sequence):
    """Generated level ``k`` of ``graph``, as ``levels`` gives it: its size at once, its names on first lookup."""

    def __init__(self, graph: MultipartiteGraph, k: int) -> None:
        self._graph, self._k = graph, k

    def __len__(self) -> int:
        return self._graph._sizes[self._k]

    def __getitem__(self, i):
        at, vertices = self._graph._level_range(self._k)[i], self._graph.vertices
        return tuple(map(vertices.__getitem__, at)) if isinstance(i, slice) else vertices[at]

    def __iter__(self):
        level = self._graph._level_range(self._k)
        return iter(self._graph.vertices[level.start : level.stop])

    def __eq__(self, other: object) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (tuple, _Named)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))  # as the tuple it equals
