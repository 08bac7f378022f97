"""Neighbourhood queries on a multipartite graph, from its public edge list.

``MultipartiteGraph`` stores each vertex's lower neighbours only and
answers no per-vertex neighbourhood query. ``Neighbours`` reads
``m.edges()`` once and answers N(x), N_i(x) and the degree of x from that
one adjacency, so a test that asks many queries of one graph builds it
once. ``particularise``, which only
the tests use, pins each upper vertex of a bipartite graph with a pendant.
"""

from __future__ import annotations

from itertools import chain

from cleanfactor import InvalidArgumentError, MultipartiteGraph


class Neighbours:
    """The neighbourhoods of every vertex of ``m``, by level, built once from ``m.edges()``."""

    def __init__(self, m: MultipartiteGraph) -> None:
        level_of = {v: i for i, level in enumerate(m.levels) for v in level}
        # per vertex, its neighbours on each level where it has any; the sets are made per query
        self._at: dict[str, dict[int, list[str]]] = {v: {} for v in level_of}
        for u, v in m.edges():
            self._at[u].setdefault(level_of[v], []).append(v)
            self._at[v].setdefault(level_of[u], []).append(u)

    def __call__(self, x: str) -> frozenset[str]:
        """N(x) across all levels."""
        return frozenset(chain.from_iterable(self._at[x].values()))

    def at_level(self, x: str, i: int) -> frozenset[str]:
        """N_i(x): the neighbours of ``x`` inside level ``i``."""
        return frozenset(self._at[x].get(i, ()))

    def degree(self, x: str) -> int:
        return sum(map(len, self._at[x].values()))


def particularise(h: MultipartiteGraph) -> MultipartiteGraph:
    """Pin each upper vertex of a bipartite graph with a fresh pendant below.

    The resulting upper neighbourhoods are pairwise incomparable, which
    turns an arbitrary bipartite graph into the vertex/clique incidence
    graph of some graph without disturbing any level above the bottom.
    """
    if h.level_count != 2:
        raise InvalidArgumentError("particularise needs a bipartite (two-level) graph")
    bottoms, uppers = h.levels
    taken = set(bottoms) | set(uppers)
    new_bottom = list(bottoms)
    edges = list(h.edges())
    for y in uppers:
        pin = f"p:{y}"
        while pin in taken:
            pin += "'"
        taken.add(pin)
        new_bottom.append(pin)
        edges.append((pin, y))
    return MultipartiteGraph((new_bottom, uppers), edges)
