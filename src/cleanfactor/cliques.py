"""Maximal-clique enumeration and the vertex/clique incidence construction."""

from __future__ import annotations

from .errors import InvalidArgumentError
from .graphs import Graph, MultipartiteGraph, bits

__all__ = [
    "maximal_cliques",
    "vertex_clique_incidence",
    "anti_matching",
]


def _clique_masks(adj: tuple[int, ...]) -> list[int]:
    # The maximal cliques of a non-empty graph, by Bron-Kerbosch with a greedy
    # pivot. Deterministic: candidates are scanned in bit order and pivot ties
    # keep the lowest index. The walk keeps its own stack, so a clique of any
    # size is found without deep recursion, and expands the branches of a node,
    # each with its subtree, in bit order.
    if not adj:
        raise InvalidArgumentError("maximal cliques of the empty graph are undefined")
    out: list[int] = []
    stack = [(0, (1 << len(adj)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            continue
        pivot = -1
        best = -1
        scan = p | x
        while scan:
            low = scan & -scan
            u = low.bit_length() - 1
            scan ^= low
            size = (p & adj[u]).bit_count()
            if size > best:
                best = size
                pivot = u
        # a candidate's branch excludes the candidates before it from p and adds them to x;
        # pushing from the highest candidate down pops them in bit order
        cand = p & ~adj[pivot]
        while cand:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            stack.append((r | 1 << v, p & ~cand & adj[v], (x | cand) & adj[v]))
    return out


def maximal_cliques(g: Graph) -> tuple[frozenset[str], ...]:
    """The inclusion-maximal cliques of ``g`` as label sets, sorted on their sorted member lists.

    An isolated vertex is a singleton clique. Raises on the empty graph, which has no clique family.
    """
    labels = g.vertices
    found = [frozenset(labels[i] for i in bits(m)) for m in _clique_masks(g._adj)]
    found.sort(key=lambda c: tuple(sorted(c)))
    return tuple(found)


def vertex_clique_incidence(g: Graph) -> MultipartiteGraph:
    """The bipartite graph with the vertices of ``g`` below its maximal cliques.

    Level 0 holds the vertices, and level 1, a generated level, one vertex
    per maximal clique in row order; membership gives the edges.
    """
    # both graphs index level 0 in label order, so a clique mask's bits are its row
    rows = sorted(tuple(bits(c)) for c in _clique_masks(g._adj))
    return MultipartiteGraph._from_rows((g.vertices, len(rows)), rows)


def anti_matching(n: int) -> MultipartiteGraph:
    """Bipartite complement of a perfect matching: u_i adjacent to b_j iff i != j."""
    if n < 2:
        raise InvalidArgumentError("anti-matching needs n >= 2")
    bottoms = [f"b{i}" for i in range(1, n + 1)]
    uppers = [f"u{i}" for i in range(1, n + 1)]
    edges = [(bottoms[j], uppers[i]) for i in range(n) for j in range(n) if i != j]
    return MultipartiteGraph((bottoms, uppers), edges)
