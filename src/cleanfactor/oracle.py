"""Ground truth for clean decompositions: clique intersections and checks.

The non-simple intersections of the maximal cliques of a graph, ordered by
strict inclusion, index the decomposition levels: level k of a terminated
clean series holds exactly one vertex per strictly increasing sequence of
k-1 such intersections, and each vertex's lower neighbourhood follows from
its sequence. ``_inclusion`` is the one place that order is built: each
non-simple intersection as a mask, in (bit count, value) order, with the
later ones that strictly contain it. Everything here that needs the order
reads it: ``intersection_family``, the pairing walk ``_pair``, the chain
count of ``size_bound`` and the chain walk ``_chains`` behind the command
line's ``oracle`` listing. A chain is a plain tuple of masks, and the walk
keeps its own stack, so a chain of any length needs no deep recursion.

Both checks read one pairing per graph. The walk ``_pair`` pairs each
vertex with the chain that predicts its seed, or a given level's whole
row, from the level-1 rows and the vertices paired below: no labels, no
second graph and no rebuilt row. ``_pairing`` runs it on a graph's first
check and keeps the result on the graph, so verifying a graph walks it
once, whichever checks run. In the same way ``_cliques`` keeps the input
graph's maximal cliques, which ``intersection_family``, ``verify_bijection``
and ``size_bound`` read; decomposing neither reads nor fills them, so the
oracle enumerates a graph passed on from decomposition once.
``characterising_sequence`` reads no pairing: it recovers one vertex's
sequence from that vertex's own rows. Labels are formatted only for a
counterexample or a listing, so only these build generated names.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Iterable, Iterator, Sequence

from .cliques import _clique_masks
from .errors import InvalidArgumentError
from .graphs import Graph, MultipartiteGraph, _mask, _span, bits
from .series import SeriesResult

__all__ = [
    "IntersectionFamily",
    "VerificationReport",
    "SizeBound",
    "intersection_family",
    "characterising_sequence",
    "verify_bijection",
    "verify_neighbourhood_formula",
    "size_bound",
]


def _fmt_seq(sets: Iterable[frozenset[str]]) -> str:
    return "(" + " < ".join("{" + ",".join(sorted(o)) + "}" for o in sets) + ")"


@dataclass(frozen=True)
class IntersectionFamily:
    """The non-simple intersections of a graph's maximal cliques, as label sets.

    ``nonsimple`` holds each intersection of two or more distinct maximal
    cliques that keeps at least two vertices: the poset whose chains index
    the levels of the clean decomposition.
    """

    nonsimple: frozenset[frozenset[str]]


def _meets(cliques: Sequence[int]) -> set[int]:
    """Intersections of two or more distinct cliques, as masks, among them every one of two or more vertices.

    Those are exactly the non-simple intersections: each lies in at least
    two maximal cliques, which intersect back to it. Only meets of three or
    more vertices are closed further, since closing a two-vertex meet gives
    it back or fewer than two vertices; ``c1 & ... & cr`` is still reached
    through its prefix meets, which contain it.
    """
    found = {a & b for a, b in combinations(cliques, 2)}
    work = [o for o in found if o.bit_count() > 2]
    while work:
        o = work.pop()
        for c in cliques:
            meet = o & c
            if meet not in found:
                found.add(meet)
                if meet.bit_count() > 2:
                    work.append(meet)
    return found


def _inclusion(cliques: Sequence[int]) -> dict[int, list[int]]:
    """The strict-inclusion order on the non-simple intersections of the cliques, as masks.

    Each intersection maps to the later ones that strictly contain it. The
    keys run by (bit count, value), not by set order: a strict superset has
    more bits, so it comes later, and a later superset of a distinct
    element is a strict one.
    """
    order = sorted((o for o in _meets(cliques) if o.bit_count() >= 2), key=lambda o: (o.bit_count(), o))
    return {o: [q for q in order[i + 1 :] if o | q == q] for i, o in enumerate(order)}


def intersection_family(g: Graph) -> IntersectionFamily:
    """The non-simple intersections of the maximal cliques of ``g``: the elements of their inclusion order."""
    labels = g.vertices
    up = _inclusion(_cliques(g))
    return IntersectionFamily(nonsimple=frozenset(frozenset(labels[i] for i in bits(o)) for o in up))


def _chains(up: dict[int, list[int]], m: int) -> Iterator[tuple[int, ...]]:
    """The strictly increasing m-element sequences (m >= 1) of the order ``up``, in the order of its keys.

    The walk keeps its own stack, so a chain of any length needs no deep
    recursion, and enters only elements that start a chain long enough.
    """
    # longest[o]: the most elements of a chain that starts at o; up[o] comes later in the keys
    longest: dict[int, int] = {}
    for o in reversed(up):
        longest[o] = 1 + max(map(longest.__getitem__, up[o]), default=0)
    # per node: the chain so far, and the elements left that can extend it
    stack = [((), iter([o for o in up if longest[o] >= m]))]
    while stack:
        acc, kids = stack[-1]
        o = next(kids, None)
        if o is None:
            stack.pop()
        elif len(acc) == m - 1:
            yield acc + (o,)
        else:
            need = m - len(acc) - 1
            stack.append((acc + (o,), iter([q for q in up[o] if longest[q] >= need])))


def characterising_sequence(m: MultipartiteGraph, x: str) -> tuple[frozenset[str], ...]:
    """Recover the sequence (O_1, ..., O_{k-1}) of a vertex at level k >= 2 of a clean series graph.

    Read from x's own rows, and from those of its neighbours on levels 1
    and up. The first entry is N_0(x). Entry j is the intersection of the
    cliques (level-1 vertices read as their level-0 neighbourhoods) shared
    by all of x's neighbours at level j; that intersection is the unique
    clique intersection whose containing-clique set matches.
    """
    k = m.level_of(x)
    if k < 2:
        raise InvalidArgumentError("characterising sequences start at level 2")
    idx, level_of = m._whole(), m._level_of
    row = idx[m._index[x]]
    seq = [_mask(i for i in row if level_of[i] == 0)]
    for j in range(2, k):
        shared = _span(m._level_range(1))
        for y in row:
            if level_of[y] == j:
                shared &= _mask(i for i in idx[y] if level_of[i] == 1)
        o = _span(m._level_range(0))
        for c in bits(shared):
            o &= _mask(idx[c])
        seq.append(o)
    labels = m.vertices
    return tuple(frozenset(labels[i] for i in bits(o)) for o in seq)


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail outcome of a structural check, with the first counterexample.

    ``level_counts`` lists (level, vertices, expected chains) per verified
    level when the bijection check runs.
    """

    passed: bool
    counterexample: str | None = None
    level_counts: tuple[tuple[int, int, int], ...] = ()


def _fail(message: str) -> VerificationReport:
    return VerificationReport(passed=False, counterexample=message)


# the graph's one pairing: first counterexample or None, (level, vertices, chains) counts, chains left over
Pairing = tuple[str | None, tuple[tuple[int, int, int], ...], int]


def _name(m: MultipartiteGraph, x: int) -> str:
    """Vertex ``x`` as a counterexample names it: its label or, where two vertices share a label, its index."""
    try:
        return repr(m.vertices[x])
    except InvalidArgumentError:
        return str(x)


def _pair(m: MultipartiteGraph) -> Pairing:
    """Pair each vertex from level 2 up with the chain whose predicted lower neighbourhood it has.

    ``cont[o]`` is the tuple of the level-1 vertices that contain ``o``, a
    non-simple intersection of the level-1 rows; a chain is keyed by the
    vertex paired with its prefix (-1 for none) and its last entry. Chain
    ``(o,)`` predicts the row ``o``, ``cont[o]``; the vertex paired with
    ``p`` predicts for ``p + (o,)``, ``o`` above ``p[-1]``, its own row with
    level-1 part ``cont[o]``, then the window W_k: the vertices paired with
    ``p[:-1] + (q,)`` for ``p[-1] <= q <= o``, sorted. Each chain is keyed
    by its predicted part on the level below, which a generated level holds
    as the seed; a given level's row must also be its chain's predicted
    row, built only where a level above 1 is given. No seed is rebuilt: with
    the levels below k paired, a seed's rebuilt row (its members' common
    row, then the seed, which the parser keeps on the level below) is a
    chain's predicted row exactly when the seed is the chain's window.
    Backward, the seed is the row's part on the level below. Forward, the
    common row is the rest of the predicted row, as ``o`` is the meet of the
    level-1 rows that contain it, ``cont`` is antitone (``q <= o`` gives
    ``cont[o] <= cont[q]``) and W(a, q), the window of ``p[:-1] + (q,)``,
    only grows with ``q``. W_k holds both ends, the vertices paired with
    ``p`` and ``p[:-1] + (o,)``, so distinct chains have distinct windows,
    and one vertex per chain on each level is a bijection.
    """
    idx, ones = m._idx, m._level_range(1)
    level1 = [_mask(idx[c]) for c in ones]
    up = _inclusion(level1)
    cont = {o: tuple([c for c, row in zip(ones, level1) if o | row == row]) for o in up}
    key_of: dict[int, tuple[int, int]] = {}
    # a level's chain keys, each chain by its predicted part on the level below, and its row if a level above 1 is given
    keys = [(-1, o) for o in up]
    want = {cont[o]: (-1, o) for o in up}
    rows = {(-1, o): tuple(bits(o)) + cont[o] for o in up} if tuple in map(type, m._levels[2:]) else {}
    counts: list[tuple[int, int, int]] = []
    for k in range(2, m.level_count):
        paired: dict[tuple[int, int], int] = {}
        lo = m._level_range(k - 1).start if type(m._levels[k]) is tuple else None
        for x in m._level_range(k):
            row = idx[x]
            key = want.get(row if lo is None else row[bisect_left(row, lo) :])
            if key is None or lo is not None and row != rows[key]:
                return f"level {k}, vertex {_name(m, x)}: no {k - 1}-element chain predicts its lower neighbourhood", (), 0
            y = paired.setdefault(key, x)
            if y != x:
                return f"level {k}: vertices {_name(m, y)} and {_name(m, x)} have the same lower neighbourhood", (), 0
            key_of[x] = key
        if len(paired) != len(keys):
            key = next(key for key in keys if key not in paired)
            seq = [key[1]]
            while key[0] != -1:
                key = key_of[key[0]]
                seq.append(key[1])
            chain = _fmt_seq(frozenset(map(m._levels[0].__getitem__, bits(o))) for o in reversed(seq))
            return f"level {k}: chain {chain} is attained by no vertex", (), 0
        counts.append((k, len(paired), len(keys)))
        keys, want, parents, rows = [], {}, rows, {}
        for key, x in paired.items():
            a, last = key
            if parents:
                row = parents[key]
                i = bisect_left(row, ones.start)
                below, above = row[:i], row[i + len(cont[last]) :]
            for o in up[last]:
                child = x, o
                window = tuple(sorted([paired[a, q] for q in [last] + [q for q in up[last] if q | o == o]]))
                keys.append(child)
                want[window] = child
                if parents:
                    rows[child] = below + cont[o] + above + window
    return None, tuple(counts), len(keys)


def _pairing(m: MultipartiteGraph) -> Pairing:
    """``_pair(m)``, walked on first use and kept on the graph (``m._pairing``)."""
    if m._pairing is None:
        m._pairing = _pair(m)
    return m._pairing


def _cliques(g: Graph) -> tuple[int, ...]:
    """``_clique_masks(g._adj)``, enumerated on first use and kept on the graph (``g._cliques``)."""
    if g._cliques is None:
        g._cliques = tuple(_clique_masks(g._adj))
    return g._cliques


def verify_bijection(g: Graph, m: MultipartiteGraph) -> VerificationReport:
    """Check the chain correspondence on a terminated clean decomposition of g.

    Level 0 must be g's vertex set and level 1 its maximal cliques, as
    g's stored enumeration (``_cliques``) gives them. Each level k >= 2
    must then pair one to one with the (k-1)-element chains of non-simple
    intersections, every vertex having the lower neighbourhood its chain
    predicts in m's stored pairing (``_pairing``). Beyond the top level no
    chains may remain, otherwise the series was not terminated.
    """
    # both are sorted tuples of distinct labels, so once equal g's masks are m's level-0 masks
    if m._levels[0] != g.vertices:
        return _fail("level 0 does not match the input graph's vertex set")
    cliques = _cliques(g)
    level1 = [_mask(m._idx[c]) for c in m._level_range(1)]
    if len(set(level1)) != len(level1) or set(level1) != set(cliques):
        return _fail("level 1 does not match the maximal cliques of the input graph")
    failure, counts, leftover = _pairing(m)
    if failure is not None:
        return _fail(failure)
    if leftover:
        beyond = m.level_count - 1
        return _fail(f"series is not terminated: {leftover} chains of {beyond} elements have no level {beyond + 1}")
    return VerificationReport(passed=True, level_counts=counts)


def verify_neighbourhood_formula(m: MultipartiteGraph) -> VerificationReport:
    """Check the lower neighbourhoods of a clean decomposition against its chains.

    Every vertex of level k >= 2 must have the lower neighbourhood of a
    distinct (k-1)-element chain ``s`` of the non-simple intersections of
    m's level-1 rows: ``s[0]`` on level 0, the cliques containing ``s[-1]``
    on level 1 and the window W_j on each level 2 <= j < k. Every chain
    of a level must be attained. Read from m's stored pairing
    (``_pairing``), the one ``verify_bijection`` reads, over m's levels.
    """
    failure, _, _ = _pairing(m)
    return VerificationReport(passed=True) if failure is None else _fail(failure)


@dataclass(frozen=True)
class SizeBound:
    """Measured decomposition size against the analytic bound.

    ``k`` is the largest number of maximal cliques sharing a vertex and
    ``c`` the largest clique size.
    """

    bound: int
    actual: int
    k: int
    c: int

    @property
    def holds(self) -> bool:
        return self.actual <= self.bound


def size_bound(g: Graph, series: SeriesResult | None = None) -> SizeBound:
    """Evaluate min(k*2^c*c!, 2^k*k!+1)*n against the clean decomposition size.

    Without a ``series`` the size is counted instead of built: the
    vertices, the maximal cliques, and one vertex per chain of the
    inclusion order, all chains counted in one pass over the order. A
    ``series`` passed in is measured instead, so that ``verify`` bounds
    the decomposition it was given.
    """
    if len(g) == 0:
        raise InvalidArgumentError("the size bound of the empty graph is undefined")
    cliques = _cliques(g)
    per_vertex = [0] * len(g)
    for clique in cliques:
        for v in bits(clique):
            per_vertex[v] += 1
    k = max(per_vertex)
    c = max(clique.bit_count() for clique in cliques)
    n = len(g)
    bound = min(k * (2**c) * factorial(c), (2**k) * factorial(k) + 1) * n
    if series is None:
        # the bijection: one vertex per chain of non-simple intersections above levels 0 and 1. The chains
        # that start at o are (o,) and o in front of each chain that starts at a strict superset of o;
        # up[o] comes later in the keys, so starting[o] is counted from finished entries
        up = _inclusion(cliques)
        starting: dict[int, int] = {}
        for o in reversed(up):
            starting[o] = 1 + sum(map(starting.__getitem__, up[o]))
        actual = n + len(cliques) + sum(starting.values())
    else:
        actual = len(series.final)
    return SizeBound(bound=bound, actual=actual, k=k, c=c)
