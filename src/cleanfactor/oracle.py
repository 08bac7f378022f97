"""Ground truth for clean decompositions: clique intersections and checks.

The non-simple intersections of the maximal cliques of a graph, ordered by
strict inclusion, index the decomposition levels: level k of a terminated
clean series holds exactly one vertex per strictly increasing sequence of
k-1 such intersections. This module computes the intersection families,
counts and enumerates chains, recovers the sequence attached to a
decomposition vertex, and verifies the expected structure of a
decomposition instance, reporting the first counterexample on failure.

The checks work on bitmasks: ``_sequence_masks``, the library's one
sequence code path, gives each vertex's sequence as level-0 masks, and a
graph's whole table is computed once and kept on the graph, so the checks
and ``characterising_sequence`` share it. Documents do not store the
sequences. Chains are counted, and enumerated only to name a missing one.
The neighbourhood formula is mask algebra over per-level tables (vertices
by sequence prefix, and by each level-0 vertex their last entries hold),
with no scan of a level. Labels are formatted only for a counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import factorial
from typing import Iterable, Iterator, Sequence

from .cliques import _clique_masks, maximal_cliques
from .errors import InvalidArgumentError
from .factorisation import OperatorKind
from .graphs import Graph, MultipartiteGraph, bits
from .series import SeriesResult, run_series

__all__ = [
    "IntersectionFamily",
    "IntersectionPoset",
    "CharacterisingSequence",
    "VerificationReport",
    "SizeBound",
    "intersection_family",
    "cliques_containing",
    "chains_of_length",
    "characterising_sequence",
    "verify_bijection",
    "verify_neighbourhood_formula",
    "size_bound",
]


def _fmt(s: Iterable[str]) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def _fmt_seq(sets: Iterable[frozenset[str]]) -> str:
    return "(" + " < ".join(_fmt(o) for o in sets) + ")"


@dataclass(frozen=True)
class IntersectionFamily:
    """Intersections of maximal cliques of a graph.

    ``all_intersections`` is closed under intersection and contains the
    whole vertex set (the intersection over no cliques); ``nonsimple``
    keeps the members with at least two vertices that arise from at least
    two distinct maximal cliques.
    """

    all_intersections: frozenset[frozenset[str]]
    nonsimple: frozenset[frozenset[str]]


def _meets(cliques: list[int]) -> set[int]:
    """Every intersection of two or more distinct cliques, as masks.

    Together with the cliques themselves and the whole vertex set this is
    the intersection closure of the cliques. Its members with at least two
    vertices are exactly the non-simple intersections: such a member is
    contained in at least two maximal cliques, and those intersect back to
    it.
    """
    found = {a & b for a, b in combinations(cliques, 2)}
    work = list(found)
    while work:
        o = work.pop()
        for c in cliques:
            meet = o & c
            if meet not in found:
                found.add(meet)
                work.append(meet)
    return found


def intersection_family(g: Graph) -> IntersectionFamily:
    """Compute the intersection closure of the maximal cliques of ``g``."""
    cliques = _clique_masks(g._adj)
    meets = _meets(cliques)
    closed = meets.union(cliques, [(1 << len(g)) - 1])
    labels = {o: frozenset(g.vertices[i] for i in bits(o)) for o in closed}
    return IntersectionFamily(
        all_intersections=frozenset(labels.values()),
        nonsimple=frozenset(labels[o] for o in meets if o.bit_count() >= 2),
    )


def cliques_containing(g: Graph, a: Iterable[str]) -> frozenset[frozenset[str]]:
    """K(A): the maximal cliques of ``g`` containing every vertex of ``a``."""
    wanted = frozenset(a)
    for v in wanted:
        if v not in g:
            raise InvalidArgumentError(f"unknown vertex {v!r}")
    family = maximal_cliques(g)
    return frozenset(c for c in family.cliques if wanted <= c)


class IntersectionPoset:
    """A family of vertex sets under strict inclusion, with chain queries."""

    def __init__(self, elements: Iterable[frozenset[str]]) -> None:
        self._elements = tuple(
            sorted({frozenset(e) for e in elements}, key=lambda s: (len(s), tuple(sorted(s))))
        )
        above: list[tuple[int, ...]] = []
        for i, small in enumerate(self._elements):
            ups = tuple(
                j
                for j in range(i + 1, len(self._elements))
                if len(small) < len(self._elements[j]) and small < self._elements[j]
            )
            above.append(ups)
        self._above = tuple(above)

    @property
    def elements(self) -> tuple[frozenset[str], ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def height(self) -> int:
        """Number of elements on a longest chain (0 for the empty poset)."""
        n = len(self._elements)
        high = [1] * n
        for i in range(n - 1, -1, -1):
            for j in self._above[i]:
                if 1 + high[j] > high[i]:
                    high[i] = 1 + high[j]
        return max(high, default=0)

    def chain_count(self, m: int) -> int:
        """Number of strictly increasing m-element sequences."""
        if m < 1:
            raise InvalidArgumentError("chain length must be at least 1")
        counts = _chain_counts(self._elements)
        return counts[m] if m < len(counts) else 0

    def chains(self, m: int) -> Iterator[tuple[frozenset[str], ...]]:
        if m < 1:
            raise InvalidArgumentError("chain length must be at least 1")

        def walk(acc: list[int]) -> Iterator[tuple[frozenset[str], ...]]:
            if len(acc) == m:
                yield tuple(self._elements[t] for t in acc)
                return
            for j in self._above[acc[-1]]:
                acc.append(j)
                yield from walk(acc)
                acc.pop()

        for i in range(len(self._elements)):
            yield from walk([i])


@dataclass(frozen=True)
class CharacterisingSequence:
    """The chain label attached to a decomposition vertex: (O_1, ..., O_{k-1})."""

    sets: tuple[frozenset[str], ...]

    def __len__(self) -> int:
        return len(self.sets)

    def is_strict_chain(self) -> bool:
        return all(a < b for a, b in zip(self.sets, self.sets[1:]))


def chains_of_length(poset: IntersectionPoset, m: int) -> set[CharacterisingSequence]:
    """All strictly increasing m-element sequences over the poset."""
    return {CharacterisingSequence(chain) for chain in poset.chains(m)}


def _chain_counts(order: Sequence[int] | Sequence[frozenset[str]]) -> list[int]:
    """Chain counts of distinct masks or sets, ordered with every strict subset first.

    Entry m counts the strictly increasing m-element sequences, up to the
    longest (entry 0 is the empty one). The chains ending at each element
    are counted one length at a time from those ending at its subsets.
    """
    below = [[j for j, p in enumerate(order[:i]) if p | o == o] for i, o in enumerate(order)]
    counts = [1]
    ending = [1] * len(order)
    while any(ending):
        counts.append(sum(ending))
        ending = [sum(ending[j] for j in js) for js in below]
    return counts


def _sequence_masks(m: MultipartiteGraph) -> dict[int, tuple[int, ...]]:
    """Characterising sequences as tuples of level-0 masks, by global index.

    One entry per vertex from level 2 up, in index order; see
    ``characterising_sequence`` for the entries. The table is computed
    once per graph and kept on it (``m._seq``), so callers must not
    modify it.
    """
    if m._seq is None:
        m._seq = _compute_sequences(m)
    return m._seq


def _compute_sequences(m: MultipartiteGraph) -> dict[int, tuple[int, ...]]:
    # clique sets recur across vertices, so their intersections are memoised;
    # every row read here is a lower neighbourhood
    adj = m._down
    lmask = m._level_masks
    level_of = m._level_of
    bottom, cliques = lmask[0], lmask[1]
    meet: dict[int, int] = {}
    out: dict[int, tuple[int, ...]] = {}
    for x in range(len(m.levels[0]) + len(m.levels[1]), len(m)):
        row = adj[x]
        seq = [row & bottom]
        for j in range(2, level_of[x]):
            shared = cliques
            for y in bits(row & lmask[j]):
                shared &= adj[y]
            o = meet.get(shared)
            if o is None:
                o = bottom
                for c in bits(shared):
                    o &= adj[c]
                meet[shared] = o
            seq.append(o)
        out[x] = tuple(seq)
    return out


def characterising_sequence(m: MultipartiteGraph, x: str) -> CharacterisingSequence:
    """Recover the sequence of a vertex at level k >= 2 of a clean series graph.

    The first entry is N_0(x). Entry j is the intersection of the cliques
    (level-1 vertices read as their level-0 neighbourhoods) shared by all
    of x's neighbours at level j; that intersection is the unique clique
    intersection whose containing-clique set matches. Read from the
    graph's one sequence table, which the checks share.
    """
    if m.level_of(x) < 2:
        raise InvalidArgumentError("characterising sequences start at level 2")
    seq = _sequence_masks(m)[m._index[x]]
    return CharacterisingSequence(tuple(m._labels_from_mask(o) for o in seq))


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


def verify_bijection(g: Graph, m: MultipartiteGraph) -> VerificationReport:
    """Check the chain correspondence on a terminated clean decomposition of g.

    Per level k >= 2: every vertex carries a strictly increasing sequence
    of non-simple intersections, no two vertices share one, and the level
    has as many vertices as there are (k-1)-element chains. The sequences
    are then distinct chains, so equal counts mean every chain is attained.
    Beyond the top level no chains may remain, otherwise the series was not
    terminated.
    """
    if set(m.levels[0]) != set(g.vertices):
        return _fail("level 0 does not match the input graph's vertex set")
    # both vertex sets are now one sorted tuple, so g's masks are m's level-0 masks
    cliques = _clique_masks(g._adj)
    level1 = [m._down[c] for c in m._level_range(1)]
    if len(set(level1)) != len(level1) or set(level1) != set(cliques):
        return _fail("level 1 does not match the maximal cliques of the input graph")

    labels = m._labels_from_mask
    nonsimple = {o for o in _meets(cliques) if o.bit_count() >= 2}
    # padded, so that every chain length asked for below has an entry
    chains = _chain_counts(sorted(nonsimple, key=int.bit_count)) + [0] * m.level_count
    sequences = _sequence_masks(m)
    counts: list[tuple[int, int, int]] = []
    for k in range(2, m.level_count):
        level = m._level_range(k)
        seen: dict[tuple[int, ...], int] = {}
        shared: tuple[int, int] | None = None
        for x in level:
            s = sequences[x]
            if any(a == b or a & ~b for a, b in zip(s, s[1:])):
                seq = _fmt_seq(labels(o) for o in s)
                return _fail(f"level {k}, vertex {m._labels[x]!r}: sequence {seq} is not strictly increasing")
            for o in s:
                if o not in nonsimple:
                    return _fail(
                        f"level {k}, vertex {m._labels[x]!r}: {_fmt(labels(o))} is not a non-simple clique intersection"
                    )
            first = seen.setdefault(s, x)
            if shared is None and first != x:
                shared = (first, x)
        if shared is not None:
            first, x = shared
            seq = _fmt_seq(labels(o) for o in sequences[x])
            return _fail(f"level {k}: vertices {m._labels[first]!r} and {m._labels[x]!r} share the sequence {seq}")
        expected = chains[k - 1]
        if len(level) != expected:
            attained = {tuple(labels(o) for o in sequences[x]) for x in level}
            poset = IntersectionPoset(labels(o) for o in nonsimple)
            chain = min(
                (c for c in poset.chains(k - 1) if c not in attained),
                key=lambda c: tuple(tuple(sorted(o)) for o in c),
            )
            return _fail(f"level {k}: chain {_fmt_seq(chain)} is attained by no vertex")
        counts.append((k, len(level), expected))

    beyond = m.level_count - 1
    leftover = chains[beyond]
    if leftover:
        return _fail(
            f"series is not terminated: {leftover} chains of {beyond} elements have no level {beyond + 1}"
        )
    return VerificationReport(passed=True, level_counts=tuple(counts))


def verify_neighbourhood_formula(m: MultipartiteGraph) -> VerificationReport:
    """Check the neighbourhood structure of a terminated clean decomposition.

    Three families of checks: the containing cliques of a vertex's last
    sequence entry are exactly its level-1 neighbours; for j in 2..k-1 the
    level-j neighbourhood equals the sequence-window set W_j; and vertices
    of a level that agree one level below agree on every lower level
    except level 1.

    W_j of a vertex with sequence s holds the level-j vertices whose
    sequence starts with s[:j-2] and ends between s[j-2] and s[j-1]. The
    windows and the containing cliques are mask algebra over two tables
    built once per level j: ``prefix[j]``, the vertices with each sequence
    prefix, and ``holds[j][v]``, per level-0 vertex v the vertices whose
    last entry holds v (on level 1, the cliques that hold v). Ending above
    s[j-2] is then an AND over the v in s[j-2], and ending below s[j-1]
    the complement of an OR over the v outside it; both are memoised per
    level and entry.
    """
    # each vertex is compared with lower levels only, so its lower neighbourhood is all it reads
    adj = m._down
    lmask = m._level_masks
    labels = m._labels
    level_of = m._level_of
    bottom = lmask[0]
    sequences = _sequence_masks(m)
    if not sequences:  # two levels: nothing to check
        return VerificationReport(passed=True)

    def fmt(mask: int) -> str:
        return _fmt(m._labels_from_mask(mask))

    holds = [[0] * len(m.levels[0]) for _ in range(m.level_count)]
    prefix: list[dict[tuple[int, ...], int]] = [{} for _ in range(m.level_count)]
    for c in m._level_range(1):
        for v in bits(adj[c]):
            holds[1][v] |= 1 << c
    # no window lies in the top level, which comes last in index order
    for y, s in islice(sequences.items(), len(sequences) - len(m.levels[-1])):
        j, bit = level_of[y], 1 << y
        prefix[j][s[:-1]] = prefix[j].get(s[:-1], 0) | bit
        for v in bits(s[-1]):
            holds[j][v] |= bit

    over: dict[tuple[int, int], int] = {}
    under: dict[tuple[int, int], int] = {}

    def ending_over(j: int, o: int) -> int:
        """The level-j vertices whose last entry contains ``o``."""
        got = over.get((j, o))
        if got is None:
            got = lmask[j]
            for v in bits(o):
                got &= holds[j][v]
            over[j, o] = got
        return got

    def ending_under(j: int, o: int) -> int:
        """The level-j vertices whose last entry lies inside ``o``."""
        got = under.get((j, o))
        if got is None:
            outside = 0
            for v in bits(bottom & ~o):
                outside |= holds[j][v]
            got = under[j, o] = lmask[j] & ~outside
        return got

    for x, s in sequences.items():
        last = s[-1]
        want = ending_over(1, last)
        actual = adj[x] & lmask[1]
        if want != actual:
            return _fail(
                f"level {len(s) + 1}, vertex {labels[x]!r}: cliques containing {fmt(last)} are "
                f"{fmt(want)} but N_1 is {fmt(actual)}"
            )

    for x, s in sequences.items():
        k = len(s) + 1
        for j in range(2, k):
            window = prefix[j].get(s[: j - 2], 0) & ending_over(j, s[j - 2]) & ending_under(j, s[j - 1])
            actual = adj[x] & lmask[j]
            if window != actual:
                return _fail(
                    f"level {k}, vertex {labels[x]!r}, level-{j} neighbourhood: expected "
                    f"{fmt(window)}, got {fmt(actual)}"
                )

    for k in range(4, m.level_count):
        groups: dict[int, int] = {}
        for x in m._level_range(k):
            other = groups.setdefault(adj[x] & lmask[k - 2], x)
            if other == x:
                continue
            differ = adj[other] ^ adj[x]
            for p in range(0, k - 1):
                if p != 1 and differ & lmask[p]:
                    return _fail(
                        f"level {k}: {labels[other]!r} and {labels[x]!r} agree on level {k - 2} but differ "
                        f"on level {p}: {fmt(adj[other] & lmask[p])} vs {fmt(adj[x] & lmask[p])}"
                    )
    return VerificationReport(passed=True)


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

    ``series`` may pass in a precomputed clean run to avoid recomputing it.
    """
    if len(g) == 0:
        raise InvalidArgumentError("the size bound of the empty graph is undefined")
    cliques = _clique_masks(g._adj)
    per_vertex = [0] * len(g)
    for clique in cliques:
        for v in bits(clique):
            per_vertex[v] += 1
    k = max(per_vertex)
    c = max(clique.bit_count() for clique in cliques)
    n = len(g)
    bound = min(k * (2**c) * factorial(c), (2**k) * factorial(k) + 1) * n
    if series is None:
        series = run_series(g, OperatorKind.CLEAN)
    actual = sum(len(level) for level in series.final.levels)
    return SizeBound(bound=bound, actual=actual, k=k, c=c)
