"""Reference implementations of the decomposition checks, on label sets.

These are the checks as first written: sequences recovered vertex by
vertex from labelled neighbourhoods, the non-simple intersections from a
frozenset closure, every chain enumerated, and each window set W_j built
by comparing a vertex with every vertex of level j. The library's checks
work on bitmasks and count chains instead; tests require both to return
equal reports, counterexample included. The intersection-algebra tests read
the closure (``reference_closure``) and K(A) (``cliques_containing``) here.

The chain queries are here too: ``IntersectionPoset`` over label sets, with
its chain walk and its chain counts one length at a time
(``reference_chain_counts``), against which the library's one inclusion
order, its chain walk and its one-pass chain total are compared.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from cleanfactor import (
    Graph,
    InvalidArgumentError,
    MultipartiteGraph,
    VerificationReport,
    maximal_cliques,
)
from cleanfactor.graphs import _mask

from reference_graphs import Neighbours


def _fmt(s: Iterable[str]) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def _fmt_seq(sets: Iterable[frozenset[str]]) -> str:
    return "(" + " < ".join(_fmt(o) for o in sets) + ")"


def _fail(message: str) -> VerificationReport:
    return VerificationReport(passed=False, counterexample=message)


class IntersectionPoset:
    """A family of vertex sets under strict inclusion, with chain queries."""

    def __init__(self, elements: Iterable[frozenset[str]]) -> None:
        self._elements = tuple(sorted({frozenset(e) for e in elements}, key=lambda s: (len(s), tuple(sorted(s)))))
        index = {v: i for i, v in enumerate(frozenset().union(*self._elements))}
        masks = [_mask(map(index.__getitem__, e)) for e in self._elements]
        # per element, the later ones that strictly contain it: a strict superset is larger, so it comes
        # later, and a later superset of a distinct element is a strict one
        self._above = tuple(
            tuple([j for j in range(i + 1, len(masks)) if small | masks[j] == masks[j]])
            for i, small in enumerate(masks)
        )

    @property
    def elements(self) -> tuple[frozenset[str], ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def chain_count(self, m: int) -> int:
        """Number of strictly increasing m-element sequences."""
        if m < 1:
            raise InvalidArgumentError("chain length must be at least 1")
        counts = reference_chain_counts(self._elements)
        return counts[m] if m < len(counts) else 0

    def chains(self, m: int) -> Iterator[tuple[frozenset[str], ...]]:
        """The strictly increasing m-element sequences, in the order of their entries in ``elements``.

        The walk keeps its own stack, so a chain of any length needs no deep
        recursion, and enters only elements that start a chain long enough.
        """
        if m < 1:
            raise InvalidArgumentError("chain length must be at least 1")
        elements, above = self._elements, self._above
        # longest[i]: the most elements of a chain that starts at element i; above[i] lies past i
        longest = [1] * len(elements)
        for i in reversed(range(len(elements))):
            longest[i] += max(map(longest.__getitem__, above[i]), default=0)
        # per node: the chain's indexes so far, and the elements left that can extend it
        stack = [((), iter([i for i, n in enumerate(longest) if n >= m]))]
        while stack:
            acc, kids = stack[-1]
            j = next(kids, None)
            if j is None:
                stack.pop()
            elif len(acc) == m - 1:
                yield tuple(elements[t] for t in acc + (j,))
            else:
                need = m - len(acc) - 1
                stack.append((acc + (j,), iter([q for q in above[j] if longest[q] >= need])))


def chains_of_length(poset: IntersectionPoset, m: int) -> set[tuple[frozenset[str], ...]]:
    """All strictly increasing m-element sequences over the poset."""
    return set(poset.chains(m))


def reference_chain_counts(order: Sequence[int] | Sequence[frozenset[str]]) -> list[int]:
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


def cliques_containing(g: Graph, a: Iterable[str]) -> frozenset[frozenset[str]]:
    """K(A): the maximal cliques of ``g`` that contain every vertex of ``a``."""
    wanted = frozenset(a)
    return frozenset(c for c in maximal_cliques(g) if wanted <= c)


def reference_closure(g: Graph) -> frozenset[frozenset[str]]:
    """The maximal cliques and the whole vertex set (the meet of no cliques), closed under intersection."""
    closed: set[frozenset[str]] = {frozenset(g.vertices)}
    closed.update(maximal_cliques(g))
    work = list(closed)
    while work:
        a = work.pop()
        fresh = [a & b for b in closed if a & b not in closed]
        for c in fresh:
            if c not in closed:
                closed.add(c)
                work.append(c)
    return frozenset(closed)


def reference_nonsimple(g: Graph) -> frozenset[frozenset[str]]:
    """Close the maximal cliques under intersection; keep the non-simple members."""
    family = maximal_cliques(g)
    nonsimple = set()
    for o in reference_closure(g):
        containing = [c for c in family if o <= c]
        if len(o) >= 2 and len(containing) >= 2 and frozenset.intersection(*containing) == o:
            nonsimple.add(o)
    return frozenset(nonsimple)


def reference_sequence(m: MultipartiteGraph, adj: Neighbours, x: str) -> tuple[frozenset[str], ...]:
    """N_0(x), then per level j in 2..k-1 the meet of the cliques shared by N_j(x); ``adj`` is ``Neighbours(m)``."""
    sets = [adj.at_level(x, 0)]
    for j in range(2, m.level_of(x)):
        shared = frozenset(m.levels[1])
        for y in adj.at_level(x, j):
            shared &= adj.at_level(y, 1)
        o = frozenset(m.levels[0])
        for c in shared:
            o &= adj.at_level(c, 0)
        sets.append(o)
    return tuple(sets)


def reference_verify_bijection(g: Graph, m: MultipartiteGraph) -> VerificationReport:
    family = maximal_cliques(g)
    if set(m.levels[0]) != set(g.vertices):
        return _fail("level 0 does not match the input graph's vertex set")
    adj = Neighbours(m)
    level1_sets = [adj.at_level(c, 0) for c in m.levels[1]]
    if len(set(level1_sets)) != len(level1_sets) or set(level1_sets) != set(family):
        return _fail("level 1 does not match the maximal cliques of the input graph")

    nonsimple = reference_nonsimple(g)
    poset = IntersectionPoset(nonsimple)
    counts: list[tuple[int, int, int]] = []
    for k in range(2, m.level_count):
        level = m.levels[k]
        sequences: dict[str, tuple[frozenset[str], ...]] = {}
        for x in level:
            s = reference_sequence(m, adj, x)
            if not all(a < b for a, b in zip(s, s[1:])):
                return _fail(f"level {k}, vertex {x!r}: sequence {_fmt_seq(s)} is not strictly increasing")
            for o in s:
                if o not in nonsimple:
                    return _fail(f"level {k}, vertex {x!r}: {_fmt(o)} is not a non-simple clique intersection")
            sequences[x] = s
        seen: dict[tuple[frozenset[str], ...], str] = {}
        for x, s in sequences.items():
            if s in seen:
                return _fail(f"level {k}: vertices {seen[s]!r} and {x!r} share the sequence {_fmt_seq(s)}")
            seen[s] = x
        expected = chains_of_length(poset, k - 1)
        missing = expected - set(sequences.values())
        if missing:
            chain = min(missing, key=lambda c: tuple(tuple(sorted(o)) for o in c))
            return _fail(f"level {k}: chain {_fmt_seq(chain)} is attained by no vertex")
        counts.append((k, len(level), len(expected)))

    beyond = m.level_count - 1
    leftover = poset.chain_count(beyond) if len(poset) else 0
    if leftover:
        return _fail(f"series is not terminated: {leftover} chains of {beyond} elements have no level {beyond + 1}")
    return VerificationReport(passed=True, level_counts=tuple(counts))


def reference_verify_neighbourhood_formula(m: MultipartiteGraph) -> VerificationReport:
    adj = Neighbours(m)
    sequences = {x: reference_sequence(m, adj, x) for k in range(2, m.level_count) for x in m.levels[k]}
    level1 = m.levels[1]
    bottom = {c: adj.at_level(c, 0) for c in level1}

    for k in range(2, m.level_count):
        for x in m.levels[k]:
            last = sequences[x][-1]
            containing = frozenset(c for c in level1 if last <= bottom[c])
            actual = adj.at_level(x, 1)
            if containing != actual:
                return _fail(
                    f"level {k}, vertex {x!r}: cliques containing {_fmt(last)} are "
                    f"{_fmt(containing)} but N_1 is {_fmt(actual)}"
                )

    for k in range(3, m.level_count):
        for x in m.levels[k]:
            sx = sequences[x]
            for j in range(2, k):
                window = frozenset(
                    y
                    for y in m.levels[j]
                    if sequences[y][: j - 2] == sx[: j - 2] and sx[j - 2] <= sequences[y][j - 2] <= sx[j - 1]
                )
                actual = adj.at_level(x, j)
                if window != actual:
                    return _fail(
                        f"level {k}, vertex {x!r}, level-{j} neighbourhood: expected "
                        f"{_fmt(window)}, got {_fmt(actual)}"
                    )

    for k in range(4, m.level_count):
        groups: dict[frozenset[str], str] = {}
        for x in m.levels[k]:
            other = groups.setdefault(adj.at_level(x, k - 2), x)
            if other == x:
                continue
            for p in range(0, k - 1):
                if p == 1:
                    continue
                left = adj.at_level(other, p)
                right = adj.at_level(x, p)
                if left != right:
                    return _fail(
                        f"level {k}: {other!r} and {x!r} agree on level {k - 2} but differ "
                        f"on level {p}: {_fmt(left)} vs {_fmt(right)}"
                    )
    return VerificationReport(passed=True)
