"""Candidate families and the single factorisation step.

A factorisation step looks at the bipartite relation between the upper
level of a multipartite graph and everything below it. A candidate is a
seed of at least two upper vertices together with their common
neighbourhood, itself of size at least two. The weak variant accepts all
such candidates; the factor and clean variants add level-local
constraints. The step appends one new vertex per inclusion-maximal
candidate, adjacent to exactly the candidate's members.

``factorise`` needs only the maximal candidates. A candidate is maximal
exactly when its seed is closed: no further upper vertex of its
neighbourhood-equality class covers its common neighbourhood (only the
clean variant splits the upper level into several classes). So the maximal
candidates come from a depth-first Close-by-One walk over the closed seeds
of each class, which cuts a branch as soon as its common neighbourhood
fails a cardinality constraint. The whole candidate family, which the
definitions describe, is enumerated only in the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Sequence

from .errors import InvalidArgumentError
from .graphs import MultipartiteGraph, bits

__all__ = [
    "OperatorKind",
    "CandidateSet",
    "StepResult",
    "factorise",
    "particularise",
]


class OperatorKind(enum.Enum):
    """The three factorisation variants, from least to most constrained."""

    WEAK = "weak"
    FACTOR = "factor"
    CLEAN = "clean"


@dataclass(frozen=True)
class CandidateSet:
    """One candidate X: an upper seed plus its common lower neighbourhood.

    ``lower_by_level[i]`` is the slice of the common neighbourhood on level
    i; the upper side and the whole lower side both have at least two
    vertices (the non-simple condition).
    """

    upper: frozenset[str]
    lower_by_level: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        if len(self.upper) < 2:
            raise InvalidArgumentError("a candidate needs at least two upper vertices")
        if sum(len(part) for part in self.lower_by_level) < 2:
            raise InvalidArgumentError("a candidate needs at least two lower vertices")

    @property
    def lower(self) -> frozenset[str]:
        return frozenset().union(*self.lower_by_level)

    @property
    def members(self) -> frozenset[str]:
        return self.upper | self.lower

    def lower_at(self, i: int) -> frozenset[str]:
        return self.lower_by_level[i]


@dataclass(frozen=True)
class StepResult:
    """Outcome of one factorisation: the extended graph, or not effective."""

    effective: bool
    graph: MultipartiteGraph | None

    @property
    def new_level(self) -> tuple[CandidateSet, ...]:
        """The chosen candidates, in the order of the appended top level.

        Read back from ``graph``: a new vertex's upper set is its
        neighbourhood on the level below it, and each lower set its
        neighbourhood on a level further down. Empty when not effective.
        """
        g = self.graph
        if g is None:
            return ()
        upper = g._level_masks[-2]
        rows = g._down[-len(g.levels[-1]) :]
        return tuple(_candidate_from_masks(g, row & upper, row & ~upper) for row in rows)


def _plan(op: OperatorKind, k: int) -> tuple[tuple[int, ...], int | None]:
    """Per-operator constraints at upper level k-1.

    Returns the level indexes on which the common neighbourhood must keep
    at least two vertices, and the level on which all seed members must
    have identical neighbourhoods (or None).
    """
    if op is OperatorKind.WEAK:
        return (), None
    if op is OperatorKind.FACTOR:
        return (k - 2,), None
    if k == 2:
        return (), None
    if k == 3:
        return (1, 0), None
    if k == 4:
        return (2, 1), 0
    return (k - 2, 1), k - 3


def _require_multipartite(m: MultipartiteGraph) -> None:
    if m.level_count < 2:
        raise InvalidArgumentError("factorisation needs at least two levels")


def _candidate_from_masks(m: MultipartiteGraph, seed: int, common: int) -> CandidateSet:
    """The candidate of a seed and its common neighbourhood on the levels below it."""
    top = m._level_of[(seed & -seed).bit_length() - 1]
    lowers = tuple(m._labels_from_mask(common & m._level_masks[i]) for i in range(top))
    return CandidateSet(upper=m._labels_from_mask(seed), lower_by_level=lowers)


def _closed_seeds(
    members: Sequence[int],
    adj: Sequence[int],
    base_common: int,
    lmask: Sequence[int],
    card_levels: Sequence[int],
) -> list[tuple[int, int]]:
    """Closed seeds of one class that make a candidate, with their commons.

    A seed is closed when it holds every member whose neighbourhood covers
    the seed's common neighbourhood (within ``base_common``). Returns
    (seed mask over global indexes, common mask) for every closed seed of
    at least two members whose common neighbourhood has at least two
    vertices, and at least two on each level in ``card_levels``.

    The walk is depth-first Close-by-One (Kuznetsov): a closed seed is
    extended by one member ``j`` past the branch start. The extension is
    canonical when no member before ``j`` outside the seed covers the new
    common neighbourhood; that prefix is tested first, and only a
    canonical extension is closed over the members after ``j``. So every
    closed seed is reached once. A branch whose common neighbourhood fails
    the size or card test is cut, since every seed below it has a smaller
    common neighbourhood. Output order follows the walk; callers sort.
    """
    rows = [adj[u] for u in members]
    misses = [~row for row in rows]
    units = [1 << u for u in members]
    n = len(rows)
    # every common lies inside base_common, where "at least two" is the size
    # test itself, so base_common stands in for a missing card level
    cards = [lmask[i] for i in card_levels] + [base_common, base_common]
    card_a, card_b = cards[0], cards[1]
    rest = cards[2 : len(card_levels)]
    out: list[tuple[int, int]] = []

    def extend(local: int, seed: int, common: int, start: int) -> None:
        for j in range(start, n):
            if local >> j & 1:
                continue
            c = common & rows[j]
            if (c & card_a).bit_count() < 2 or (c & card_b).bit_count() < 2:
                continue
            if rest and any((c & mask).bit_count() < 2 for mask in rest):
                continue
            for i in range(j):
                if not c & misses[i] and not local >> i & 1:
                    break
            else:
                closed = local | 1 << j
                grown = seed | units[j]
                for i in range(j + 1, n):
                    if not c & misses[i]:
                        closed |= 1 << i
                        grown |= units[i]
                if closed & (closed - 1):
                    out.append((grown, c))
                extend(closed, grown, c, j + 1)

    c = base_common
    if all((c & mask).bit_count() >= 2 for mask in cards):
        local = seed = 0
        for i in range(n):
            if not c & misses[i]:
                local |= 1 << i
                seed |= units[i]
        if local & (local - 1):
            out.append((seed, c))
        extend(local, seed, c, 0)
    return out


def _maximal_family(m: MultipartiteGraph, op: OperatorKind) -> list[tuple[int, int]]:
    """Maximal candidates as (seed, common) mask pairs, in no fixed order.

    These are the closed seeds that pass the operator's constraints; see
    ``_closed_seeds``. For the clean variant at four or more levels the
    seed members must share their neighbourhood on one lower level (three
    levels down at k=4, two down above), so the upper level splits into
    independent classes and each class is walked on its own. Classes never
    dominate each other because seeds from different classes are
    incomparable.
    """
    _require_multipartite(m)
    k = m.level_count
    card_levels, eq_level = _plan(op, k)
    # the upper level is the top one, so its rows are whole neighbourhoods
    adj = m._down
    lmask = m._level_masks
    uppers = list(bits(lmask[k - 1]))
    base_common = 0
    for i in range(k - 1):
        base_common |= lmask[i]

    if eq_level is None:
        groups = [uppers]
    else:
        eq_mask = lmask[eq_level]
        buckets: dict[int, list[int]] = {}
        for u in uppers:
            buckets.setdefault(adj[u] & eq_mask, []).append(u)
        groups = [grp for grp in buckets.values() if len(grp) >= 2]
        groups.sort(key=lambda grp: grp[0])

    return [pair for group in groups for pair in _closed_seeds(group, adj, base_common, lmask, card_levels)]


def _level_labels(m: MultipartiteGraph, k: int, ancestors: Sequence[int], rows: Sequence[int]) -> list[str]:
    """Labels of level-``k`` vertices given by ancestor masks and rows over ``m``, in input order.

    A vertex is ``L<k>:`` plus its sorted level-0 ancestors. Vertices that
    share their ancestors, common from the second new level up, get a
    ``#n`` suffix (``#2``, ``#3``, ...) in the order of their sorted member
    labels. ``factorise`` names with it and ``verify`` checks with it.
    """
    labels = m._labels
    groups: dict[int, list[int]] = {}
    for t, a in enumerate(ancestors):
        groups.setdefault(a, []).append(t)
    out = [""] * len(rows)
    for a, group in groups.items():
        # level-0 indexes follow label order, so the names come out sorted
        base = f"L{k}:" + ",".join([labels[i] for i in bits(a)])
        if len(group) > 1:
            group.sort(key=lambda t: sorted([labels[i] for i in bits(rows[t])]))
        for n, t in enumerate(group, start=1):
            out[t] = f"{base}#{n}" if n > 1 else base
    return out


def _check_threads(threads: int) -> None:
    """Refuse any ``threads`` but 1: the keyword stays only while ``bench/`` passes ``threads=1``.

    A thread pool over the per-class scans measured no faster, since they
    hold the GIL. The keyword goes when ``bench/`` stops passing it.
    """
    if threads != 1:
        raise InvalidArgumentError(f"threads must be 1, got {threads!r}: the candidate walk runs in one thread")


def factorise(m: MultipartiteGraph, op: OperatorKind, *, threads: int = 1) -> StepResult:
    """Apply one factorisation step of the given variant.

    Not effective when the candidate family has no maximal element;
    otherwise returns the graph extended by one new level, one vertex per
    maximal candidate, adjacent to exactly that candidate's members and
    labelled as ``_level_labels`` says. ``threads`` must be 1; see
    ``_check_threads``.
    """
    _check_threads(threads)
    pairs = _maximal_family(m, op)
    if not pairs:
        return StepResult(effective=False, graph=None)
    anc = m._ancestors().__getitem__
    # every common vertex lies below every seed member, so the seed's
    # ancestors are the new vertex's ancestors
    ancestors = [reduce(or_, map(anc, bits(seed))) for seed, _ in pairs]
    rows = [seed | common for seed, common in pairs]
    labels, rows, ancestors = zip(*sorted(zip(_level_labels(m, m.level_count, ancestors, rows), rows, ancestors)))
    return StepResult(effective=True, graph=m._append_rows(labels, rows, ancestors))


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
