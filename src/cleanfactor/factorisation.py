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
of each class. Each node of the walk passes down ``live``, the members
whose row still meets its common neighbourhood in two vertices on every
card level, and its children scan only those: a common neighbourhood only
shrinks down the walk, so a member that fails the card test at a node
fails it, and covers no common neighbourhood, anywhere below. Each scan
is one intersection of a row with the common neighbourhood: equality is
the cover test, and two popcounts of it are the card test. The root's
children, where most of the scanning happens, come from one pass over the
pairs of the root's live members, so each pair meets once rather than
once from each side; deeper nodes, which mostly have few children, keep
the per-node scan, which costs them less than building every child's
list in one pass. Where the root's rows hold fewer vertices on the first
card level than one per ``_PAIRS_PER_FOLD`` pairs of root members, which
needs ``4 * _PAIRS_PER_FOLD + 2`` members or more since each row holds
two, each member meets only those sharing two vertices with it there,
found at once by bit-parallel columns built from the row masks. The walk
keeps its own stack, so a long chain of nested seeds needs no deep
recursion. The whole candidate family, which the definitions describe, is
enumerated only in the tests.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvalidArgumentError
from .graphs import MultipartiteGraph, _mask, _span, bits

__all__ = [
    "OperatorKind",
    "CandidateSet",
    "StepResult",
    "factorise",
]

# the root pass finds partners by columns when the columns hold fewer entries than one per
# _PAIRS_PER_FOLD pairs of top (see _closed_seeds); 8 walked fastest on the benchmark's step inputs
_PAIRS_PER_FOLD = 8


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


@dataclass(frozen=True)
class StepResult:
    """Outcome of one factorisation: the extended graph, or not effective."""

    effective: bool
    graph: MultipartiteGraph | None

    @property
    def new_level(self) -> tuple[CandidateSet, ...]:
        """The chosen candidates, in the order of the appended top level.

        Read from the graph's rows (``_whole``), not the walk's masks: a new
        vertex's upper set is its row's part on the level below it, and each
        lower set its part on a level further down. So it works on any graph
        whose top level a step appended, a finished series' final graph and
        a decoded document's graph too. Empty when not effective.
        """
        if not self.effective:
            return ()
        g = self.graph
        if g.level_count < 3:
            raise InvalidArgumentError("a two-level graph has no appended level to read")
        labels, spans = g.vertices, [g._level_range(i) for i in range(g.level_count - 1)]
        # each new row's parts on the levels below it, the level just below (the seed) last
        parts = [[frozenset(labels[i] for i in row if i in span) for span in spans] for row in g._whole()[spans[-1].stop :]]
        return tuple(CandidateSet(upper=p[-1], lower_by_level=tuple(p[:-1])) for p in parts)


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


def _closed_seeds(members: Sequence[int], adj: Sequence[int], base_common: int, a: int, b: int) -> list[tuple[int, int]]:
    """Closed seeds of one class that make a candidate, with their commons.

    ``adj[u]`` is the row of member ``u`` as a mask. A seed is closed when
    it holds every member whose neighbourhood covers the seed's common
    neighbourhood (within ``base_common``). Returns (seed mask over the
    members ``u``, common mask) for every closed seed of at least two
    members whose common neighbourhood has at least two vertices on each
    of the card masks ``a`` and ``b``. ``_plan`` gives at most two card
    levels: a single one is both ``a`` and ``b``, and with none both are
    ``base_common``, which asks for two common vertices in all (two on a
    card level are two in all). Each card mask is one run of consecutive
    indexes, as a level and ``base_common`` are.

    The walk is depth-first Close-by-One (Kuznetsov): a closed seed is
    extended by one member ``j`` past the branch start. The extension is
    canonical when no member before ``j`` outside the seed covers the new
    common neighbourhood ``c``; only a canonical extension is closed over
    the members after ``j``, so every closed seed is reached once. Output
    order follows the walk; callers sort. The walk keeps its own stack, so
    a chain of nested seeds of any length is walked without deep recursion.

    Every node carries ``live``: the ascending members outside its seed
    whose row meets its common neighbourhood in at least two vertices on
    ``a`` and on ``b``. Only a live ``j`` is extended, and one pass over
    ``live`` tests canonicity, closes the seed and collects the child's
    ``live``, at one intersection ``x`` of a row with ``c`` per member:
    ``x == c`` is the cover test and two popcounts of ``x`` the card test.
    Inheriting the list is sound because commons only shrink down the
    walk, so a member that fails the card test fails it at every
    descendant, and it cannot cover a descendant's common either, which
    keeps two vertices on ``a`` and ``b``.

    The root's children come from one pass instead. Every row lies inside
    ``base_common``: a row equal to it joins the root's closure, and the
    others that pass the card test make ``top``. For each pair ``p < q``
    of ``top`` one intersection ``x`` serves both children: ``x`` equal to
    a row is the cover test from either side, and otherwise one card test
    puts each member in the other's ``live``. So each pair meets once,
    where the root's children scanning the root's ``live`` would meet it
    twice. Row ``p``'s list is complete once its row is done, so its
    subtree is walked then and the list dropped. Deeper nodes keep the
    per-node scan: most have few children, and building every child's list
    up front costs them more than the halved scan saves.

    In a large class whose rows are sparse on ``a``, most pairs fail the
    card test, so ``p`` meets only its partners (see ``_partners``): the
    later members of ``top`` whose rows share two vertices with its own on
    ``a``. Every pair that passes the card test is a partner, and so is a
    cover or a twin, which shares the whole of one of the two rows, and
    that row passes the card test; the pair loop's own card test drops a
    partner that fails it on ``b``. So the output is the same, in the same
    order. The columns cost one fold per vertex of each row on ``a``, and
    the pairwise pass one intersection per pair, so the columns are used
    only when ``_PAIRS_PER_FOLD * s < t * (t - 1) / 2`` for the ``t``
    members of ``top``, whose rows hold ``s`` vertices on ``a`` in all.
    Each holds two or more, so this needs ``t >= 4 * _PAIRS_PER_FOLD + 2``,
    tested first; in a class of nested rows, where every pair passes, the
    folds would cost more than the intersections: ``s`` exceeds the pairs.
    """
    rows = [adj[u] for u in members]
    units = [1 << u for u in members]
    out: list[tuple[int, int]] = []

    # the root is the empty seed, and every row lies inside base_common
    if (base_common & a).bit_count() < 2 or (base_common & b).bit_count() < 2:
        return out
    # the root's children in one pass over the pairs p < q of top: lives[n] collects
    # top[n]'s live list, earlier members first, and covered[n] drops its node
    root = 0
    top: list[int] = []
    trows: list[int] = []
    lives: list[list[int]] = []
    for i, row in enumerate(rows):
        if row == base_common:
            root |= units[i]
        elif (row & a).bit_count() > 1 and (row & b).bit_count() > 1:
            top.append(i)
            trows.append(row)
            lives.append([])
    if root & (root - 1):
        out.append((root, base_common))
    partners = None
    t = len(top)
    if t > 4 * _PAIRS_PER_FOLD + 1 and _PAIRS_PER_FOLD * sum((row & a).bit_count() for row in trows) < t * (t - 1) // 2:
        partners = _partners(trows, a)
    covered = [False] * len(top)
    stack: list[tuple[int, int, list[int], Iterator[int]]] = []
    push, pop = stack.append, stack.pop
    for n, p in enumerate(top):
        rp = trows[n]
        seed = root | units[p]
        live = lives[n]
        later = enumerate(trows[n + 1 :], n + 1) if partners is None else [(m, trows[m]) for m in partners[n]]
        for m, rq in later:
            x = rp & rq
            if x == rp:
                # q covers p's common and joins p's seed; a twin gets no node, else p is live for q
                seed |= units[top[m]]
                if x == rq:
                    covered[m] = True
                else:
                    lives[m].append(p)
            elif x == rq:
                # p covers q's common, so q gets no node but is live for p
                covered[m] = True
                live.append(top[m])
            elif (x & a).bit_count() > 1 and (x & b).bit_count() > 1:
                live.append(top[m])
                lives[m].append(p)
        # p's list is complete and ascending: walk its subtree now and drop the list
        lives[n] = []
        if covered[n]:
            continue
        if seed & (seed - 1):
            out.append((seed, rp))
        # walk p's subtree depth first, in the order recursion would take. The stack holds
        # the nodes whose children are not all walked: seed, common, live list, and an
        # iterator over the members of the list after the node's j. A child adds its j to
        # the closed seed and scans the list; it is dropped when a member before j covers
        # its common, else closed and recorded.
        k = bisect_left(live, p)
        if k < len(live):
            push((seed, rp, live, iter(live[k:])))
        while stack:
            pseed, pc, scan, kids = stack[-1]
            j = next(kids, None)
            if j is None:
                pop()
                continue
            seed, c = pseed, pc & rows[j]
            live = []
            for i in scan:
                x = c & rows[i]
                if x == c:
                    if i < j:
                        break
                    seed |= units[i]
                elif (x & a).bit_count() > 1 and (x & b).bit_count() > 1:
                    live.append(i)
            else:
                if seed & (seed - 1):
                    out.append((seed, c))
                k = bisect_left(live, j)
                if k < len(live):
                    push((seed, c, live, iter(live[k:])))
    return out


def _partners(trows: Sequence[int], card: int) -> list[list[int]]:
    """For each position ``n`` of ``top``, the later positions whose rows share two vertices with its row on ``card``.

    ``trows`` holds the rows of ``top`` as masks. The card mask's indexes
    are consecutive from ``lo``, so a row's part on it, shifted down by
    ``lo``, has one bit per card vertex, and that bit indexes the vertex's
    column: the mask of the positions whose rows hold it. Folding the
    columns of ``n``'s part into "met at least once" and "met at least
    twice" gives all of ``n``'s partners in one pass over its own part.
    """
    lo = (card & -card).bit_length() - 1
    parts = [bits((row & card) >> lo) for row in trows]
    cols = [0] * (card.bit_length() - lo)
    for n, part in enumerate(parts):
        unit = 1 << n
        for v in part:
            cols[v] |= unit
    out = []
    for n, part in enumerate(parts):
        ones = twos = 0
        for v in part:
            col = cols[v]
            twos |= ones & col
            ones |= col
        out.append(bits(twos & (-1 << (n + 1))))
    return out


def _maximal_family(m: MultipartiteGraph, op: OperatorKind) -> list[tuple[int, int]]:
    """Maximal candidates as (seed, common) mask pairs, in no fixed order.

    These are the closed seeds that pass the operator's constraints; see
    ``_closed_seeds``. For the clean variant at four or more levels the
    seed members must share their neighbourhood on one lower level (three
    levels down at k=4, two down above), so the upper level splits into
    independent classes and each class is walked on its own. Classes never
    dominate each other because seeds from different classes are
    incomparable. The walk ANDs the top level's rows as masks: those
    ``factorise`` left on the graph (``m._top``), else built here from the
    whole rows (``m._whole``) and not stored.
    """
    k = m.level_count
    card_levels, eq_level = _plan(op, k)
    # the upper level is the top one, so its rows are whole neighbourhoods; the walk
    # indexes them by their place in the level, and each seed is shifted to global indexes
    offset = m._level_range(k - 1).start
    adj = m._top or tuple(map(_mask, m._whole()[offset:]))
    uppers = range(len(adj))
    base_common = (1 << offset) - 1  # every level below the top
    cards = [_span(m._level_range(i)) for i in card_levels] or [base_common]
    a, b = cards[0], cards[-1]

    if eq_level is None:
        groups = [uppers]
    else:
        eq_mask = _span(m._level_range(eq_level))
        buckets: dict[int, list[int]] = {}
        for u in uppers:
            buckets.setdefault(adj[u] & eq_mask, []).append(u)
        groups = [grp for grp in buckets.values() if len(grp) >= 2]

    return [(seed << offset, c) for grp in groups for seed, c in _closed_seeds(grp, adj, base_common, a, b)]


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
    otherwise returns the graph extended by one generated level in seed
    order, one vertex per maximal candidate, adjacent to exactly its members
    and holding its seed. ``threads`` must be 1; see ``_check_threads``.
    """
    _check_threads(threads)
    pairs = _maximal_family(m, op)
    if not pairs:
        return StepResult(effective=False, graph=None)
    # each seed, shifted down to expand at the top level's width, orders the level and is its row
    offset = m._level_range(-1).start
    seeds, rows = zip(*sorted((tuple(map(offset.__add__, bits(seed >> offset))), seed | c) for seed, c in pairs))
    out = MultipartiteGraph._from_rows(m._levels + (len(seeds),), m._idx[len(m._levels[0]) :] + seeds)
    out._top = rows  # the next step's walk ANDs these masks
    return StepResult(effective=True, graph=out)
