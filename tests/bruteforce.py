"""Independent reference implementations by exhaustive enumeration.

The ``subset_*`` functions recompute, from plain label sets and the
written-out definitions, what the library computes with bitmask kernels
and closure walks. ``candidate_family`` enumerates every candidate seed on
bitmasks, which is exponential, and ``maximal_candidates`` filters a
family by inclusion; the library builds only the maximal candidates.
``reference_factorise`` is the factorisation step on label sets, from an
intersection-closure enumeration of the maximal candidates to
``append_level``. The point is independence, not speed; tests compare the
paths.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from cleanfactor import CandidateSet, Graph, MultipartiteGraph, OperatorKind
from cleanfactor.factorisation import _plan
from cleanfactor.graphs import bits

from reference_graphs import Neighbours


def subset_maximal_cliques(g: Graph) -> set[frozenset[str]]:
    """Every vertex subset that is a clique and maximal among cliques."""
    vs = g.vertices
    assert len(vs) <= 16, "subset oracle is exponential"
    nb = {v: g.neighbours(v) for v in vs}
    cliques: list[frozenset[str]] = []
    for size in range(1, len(vs) + 1):
        for combo in itertools.combinations(vs, size):
            if all(v in nb[u] for u, v in itertools.combinations(combo, 2)):
                cliques.append(frozenset(combo))
    return {c for c in cliques if not any(c < d for d in cliques)}


def subset_candidate_family(m: MultipartiteGraph, op: OperatorKind) -> set[frozenset[str]]:
    """The full candidate family of the given variant, as full vertex sets.

    Walks every seed of upper vertices of size >= 2 and applies the
    definitional conditions verbatim on label sets. Stops growing the seed
    size once no seed of the current size has a two-vertex common
    neighbourhood, which no superset can regain.
    """
    k = m.level_count
    uppers = m.levels[-1]
    assert len(uppers) <= 14, "subset oracle is exponential"
    adj = Neighbours(m)
    full = {y: adj(y) for y in uppers}
    at = {(y, i): adj.at_level(y, i) for y in uppers for i in range(k)}

    family: set[frozenset[str]] = set()
    for size in range(2, len(uppers) + 1):
        alive = False
        for seed in itertools.combinations(uppers, size):
            common = frozenset.intersection(*(full[y] for y in seed))
            if len(common) < 2:
                continue
            alive = True
            if op is OperatorKind.WEAK:
                ok = True
            elif op is OperatorKind.FACTOR:
                ok = len(frozenset.intersection(*(at[y, k - 2] for y in seed))) >= 2
            elif k == 2:
                ok = True
            elif k == 3:
                ok = (
                    len(frozenset.intersection(*(at[y, 1] for y in seed))) >= 2
                    and len(frozenset.intersection(*(at[y, 0] for y in seed))) >= 2
                )
            elif k == 4:
                ok = (
                    len(frozenset.intersection(*(at[y, 2] for y in seed))) >= 2
                    and len(frozenset.intersection(*(at[y, 1] for y in seed))) >= 2
                    and all(at[x, 0] == at[y, 0] for x in seed for y in seed)
                )
            else:
                ok = (
                    len(frozenset.intersection(*(at[y, k - 2] for y in seed))) >= 2
                    and all(at[x, k - 3] == at[y, k - 3] for x in seed for y in seed)
                    and len(frozenset.intersection(*(at[y, 1] for y in seed))) >= 2
                )
            if ok:
                family.add(frozenset(seed) | common)
        if not alive:
            break
    return family


def maximal_sets(family: set[frozenset[str]]) -> set[frozenset[str]]:
    return {s for s in family if not any(s < t for t in family)}


def subset_intersections(g: Graph) -> tuple[set[frozenset[str]], set[frozenset[str]]]:
    """All intersections of maximal cliques, and the non-simple ones.

    The full family takes the intersection of every non-empty clique
    subfamily plus the whole vertex set; the non-simple part keeps the
    two-vertex-or-more results of subfamilies with at least two cliques.
    """
    cliques = sorted(subset_maximal_cliques(g), key=lambda c: tuple(sorted(c)))
    assert len(cliques) <= 16, "subset oracle is exponential"
    everything: set[frozenset[str]] = {frozenset(g.vertices)}
    nonsimple: set[frozenset[str]] = set()
    for r in range(1, len(cliques) + 1):
        for combo in itertools.combinations(cliques, r):
            s = frozenset.intersection(*combo)
            everything.add(s)
            if r >= 2 and len(s) >= 2:
                nonsimple.add(s)
    return everything, nonsimple


def subset_chains(elements: set[frozenset[str]], m: int) -> set[tuple[frozenset[str], ...]]:
    """All m-element subsets that are totally ordered, as increasing tuples."""
    out: set[tuple[frozenset[str], ...]] = set()
    for combo in itertools.combinations(sorted(elements, key=lambda s: (len(s), tuple(sorted(s)))), m):
        ordered = sorted(combo, key=len)
        if all(a < b for a, b in zip(ordered, ordered[1:])):
            out.add(tuple(ordered))
    return out


def candidate_family(m: MultipartiteGraph, op: OperatorKind) -> set[CandidateSet]:
    """All candidates of the given variant, deduplicated by their full set.

    Seeds are grown depth-first in index order; a branch is abandoned as
    soon as a cardinality constraint fails, which is sound because common
    neighbourhoods only shrink as the seed grows.
    """
    k = m.level_count
    card_levels, eq_level = _plan(op, k)
    # each vertex's lower neighbours as a mask, from the edge list; the upper level is the top
    # one, so its rows are whole neighbourhoods
    index = {v: i for i, v in enumerate(m.vertices)}
    adj = [0] * len(m)
    for lower, upper in m.edges():
        adj[index[upper]] |= 1 << index[lower]
    # each level's mask, from the level sizes
    lmask, offset = [], 0
    for level in m.levels:
        lmask.append(((1 << len(level)) - 1) << offset)
        offset += len(level)
    eq_mask = lmask[eq_level] if eq_level is not None else 0
    uppers = list(bits(lmask[k - 1]))
    base_common = 0
    for i in range(k - 1):
        base_common |= lmask[i]

    found: dict[int, tuple[int, int]] = {}

    def extend(start: int, seed: int, size: int, common: int, eqref: int | None) -> None:
        for t in range(start, len(uppers)):
            u = uppers[t]
            a = adj[u]
            if eqref is not None and (a & eq_mask) != eqref:
                continue
            c = common & a
            if c.bit_count() < 2:
                continue
            if any((c & lmask[i]).bit_count() < 2 for i in card_levels):
                continue
            s = seed | (1 << u)
            if size >= 1:
                found[s | c] = (s, c)
            ref = eqref
            if eq_level is not None and ref is None:
                ref = a & eq_mask
            extend(t + 1, s, size + 1, c, ref)

    extend(0, 0, 0, base_common, None)
    labels = m.vertices

    def named(mask: int) -> frozenset[str]:
        return frozenset(labels[i] for i in bits(mask))

    return {
        CandidateSet(upper=named(seed), lower_by_level=tuple(named(common & lmask[i]) for i in range(k - 1)))
        for seed, common in found.values()
    }


def maximal_candidates(family: Iterable[CandidateSet]) -> set[CandidateSet]:
    """The inclusion-maximal members of a family, compared on full sets."""
    pool = sorted(set(family), key=lambda c: (-len(c.members), sorted(c.members), sorted(c.upper)))
    kept: list[CandidateSet] = []
    for cand in pool:
        if not any(cand.members < other.members for other in kept):
            kept.append(cand)
    return set(kept)


def closed_candidates(m: MultipartiteGraph, op: OperatorKind) -> list[tuple[frozenset[str], frozenset[str]]]:
    """The maximal candidates as (seed, common) label sets, by intersection closure.

    Within each class of upper vertices (one class, or one per shared
    neighbourhood on the operator's equality level), every closed common
    neighbourhood is an intersection of member neighbourhoods with
    everything below the upper level. The family of those intersections is
    grown one member at a time, dropping any that fails the cardinality
    constraints, which no further intersection can restore. Each common
    that at least two members cover is one maximal candidate.
    """
    k = m.level_count
    card_levels, eq_level = _plan(op, k)
    level_sets = [frozenset(level) for level in m.levels]
    below = frozenset().union(*level_sets[:-1])
    uppers = m.levels[-1]
    adj = Neighbours(m)
    nb = {y: adj(y) for y in uppers}
    classes: dict[frozenset[str], list[str]] = {}
    for y in uppers:
        key = adj.at_level(y, eq_level) if eq_level is not None else frozenset()
        classes.setdefault(key, []).append(y)

    def ok(common: frozenset[str]) -> bool:
        return len(common) >= 2 and all(len(common & level_sets[i]) >= 2 for i in card_levels)

    out = []
    for members in classes.values():
        commons = {below} if ok(below) else set()
        for y in members:
            commons |= {c & nb[y] for c in commons if ok(c & nb[y])}
        for common in commons:
            seed = frozenset(y for y in members if common <= nb[y])
            if len(seed) >= 2:
                out.append((seed, common))
    return out


def reference_factorise(
    m: MultipartiteGraph, op: OperatorKind
) -> tuple[MultipartiteGraph | None, tuple[CandidateSet, ...]]:
    """One factorisation step on label sets: the extended graph and its candidates.

    Takes the maximal candidates from ``closed_candidates`` in seed order,
    by their seeds' indexes, ascending, as tuples; labels each new vertex
    ``L<k>:`` plus the sorted labels of its level-0 neighbours, the level-0
    part of its common neighbourhood, with backslash, comma and '#'
    escaped; numbers vertices that share a label ``#2``, ``#3``, ... in seed
    order; and appends the level through ``append_level``. Returns
    (None, ()) when there is no candidate.
    """
    found = closed_candidates(m, op)
    if not found:
        return None, ()
    k = m.level_count
    lower_levels = [frozenset(level) for level in m.levels[:-1]]
    index = {v: i for i, v in enumerate(m.vertices)}
    escape = lambda v: v.replace("\\", "\\\\").replace(",", "\\,").replace("#", "\\#")
    rows = sorted((tuple(sorted(index[v] for v in seed)), seed, common) for seed, common in found)
    seen: dict[str, int] = {}
    labelled = []
    for _, seed, common in rows:
        base = f"L{k}:" + ",".join(escape(v) for v in sorted(common & lower_levels[0]))
        seen[base] = seen.get(base, 0) + 1
        label = base if seen[base] == 1 else f"{base}#{seen[base]}"
        lowers = tuple(common & level for level in lower_levels)
        labelled.append((label, seed | common, CandidateSet(upper=seed, lower_by_level=lowers)))
    graph = m.append_level([(label, members) for label, members, _ in labelled])
    return graph, tuple(cand for _, _, cand in labelled)
