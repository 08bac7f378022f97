"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance] <name>: PASS/FAIL` line (visible with
``pytest -s``). All tolerances are exact; the two timed criteria assert
their stated wall-clock budgets.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from collections import Counter

import pytest

from cleanfactor import (
    Graph,
    MultipartiteGraph,
    OperatorKind,
    SeriesStatus,
    anti_matching,
    document_to_multipartite,
    factorise,
    graph_content_hash,
    intersection_family,
    parse_document,
    reconstruct_graph,
    run_series,
    run_series_from_bipartite,
    size_bound,
    to_json,
    verify_bijection,
    verify_neighbourhood_formula,
    vertex_clique_incidence,
    write_decomposition,
)
from cleanfactor.factorisation import _maximal_family
from cleanfactor.graphs import bits

from bruteforce import candidate_family, maximal_candidates, maximal_sets, subset_candidate_family
from conftest import make_g2, make_g3, make_triangle, random_connected_graph, random_graph
from reference_graphs import Neighbours, particularise
from reference_oracle import cliques_containing, reference_closure, reference_nonsimple


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def bipartite_corpus():
    """100 random bipartite graphs with at most 8 vertices per side."""
    rng = random.Random(0xB1B)
    out = []
    for _ in range(100):
        n0 = rng.randint(1, 8)
        n1 = rng.randint(1, 8)
        p = rng.choice((0.3, 0.5, 0.7))
        bottoms = [f"a{i}" for i in range(n0)]
        uppers = [f"z{j}" for j in range(n1)]
        edges = [(a, z) for a in bottoms for z in uppers if rng.random() < p]
        out.append(MultipartiteGraph((bottoms, uppers), edges))
    return out


@pytest.fixture(scope="module")
def mid_series_corpus():
    """200 multipartite graphs collected along clean series of random graphs."""
    rng = random.Random(0x515)
    graphs = []
    while len(graphs) < 200:
        g = random_graph(rng, rng.randint(4, 10), rng.choice((0.3, 0.5, 0.7)))
        m = vertex_clique_incidence(g)
        while len(graphs) < 200:
            if len(m.levels[-1]) <= 12:
                graphs.append(m)
            step = factorise(m, OperatorKind.CLEAN)
            if not step.effective:
                break
            m = step.graph
    return graphs


@criterion("chain bijection on 500 random connected graphs (< 60 s)")
def test_chain_bijection_suite(corpus, clean_runs):
    runs, run_elapsed = clean_runs
    start = time.perf_counter()
    for g, result in runs:
        assert result.status is SeriesStatus.TERMINATED
        report = verify_bijection(g, result.final)
        assert report.passed, report.counterexample
        for _level, vertices, chains in report.level_counts:
            assert vertices == chains
    elapsed = run_elapsed + (time.perf_counter() - start)
    assert elapsed < 60.0, f"bijection suite took {elapsed:.1f}s"


@criterion("termination bound: level count <= n + 1 on the corpus")
def test_termination_bound(clean_runs):
    runs, _ = clean_runs
    for g, result in runs:
        assert result.status is SeriesStatus.TERMINATED
        assert len(result.level_sizes) <= len(g) + 1


def complete_multipartite(parts: int, size: int):
    """K_{size,...,size} with ``parts`` parts: its maximal cliques take one vertex from each part."""
    vertices = [f"p{i}v{j}" for i in range(parts) for j in range(size)]
    edges = [(u, v) for u, v in itertools.combinations(vertices, 2) if u[:2] != v[:2]]
    return Graph(vertices, edges)


def particularised_anti_matching(n: int):
    """The graph whose maximal cliques include the upper neighbourhoods of ``particularise(anti_matching(n))``.

    On b1..bn and the pins p:u1..p:un, each {bj : j != i} plus p:ui is a
    clique; for n >= 3 so is {b1..bn}.
    """
    h = particularise(anti_matching(n))
    adj = Neighbours(h)
    edges = [e for u in h.levels[1] for e in itertools.combinations(sorted(adj(u)), 2)]
    return Graph(h.levels[0], edges)


@criterion("worst-case families: K_{3,3,3,3,3} (Moon-Moser), K_{2,2,2,2,2}, K_{4,4,4}, particularised anti-matchings")
@pytest.mark.parametrize(
    "make, level_sizes",
    [
        (functools.partial(complete_multipartite, 5, 3), (15, 243, 765, 4860, 4860)),
        (functools.partial(complete_multipartite, 5, 2), (10, 32, 200, 1040, 960)),
        (functools.partial(complete_multipartite, 3, 4), (12, 64, 48)),
        (functools.partial(particularised_anti_matching, 5), (10, 6, 25, 80, 60)),
        (functools.partial(particularised_anti_matching, 6), (12, 7, 56, 360, 660, 360)),
        (functools.partial(particularised_anti_matching, 7), (14, 8, 119, 1372, 4620, 5880, 2520)),
    ],
    ids=["K3x5", "K2x5", "K4x3", "PAM5", "PAM6", "PAM7"],
)
def test_worst_case_families(make, level_sizes):
    g = make()
    result = run_series(g, OperatorKind.CLEAN)
    assert result.status is SeriesStatus.TERMINATED
    assert result.level_sizes == level_sizes
    assert len(level_sizes) <= len(g) + 1
    bijection = verify_bijection(g, result.final)
    assert bijection.passed, bijection.counterexample
    formula = verify_neighbourhood_formula(result.final)
    assert formula.passed, formula.counterexample
    bound = size_bound(g, series=result)
    assert bound.holds, (bound.actual, bound.bound)
    text = write_decomposition(result, graph_content_hash(g))
    doc = parse_document(text)
    assert to_json(doc) == text
    assert document_to_multipartite(doc) == result.final
    assert reconstruct_graph(doc) == g


@criterion("neighbourhood formula on every corpus instance")
def test_neighbourhood_formula_suite(clean_runs):
    runs, _ = clean_runs
    for _g, result in runs:
        report = verify_neighbourhood_formula(result.final)
        assert report.passed, report.counterexample


@criterion("fixed instances: triangle [3,1], G2 [4,2,1], G3 [6,3,2,1]")
def test_fixed_instances():
    assert run_series(make_triangle(), OperatorKind.CLEAN).level_sizes == (3, 1)
    assert run_series(make_g2(), OperatorKind.CLEAN).level_sizes == (4, 2, 1)
    assert run_series(make_g3(), OperatorKind.CLEAN).level_sizes == (6, 3, 2, 1)


@criterion("operator-family nesting on 200 mid-series graphs")
def test_operator_family_nesting(mid_series_corpus):
    assert len(mid_series_corpus) == 200
    saw_bipartite = False
    for m in mid_series_corpus:
        weak = candidate_family(m, OperatorKind.WEAK)
        factor = candidate_family(m, OperatorKind.FACTOR)
        clean = candidate_family(m, OperatorKind.CLEAN)
        assert clean <= factor <= weak
        if m.level_count == 2:
            saw_bipartite = True
            assert clean == factor == weak
    assert saw_bipartite


@criterion("brute-force equivalence of maximal candidates on the corpus")
def test_bruteforce_equivalence(corpus):
    compared = 0
    for g in corpus:
        m = vertex_clique_incidence(g)
        while True:
            if len(m.levels[-1]) <= 14:
                for op in OperatorKind:
                    family = subset_candidate_family(m, op)
                    produced = {c.members for c in candidate_family(m, op)}
                    assert produced == family
                    top = {c.members for c in maximal_candidates(candidate_family(m, op))}
                    assert top == maximal_sets(family)
                    fast = {frozenset(m.vertices[i] for i in bits(s | c)) for s, c in _maximal_family(m, op)}
                    assert fast == maximal_sets(family)
                    compared += 1
            step = factorise(m, OperatorKind.CLEAN)
            if not step.effective:
                break
            m = step.graph
    assert compared >= 3 * len(corpus)


@criterion("anti-matching factor series terminates for n in {3,4,5} (< 10 s)")
def test_anti_matching_claim():
    start = time.perf_counter()
    for n in (3, 4, 5):
        result = run_series_from_bipartite(anti_matching(n), OperatorKind.FACTOR)
        assert result.status is SeriesStatus.TERMINATED
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"anti-matching runs took {elapsed:.1f}s"


def _structure_census(result, original_bottom):
    """Multiset, per level >= 1, of recursive downward-structure keys.

    A vertex's key encodes its level, its level-0 neighbours restricted to
    the original bottom vertices, and the keys of its neighbours on lower
    levels, so equal censuses mean equal structure above level 0.
    """
    m = result.final
    adj = Neighbours(m)
    key: dict[str, str] = {}
    census = []
    for level in range(1, m.level_count):
        for v in m.levels[level]:
            below0 = sorted(adj.at_level(v, 0) & original_bottom)
            higher = sorted(key[u] for j in range(1, level) for u in adj.at_level(v, j))
            key[v] = f"{level}({','.join(below0)})[{';'.join(higher)}]"
        census.append(Counter(key[v] for v in m.levels[level]))
    return census


@criterion("corollary: particularised series agrees from level 1 up (100 bipartite graphs)")
def test_corollary_suite(bipartite_corpus):
    for h in bipartite_corpus:
        plain = run_series_from_bipartite(h, OperatorKind.CLEAN)
        pinned = run_series_from_bipartite(particularise(h), OperatorKind.CLEAN)
        assert plain.status is SeriesStatus.TERMINATED
        assert pinned.status is SeriesStatus.TERMINATED
        assert plain.level_sizes[1:] == pinned.level_sizes[1:]
        original_bottom = frozenset(h.levels[0])
        assert _structure_census(plain, original_bottom) == _structure_census(pinned, original_bottom)


@criterion("size bound holds on every corpus instance")
def test_size_bound_suite(clean_runs):
    runs, _ = clean_runs
    for g, result in runs:
        measured = size_bound(g, series=result)
        assert measured.holds, (measured.actual, measured.bound)


@criterion("round-trip encoding and byte determinism on the corpus")
def test_round_trip_suite(clean_runs):
    runs, _ = clean_runs
    for index, (g, result) in enumerate(runs):
        text = write_decomposition(result, graph_content_hash(g))
        assert reconstruct_graph(parse_document(text)) == g
        if index % 10 == 0:
            rerun = run_series(g, OperatorKind.CLEAN)
            assert write_decomposition(rerun, graph_content_hash(g)) == text


@criterion("intersection algebra on the corpus plus 1000 random subset pairs")
def test_oracle_algebra_suite(corpus):
    # Per-graph context computed once: the intersection closure and the map
    # from each member to its containing cliques.
    contexts = []
    for g in corpus:
        family = intersection_family(g)
        assert family.nonsimple == reference_nonsimple(g)
        # the label-set closure, not the subset oracle: that refuses graphs of more than 16 cliques, as corpus graphs have
        closure = reference_closure(g)
        elements = sorted(closure, key=lambda s: (len(s), tuple(sorted(s))))
        images = {o: cliques_containing(g, o) for o in elements}
        contexts.append((g, family, closure, elements, images))

    for g, family, closure, elements, images in contexts:
        image_set = set(images.values())
        for a, b in itertools.combinations(elements, 2):
            assert a & b in closure
            assert images[a] & images[b] in image_set

    rng = random.Random(0xA15E)
    for step in range(1000):
        g, family, _closure, _elements, images = contexts[rng.randrange(len(contexts))]
        vs = g.vertices
        a = frozenset(v for v in vs if rng.random() < 0.4)
        b = frozenset(v for v in vs if rng.random() < 0.4)
        ka = cliques_containing(g, a)
        kb = cliques_containing(g, b)
        assert ka & kb == cliques_containing(g, a | b)
        assert cliques_containing(g, a | b) <= ka  # reverse inclusion for a <= a|b
        for o in family.nonsimple:
            if images[o] <= ka:
                assert a <= o
