"""Maximal cliques, the incidence construction, and the anti-matching."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanfactor import (
    Graph,
    InvalidArgumentError,
    anti_matching,
    maximal_cliques,
    vertex_clique_incidence,
)
from cleanfactor.cliques import _clique_masks
from cleanfactor.graphs import bits

from bruteforce import subset_maximal_cliques
from conftest import random_graph
from reference_graphs import Neighbours


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    vs = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(vs, [p for p, keep in zip(pairs, flags) if keep])


def test_triangle_is_one_clique(triangle):
    family = maximal_cliques(triangle)
    assert set(family) == {frozenset("abc")}
    assert vertex_clique_incidence(triangle).levels[1] == ("K:a,b,c",)


def test_isolated_vertices_are_singleton_cliques():
    family = maximal_cliques(Graph(["a", "b"]))
    assert set(family) == {frozenset("a"), frozenset("b")}


def test_g2_cliques_match_subset_oracle(g2):
    family = maximal_cliques(g2)
    assert set(family) == {frozenset("abc"), frozenset("bcd")}
    assert set(family) == subset_maximal_cliques(g2)


def test_family_is_canonically_sorted(g3):
    family = maximal_cliques(g3)
    keys = [tuple(sorted(c)) for c in family]
    assert keys == sorted(keys)


def test_empty_graph_is_rejected():
    with pytest.raises(InvalidArgumentError):
        maximal_cliques(Graph([]))
    with pytest.raises(InvalidArgumentError):
        vertex_clique_incidence(Graph([]))


def test_random_graphs_match_subset_oracle():
    rng = random.Random(424242)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.6, 0.8]))
        assert set(maximal_cliques(g)) == subset_maximal_cliques(g)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_cliques_match_subset_oracle_property(g):
    assert set(maximal_cliques(g)) == subset_maximal_cliques(g)


def recursive_clique_masks(adj: tuple[int, ...]) -> list[int]:
    """Bron-Kerbosch with the library's pivot rule, one Python call per node of the walk."""
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot = min(bits(p | x), key=lambda u: (-(p & adj[u]).bit_count(), u))
        for v in bits(p & ~adj[pivot]):
            expand(r | 1 << v, p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, (1 << len(adj)) - 1, 0)
    return out


def test_clique_masks_come_in_the_order_of_the_recursive_walk(corpus):
    rng = random.Random(5150)
    graphs = corpus + [random_graph(rng, rng.randint(1, 30), rng.choice([0.3, 0.6, 0.9])) for _ in range(100)]
    for g in graphs:
        assert _clique_masks(g._adj) == recursive_clique_masks(g._adj)


def test_a_clique_of_1100_vertices_needs_no_deep_recursion():
    # the walk goes one level deeper per clique member: 1100 levels are past Python's recursion limit
    vs = [f"v{i:04d}" for i in range(1100)]
    g = Graph(vs, itertools.combinations(vs, 2))
    assert maximal_cliques(g) == (frozenset(vs),)
    m = vertex_clique_incidence(g)
    assert m.levels == (tuple(vs), ("K:" + ",".join(vs),))
    assert m.edge_count() == 1100


def test_incidence_triangle(triangle):
    m = vertex_clique_incidence(triangle)
    assert len(m.levels[0]) == 3 and len(m.levels[1]) == 1
    assert m.edge_count() == 3


def test_incidence_g2_and_g3(g2, g3):
    m2 = vertex_clique_incidence(g2)
    assert (len(m2.levels[0]), len(m2.levels[1]), m2.edge_count()) == (4, 2, 6)
    m3 = vertex_clique_incidence(g3)
    assert len(m3.levels[1]) == 3


def test_incidence_invariants():
    rng = random.Random(99)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), rng.choice([0.3, 0.5, 0.7]))
        m = vertex_clique_incidence(g)
        adj = Neighbours(m)
        sets = [adj.at_level(c, 0) for c in m.levels[1]]
        # no nested clique neighbourhoods, and together they cover level 0
        for a, b in itertools.combinations(sets, 2):
            assert not (a <= b or b <= a)
        assert frozenset().union(*sets) == frozenset(m.levels[0])
        # reconstructing edges from clique membership gives back the graph
        edges = set()
        for members in sets:
            edges.update(
                (min(u, v), max(u, v)) for u, v in itertools.combinations(sorted(members), 2)
            )
        assert edges == set(g.edges())


def test_incidence_names_level_one_k_and_the_sorted_clique(corpus):
    for g in corpus:
        names = ["K:" + ",".join(sorted(c)) for c in maximal_cliques(g)]
        assert vertex_clique_incidence(g).levels[1] == tuple(sorted(names))


def test_anti_matching_small():
    m = anti_matching(2)
    assert set(m.edges()) == {("b1", "u2"), ("b2", "u1")}
    m3 = anti_matching(3)
    assert m3.edge_count() == 6
    adj = Neighbours(m3)
    assert all(adj.degree(v) == 2 for v in m3.vertices)


def test_anti_matching_common_neighbours():
    m = anti_matching(4)
    adj = Neighbours(m)
    for x, y in itertools.combinations(m.levels[1], 2):
        common = adj(x) & adj(y)
        assert len(common) == 2  # n - 2


def test_anti_matching_validation():
    with pytest.raises(InvalidArgumentError):
        anti_matching(1)
