"""Candidate families, maximality, the factorisation step, particularise."""

import itertools
import random

import pytest

from cleanfactor import (
    CandidateSet,
    Graph,
    InvalidArgumentError,
    MultipartiteGraph,
    OperatorKind,
    anti_matching,
    factorise,
    particularise,
    run_series,
    run_series_from_bipartite,
    vertex_clique_incidence,
)
from cleanfactor.factorisation import _candidate_from_masks, _closed_seeds, _maximal_family

from bruteforce import (
    candidate_family,
    maximal_candidates,
    maximal_sets,
    reference_factorise,
    subset_candidate_family,
)
from conftest import random_connected_graph, random_graph

C1, C2, C3 = "K:1,2,3,4", "K:1,2,3,5", "K:1,2,6"
# the graph shapes of the benchmark's large-clean workload, drawn from Random(7)
LARGE_CLEAN_SHAPES = ((14, 0.5), (16, 0.5), (18, 0.5), (20, 0.5), (16, 0.7))


def drop_top_level(m: MultipartiteGraph) -> MultipartiteGraph:
    keep = {v for level in m.levels[:-1] for v in level}
    edges = [(a, b) for a, b in m.edges() if a in keep and b in keep]
    return MultipartiteGraph(m.levels[:-1], edges)


def clean_prefix_graphs(g, limit=32):
    """Every multipartite graph along the clean series of g, in order."""
    out = [vertex_clique_incidence(g)]
    while len(out) < limit:
        step = factorise(out[-1], OperatorKind.CLEAN)
        if not step.effective:
            break
        out.append(step.graph)
    return out


def test_candidate_set_validation():
    with pytest.raises(InvalidArgumentError):
        CandidateSet(upper=frozenset("a"), lower_by_level=(frozenset("bc"),))
    with pytest.raises(InvalidArgumentError):
        CandidateSet(upper=frozenset("ab"), lower_by_level=(frozenset("c"),))


def test_candidate_set_views():
    cand = CandidateSet(upper=frozenset(["x", "y"]), lower_by_level=(frozenset("a"), frozenset("b")))
    assert cand.lower == {"a", "b"}
    assert cand.members == {"a", "b", "x", "y"}
    assert cand.lower_at(1) == {"b"}


def test_triangle_has_no_candidates(triangle):
    # a single upper vertex cannot seed a candidate
    m = vertex_clique_incidence(triangle)
    for op in OperatorKind:
        assert candidate_family(m, op) == set()
        assert not factorise(m, op).effective


def test_bg2_single_candidate_for_every_operator(g2):
    m = vertex_clique_incidence(g2)
    for op in OperatorKind:
        family = candidate_family(m, op)
        assert len(family) == 1
        (cand,) = family
        assert cand.upper == {"K:a,b,c", "K:b,c,d"}
        assert cand.lower == {"b", "c"}
        assert cand.lower_at(0) == {"b", "c"}


def test_anti_matching_weak_candidates_need_n_at_least_4():
    # common neighbourhoods have n-2 vertices, so n=3 yields nothing
    assert candidate_family(anti_matching(3), OperatorKind.WEAK) == set()
    assert candidate_family(anti_matching(4), OperatorKind.WEAK) != set()


def test_maximal_candidates_trivial_cases():
    assert maximal_candidates([]) == set()
    small = CandidateSet(frozenset(["x", "y"]), (frozenset("ab"),))
    big = CandidateSet(frozenset(["x", "y", "z"]), (frozenset("ab"),))
    assert maximal_candidates([small]) == {small}
    assert maximal_candidates([small, big]) == {big}


def test_bg3_weak_family_and_maximal_elements(g3):
    m = vertex_clique_incidence(g3)
    family = candidate_family(m, OperatorKind.WEAK)
    assert {c.members for c in family} == {
        frozenset({C1, C2, "1", "2", "3"}),
        frozenset({C1, C3, "1", "2"}),
        frozenset({C2, C3, "1", "2"}),
        frozenset({C1, C2, C3, "1", "2"}),
    }
    top = maximal_candidates(family)
    assert {c.members for c in top} == {
        frozenset({C1, C2, "1", "2", "3"}),
        frozenset({C1, C2, C3, "1", "2"}),
    }


def test_factorise_g2_clean(g2):
    step = factorise(vertex_clique_incidence(g2), OperatorKind.CLEAN)
    assert step.effective
    (x,) = step.graph.levels[2]
    assert step.graph.neighbourhood(x) == {"b", "c", "K:a,b,c", "K:b,c,d"}


def test_factorise_g3_clean(g3):
    step = factorise(vertex_clique_incidence(g3), OperatorKind.CLEAN)
    assert step.effective
    level2 = step.graph.levels[2]
    assert len(level2) == 2
    bottoms = {step.graph.neighbourhood_at_level(x, 0) for x in level2}
    assert bottoms == {frozenset({"1", "2"}), frozenset({"1", "2", "3"})}


def test_factorise_matches_definition_and_is_deterministic(g3):
    m = vertex_clique_incidence(g3)
    for op in OperatorKind:
        step1 = factorise(m, op)
        step2 = factorise(m, op)
        assert step1 == step2
        chosen = {c.members for c in step1.new_level}
        direct = {c.members for c in maximal_candidates(candidate_family(m, op))}
        assert chosen == direct


def test_new_vertices_adjacent_to_exactly_their_candidate():
    rng = random.Random(31337)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5, 0.7]))
        m = vertex_clique_incidence(g)
        for op in OperatorKind:
            step = factorise(m, op)
            if not step.effective:
                continue
            top = step.graph.levels[-1]
            assert len(top) == len(step.new_level)
            for label, cand in zip(top, step.new_level):
                assert step.graph.neighbourhood(label) == cand.members
            assert drop_top_level(step.graph) == m


def test_operator_families_nest(g3):
    rng = random.Random(2024)
    graphs = []
    for _ in range(12):
        g = random_graph(rng, rng.randint(3, 9), rng.choice([0.4, 0.6]))
        graphs.extend(clean_prefix_graphs(g))
    graphs = [m for m in graphs if len(m.levels[-1]) <= 12]
    assert any(m.level_count == 2 for m in graphs)
    for m in graphs:
        weak = candidate_family(m, OperatorKind.WEAK)
        factor = candidate_family(m, OperatorKind.FACTOR)
        clean = candidate_family(m, OperatorKind.CLEAN)
        assert clean <= factor <= weak
        if m.level_count == 2:
            assert clean == factor == weak


def test_maximal_weak_candidates_are_closed_bicliques():
    rng = random.Random(777)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.3, 0.5, 0.7]))
        for m in clean_prefix_graphs(g):
            if len(m.levels[-1]) > 14:
                continue
            family = candidate_family(m, OperatorKind.WEAK)
            top = maximal_candidates(family)
            for cand in family:
                closure = frozenset(
                    y for y in m.levels[-1] if cand.lower <= m.neighbourhood(y)
                )
                assert (cand in top) == (cand.upper == closure)


def test_all_operators_match_subset_oracle():
    rng = random.Random(808)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5, 0.7]))
        for m in clean_prefix_graphs(g):
            if len(m.levels[-1]) > 12:
                continue
            for op in OperatorKind:
                oracle_family = subset_candidate_family(m, op)
                produced = {c.members for c in candidate_family(m, op)}
                assert produced == oracle_family
                produced_top = {c.members for c in maximal_candidates(candidate_family(m, op))}
                assert produced_top == maximal_sets(oracle_family)
                fast = {_candidate_from_masks(m, s, c).members for s, c in _maximal_family(m, op)}
                assert fast == produced_top


def test_closed_seeds_enumerates_exactly_the_qualifying_closed_seeds():
    rng = random.Random(11)
    visited = 0
    for _ in range(300):
        # two or three lower levels of 1..4 vertices, uppers above them
        lmask, n_low = [], 0
        for size in [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]:
            lmask.append(((1 << size) - 1) << n_low)
            n_low += size
        base = (1 << n_low) - 1
        n_up = rng.randint(1, 7)
        members = sorted(rng.sample(range(n_low, n_low + 10), n_up))
        density = rng.choice((0.5, 0.7, 0.85))
        adj = [0] * (n_low + 10)
        for u in members:
            adj[u] = sum(1 << v for v in range(n_low) if rng.random() < density)
        card_levels = tuple(rng.sample(range(len(lmask)), rng.randint(0, len(lmask))))

        def common_of(local: int) -> int:
            common = base
            for i, u in enumerate(members):
                if (local >> i) & 1:
                    common &= adj[u]
            return common

        def close(local: int) -> int:
            common = common_of(local)
            return sum(1 << i for i, u in enumerate(members) if common & ~adj[u] == 0)

        expected = set()
        for local in range(1 << n_up):
            common = common_of(local)
            if close(local) != local or local.bit_count() < 2 or common.bit_count() < 2:
                continue
            if any((common & lmask[i]).bit_count() < 2 for i in card_levels):
                continue
            seed = sum(1 << u for i, u in enumerate(members) if (local >> i) & 1)
            expected.add((seed, common))
        got = _closed_seeds(members, adj, base, lmask, card_levels)
        assert len(got) == len(set(got))
        assert set(got) == expected
        visited += len(expected)
    assert visited >= 100


def random_multipartite(rng: random.Random) -> MultipartiteGraph:
    """Two to four levels of 1..7 vertices, edges between any two levels."""
    levels = [[f"{'abcd'[li]}{i}" for i in range(rng.randint(1, 7))] for li in range(rng.randint(2, 4))]
    p = rng.choice((0.4, 0.6, 0.8))
    edges = [
        (u, v)
        for lo, hi in itertools.combinations(levels, 2)
        for u in lo
        for v in hi
        if rng.random() < p
    ]
    return MultipartiteGraph(levels, edges)


def test_factorise_matches_the_reference_step(corpus):
    rng = random.Random(0xFAC7)
    inputs = [random_multipartite(rng) for _ in range(300)]
    large = random.Random(7)
    graphs = corpus[:100] + [random_connected_graph(large, n, p) for n, p in LARGE_CLEAN_SHAPES]
    for g in graphs:
        inputs.extend(clean_prefix_graphs(g))
    suffixed = plain = 0
    for m in inputs:
        # the weak and factor steps over the widest clean levels take seconds each
        ops = list(OperatorKind) if len(m.levels[-1]) <= 200 else [OperatorKind.CLEAN]
        for op in ops:
            step = factorise(m, op)
            graph, new_level = reference_factorise(m, op)
            assert step.effective == (graph is not None)
            assert step.graph == graph
            assert step.new_level == new_level
            if graph is None:
                continue
            for slot in ("_index", "_labels", "_level_of", "_level_masks", "_down"):
                assert getattr(step.graph, slot) == getattr(graph, slot), slot
            top = graph.levels[-1]
            suffixed += sum("#" in x for x in top)
            plain += sum("#" not in x for x in top)
    assert suffixed > 0 and plain > 0


def test_a_new_label_that_names_an_existing_vertex_is_rejected(g2):
    # the clean step of G2 labels its one new vertex L2:a,b,c,d
    g = Graph(g2.vertices + ("L2:a,b,c,d",), g2.edges())
    with pytest.raises(InvalidArgumentError) as err:
        run_series(g, OperatorKind.CLEAN)
    assert str(err.value) == "vertex 'L2:a,b,c,d' appears in more than one level"


@pytest.mark.parametrize("op", list(OperatorKind))
def test_two_new_vertices_with_the_same_label_are_rejected(op):
    # {y1,y2} and {y3,y4} both have lower part {a,b,c,d,e} once "b,c" is a
    # level-0 label, so the step would name two new vertices L2:a,b,c,d,e
    ys = {"y1": "a b c d", "y2": "b c d e", "y3": "a b,c d", "y4": "b,c d e"}
    h = MultipartiteGraph(
        [("a", "b", "b,c", "c", "d", "e"), tuple(ys)],
        [(u, y) for y, lower in ys.items() for u in lower.split()],
    )
    with pytest.raises(InvalidArgumentError) as err:
        run_series_from_bipartite(h, op)
    assert str(err.value) == "vertex 'L2:a,b,c,d,e' appears in more than one level"


def test_particularise_single_edge():
    h = MultipartiteGraph([["u"], ["y"]], [("u", "y")])
    pinned = particularise(h)
    assert pinned.levels[0] == ("p:y", "u")
    assert set(pinned.edges()) == {("u", "y"), ("p:y", "y")}


def test_particularise_separates_twin_uppers():
    h = MultipartiteGraph([["a", "b"], ["y1", "y2"]], [("a", "y1"), ("b", "y1"), ("a", "y2"), ("b", "y2")])
    pinned = particularise(h)
    n1 = pinned.neighbourhood("y1")
    n2 = pinned.neighbourhood("y2")
    assert not (n1 <= n2 or n2 <= n1)


def test_particularise_anti_matching():
    pinned = particularise(anti_matching(3))
    assert len(pinned.levels[0]) == 6  # 3 original bottoms + 3 pendants
    assert pinned.edge_count() == 9  # 6 original edges + 3 pendant edges
    assert all(pinned.degree(u) == 3 for u in pinned.levels[1])


def test_particularise_rejects_non_bipartite(g2):
    m = factorise(vertex_clique_incidence(g2), OperatorKind.CLEAN).graph
    with pytest.raises(InvalidArgumentError):
        particularise(m)
