"""Graph and multipartite-graph behaviour."""

import itertools
import random
from dataclasses import replace
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanfactor import (
    DecompositionDocument,
    Graph,
    InvalidArgumentError,
    MultipartiteGraph,
    OperatorKind,
    anti_matching,
    build_document,
    characterising_sequence,
    cli_main,
    document_to_multipartite,
    factorise,
    format_edge_list,
    graph_content_hash,
    parse_document,
    reconstruct_graph,
    run_series,
    run_series_from_bipartite,
    size_bound,
    verify_bijection,
    verify_document_fields,
    verify_neighbourhood_formula,
    vertex_clique_incidence,
    write_decomposition,
)
from cleanfactor import graphs

from reference_graphs import Neighbours, random_series_graph
from reference_io import reference_rebuild


def test_graph_basics():
    g = Graph(["b", "a", "c", "a"], [("a", "b"), ("b", "a")])
    assert g.vertices == ("a", "b", "c")
    assert g.edges() == (("a", "b"),)
    assert g.edge_count() == 1
    assert "b" in g.neighbours("a") and "a" in g.neighbours("b")
    assert "c" not in g.neighbours("a")
    assert g.neighbours("a") == {"b"}
    assert g.degree("c") == 0
    assert "a" in g and "z" not in g
    for query in (g.neighbours, g.degree):
        with pytest.raises(InvalidArgumentError, match="unknown vertex 'z'"):
            query("z")


def test_graph_rejects_self_loop_and_unknown_endpoints():
    with pytest.raises(InvalidArgumentError):
        Graph(["a"], [("a", "a")])
    with pytest.raises(InvalidArgumentError):
        Graph(["a"], [("a", "b")])
    with pytest.raises(InvalidArgumentError):
        Graph([1, 2])  # type: ignore[list-item]


def test_graph_equality_and_hash():
    g1 = Graph("ab", [("a", "b")])
    g2 = Graph(["b", "a"], [("b", "a")])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != Graph("ab")


def test_single_edge_neighbourhoods():
    m = MultipartiteGraph([["u"], ["y"]], [("u", "y")])
    assert "u" in m and "y" in m and "z" not in m and 0 not in m
    adj = Neighbours(m)
    assert adj.at_level("y", 0) == {"u"}
    assert adj.at_level("y", 1) == frozenset()
    assert adj.at_level("u", 1) == {"y"}


def test_level_of_is_the_one_vertex_query_and_rejects_unknown_vertices(g2):
    m = vertex_clique_incidence(g2)
    assert [m.level_of(v) for v in ("a", "K:a,b,c")] == [0, 1]
    with pytest.raises(InvalidArgumentError, match="unknown vertex 'z'"):
        m.level_of("z")
    with pytest.raises(InvalidArgumentError, match="unknown vertex 0"):
        m.level_of(0)  # type: ignore[arg-type]
    # the up-queries and their cache are gone: the tests answer them from m.edges()
    for gone in ("neighbourhood", "neighbourhood_at_level", "degree", "_up_index", "_above"):
        assert not hasattr(m, gone)


def test_bg2_clique_vertex_neighbourhood(g2):
    # b sits in both triangles, so its level-1 neighbourhood is both cliques
    adj = Neighbours(vertex_clique_incidence(g2))
    assert adj.at_level("b", 1) == {"K:a,b,c", "K:b,c,d"}
    assert adj.at_level("a", 1) == {"K:a,b,c"}


def test_multipartite_constructor_validation():
    with pytest.raises(InvalidArgumentError):
        MultipartiteGraph([["a", "b"]])  # one level only
    with pytest.raises(InvalidArgumentError):
        MultipartiteGraph([["a"], []])  # empty level
    with pytest.raises(InvalidArgumentError):
        MultipartiteGraph([["a"], ["a"]])  # levels overlap
    with pytest.raises(InvalidArgumentError):
        MultipartiteGraph([["a", "b"], ["c"]], [("a", "b")])  # intra-level edge
    with pytest.raises(InvalidArgumentError):
        MultipartiteGraph([["a"], ["b"]], [("a", "z")])  # unknown endpoint


def test_levels_partition_neighbourhood(g3):
    m = run_series(g3, OperatorKind.CLEAN).final
    adj = Neighbours(m)
    for x in m.vertices:
        parts = [adj.at_level(x, i) for i in range(m.level_count)]
        union = frozenset().union(*parts)
        assert union == adj(x)
        assert sum(len(p) for p in parts) == len(union)


def test_append_level_mechanical_extension(g2):
    m = vertex_clique_incidence(g2)
    m2 = m.append_level([("x", ["b", "c", "K:a,b,c", "K:b,c,d"])])
    assert m2.level_count == 3
    assert m2.levels[2] == ("x",)
    assert Neighbours(m2)("x") == {"b", "c", "K:a,b,c", "K:b,c,d"}


APPEND_LEVEL_ERRORS = [
    ([], "append_level needs at least one new vertex"),
    ([("x", ["a"]), ("x", ["b"])], "vertex 'x' appears more than once"),
    ([("x", ["a"]), (7, ["b"])], "vertex labels must be strings, got 7"),
    ([("y", ["a"]), ("b", ["a"]), ("c", ["a"])], "vertex 'b' appears more than once"),
    ([("x", ["a", "nope"])], "edge endpoint 'nope' is not a declared vertex"),
    ([("x", ["a"]), ("y", ["b", "x"])], "edge 'x'-'y' stays inside level 2"),
    ([("x", ["x"])], "edge 'x'-'x' stays inside level 2"),
    # the triangle has one clique, so a level-2 vertex has at most one neighbour on level 1: an empty seed, or one
    # member; the first vertex at fault is named
    ([("x", ["a", "b"])], "vertex 'x' on level 2 has fewer than two neighbours on level 1"),
    (
        [("x", ["a", "b", "c", "K:a,b,c"]), ("y", ["a"])],
        "vertex 'x' on level 2 has fewer than two neighbours on level 1",
    ),
]


def test_append_level_validation(triangle):
    m = vertex_clique_incidence(triangle)
    for new_vertices, message in APPEND_LEVEL_ERRORS:
        with pytest.raises(InvalidArgumentError) as err:
            m.append_level(new_vertices)
        assert str(err.value) == message
        if new_vertices:
            # the constructor rejects the same extension with the same message
            edges = list(m.edges()) + [(u, x) for x, nbrs in new_vertices for u in nbrs]
            with pytest.raises(InvalidArgumentError) as err:
                MultipartiteGraph(m.levels + (tuple(x for x, _ in new_vertices),), edges)
            assert str(err.value) == message


def without_top_level(m: MultipartiteGraph) -> MultipartiteGraph:
    """m without its top level, in m's index order."""
    return MultipartiteGraph._from_rows(m._levels[:-1], m._idx[len(m.levels[0]) : len(m) - len(m.levels[-1])])


ROW_FAULTS = ("level-0 neighbour dropped", "level-0 neighbour added", "one seed member left", "seed emptied")


def row_faults(m: MultipartiteGraph, x: int) -> Iterator[tuple[str, tuple[int, ...], str]]:
    """Vertex ``x``'s whole row (level >= 2) with one fault of each kind of ``ROW_FAULTS`` that it allows, each with
    the message that the builders give for it."""
    k, n0 = m._level_of[x], len(m.levels[0])
    row, below = m._whole()[x], m._level_range(k - 1)
    lower = [j for j in row if j < below.start]
    vertex = f"vertex {m.vertices[x]!r} on level {k} has"
    other = f"{vertex} other neighbours below level {k - 1} than those its neighbours on level {k - 1} share"
    short = f"{vertex} fewer than two neighbours on level {k - 1}"
    if lower and lower[0] < n0:
        yield ROW_FAULTS[0], row[1:], other
    if absent := [j for j in range(n0) if j not in row]:
        yield ROW_FAULTS[1], tuple(sorted(row + (absent[0],))), other
    yield ROW_FAULTS[2], tuple(lower) + (row[-1],), short
    yield ROW_FAULTS[3], tuple(lower), short


def test_the_builders_refuse_a_row_that_its_seed_does_not_fix(clean_runs):
    # a vertex above level 1 stores its seed, its part on the level below, so its row must be the common row of the
    # seed's members followed by the seed, and the seed must hold two or more vertices, as in a document: the
    # constructor and append_level refuse any other row, naming its vertex and level; the whole-row tampers that
    # the verifier's tests once built
    runs, _ = clean_runs
    finals = [result.final for _, result in runs if result.final.level_count >= 5][:20]
    seen = set()
    for final in finals:
        labels, rows = final.vertices, final._whole()
        edges = [(labels[j], labels[i]) for i in range(len(final)) for j in rows[i]]
        below = without_top_level(final)
        for k in range(2, final.level_count):
            x = final._level_range(k)[len(final.levels[k]) // 2]
            for kind, row, message in row_faults(final, x):
                tampered = [e for e in edges if e[1] != labels[x]] + [(labels[j], labels[x]) for j in row]
                with pytest.raises(InvalidArgumentError) as err:
                    MultipartiteGraph(final.levels, tampered)
                assert str(err.value) == message
                if k == final.level_count - 1:
                    given = {i: row if i == x else rows[i] for i in final._level_range(k)}
                    top = [(labels[i], [labels[j] for j in given[i]]) for i in given]
                    with pytest.raises(InvalidArgumentError) as err:
                        below.append_level(top)
                    assert str(err.value) == message
                seen.add(kind)
    assert seen == set(ROW_FAULTS)


def test_the_builders_accept_every_series_graph(clean_runs):
    # the corpus's clean series and the benchmark's anti-matching factor series: appending each level of the final
    # graph by its names and whole rows, as the benchmark's replay does, gives the final graph, and the constructor
    # on its levels and edges gives its edges
    runs, _ = clean_runs
    finals = [result.final for _, result in runs]
    finals += [run_series_from_bipartite(anti_matching(n), OperatorKind.FACTOR).final for n in (3, 4, 5)]
    appended_levels = 0
    for final in finals:
        labels, rows, n0 = final.vertices, final._whole(), len(final.levels[0])
        m = MultipartiteGraph._from_rows(final._levels[:2], final._idx[n0 : n0 + len(final.levels[1])])
        for k in range(2, final.level_count):
            m = m.append_level([(labels[i], [labels[j] for j in rows[i]]) for i in final._level_range(k)])
            appended_levels += 1
        assert m == final and m._whole() == rows  # the whole rows appended are kept
        assert MultipartiteGraph(final.levels, final.edges()).edges() == final.edges()
    assert appended_levels > len(finals)


def test_append_level_matches_the_constructor_on_series_graphs():
    rng = random.Random(0xA99E)
    graphs = 0
    while graphs < 300:
        final = random_series_graph(rng, 3)
        if final.level_count < 3:
            continue
        graphs += 1
        levels = [list(level) for level in final.levels]
        edges, top = list(final.edges()), set(levels[-1])
        lower_edges = [(u, v) for u, v in edges if v not in top]
        m = MultipartiteGraph(levels[:-1], lower_edges)
        new_vertices = []
        for x in rng.sample(levels[-1], len(levels[-1])):
            nbrs = [u for u, v in edges if v == x]
            nbrs += rng.sample(nbrs, rng.randint(0, min(2, len(nbrs))))  # repeated neighbours collapse
            rng.shuffle(nbrs)
            new_vertices.append((x, nbrs))
        appended = m.append_level(new_vertices)
        built = MultipartiteGraph(levels, edges)
        # the same graph, the new level in seed order where the constructor keeps label order: by each seed, then
        # by label; both keep the whole rows they were given, the seeds' rebuilds
        assert appended.edges() == built.edges()
        assert appended._levels[:-1] == built._levels[:-1] and sorted(appended.levels[-1]) == list(built.levels[-1])
        seeds = appended._idx[len(m) :]
        assert list(seeds) == sorted(seeds) and appended._idx[: len(m)] == built._idx[: len(m)]
        for kept in (appended, built):
            assert kept._full == MultipartiteGraph._from_rows(kept._levels, kept._idx[len(levels[0]) :])._whole()
        assert appended._index == {v: i for i, v in enumerate(appended._labels)}
        assert appended._level_of == built._level_of and appended._top is None
        assert m == MultipartiteGraph(levels[:-1], lower_edges)  # the source graph is left as it was


def test_append_level_keeps_every_row_and_resolves_only_the_new_edges(g3, monkeypatch):
    m = vertex_clique_incidence(g3)
    level0, cliques = m.levels[0], tuple(vertex_clique_incidence(g3).levels[1])  # m names nothing
    # x on the cliques {1,2,3,4} and {1,2,6}, y on {1,2,3,4} and {1,2,3,5}, each with the level-0 vertices they share
    new_vertices = [("x", [cliques[0], "1", cliques[2], "2", "1"]), ("y", [cliques[1], "3", "1", cliques[0], "2"])]
    resolve = MultipartiteGraph._rows
    monkeypatch.setattr(MultipartiteGraph, "_rows", lambda *args: pytest.fail("an edge resolved one at a time"))
    m2 = m.append_level(new_vertices)
    assert len(m2._idx) == len(m) + 2
    assert all(new is old for new, old in zip(m2._idx, m._idx))  # every existing row is the same tuple
    # m's label index resolves the new vertices' neighbours, each vertex's in one pass; m2's waits for a lookup
    assert m._index is not None and m2._index is None and m2._labels is None
    index = {v: i for i, v in enumerate(m.vertices)}
    ones = [index[c] for c in cliques]
    assert m2._idx[len(m) :] == ((ones[0], ones[1]), (ones[0], ones[2]))  # the seeds, in seed order
    assert m2._full[len(m) :] == ((0, 1, 2, ones[0], ones[1]), (0, 1, ones[0], ones[2]))  # the rows given
    assert m2.levels[-1] == ("y", "x")
    # an edge that cannot be resolved is refused by the constructor's resolver, with its message
    monkeypatch.setattr(MultipartiteGraph, "_rows", resolve)
    with pytest.raises(InvalidArgumentError, match="^edge endpoint 'nope' is not a declared vertex$"):
        m.append_level([("x", [level0[0], "nope"])])


def test_append_level_matches_clean_step_on_g2(g2):
    # appending the single clean candidate of B(G2) by hand gives the same graph
    m = vertex_clique_incidence(g2)
    by_hand = m.append_level([("L2:b,c", ["b", "c", "K:a,b,c", "K:b,c,d"])])
    step = factorise(m, OperatorKind.CLEAN)
    assert step.effective
    assert step.graph == by_hand


@pytest.mark.parametrize("op", [OperatorKind.CLEAN, OperatorKind.FACTOR])
def test_appending_each_steps_named_level_gives_the_steps_graph(op, corpus):
    # the benchmark's traced replay: a step's new level, appended by its names and candidates, is the step's graph,
    # on the corpus's clean series and the anti-matching factor series that the benchmark runs
    if op is OperatorKind.CLEAN:
        starts = [vertex_clique_incidence(g) for g in corpus[:60]]
    else:
        starts = [anti_matching(n) for n in (3, 4, 5)]
    appended_levels = 0
    for m in starts:
        while (step := factorise(m, op)).effective:
            new_vertices = [(label, c.members) for label, c in zip(step.graph.levels[-1], step.new_level)]
            appended = m.append_level(new_vertices)
            assert appended == step.graph and hash(appended) == hash(step.graph)
            # the appended level is given, in the step's row order
            assert appended._levels[-1] == tuple(step.graph.levels[-1]) and type(step.graph._levels[-1]) is int
            m, appended_levels = step.graph, appended_levels + 1
    assert appended_levels >= len(starts)


def test_append_level_preserves_existing_adjacency(g3):
    m = vertex_clique_incidence(g3)
    m2 = m.append_level([("x", ["1", "2", "K:1,2,3,4", "K:1,2,6"])])
    adj, adj2 = Neighbours(m), Neighbours(m2)
    for v in m.vertices:
        assert adj(v) == adj2(v) - {"x"}
    assert m2.levels[:2] == m.levels


def test_multipartite_equality_is_exact_on_canonical_labels(g2):
    a = run_series(g2, OperatorKind.CLEAN).final
    b = run_series(g2, OperatorKind.CLEAN).final
    assert a == b and hash(a) == hash(b)
    assert a != vertex_clique_incidence(g2)


def test_equality_compares_the_stored_rows_and_the_names(g3):
    # G3's series holds seeds on levels 2 and 3, and so does the same graph with every level given m's names
    m = run_series(g3, OperatorKind.CLEAN).final
    named, n0 = tuple(map(tuple, m.levels)), len(m.levels[0])
    given = MultipartiteGraph._from_rows(named, m._idx[n0:])
    assert given._idx == m._idx and given == m and m == given and hash(given) == hash(m)
    # the top vertex's seed with one member left, or the top vertex named otherwise: another graph
    cut = MultipartiteGraph._from_rows(named, m._idx[n0:-1] + (m._idx[-1][1:],))
    renamed = MultipartiteGraph._from_rows(named[:-1] + (("top",),), m._idx[n0:])
    for other in (cut, renamed):
        assert other != m and m != other and other != given


def level0_ancestors(m: MultipartiteGraph) -> dict[str, frozenset[str]]:
    """Each vertex's level-0 ancestors, the vertices below it along descending paths, from the graph's rows."""
    labels = m.vertices
    anc = {v: frozenset([v]) for v in m.levels[0]}
    # the index is level-major, so a row's indexes are all named before its vertex
    for v, row in zip(labels[len(anc) :], m._idx[len(anc) :]):
        anc[v] = frozenset().union(*(anc[labels[j]] for j in row))
    return anc


def test_level0_ancestors(g2):
    m = run_series(g2, OperatorKind.CLEAN).final
    anc = level0_ancestors(m)
    assert anc["b"] == {"b"}
    assert anc["K:a,b,c"] == {"a", "b", "c"}
    assert anc["K:b,c,d"] == {"b", "c", "d"}
    (top,) = m.levels[2]
    assert anc[top] == {"a", "b", "c", "d"}


def random_levels_and_edges(rng: random.Random) -> tuple[MultipartiteGraph, list[list[str]], list[tuple[str, str]]]:
    """A series graph of three to five levels and at most 60 vertices, as ``random_series_graph`` draws them; its
    levels' labels, shuffled, and its edges in either orientation, some repeated."""
    while (m := random_series_graph(rng, 3)).level_count < 3 or len(m) > 60:
        pass
    levels = [list(level) for level in m.levels]
    for level in levels:
        rng.shuffle(level)
    edges = list(m.edges())
    edges += rng.sample(edges, min(len(edges), 2))
    return m, levels, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


def built_three_ways(m, levels, edges) -> list[MultipartiteGraph]:
    """The graph on ``levels`` and ``edges`` from the constructor and ``append_level``, and series graph ``m`` from
    its document."""
    whole = MultipartiteGraph(levels, edges)
    top = set(levels[-1])
    lower = MultipartiteGraph(levels[:-1], [(u, v) for u, v in edges if u not in top and v not in top])
    appended = lower.append_level(
        [(x, [u for u, v in edges if v == x] + [v for u, v in edges if u == x]) for x in levels[-1]]
    )
    doc = DecompositionDocument(8, "", "weak", "budget-exceeded", m._levels, m._idx[len(levels[0]) :])
    return [whole, appended, document_to_multipartite(doc)]


def brute_ancestors(levels, edges) -> dict[str, frozenset[str]]:
    """Level-0 vertices reachable from each vertex along edges that go strictly down."""
    level_of = {v: li for li, level in enumerate(levels) for v in level}
    anc = {v: frozenset([v]) for v in levels[0]}
    for level in levels[1:]:
        for x in level:
            lower = {u for e in edges for u in e if x in e and level_of[u] < level_of[x]}
            anc[x] = frozenset().union(*(anc[u] for u in lower))
    return anc


def test_queries_match_the_edge_list_however_the_graph_was_built():
    rng = random.Random(0xD0C5)
    for _ in range(200):
        series, levels, edges = random_levels_and_edges(rng)
        level_of = {v: li for li, level in enumerate(levels) for v in level}
        nbrs = {v: set() for v in level_of}
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        want_edges = tuple(sorted({(u, v) if level_of[u] < level_of[v] else (v, u) for u, v in edges}))
        ancestors = brute_ancestors(levels, edges)
        for m in built_three_ways(series, levels, edges):
            assert m.edges() == want_edges
            assert m.edge_count() == len(want_edges)
            assert level0_ancestors(m) == ancestors
            adj = Neighbours(m)
            for x in level_of:
                assert adj(x) == nbrs[x]
                assert adj.degree(x) == len(nbrs[x])
                for i in range(len(levels)):
                    assert adj.at_level(x, i) == {u for u in nbrs[x] if level_of[u] == i}


def assert_held_alike(*built: MultipartiteGraph) -> None:
    """Every graph holds each row as an ascending index tuple, and all the graphs compare and hash equal."""
    for m in built:
        assert all(type(row) is tuple and list(row) == sorted(set(row)) for row in m._idx)
        assert m == built[0] and hash(m) == hash(built[0])


def top_masks(m: MultipartiteGraph) -> tuple[int, ...]:
    """The top level's whole rows as masks, from the index tuples."""
    return tuple(sum(1 << j for j in m._whole()[x]) for x in m._level_range(m.level_count - 1))


def test_every_builder_holds_rows_as_tuples_and_only_factorise_leaves_top_masks(corpus):
    # the index tuples are the only rows a graph stores; _full, the whole rows rebuilt from seeds, and _top, the
    # candidate walk's masks, are caches
    others = {"_levels", "_sizes", "_labels", "_index", "_level_of", "_full", "_top", "_pairing"}
    assert set(MultipartiteGraph.__slots__) == others | {"_idx"}
    rng = random.Random(0x1D)
    for _ in range(100):
        series, levels, edges = random_levels_and_edges(rng)
        whole, appended, decoded = built_three_ways(series, levels, edges)
        bottom = len(whole.levels[0])
        rebuilt = MultipartiteGraph._from_rows(whole._levels, whole._idx[bottom:])
        assert_held_alike(whole, rebuilt)
        assert_held_alike(decoded, series)  # in row order, as the series made it
        assert_held_alike(appended)  # its top level is in row order, the others in label order
        assert appended.edges() == whole.edges() == decoded.edges()
        assert [m._top for m in (whole, appended, decoded, rebuilt)] == [None] * 4
    finals = 0
    for g in corpus[:60]:
        source = graph_content_hash(g)
        base = vertex_clique_incidence(g)
        # every level given, in label order: for these labels, level 1's row order
        whole = MultipartiteGraph(base.levels, base.edges())
        assert_held_alike(base, whole)
        assert base._top is None and whole._top is None
        for op in OperatorKind:
            # weak and factor may not terminate; four levels are two steps
            result = run_series(g, op, max_levels=None if op is OperatorKind.CLEAN else 4)
            final = result.final
            m, step = base, factorise(base, op)
            assert factorise(whole, op) == step
            while m.level_count < final.level_count:
                new = step.graph
                appended = m.append_level(list(zip(new.levels[-1], (c.members for c in step.new_level))))
                built = MultipartiteGraph(new.levels, new.edges())
                decoded = document_to_multipartite(build_document(replace(result, final=new), source))
                assert_held_alike(new, appended, decoded)
                assert_held_alike(built)
                assert built.edges() == new.edges()
                assert new._top == top_masks(new)
                for other in (appended, built, decoded):
                    assert other._top is None
                m, step = new, None
                if new != final or op is OperatorKind.CLEAN:  # a capped series' next step can be large
                    # the walk builds the masks for the other builders' graphs and leaves none on them
                    step = factorise(new, op)
                    for other in (appended, decoded):
                        assert factorise(other, op) == step
                    # built holds its levels in label order, so its step finds the same candidates in another order
                    stepped = factorise(built, op)
                    assert stepped.effective == step.effective
                    assert not step.effective or set(stepped.new_level) == set(step.new_level)
                    for other in (appended, built, decoded):
                        assert other._top is None
            assert m == final
            assert final._top is None  # a finished series drops the walk's masks
            if op is OperatorKind.CLEAN:
                # verifying a document reads its tuples only
                doc = build_document(result, source)
                decoded = document_to_multipartite(doc)
                assert verify_document_fields(doc).passed
                assert verify_bijection(g, decoded).passed
                assert verify_neighbourhood_formula(decoded).passed
                assert size_bound(g, replace(result, final=decoded)).holds
                assert decoded._top is None
            finals += 1
    assert finals == 180


def test_build_document_reads_the_carried_tuples(monkeypatch, corpus):
    g = max(corpus[:60], key=lambda g: run_series(g, OperatorKind.CLEAN).steps)
    result = run_series(g, OperatorKind.CLEAN)
    final, source_hash = result.final, graph_content_hash(g)
    assert final.level_count >= 5
    calls = []
    expand = graphs.bits

    def counted(mask):
        calls.append(mask)
        return expand(mask)

    monkeypatch.setattr(graphs, "bits", counted)
    doc = build_document(result, source_hash)
    # no row is expanded again: the document's down lists are the final graph's own tuples
    assert calls == []
    bottom = len(final.levels[0])
    assert len(doc.down) == len(final) - bottom
    assert all(mine is carried for mine, carried in zip(doc.down, final._idx[bottom:]))
    # and decoding a document stores its down lists as the graph's tuples
    decoded = document_to_multipartite(doc)
    assert calls == []
    assert all(mine is carried for mine, carried in zip(decoded._idx[bottom:], doc.down))


def record_index_builds(monkeypatch) -> list[MultipartiteGraph]:
    """Record each graph whose label index is built, once per build."""
    built = []
    build = MultipartiteGraph._indexed

    def spy(self):
        if self._index is None:
            built.append(self)
        return build(self)

    monkeypatch.setattr(MultipartiteGraph, "_indexed", spy)
    return built


def record_name_builds(monkeypatch) -> list[MultipartiteGraph]:
    """Record each graph whose vertex names are built, once per build."""
    named = []
    build = MultipartiteGraph._named

    def spy(self):
        if self._labels is None:
            named.append(self)
        return build(self)

    monkeypatch.setattr(MultipartiteGraph, "_named", spy)
    return named


def test_decomposing_and_verifying_build_no_label_index(monkeypatch, tmp_path, corpus):
    built, named = record_index_builds(monkeypatch), record_name_builds(monkeypatch)
    for g in corpus[:60]:
        result = run_series(g, OperatorKind.CLEAN)
        doc = parse_document(write_decomposition(result, graph_content_hash(g)))
        m = document_to_multipartite(doc)
        assert verify_document_fields(doc).passed
        assert verify_bijection(g, m).passed and verify_neighbourhood_formula(m).passed
        assert size_bound(g, replace(result, final=m)).holds
        assert reconstruct_graph(doc) == g
        # the sizes the series, the verify command and the benchmark read
        assert tuple(len(level) for level in m.levels) == result.level_sizes
    graph_path, out_path = tmp_path / "g.txt", tmp_path / "d.json"
    graph_path.write_text(format_edge_list(corpus[59]), encoding="utf-8")
    decompose = ["decompose", "--operator", "clean", "--input", str(graph_path), "--output", str(out_path)]
    assert cli_main(decompose) == 0
    assert cli_main(["verify", "--decomposition", str(out_path), "--input", str(graph_path)]) == 0
    assert built == [] and named == []  # no generated name is built, and no label index


def record_whole_row_builds(monkeypatch) -> list[MultipartiteGraph]:
    """Record each graph whose whole rows are rebuilt from its seeds, once per build."""
    built = []
    build = MultipartiteGraph._whole

    def spy(self):
        fresh = self._full is None
        rows = build(self)
        if fresh and self._full is not None:
            built.append(self)
        return rows

    monkeypatch.setattr(MultipartiteGraph, "_whole", spy)
    return built


def test_decomposing_and_verifying_build_no_whole_row_and_edges_builds_them_once(monkeypatch, corpus):
    # a level above 1 holds its seeds from the walk to the document and back, and the oracle's pairing reads the
    # seeds: only the readers of whole rows, here edges(), rebuild them, once per graph
    built = record_whole_row_builds(monkeypatch)
    clean = [run_series(g, OperatorKind.CLEAN) for g in corpus]
    factor = [run_series_from_bipartite(anti_matching(n), OperatorKind.FACTOR) for n in (3, 4, 5)]
    texts = [write_decomposition(result, graph_content_hash(g)) for g, result in zip(corpus, clean)]
    texts += [write_decomposition(result, "") for result in factor]
    assert built == [] and all(result.final._full is None for result in clean + factor)
    for g, result, text in zip(corpus, clean, texts):
        m = document_to_multipartite(parse_document(text))
        assert verify_bijection(g, m).passed and verify_neighbourhood_formula(m).passed
        assert size_bound(g, replace(result, final=m)).holds
        assert built == [] and m._full is None
    # the benchmark's check of a bipartite start: the decoded graph is the series' graph as stored, then its edges
    for result, text in zip(factor, texts[len(clean) :]):
        m = document_to_multipartite(parse_document(text))
        assert m == result.final and built == []
        assert all(m.level_of(a) < m.level_of(b) for a, b in m.edges())
        assert built == ([m] if m.level_count > 2 else [])
        built.clear()


# by vertex, since the constructor keeps each level in label order and a series in row order
LOOKUPS = {
    "level_of": lambda m: {v: m.level_of(v) for v in m.vertices},
    "in": lambda m: {v: v in m for v in (*m.vertices, "z", 0)},
    "characterising_sequence": lambda m: {x: characterising_sequence(m, x) for x in itertools.chain(*m.levels[2:])},
}


@pytest.mark.parametrize("lookup", LOOKUPS)
def test_the_first_label_lookup_builds_the_index_once_as_the_constructor_does(lookup, monkeypatch, corpus):
    ask = LOOKUPS[lookup]
    g = max(corpus[:60], key=lambda g: run_series(g, OperatorKind.CLEAN).steps)
    result = run_series(g, OperatorKind.CLEAN)
    decoded = document_to_multipartite(parse_document(write_decomposition(result, graph_content_hash(g))))
    other = run_series(g, OperatorKind.CLEAN).final  # its lookups leave result.final's index unbuilt
    whole = MultipartiteGraph(other.levels, other.edges())
    built = record_index_builds(monkeypatch)
    for m in (result.final, decoded):
        assert ask(m) == ask(m) == ask(whole)  # the second lookup reads the index the first one built
        assert built[-1] is m and m._index == {v: i for i, v in enumerate(m._labels)}
        assert m._level_of == tuple(whole.level_of(v) for v in m._labels)
    assert (result.final._index, result.final._level_of) == (decoded._index, decoded._level_of)
    assert len(built) == 2


def test_append_level_builds_only_this_graphs_index(monkeypatch, g3):
    # G3's series without its top level, which y copies
    final = run_series(g3, OperatorKind.CLEAN).final
    new_vertices = [("y", [u for u, v in final.edges() if v == final.levels[-1][0]])]
    m = factorise(vertex_clique_incidence(g3), OperatorKind.CLEAN).graph
    expected = MultipartiteGraph(m.levels, m.edges()).append_level(new_vertices)
    expected_levels = {v: expected.level_of(v) for v in expected.vertices}
    m = factorise(vertex_clique_incidence(g3), OperatorKind.CLEAN).graph  # one whose index is not built yet
    built = record_index_builds(monkeypatch)
    appended = m.append_level(new_vertices)
    again = m.append_level(new_vertices)
    # the new edges are resolved by label on this graph, whose index is built once for both appends
    assert built == [m] and appended == again
    assert appended.edges() == expected.edges()  # a lookup, so it builds the new graph's names and index
    assert {v: appended.level_of(v) for v in expected_levels} == expected_levels
    assert appended._index == {v: i for i, v in enumerate(appended._labels)}
    assert built == [m, appended]  # built by its first lookup, the new graph's index serves every other


def test_a_graph_is_not_equal_to_what_is_not_a_graph(g2):
    assert g2.__eq__(g2.vertices) is NotImplemented
    assert g2 != g2.vertices


def test_a_multipartite_graph_is_not_equal_to_what_is_not_one(g2):
    m = vertex_clique_incidence(g2)
    assert m.__eq__(m.levels) is NotImplemented
    assert m != m.levels and m != g2


def test_multipartite_repr_gives_level_sizes_and_edge_count(g2):
    assert repr(run_series(g2, OperatorKind.CLEAN).final) == "MultipartiteGraph(levels=[4,2,1], 10 edges)"


def reference_names(k, level0, rows):
    """The names of level ``k``'s rows, in row order, from label lists alone: ``K:`` or ``L<k>:`` and the level-0
    labels of a row, each with backslash, comma and '#' escaped and the empty one as ``\\0``, and ``#n`` for the n-th
    row of the level with them."""
    prefix = "K:" if k == 1 else f"L{k}:"
    escape = lambda v: v.replace("\\", "\\\\").replace(",", "\\,").replace("#", "\\#") or "\\0"
    names = [prefix + ",".join(escape(level0[i]) for i in row if i < len(level0)) for row in rows]
    return [f"{name}#{names[:t].count(name) + 1}" if name in names[:t] else name for t, name in enumerate(names)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_generated_names_count_along_row_order_and_escape_their_members(data):
    # level-0 labels from the characters a name is made of, the empty one too; level 1's rows are drawn over level 0,
    # and each higher level holds seeds drawn on the level below, distinct and in order. A seed's level-0 part is the
    # common part of its members' rows, so many are shared or empty
    level0 = sorted(data.draw(st.sets(st.text("ab,#\\0", max_size=3), min_size=2, max_size=5)))
    n0 = len(level0)
    levels, down, whole, lo = [tuple(level0)], [], dict.fromkeys(range(n0), ()), 0
    for k in range(1, data.draw(st.integers(2, 11), label="levels")):
        below = range(lo, len(whole))
        part = st.frozensets(st.sampled_from(below), min_size=1, max_size=min(3, len(below)))
        rows = sorted({tuple(sorted(drawn)) for drawn in data.draw(st.lists(part, min_size=1, max_size=6))})
        levels.append(len(rows))
        down += rows
        lo = len(whole)
        for row in rows:
            whole[len(whole)] = row if k == 1 else reference_rebuild(list(row), whole)
    m = MultipartiteGraph._from_rows(tuple(levels), down)
    assert m._whole() == tuple(whole.values())
    start = n0
    for k, level in enumerate(m.levels[1:], start=1):
        assert list(level) == reference_names(k, level0, [whole[i] for i in range(start, start + len(level))])
        start += len(level)
    assert len(set(m.vertices)) == len(m)  # distinct, so the index answers for every name
    assert [m.level_of(v) for v in m.vertices] == [k for k, level in enumerate(m.levels) for _ in level]


def test_a_weak_step_names_an_empty_level0_neighbour_apart_from_none():
    # u1, u2 lie on '' and p, q; u3, u4 on r, s: the step's two vertices have level-0 parts ('',) and ()
    m = MultipartiteGraph(
        [["", "a"], ["p", "q", "r", "s"], ["u1", "u2", "u3", "u4"]],
        [(u, v) for u in ("u1", "u2") for v in ("", "p", "q")] + [(u, v) for u in ("u3", "u4") for v in "rs"]
        + [("", "p"), ("", "q")],
    )
    top = factorise(m, OperatorKind.WEAK).graph
    assert top._idx[-2:] == ((6, 7), (8, 9)) and top._whole()[-2:] == ((0, 2, 3, 6, 7), (4, 5, 8, 9))
    assert list(top.levels[-1]) == ["L3:\\0", "L3:"] and len(set(top.vertices)) == len(top)


NAME_LOOKUPS = {
    "vertices": lambda m: m.vertices,
    "level_of": lambda m: m.level_of("b"),
    "in": lambda m: "b" in m,
    "edges": lambda m: m.edges(),
    "levels": lambda m: list(m.levels[1]),
}


@pytest.mark.parametrize("lookup", NAME_LOOKUPS)
def test_a_given_label_that_a_generated_name_repeats_is_refused_at_the_first_lookup(lookup):
    # the clique {b} is named K:b, a level-0 label: building the graph names nothing, so nothing is refused then
    m = vertex_clique_incidence(Graph(["K:b", "b", "c", "d"], [("K:b", "c"), ("c", "d")]))
    assert len(m.levels[1]) == 3 and m._labels is None
    with pytest.raises(InvalidArgumentError, match=r"^vertex 'K:b' appears more than once$"):
        NAME_LOOKUPS[lookup](m)
