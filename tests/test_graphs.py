"""Graph and multipartite-graph behaviour."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanfactor import (
    DecompositionDocument,
    Graph,
    InvalidArgumentError,
    MultipartiteGraph,
    OperatorKind,
    build_document,
    characterising_sequence,
    cli_main,
    document_to_multipartite,
    factorise,
    format_edge_list,
    graph_content_hash,
    parse_document,
    run_series,
    size_bound,
    verify_bijection,
    verify_document_fields,
    verify_neighbourhood_formula,
    vertex_clique_incidence,
    write_decomposition,
)
from cleanfactor import graphs

from reference_graphs import Neighbours


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


def test_append_level_mechanical_extension(triangle):
    m = vertex_clique_incidence(triangle)
    m2 = m.append_level([("x", ["a", "b"])])
    assert m2.level_count == 3
    assert m2.levels[2] == ("x",)
    assert Neighbours(m2)("x") == {"a", "b"}


APPEND_LEVEL_ERRORS = [
    ([], "append_level needs at least one new vertex"),
    ([("x", ["a"]), ("x", ["b"])], "vertex 'x' appears more than once"),
    ([("x", ["a"]), (7, ["b"])], "vertex labels must be strings, got 7"),
    ([("y", ["a"]), ("b", ["a"]), ("c", ["a"])], "vertex 'b' appears more than once"),
    ([("x", ["a", "nope"])], "edge endpoint 'nope' is not a declared vertex"),
    ([("x", ["a"]), ("y", ["b", "x"])], "edge 'x'-'y' stays inside level 2"),
    ([("x", ["x"])], "edge 'x'-'x' stays inside level 2"),
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


def test_append_level_matches_the_constructor_on_random_graphs():
    rng = random.Random(0xA99E)
    for _ in range(300):
        names = rng.sample([f"{c}{i}" for c in "abxyz" for i in range(12)], rng.randint(3, 30))
        cuts = sorted(rng.sample(range(1, len(names)), rng.randint(2, min(4, len(names) - 1))))
        levels = [names[i:j] for i, j in zip([0] + cuts, cuts + [len(names)])]
        below = [v for level in levels[:-1] for v in level]
        level_of = {v: li for li, level in enumerate(levels) for v in level}
        pairs = itertools.combinations(names, 2)
        edges = [(u, v) for u, v in pairs if level_of[u] != level_of[v] and rng.random() < 0.3]
        top = set(levels[-1])
        lower_edges = [(u, v) for u, v in edges if u not in top and v not in top]
        m = MultipartiteGraph(levels[:-1], lower_edges)
        new_vertices = []
        for x in rng.sample(levels[-1], len(levels[-1])):
            nbrs = [u for u, v in edges if v == x] + [v for u, v in edges if u == x]
            nbrs += rng.sample(below, rng.randint(0, 2))  # repeated neighbours collapse
            rng.shuffle(nbrs)
            new_vertices.append((x, nbrs))
        appended = m.append_level(new_vertices)
        built = MultipartiteGraph(levels, edges + [(u, x) for x, nbrs in new_vertices for u in nbrs])
        assert appended == built
        for slot in ("_levels", "_labels", "_index", "_level_of", "_idx", "_top"):
            assert getattr(appended, slot) == getattr(built, slot), slot
        assert m == MultipartiteGraph(levels[:-1], lower_edges)  # the source graph is left as it was


def test_append_level_keeps_every_row_and_resolves_only_the_new_edges(g3, monkeypatch):
    m = run_series(g3, OperatorKind.CLEAN).final
    level0, top = m.levels[0], m.levels[-1]
    new_vertices = [("y", [top[0], level0[1]]), ("x", [level0[0], level0[1], level0[0]])]
    calls = []
    resolve = MultipartiteGraph._rows

    def spy(self, edges, first):
        edges = list(edges)
        calls.append((edges, first))
        return resolve(self, edges, first)

    monkeypatch.setattr(MultipartiteGraph, "_rows", spy)
    m2 = m.append_level(new_vertices)
    # one pass over the new level's own edges, in input order: the old edges are never resolved again
    assert calls == [([(top[0], "y"), (level0[1], "y"), (level0[0], "x"), (level0[1], "x"), (level0[0], "x")], len(m))]
    assert len(m2._idx) == len(m) + 2
    assert all(new is old for new, old in zip(m2._idx, m._idx))  # every existing row is the same tuple
    assert m._index is None  # the new edges are resolved on m2, so m's label index is never built
    index = {v: i for i, v in enumerate(m.vertices)}
    assert m2._idx[len(m) :] == ((index[level0[0]], index[level0[1]]), (index[level0[1]], index[top[0]]))


def test_append_level_matches_clean_step_on_g2(g2):
    # appending the single clean candidate of B(G2) by hand gives the same graph
    m = vertex_clique_incidence(g2)
    by_hand = m.append_level([("L2:b,c", ["b", "c", "K:a,b,c", "K:b,c,d"])])
    step = factorise(m, OperatorKind.CLEAN)
    assert step.effective
    assert step.graph == by_hand


def test_append_level_preserves_existing_adjacency(g3):
    m = vertex_clique_incidence(g3)
    m2 = m.append_level([("x", ["1", "2"])])
    adj, adj2 = Neighbours(m), Neighbours(m2)
    for v in m.vertices:
        assert adj(v) == adj2(v) - {"x"}
    assert m2.levels[:2] == m.levels


def test_multipartite_equality_is_exact_on_canonical_labels(g2):
    a = run_series(g2, OperatorKind.CLEAN).final
    b = run_series(g2, OperatorKind.CLEAN).final
    assert a == b and hash(a) == hash(b)
    assert a != vertex_clique_incidence(g2)


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


def random_levels_and_edges(rng: random.Random) -> tuple[list[list[str]], list[tuple[str, str]]]:
    """Three to five levels of 1..7 vertices; edges in either orientation, some repeated."""
    levels = [[f"{'abcde'[li]}{i}" for i in range(rng.randint(1, 7))] for li in range(rng.randint(3, 5))]
    for level in levels:
        rng.shuffle(level)
    p = rng.choice((0.2, 0.5, 0.8))
    edges = [(u, v) for lo, hi in itertools.combinations(levels, 2) for u in lo for v in hi if rng.random() < p]
    edges += rng.sample(edges, min(len(edges), 2))
    return levels, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


def built_three_ways(levels, edges) -> list[MultipartiteGraph]:
    """The graph on ``levels`` and ``edges`` from the constructor, ``append_level`` and a document."""
    whole = MultipartiteGraph(levels, edges)
    top = set(levels[-1])
    lower = MultipartiteGraph(levels[:-1], [(u, v) for u, v in edges if u not in top and v not in top])
    appended = lower.append_level(
        [(x, [u for u, v in edges if v == x] + [v for u, v in edges if u == x]) for x in levels[-1]]
    )
    index = {v: i for i, v in enumerate(sorted(levels[0]) + sorted(v for level in levels[1:] for v in level))}
    level_of = {v: li for li, level in enumerate(levels) for v in level}
    down = [
        tuple(sorted({index[u] for e in edges for u in e if x in e and level_of[u] < level_of[x]}))
        for level in levels[1:]
        for x in sorted(level)
    ]
    sorted_levels = tuple(tuple(sorted(level)) for level in levels)
    doc = DecompositionDocument(3, "", "clean", "terminated", sorted_levels, tuple(down))
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
        levels, edges = random_levels_and_edges(rng)
        level_of = {v: li for li, level in enumerate(levels) for v in level}
        nbrs = {v: set() for v in level_of}
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        want_edges = tuple(sorted({(u, v) if level_of[u] < level_of[v] else (v, u) for u, v in edges}))
        ancestors = brute_ancestors(levels, edges)
        for m in built_three_ways(levels, edges):
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
    """The top level's rows as masks, from the index tuples."""
    return tuple(sum(1 << j for j in m._idx[x]) for x in m._level_range(m.level_count - 1))


def test_every_builder_holds_rows_as_tuples_and_only_factorise_leaves_top_masks(corpus):
    # the index tuples are the only rows a graph has a field for; _top is the candidate walk's cache
    others = {"_levels", "_labels", "_index", "_level_of", "_top", "_pairing"}
    assert set(MultipartiteGraph.__slots__) == others | {"_idx"}
    rng = random.Random(0x1D)
    for _ in range(100):
        levels, edges = random_levels_and_edges(rng)
        whole, appended, decoded = built_three_ways(levels, edges)
        bottom = len(whole.levels[0])
        rebuilt = MultipartiteGraph._from_rows(whole.levels, whole._idx[bottom:])
        assert_held_alike(whole, appended, decoded, rebuilt)
        assert [m._top for m in (whole, appended, decoded, rebuilt)] == [None] * 4
    finals = 0
    for g in corpus[:60]:
        source = graph_content_hash(g)
        base = vertex_clique_incidence(g)
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
                assert_held_alike(new, appended, built, decoded)
                assert new._top == top_masks(new)
                for other in (appended, built, decoded):
                    assert other._top is None
                m, step = new, None
                if new != final or op is OperatorKind.CLEAN:  # a capped series' next step can be large
                    # the walk builds the masks for the other builders' graphs and leaves none on them
                    step = factorise(new, op)
                    for other in (appended, built, decoded):
                        assert factorise(other, op) == step
                        assert other._top is None
            assert m == final
            assert final._top is None  # a finished series drops the walk's masks
            if op is OperatorKind.CLEAN:
                # verifying a document reads its tuples only
                doc = build_document(result, source)
                decoded = document_to_multipartite(doc)
                assert verify_document_fields(doc, decoded).passed
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


def test_decomposing_and_verifying_build_no_label_index(monkeypatch, tmp_path, corpus):
    built = record_index_builds(monkeypatch)
    for g in corpus[:60]:
        result = run_series(g, OperatorKind.CLEAN)
        doc = parse_document(write_decomposition(result, graph_content_hash(g)))
        m = document_to_multipartite(doc)
        assert verify_document_fields(doc, m).passed
        assert verify_bijection(g, m).passed and verify_neighbourhood_formula(m).passed
        assert size_bound(g, replace(result, final=m)).holds
    graph_path, out_path = tmp_path / "g.txt", tmp_path / "d.json"
    graph_path.write_text(format_edge_list(corpus[59]), encoding="utf-8")
    decompose = ["decompose", "--operator", "clean", "--input", str(graph_path), "--output", str(out_path)]
    assert cli_main(decompose) == 0
    assert cli_main(["verify", "--decomposition", str(out_path), "--input", str(graph_path)]) == 0
    assert built == []


LOOKUPS = {
    "level_of": lambda m: [m.level_of(v) for v in m.vertices],
    "in": lambda m: [v in m for v in (*m.vertices, "z", 0)],
    "characterising_sequence": lambda m: [characterising_sequence(m, x) for x in itertools.chain(*m.levels[2:])],
}


@pytest.mark.parametrize("lookup", LOOKUPS)
def test_the_first_label_lookup_builds_the_index_once_as_the_constructor_does(lookup, monkeypatch, corpus):
    ask = LOOKUPS[lookup]
    g = max(corpus[:60], key=lambda g: run_series(g, OperatorKind.CLEAN).steps)
    result = run_series(g, OperatorKind.CLEAN)
    decoded = document_to_multipartite(parse_document(write_decomposition(result, graph_content_hash(g))))
    whole = MultipartiteGraph(result.final.levels, result.final.edges())
    built = record_index_builds(monkeypatch)
    for m in (result.final, decoded):
        assert ask(m) == ask(m) == ask(whole)  # the second lookup reads the index the first one built
        assert built[-1] is m and (m._index, m._level_of) == (whole._index, whole._level_of)
    assert len(built) == 2


def test_append_level_builds_only_the_new_graphs_index(monkeypatch, g3):
    m = run_series(g3, OperatorKind.CLEAN).final
    new_vertices = [("y", [m.levels[-1][0], m.levels[0][1]])]
    expected = MultipartiteGraph(m.levels, m.edges()).append_level(new_vertices)
    built = record_index_builds(monkeypatch)
    appended = m.append_level(new_vertices)
    # the new edges are resolved by label on the new graph, whose index covers every level
    assert len(built) == 1 and built[0] is appended and appended == expected
    assert [appended.level_of(v) for v in appended.vertices] == [expected.level_of(v) for v in expected.vertices]
    assert (appended._index, appended._level_of) == (expected._index, expected._level_of)
    assert len(built) == 1  # the lookups on the new graph read the index append_level built


def test_a_graph_is_not_equal_to_what_is_not_a_graph(g2):
    assert g2.__eq__(g2.vertices) is NotImplemented
    assert g2 != g2.vertices


def test_a_multipartite_graph_is_not_equal_to_what_is_not_one(g2):
    m = vertex_clique_incidence(g2)
    assert m.__eq__(m.levels) is NotImplemented
    assert m != m.levels and m != g2


def test_multipartite_repr_gives_level_sizes_and_edge_count(g2):
    assert repr(run_series(g2, OperatorKind.CLEAN).final) == "MultipartiteGraph(levels=[4,2,1], 10 edges)"


def reference_level_labels(k, level0_labels, member_labels):
    """``_level_labels`` from label sets alone: a name is the sorted labels of the level-0
    neighbours, and a vertex sharing its name is ranked among the others by its sorted member labels."""
    prefix = "K:" if k == 1 else f"L{k}:"
    names = [prefix + ",".join(sorted(lows)) for lows in level0_labels]
    out = []
    for t, name in enumerate(names):
        rivals = sorted((sorted(member_labels[s]), s) for s, other in enumerate(names) if other == name)
        n = [s for _, s in rivals].index(t) + 1
        out.append(f"{name}#{n}" if n > 1 else name)
    return out


# user labels sort below "K:" (upper case) and above "L" (lower case)
USER_LABELS = st.text(alphabet="ABJabz", min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_level_label_suffixes_follow_member_labels_not_indexes(data):
    # levels 0..k-1 in index order; "K:" < "L10:" < "L2:" < lower-case user labels as strings
    k = data.draw(st.integers(2, 12), label="k")
    levels = [sorted(data.draw(st.sets(USER_LABELS, min_size=2, max_size=5), label="level 0"))]
    for j in range(1, k):
        prefix = "K:" if j == 1 else f"L{j}:"
        names = data.draw(st.sets(USER_LABELS, min_size=1, max_size=2), label=f"level {j}")
        levels.append(sorted(prefix + name for name in names))
    labels = [v for level in levels for v in level]
    n0 = len(levels[0])
    # two level-0 parts, either of which may be empty, for all the rows, so most names are shared
    pool = data.draw(st.lists(st.frozensets(st.integers(0, n0 - 1)), min_size=2, max_size=2), label="level-0 parts")
    uppers = data.draw(
        st.lists(st.frozensets(st.integers(n0, len(labels) - 1), min_size=1), min_size=1, max_size=8),
        label="upper parts",
    )
    # distinct rows in the order drawn
    rows = list(dict.fromkeys(tuple(sorted(pool[data.draw(st.integers(0, 1))] | upper)) for upper in uppers))
    given_labels = graphs._level_labels(labels, n0, k, rows)
    level0_labels = [{labels[i] for i in row if i < n0} for row in rows]
    member_labels = [{labels[i] for i in row} for row in rows]
    assert given_labels == reference_level_labels(k, level0_labels, member_labels)
