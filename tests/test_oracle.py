"""Clique intersections, chains, sequences, and the decomposition checks."""

import itertools
import random
import re
import sys
from dataclasses import replace
from typing import Iterable, Iterator, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanfactor import (
    Graph,
    InvalidArgumentError,
    MultipartiteGraph,
    OperatorKind,
    SeriesResult,
    SeriesStatus,
    VerificationReport,
    build_document,
    characterising_sequence,
    cli_main,
    document_to_multipartite,
    factorise,
    format_edge_list,
    graph_content_hash,
    intersection_family,
    maximal_cliques,
    parse_document,
    run_series,
    run_series_from_bipartite,
    size_bound,
    to_json,
    verify_bijection,
    verify_neighbourhood_formula,
    vertex_clique_incidence,
    write_decomposition,
)
from cleanfactor import cliques, oracle
from cleanfactor.graphs import bits

from bruteforce import subset_chains, subset_intersections, subset_maximal_cliques
from conftest import random_connected_graph, random_graph
from reference_graphs import Neighbours
from reference_oracle import (
    IntersectionPoset,
    chains_of_length,
    cliques_containing,
    reference_chain_counts,
    reference_closure,
    reference_verify_bijection,
    reference_verify_neighbourhood_formula,
)


def fs(*labels: str) -> frozenset[str]:
    return frozenset(labels)


def nested_cliques(n: int) -> Graph:
    """a_1..a_n pairwise adjacent, b_i adjacent to a_1..a_i.

    The n maximal cliques {b_i, a_1, ..., a_i} meet in the n - 2 nested
    non-simple intersections {a_1, ..., a_i}, 2 <= i < n, which form one
    chain.
    """
    a = [f"a{i:04d}" for i in range(1, n + 1)]
    b = [f"b{i:04d}" for i in range(1, n + 1)]
    return Graph(a + b, list(itertools.combinations(a, 2)) + [(b[i], u) for i in range(n) for u in a[: i + 1]])


def union_of_cliques(rng: random.Random, n: int, groups: int) -> Graph:
    """``groups`` random groups of 3 to 5 of n vertices, each group joined into a clique.

    The shape of an affiliation network: sparse, with most pairs of
    maximal cliques sharing at most one vertex.
    """
    labels = [f"v{i:02d}" for i in range(n)]
    drawn = [rng.sample(labels, rng.randint(3, 5)) for _ in range(groups)]
    return Graph(labels, [e for group in drawn for e in itertools.combinations(group, 2)])


def as_sets(g: Graph, chains: Iterable[tuple[int, ...]]) -> list[tuple[frozenset[str], ...]]:
    """Chains of masks over ``g``'s vertices as chains of label sets, in the same order."""
    return [tuple(frozenset(g.vertices[i] for i in bits(o)) for o in chain) for chain in chains]


def test_intersection_family_fixed_instances(triangle, g2, g3):
    assert intersection_family(triangle).nonsimple == frozenset()
    assert intersection_family(g2).nonsimple == {fs("b", "c")}
    assert intersection_family(g3).nonsimple == {fs("1", "2"), fs("1", "2", "3")}
    assert all(len(o) >= 2 for o in intersection_family(g3).nonsimple)


def test_intersection_family_matches_subset_oracle():
    rng = random.Random(271828)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7]))
        fam = intersection_family(g)
        oracle_all, oracle_nonsimple = subset_intersections(g)
        assert reference_closure(g) == oracle_all
        assert fam.nonsimple == oracle_nonsimple
    rng, deep = random.Random(9), 0
    for _ in range(30):
        g = union_of_cliques(rng, rng.randint(12, 16), rng.randint(4, 8))
        family = subset_maximal_cliques(g)
        if len(family) > 16:  # the subset oracle's limit
            continue
        _, oracle_nonsimple = subset_intersections(g)
        assert intersection_family(g).nonsimple == oracle_nonsimple
        deep += oracle_nonsimple != {a & b for a, b in itertools.combinations(family, 2) if len(a & b) >= 2}
    # some draws have a non-simple intersection that no two cliques meet in: only the closure finds it
    assert deep


def test_intersection_family_invariants(g3):
    fam = intersection_family(g3)
    closure = reference_closure(g3)
    assert fam.nonsimple <= closure
    # each member is the meet of the two or more cliques that contain it
    for o in fam.nonsimple:
        containing = cliques_containing(g3, o)
        assert len(containing) >= 2 and frozenset.intersection(*containing) == o
    # the vertex set, the meet of no cliques, is in the closure but is not labelled
    assert frozenset(g3.vertices) in closure
    assert frozenset(g3.vertices) not in fam.nonsimple


def test_cliques_containing(g2, g3):
    # the tests' K(A), which the Galois and closure tests read, on hand-derived values
    assert cliques_containing(g2, []) == set(maximal_cliques(g2))
    assert cliques_containing(g2, ["b", "c"]) == {fs("a", "b", "c"), fs("b", "c", "d")}
    assert cliques_containing(g3, ["1", "2", "3"]) == {
        fs("1", "2", "3", "4"),
        fs("1", "2", "3", "5"),
    }
    assert cliques_containing(g2, ["nope"]) == frozenset()


def test_families_closed_under_intersection():
    # both the intersection family and its clique-set image are closed under
    # pairwise intersection
    rng = random.Random(161803)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7]))
        closed = reference_closure(g)
        for a, b in itertools.combinations(closed, 2):
            assert a & b in closed
        images = {cliques_containing(g, o) for o in closed}
        for a, b in itertools.combinations(images, 2):
            assert a & b in images


@st.composite
def graph_and_subsets(draw):
    n = draw(st.integers(1, 7))
    vs = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(vs, [p for p, keep in zip(pairs, flags) if keep])
    a = draw(st.sets(st.sampled_from(vs)))
    b = draw(st.sets(st.sampled_from(vs)))
    return g, frozenset(a), frozenset(b)


@settings(max_examples=80, deadline=None)
@given(graph_and_subsets())
def test_containing_cliques_of_a_union(case):
    g, a, b = case
    assert cliques_containing(g, a) & cliques_containing(g, b) == cliques_containing(g, a | b)


@settings(max_examples=80, deadline=None)
@given(graph_and_subsets())
def test_containing_cliques_reverse_inclusion(case):
    g, a, b = case
    assert cliques_containing(g, a | b) <= cliques_containing(g, a)
    # and K(O) <= K(A) forces A <= O when O is a clique intersection
    for o in reference_closure(g):
        if cliques_containing(g, o) <= cliques_containing(g, a):
            assert a <= o


def test_chains_fixed_instances(triangle, g3):
    none = oracle._inclusion(oracle._cliques(triangle))
    assert none == {}
    assert list(oracle._chains(none, 1)) == [] and list(oracle._chains(none, 3)) == []
    up = oracle._inclusion(oracle._cliques(g3))
    assert as_sets(g3, oracle._chains(up, 1)) == [(fs("1", "2"),), (fs("1", "2", "3"),)]
    assert as_sets(g3, oracle._chains(up, 2)) == [(fs("1", "2"), fs("1", "2", "3"))]
    assert list(oracle._chains(up, 3)) == []

    empty = IntersectionPoset([])
    assert chains_of_length(empty, 1) == set()
    assert chains_of_length(empty, 3) == set()

    poset = IntersectionPoset(intersection_family(g3).nonsimple)
    one = chains_of_length(poset, 1)
    assert one == {(fs("1", "2"),), (fs("1", "2", "3"),)}
    two = chains_of_length(poset, 2)
    assert two == {(fs("1", "2"), fs("1", "2", "3"))}
    assert chains_of_length(poset, 3) == set()
    assert poset.chain_count(1) == 2 and poset.chain_count(2) == 1 and poset.chain_count(3) == 0


def test_chains_of_an_antichain():
    poset = IntersectionPoset([fs("a", "b"), fs("c", "d"), fs("e", "f")])
    assert chains_of_length(poset, 2) == set()
    assert poset.chain_count(2) == 0 and poset.chain_count(1) > 0


def recursive_chains(elements: Sequence, m: int) -> Iterator[tuple]:
    """The m-element chains as a walk one call deeper per element gives them, in its order.

    The elements are distinct sets or masks, every strict subset first, so
    a later element that holds an earlier one holds it strictly.
    """

    def walk(acc: list[int]) -> Iterator[tuple]:
        if len(acc) == m:
            yield tuple(elements[t] for t in acc)
            return
        for j in range(acc[-1] + 1, len(elements)):
            if elements[acc[-1]] | elements[j] == elements[j]:
                yield from walk(acc + [j])

    for i in range(len(elements)):
        yield from walk([i])


def test_chains_match_subset_oracle():
    rng = random.Random(5150)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.4, 0.6, 0.8]))
        elements = intersection_family(g).nonsimple
        up = oracle._inclusion(oracle._cliques(g))
        poset = IntersectionPoset(elements)
        for m in range(1, 5):
            expected = subset_chains(set(elements), m)
            got = list(oracle._chains(up, m))
            assert got == list(recursive_chains(list(up), m))
            assert len(got) == len(expected) and set(as_sets(g, got)) == expected
            assert chains_of_length(poset, m) == expected
            assert list(poset.chains(m)) == list(recursive_chains(poset.elements, m))
            assert poset.chain_count(m) == len(expected)
        # a longer chain holds a shorter one, so the longest is the last length that has any
        longest = 0
        while subset_chains(set(elements), longest + 1):
            longest += 1
        assert list(oracle._chains(up, longest + 1)) == []
        assert longest == 0 or list(oracle._chains(up, longest))
        assert poset.chain_count(longest + 1) == 0
        assert longest == 0 or poset.chain_count(longest) > 0
        # size_bound without a series counts every chain once, in one pass
        total = sum(len(subset_chains(set(elements), m)) for m in range(1, longest + 1))
        assert size_bound(g).actual == len(g) + len(maximal_cliques(g)) + total


def test_a_200_element_chain_needs_no_deep_recursion():
    # one chain through every element: a walk one frame deeper per element needs 200 frames
    g = nested_cliques(202)
    sets = [frozenset(f"a{i:04d}" for i in range(1, n + 1)) for n in range(2, 202)]
    up = oracle._inclusion(oracle._cliques(g))
    poset = IntersectionPoset(sets)
    limit = sys.getrecursionlimit()
    depth = 0
    while sys._getframe(depth).f_back is not None:
        depth += 1
    sys.setrecursionlimit(depth + 100)
    try:
        chains = list(oracle._chains(up, 200))
        reference = list(poset.chains(200))
    finally:
        sys.setrecursionlimit(limit)
    assert as_sets(g, chains) == reference == [tuple(sets)]
    assert chains_of_length(poset, 200) == {tuple(sets)} and poset.chain_count(200) == 1


def test_chain_length_validation(tmp_path, capsys, g3):
    # the listing walks chains of at least one element: a shorter length is a usage error
    graph_path = tmp_path / "g3.txt"
    graph_path.write_text(format_edge_list(g3), encoding="utf-8")
    for m in ("0", "-1"):
        assert cli_main(["oracle", "--input", str(graph_path), "--chains", m]) == 2
        assert "argument --chains: must be a positive integer" in capsys.readouterr().err
    poset = IntersectionPoset([])
    with pytest.raises(InvalidArgumentError):
        chains_of_length(poset, 0)
    with pytest.raises(InvalidArgumentError):
        poset.chain_count(-1)


def test_characterising_sequence_fixed_instances(g2, g3):
    m2 = run_series(g2, OperatorKind.CLEAN).final
    (x2,) = m2.levels[2]
    assert characterising_sequence(m2, x2) == (fs("b", "c"),)

    m3 = run_series(g3, OperatorKind.CLEAN).final
    (x3,) = m3.levels[3]
    assert characterising_sequence(m3, x3) == (fs("1", "2"), fs("1", "2", "3"))


def test_level2_sequence_is_the_bottom_neighbourhood():
    rng = random.Random(909)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.4, 0.6, 0.8]))
        m = run_series(g, OperatorKind.CLEAN).final
        if m.level_count < 3:
            continue
        adj = Neighbours(m)
        for x in m.levels[2]:
            assert characterising_sequence(m, x) == (adj.at_level(x, 0),)


def test_characterising_sequence_validation(g2):
    m = run_series(g2, OperatorKind.CLEAN).final
    with pytest.raises(InvalidArgumentError):
        characterising_sequence(m, "b")
    with pytest.raises(InvalidArgumentError):
        characterising_sequence(m, "K:a,b,c")
    with pytest.raises(InvalidArgumentError):
        characterising_sequence(m, "ghost")
    # a repeated set is no chain: the only two-element chain of {ab, abc} is (ab < abc)
    chains = chains_of_length(IntersectionPoset([fs("a", "b"), fs("a", "b", "c")]), 2)
    assert (fs("a", "b"), fs("a", "b")) not in chains
    assert chains == {(fs("a", "b"), fs("a", "b", "c"))}


def test_verify_bijection_passes_on_fixed_instances(triangle, g2, g3):
    for g in (triangle, g2, g3):
        result = run_series(g, OperatorKind.CLEAN)
        report = verify_bijection(g, result.final)
        assert report.passed, report.counterexample
    report3 = verify_bijection(g3, run_series(g3, OperatorKind.CLEAN).final)
    assert report3.level_counts == ((2, 2, 2), (3, 1, 1))


def test_verify_bijection_negative_controls(g2, g3):
    m3 = run_series(g3, OperatorKind.CLEAN).final
    report = verify_bijection(g2, m3)
    assert not report.passed and report.counterexample

    # a decomposition cut short is not terminated: chains remain unattained
    short = run_series(g3, OperatorKind.CLEAN, max_levels=3)
    report_short = verify_bijection(g3, short.final)
    assert not report_short.passed
    assert "not terminated" in report_short.counterexample


def test_verify_neighbourhood_formula_passes(g2, g3):
    for g in (g2, g3):
        m = run_series(g, OperatorKind.CLEAN).final
        report = verify_neighbourhood_formula(m)
        assert report.passed, report.counterexample


def test_g3_window_set_matches_level_two(g3):
    # the level-3 vertex must be adjacent to both level-2 vertices
    m = run_series(g3, OperatorKind.CLEAN).final
    (x,) = m.levels[3]
    assert Neighbours(m).at_level(x, 2) == frozenset(m.levels[2])


def test_verify_neighbourhood_formula_detects_tampering(g2):
    # dropping a clique/decomposition edge leaves the level-2 vertex one seed member: the constructor refuses it, and
    # the graph that holds that seed, as a document could before its parser refused it, fails the formula check
    m = run_series(g2, OperatorKind.CLEAN).final
    (x,) = m.levels[2]
    removed = ("K:a,b,c", x)
    edges = [e for e in m.edges() if e != removed]
    assert len(edges) == m.edge_count() - 1
    with pytest.raises(InvalidArgumentError, match="^vertex 'L2:b,c' on level 2 has fewer than two neighbours on "):
        MultipartiteGraph(m.levels, edges)
    tampered = MultipartiteGraph._from_rows(m._levels, m._idx[4:-1] + (m._idx[-1][1:],))
    expected = "level 2, vertex 'L2:b,c,d': no 1-element chain predicts its lower neighbourhood"
    assert verify_neighbourhood_formula(tampered) == VerificationReport(False, expected)


def test_verify_bijection_detects_tampering(g2):
    # dropping a bottom edge of the level-2 vertex leaves it a row that its seed does not fix, which the constructor
    # refuses; dropping b from the clique {a,b,c} instead shrinks the vertex's sequence below two vertices, which is
    # no non-simple intersection
    m = run_series(g2, OperatorKind.CLEAN).final
    (x,) = m.levels[2]
    edges = [e for e in m.edges() if e != ("b", x)]
    assert len(edges) == m.edge_count() - 1
    with pytest.raises(InvalidArgumentError, match="^vertex 'L2:b,c' on level 2 has other neighbours below level 1 "):
        MultipartiteGraph(m.levels, edges)
    tampered = MultipartiteGraph._from_rows(m._levels, ((0, 2),) + m._idx[5:])
    expected = "level 1 does not match the maximal cliques of the input graph"
    assert verify_bijection(g2, tampered) == VerificationReport(False, expected)
    expected = "level 2, vertex 'L2:c': no 1-element chain predicts its lower neighbourhood"
    assert verify_neighbourhood_formula(tampered) == VerificationReport(False, expected)


def test_size_bound_fixed_instances(triangle, g2, g3):
    sb = size_bound(triangle)
    assert (sb.bound, sb.actual, sb.k, sb.c) == (9, 4, 1, 3)
    sb2 = size_bound(g2)
    assert (sb2.bound, sb2.actual, sb2.k, sb2.c) == (36, 7, 2, 3)
    sb3 = size_bound(g3)
    assert (sb3.bound, sb3.actual, sb3.k, sb3.c) == (294, 12, 3, 4)
    assert sb.holds and sb2.holds and sb3.holds


def test_size_bound_accepts_a_precomputed_run(g3):
    run = run_series(g3, OperatorKind.CLEAN)
    assert size_bound(g3, series=run) == size_bound(g3)


def test_size_bound_counts_match_the_clique_family(clean_runs):
    runs, _ = clean_runs
    for g, result in runs:
        family = maximal_cliques(g)
        sb = size_bound(g, series=result)
        # counted from the chains, the size is the size of the series
        assert size_bound(g).actual == sb.actual
        assert sb.k == max(sum(v in clique for clique in family) for v in g.vertices)
        assert sb.c == max(map(len, family))
    with pytest.raises(InvalidArgumentError):
        size_bound(Graph([]))


def test_size_bound_counts_the_chains_of_nested_cliques():
    # n vertices a_i, n vertices b_i, n cliques, and one vertex per nonempty subset of the n - 2 intersections
    g = nested_cliques(6)
    assert size_bound(g).actual == size_bound(g, series=run_series(g, OperatorKind.CLEAN)).actual == 3 * 6 + 2**4 - 1
    n = 300
    assert size_bound(nested_cliques(n)).actual == 3 * n + 2 ** (n - 2) - 1


def test_poset_height_is_bounded_by_n_minus_2():
    rng = random.Random(627)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.4, 0.6, 0.8]))
        up = oracle._inclusion(oracle._cliques(g))
        poset = IntersectionPoset(intersection_family(g).nonsimple)
        # no chain of n - 1 elements, so the longest has at most n - 2
        assert list(oracle._chains(up, len(g) - 1)) == []
        assert poset.chain_count(len(g) - 1) == 0


def in_order_of(m: MultipartiteGraph, edges: list[tuple[str, str]], gone: str | None = None) -> MultipartiteGraph:
    """The graph that a document holds for ``edges`` on m's vertices but ``gone``: m's names, in m's index order.

    Level 1's rows are held whole and each row above as its seed, its part
    on the level below, whatever the seed: so an edge between two levels
    further apart is not held. The constructor
    would put each level in label order, and refuse a row that its seed
    does not fix.
    """
    levels = tuple(tuple(v for v in level if v != gone) for level in m.levels)
    level_of = {v: k for k, level in enumerate(levels) for v in level}
    index = {v: i for i, v in enumerate(itertools.chain.from_iterable(levels))}
    rows: list[set[int]] = [set() for _ in index]
    for a, b in edges:
        if abs(level_of[a] - level_of[b]) == 1:
            rows[max(index[a], index[b])].add(min(index[a], index[b]))
    return MultipartiteGraph._from_rows(levels, [tuple(sorted(row)) for row in rows[len(levels[0]) :]])


def held(m: MultipartiteGraph, edges: list[tuple[str, str]], refused: list) -> Iterator[MultipartiteGraph]:
    """The graph that a document holds for m's vertices and ``edges`` (``in_order_of``), unless it is m.

    The constructor takes ``edges`` exactly where every row above level 1
    is the row its seed fixes, and then holds the same edges; else it
    refuses the first row at fault, naming the vertex. Edges that only the
    constructor's refusal checks, as their graph would be m, are added to
    ``refused``.
    """
    t = in_order_of(m, edges)
    try:
        built = MultipartiteGraph(m.levels, edges)
    except InvalidArgumentError as err:
        assert re.fullmatch(r"vertex '.*' on level \d+ has (fewer than two|other) neighbours .*", str(err))
    else:
        assert t != m and built.edges() == t.edges() == tuple(sorted(set(edges)))
    if t != m:
        yield t
    else:
        refused.append(edges)


def tampered(m: MultipartiteGraph, rng: random.Random, rounds: int, refused: list) -> Iterator[MultipartiteGraph]:
    """Copies of ``m`` with one change each, ``rounds`` of every kind, as a document holds them (``held``).

    The kinds: one edge deleted (its level pair drawn first, so that the
    sparse pairs are hit too), one edge added between two levels, and one
    vertex of level >= 2 deleted with its edges; last, the top level
    deleted, and one vertex of level >= 2 copied with its lower edges. A
    document holds no edge that skips a level above level 1, so such an
    edge deleted or added leaves m, and only the constructor's refusal is
    checked, and added to ``refused``.
    """
    edges = list(m.edges())
    present = set(edges)
    by_pair: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for a, b in edges:
        by_pair.setdefault((m.level_of(a), m.level_of(b)), []).append((a, b))
    pairs = sorted(by_pair)
    for _ in range(rounds):
        gone = rng.choice(by_pair[rng.choice(pairs)])
        yield from held(m, [e for e in edges if e != gone], refused)
        while True:
            i, j = sorted(rng.sample(range(m.level_count), 2))
            extra = (rng.choice(m.levels[i]), rng.choice(m.levels[j]))
            if extra not in present:
                break
        yield from held(m, edges + [extra], refused)
        k = rng.randrange(2, m.level_count)
        if len(m.levels[k]) > 1:
            x = rng.choice(m.levels[k])
            yield in_order_of(m, [e for e in edges if x not in e], gone=x)
    top = set(m.levels[-1])
    yield MultipartiteGraph(m.levels[:-1], [e for e in edges if e[1] not in top])
    k = rng.randrange(2, m.level_count)
    x = rng.choice(m.levels[k])
    copied = [tuple(level) + ((x + "'",) if li == k else ()) for li, level in enumerate(m.levels)]
    yield MultipartiteGraph(copied, edges + [(u, x + "'") for u, v in edges if v == x])


COUNTEREXAMPLES = (
    "level 1 does not match",
    "chain predicts its lower neighbourhood",
    "have the same lower neighbourhood",
    "is attained by no vertex",
    "series is not terminated",
)
# the counterexamples found before any level is paired, and after every level is, stay the reference's
REFERENCE_WORDED = ("level 0 does not match", "level 1 does not match", "series is not terminated")


def assert_fails_with_the_reference(g: Graph, m: MultipartiteGraph, t: MultipartiteGraph) -> list[str]:
    """Check the verdicts on a tampered copy ``t`` of ``m`` against the reference; return the counterexamples.

    The bijection check fails; the formula check passes only where the
    reference's does; the two together fail, as the reference's do. Where
    the copy differs from ``m`` in one stored row above level 1, a seed,
    both checks name that row's vertex.
    """
    bijection = verify_bijection(g, t)
    formula = verify_neighbourhood_formula(t)
    reference_bijection = reference_verify_bijection(g, t)
    reference_formula = reference_verify_neighbourhood_formula(t)
    assert not bijection.passed
    assert reference_formula.passed or not formula.passed
    assert not (reference_bijection.passed and reference_formula.passed)
    if any(c.startswith(REFERENCE_WORDED) for c in (bijection.counterexample, reference_bijection.counterexample or "")):
        assert bijection == reference_bijection
    if t.levels == m.levels:
        changed = [x for x, (a, b) in enumerate(zip(m._idx, t._idx)) if a != b]
        if len(changed) == 1 and changed[0] >= m._level_range(2).start:
            name = repr(m.vertices[changed[0]])
            assert name in bijection.counterexample and name in (formula.counterexample or "")
    return [bijection.counterexample, formula.counterexample or ""]


def tamper_cases(runs, rng: random.Random) -> list[tuple[Graph, MultipartiteGraph]]:
    """120 corpus runs drawn with ``rng``, then the five graphs of the benchmark's ``large-clean``, with their series."""
    cases = [(g, result.final) for g, result in rng.sample(runs, 120)]
    shapes = ((14, 0.5), (16, 0.5), (18, 0.5), (20, 0.5), (16, 0.7))
    large_rng = random.Random(7)
    for n, p in shapes:
        g = random_connected_graph(large_rng, n, p)
        cases.append((g, run_series(g, OperatorKind.CLEAN).final))
    return cases


def test_checks_match_the_reference_on_tampered_decompositions(clean_runs):
    rng = random.Random(0x7A3B)
    runs, _ = clean_runs
    cases = tamper_cases(runs, rng)

    seen = set()
    checked, refused = 0, []
    for g, m in cases:
        if m.level_count < 3:
            continue
        assert verify_bijection(g, m) == reference_verify_bijection(g, m)
        assert verify_neighbourhood_formula(m) == reference_verify_neighbourhood_formula(m)
        for t in tampered(m, rng, 2 if len(g) <= 12 else 1, refused):
            for message in assert_fails_with_the_reference(g, m, t):
                seen.update(c for c in COUNTEREXAMPLES if c in message)
            checked += 1
    # the tampers a document cannot hold, an edge that skips a level above level 1, only the constructor refuses
    assert checked + len(refused) >= 500 and checked >= 450 and refused
    assert seen == set(COUNTEREXAMPLES)


SEED_TAMPERS = ("member dropped", "member added", "member replaced", "seed copied")


def seed_tampered(m: MultipartiteGraph, rng: random.Random) -> Iterator[tuple[str, MultipartiteGraph]]:
    """Copies of ``m`` with one stored seed changed each, one of every kind in ``SEED_TAMPERS`` that m allows.

    A seed stays ascending and on the level below, as the parser keeps it:
    one member dropped, leaving at least two; one member of the level below
    added; one member replaced by another vertex of the level below; or one
    seed copied onto its row-order neighbour, the next vertex of its level.
    """
    n0 = len(m.levels[0])
    below = {x: m._level_range(k - 1) for k in range(2, m.level_count) for x in m._level_range(k)}

    def with_seed(x: int, seed: Iterable[int]) -> MultipartiteGraph:
        rows = list(m._idx[n0:])
        rows[x - n0] = tuple(sorted(seed))
        return MultipartiteGraph._from_rows(m._levels, rows)

    if long := [x for x in below if len(m._idx[x]) > 2]:
        seed = list(m._idx[x := rng.choice(long)])
        seed.remove(rng.choice(seed))
        yield SEED_TAMPERS[0], with_seed(x, seed)
    if short := [x for x in below if len(m._idx[x]) < len(below[x])]:
        seed = m._idx[x := rng.choice(short)]
        extra = rng.choice([y for y in below[x] if y not in seed])
        yield SEED_TAMPERS[1], with_seed(x, seed + (extra,))
        gone = rng.choice(seed)
        yield SEED_TAMPERS[2], with_seed(x, [y for y in seed if y != gone] + [extra])
    if paired := [x for x in below if x + 1 in below and below[x + 1] == below[x]]:
        x = rng.choice(paired)
        yield SEED_TAMPERS[3], with_seed(x + 1, m._idx[x])


def test_seed_tampers_fail_as_the_reference_does(clean_runs):
    # the pairing looks a seed up as it is stored, and the reference checks the whole rows that the graph rebuilds
    # from the seeds; levels 0 and 1 are kept, so both checks fail with the pairing's counterexample
    rng = random.Random(0x5EED)
    runs, _ = clean_runs
    seen = set()
    for g, m in tamper_cases(runs, rng):
        for kind, t in seed_tampered(m, rng):
            bijection, formula = assert_fails_with_the_reference(g, m, t)
            assert bijection == formula
            seen.add(kind)
    assert seen == set(SEED_TAMPERS)


def bipartite_starts(lower: int, uppers: range) -> Iterator[MultipartiteGraph]:
    """Every bipartite start on ``lower`` labelled vertices with an upper row per member of a multiset of subsets.

    So empty, one-vertex, repeated and nested upper rows all occur, for each upper size in ``uppers``.
    """
    vertices = list("abcdefgh"[:lower])
    subsets = [[v for i, v in enumerate(vertices) if s >> i & 1] for s in range(1 << lower)]
    for u in uppers:
        upper = [f"u{j}" for j in range(u)]
        for rows in itertools.combinations_with_replacement(subsets, u):
            yield MultipartiteGraph([vertices, upper], [(v, w) for w, row in zip(upper, rows) for v in row])


def test_every_bipartite_start_on_four_lower_vertices_pairs_every_chain_as_the_reference_does():
    # 2-4 lower and 1-4 upper vertices: _pair takes the intersections from the level-1 rows, so it runs on any clean
    # series, and each one pairs every chain; the reference, which reads the graph's edges, passes each one too
    levels = [0] * 6
    for lower in (2, 3, 4):
        for h in bipartite_starts(lower, range(1, 5)):
            final = run_series_from_bipartite(h, OperatorKind.CLEAN).final
            pairing = oracle._pair(final)
            assert pairing[0] is None and pairing[2] == 0
            assert reference_verify_neighbourhood_formula(final).passed
            levels[final.level_count] += 1
    # the 5,407 starts by the level count of their series: about two in three take at least one step
    assert levels == [0, 0, 1832, 2876, 681, 18]


def test_checks_at_scale_pair_every_chain_and_name_a_tampered_row():
    # fresh Random(7) at (18, .7): 27,062 vertices, beyond the brute-force references
    g = random_connected_graph(random.Random(7), 18, 0.7)
    m = run_series(g, OperatorKind.CLEAN).final
    assert len(m) == 27062
    chains = reference_chain_counts(IntersectionPoset(intersection_family(g).nonsimple).elements)
    assert len(chains) == m.level_count - 1
    report = verify_bijection(g, m)
    assert report.passed and verify_neighbourhood_formula(m).passed
    assert report.level_counts == tuple((k, chains[k - 1], chains[k - 1]) for k in range(2, m.level_count))

    # one level-4 seed without its lowest member, the stored rows handed over as they are
    bottom = len(m.levels[0])
    x = m._level_range(4)[len(m.levels[4]) // 2]
    rows = list(m._idx[bottom:])
    rows[x - bottom] = rows[x - bottom][1:]
    t = MultipartiteGraph._from_rows(m._levels, rows)
    expected = f"level 4, vertex {t.vertices[x]!r}: no 3-element chain predicts its lower neighbourhood"
    assert verify_bijection(g, t) == verify_neighbourhood_formula(t) == VerificationReport(False, expected)


def names_from_whole_rows(m: MultipartiteGraph) -> tuple[str, ...]:
    """m's names as its whole rows give them: a generated vertex is ``K:`` or ``L<k>:`` and the labels of its level-0
    neighbours, and ``#n`` if it is the n-th of its level with those."""
    level0, rows, names = m.levels[0], m._whole(), []
    for k, level in enumerate(m._levels):
        if type(level) is tuple:
            names += level
            continue
        seen: dict[str, int] = {}
        for row in rows[len(names) : len(names) + level]:
            base = ("K:" if k == 1 else f"L{k}:") + ",".join(level0[j] for j in row if j < len(level0))
            seen[base] = seen.get(base, 0) + 1
            names.append(f"{base}#{seen[base]}" if seen[base] > 1 else base)
    return tuple(names)


def test_a_failing_check_names_its_vertex_from_the_seeds_and_builds_no_whole_row(corpus):
    # a corpus document and large-clean's first, each with the last level-3 seed given the last level-2 vertex it
    # lacks: the counterexample names that vertex from the seeds' level-0 runs, so verify rebuilds no whole row, and
    # the message and every name are those the whole rows give
    for g, name in ((corpus[7], "L3:"), (random_connected_graph(random.Random(7), 14, 0.5), "L3:v08")):
        result = run_series(g, OperatorKind.CLEAN)
        doc, m = build_document(result, graph_content_hash(g)), result.final
        x, down = m._level_range(3)[-1] - len(m.levels[0]), list(doc.down)
        down[x] = tuple(sorted(down[x] + (max(set(m._level_range(2)) - set(down[x])),)))
        t = document_to_multipartite(parse_document(to_json(replace(doc, down=tuple(down)))))
        expected = f"level 3, vertex {name!r}: no 2-element chain predicts its lower neighbourhood"
        assert verify_bijection(g, t) == VerificationReport(False, expected) and t._full is None
        assert t.vertices == names_from_whole_rows(t)


@st.composite
def small_graphs(draw) -> Graph:
    """Graphs of 1 to 9 vertices, each edge drawn."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 9)))]
    pairs = list(itertools.combinations(vs, 2))
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(vs, [p for p, keep in zip(pairs, flags) if keep])


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_tampered_small_decompositions_fail_with_the_reference(g, rng):
    m = run_series(g, OperatorKind.CLEAN).final
    assert verify_bijection(g, m).passed and verify_neighbourhood_formula(m).passed
    if m.level_count >= 3:
        for t in tampered(m, rng, 1, []):
            assert_fails_with_the_reference(g, m, t)


@st.composite
def multipartite_graphs(draw) -> MultipartiteGraph:
    """3 to 6 levels of 1 to 4 vertices (2 to 4 below the top), as a document holds them: each level-1 row and each
    seed above, of two or more vertices of the level below, present with one drawn probability."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=5)) + [draw(st.integers(1, 4))]
    p = draw(st.floats(0.3, 0.9))
    rng = draw(st.randoms(use_true_random=False))
    levels = [[f"{li}.{i}" for i in range(size)] for li, size in enumerate(sizes)]
    start = list(itertools.accumulate([0] + sizes))
    rows = []
    for k in range(1, len(levels)):
        for _ in levels[k]:
            row = [j for j in range(start[k - 1], start[k]) if rng.random() < p]
            rows.append(tuple(row if k == 1 or len(row) >= 2 else range(start[k - 1], start[k - 1] + 2)))
    return MultipartiteGraph._from_rows(tuple(map(tuple, levels)), rows)


@settings(max_examples=300, deadline=None)
@given(multipartite_graphs())
def test_neighbourhood_formula_matches_the_reference_on_arbitrary_graphs(m):
    # the walk also needs one vertex per chain, so it may fail where the reference passes, never the other way
    if verify_neighbourhood_formula(m).passed:
        assert reference_verify_neighbourhood_formula(m).passed


def test_each_graph_is_paired_once(monkeypatch, corpus, tmp_path, capsys):
    calls = []
    walk = oracle._pair

    def counted(m):
        calls.append(m.level_count)
        return walk(m)

    monkeypatch.setattr(oracle, "_pair", counted)
    g = max(corpus[:60], key=lambda g: run_series(g, OperatorKind.CLEAN).steps)
    result = run_series(g, OperatorKind.CLEAN)
    final = result.final
    assert final.level_count >= 5
    graph_path, doc_path = tmp_path / "g.txt", tmp_path / "d.json"
    graph_path.write_text(format_edge_list(g), encoding="utf-8")
    calls.clear()
    # decompose runs no check
    assert cli_main(["decompose", "--operator", "clean", "--input", str(graph_path), "--output", str(doc_path)]) == 0
    assert calls == []
    assert cli_main(["verify", "--decomposition", str(doc_path), "--input", str(graph_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # both checks of the one decoded graph read one pairing
    assert calls == [final.level_count]

    # neither the writer nor the sequences walk; the first check does, and the second reads its result
    calls.clear()
    assert write_decomposition(result, graph_content_hash(g)) == doc_path.read_text(encoding="ascii")
    for x in itertools.chain.from_iterable(final.levels[2:]):
        characterising_sequence(final, x)
    assert calls == []
    assert verify_bijection(g, final).passed and verify_neighbourhood_formula(final).passed
    assert calls == [final.level_count]

    # graphs derived from one whose pairing is stored walk their own
    top = set(final.levels[-1])
    # final without its top level, in final's index order
    lower = MultipartiteGraph._from_rows(final._levels[:-1], final._idx[len(final.levels[0]) : -len(top)])
    below = in_order_of(lower, [e for e in final.edges() if e[1] not in top])
    # a document holds its generated levels as sizes, so it is written from lower, whose levels are generated
    below_run = SeriesResult(lower, SeriesStatus.TERMINATED, lower.level_count - 2, (), OperatorKind.CLEAN)
    calls.clear()
    assert not verify_bijection(g, below).passed and verify_neighbourhood_formula(below).passed
    adj = Neighbours(final)
    derived = [
        below.append_level([(x, adj(x)) for x in final.levels[-1]]),
        factorise(below, OperatorKind.CLEAN).graph,
        document_to_multipartite(build_document(below_run, "")),
        MultipartiteGraph._from_rows(below._levels, below._idx[len(below.levels[0]) :]),
    ]
    assert calls == [below.level_count]
    for m in derived:
        fresh = in_order_of(m, m.edges())
        assert m == fresh
        calls.clear()
        reports = (verify_bijection(g, m), verify_neighbourhood_formula(m))
        assert calls == [m.level_count]
        assert reports == (verify_bijection(g, fresh), verify_neighbourhood_formula(fresh))
        for x in itertools.chain.from_iterable(m.levels[2:]):
            assert characterising_sequence(m, x) == characterising_sequence(fresh, x)
    assert derived[0] == derived[1] == final
    assert derived[2] == derived[3] == below


def test_each_input_graph_enumerates_its_cliques_once(monkeypatch, corpus, tmp_path, capsys):
    # a copy, since other tests verify the corpus graphs and so fill their stored cliques
    g = max(corpus[:60], key=lambda g: len(maximal_cliques(g)))
    g, n = Graph(g.vertices, g.edges()), len(g)
    calls = []
    enumerate_cliques = cliques._clique_masks

    def counted(adj):
        calls.append(len(adj))
        return enumerate_cliques(adj)

    # the oracle imports the function by name, so both modules' references are counted
    monkeypatch.setattr(cliques, "_clique_masks", counted)
    monkeypatch.setattr(oracle, "_clique_masks", counted)
    graph_path, doc_path = tmp_path / "g.txt", tmp_path / "d.json"
    graph_path.write_text(format_edge_list(g), encoding="utf-8")
    assert cli_main(["decompose", "--operator", "clean", "--input", str(graph_path), "--output", str(doc_path)]) == 0
    assert calls == [n]
    calls.clear()
    assert cli_main(["verify", "--decomposition", str(doc_path), "--input", str(graph_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # the bijection and size-bound checks read one enumeration
    assert calls == [n]

    # decomposing enumerates without keeping the cliques, so the oracle's first check still enumerates
    calls.clear()
    result = run_series(g, OperatorKind.CLEAN)
    vertex_clique_incidence(g)
    assert calls == [n, n] and g._cliques is None
    calls.clear()
    assert verify_bijection(g, result.final).passed
    assert size_bound(g).holds and size_bound(g, series=result).holds
    assert calls == [n]
    # nor does decomposing read the kept cliques
    maximal_cliques(g)
    vertex_clique_incidence(g)
    assert calls == [n, n, n]

    # the kept cliques take no part in equality or hashing
    for fresh in (Graph(g.vertices, g.edges()), Graph._from_rows(g.vertices, g._adj)):
        assert fresh._cliques is None and g._cliques is not None
        assert fresh == g and hash(fresh) == hash(g)


def test_intersection_family_reads_the_kept_cliques(monkeypatch, g3):
    calls = []
    enumerate_cliques = cliques._clique_masks
    monkeypatch.setattr(oracle, "_clique_masks", lambda adj: calls.append(len(adj)) or enumerate_cliques(adj))
    # whichever oracle function runs first, the graph is enumerated once
    g = Graph(g3.vertices, g3.edges())
    family = intersection_family(g)
    assert size_bound(g).holds and verify_bijection(g, run_series(g, OperatorKind.CLEAN).final).passed
    assert intersection_family(g) == family and calls == [len(g)]
