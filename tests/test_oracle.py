"""Clique intersections, chains, sequences, and the decomposition checks."""

import itertools
import random
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanfactor import (
    CharacterisingSequence,
    Graph,
    IntersectionPoset,
    InvalidArgumentError,
    MultipartiteGraph,
    OperatorKind,
    SeriesResult,
    SeriesStatus,
    VerificationReport,
    build_document,
    chains_of_length,
    characterising_sequence,
    cli_main,
    cliques_containing,
    document_to_multipartite,
    factorise,
    format_edge_list,
    graph_content_hash,
    intersection_family,
    maximal_cliques,
    run_series,
    size_bound,
    verify_bijection,
    verify_neighbourhood_formula,
    vertex_clique_incidence,
    write_decomposition,
)
from cleanfactor import oracle

from bruteforce import subset_chains, subset_intersections
from conftest import random_connected_graph, random_graph
from reference_oracle import reference_verify_bijection, reference_verify_neighbourhood_formula


def fs(*labels: str) -> frozenset[str]:
    return frozenset(labels)


def test_intersection_family_fixed_instances(triangle, g2, g3):
    assert intersection_family(triangle).nonsimple == frozenset()
    assert intersection_family(g2).nonsimple == {fs("b", "c")}
    assert intersection_family(g3).nonsimple == {fs("1", "2"), fs("1", "2", "3")}


def test_intersection_family_matches_subset_oracle():
    rng = random.Random(271828)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7]))
        fam = intersection_family(g)
        oracle_all, oracle_nonsimple = subset_intersections(g)
        assert fam.all_intersections == oracle_all
        assert fam.nonsimple == oracle_nonsimple


def test_intersection_family_invariants(g3):
    fam = intersection_family(g3)
    assert fam.nonsimple <= fam.all_intersections
    assert all(len(o) >= 2 for o in fam.nonsimple)
    assert frozenset(g3.vertices) in fam.all_intersections


def test_cliques_containing(g2, g3):
    assert cliques_containing(g2, []) == set(maximal_cliques(g2).cliques)
    assert cliques_containing(g2, ["b", "c"]) == {fs("a", "b", "c"), fs("b", "c", "d")}
    assert cliques_containing(g3, ["1", "2", "3"]) == {
        fs("1", "2", "3", "4"),
        fs("1", "2", "3", "5"),
    }
    with pytest.raises(InvalidArgumentError):
        cliques_containing(g2, ["nope"])


def test_families_closed_under_intersection():
    # both the intersection family and its clique-set image are closed under
    # pairwise intersection
    rng = random.Random(161803)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), rng.choice([0.3, 0.5, 0.7]))
        fam = intersection_family(g)
        for a, b in itertools.combinations(fam.all_intersections, 2):
            assert a & b in fam.all_intersections
        images = {cliques_containing(g, o) for o in fam.all_intersections}
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
    for o in intersection_family(g).all_intersections:
        if cliques_containing(g, o) <= cliques_containing(g, a):
            assert a <= o


def test_chains_fixed_instances(g3):
    empty = IntersectionPoset([])
    assert chains_of_length(empty, 1) == set()
    assert chains_of_length(empty, 3) == set()

    poset = IntersectionPoset(intersection_family(g3).nonsimple)
    one = {c.sets for c in chains_of_length(poset, 1)}
    assert one == {(fs("1", "2"),), (fs("1", "2", "3"),)}
    two = {c.sets for c in chains_of_length(poset, 2)}
    assert two == {(fs("1", "2"), fs("1", "2", "3"))}
    assert chains_of_length(poset, 3) == set()
    assert poset.chain_count(1) == 2 and poset.chain_count(2) == 1 and poset.chain_count(3) == 0


def test_chains_of_an_antichain():
    poset = IntersectionPoset([fs("a", "b"), fs("c", "d"), fs("e", "f")])
    assert chains_of_length(poset, 2) == set()
    assert poset.height() == 1


def test_chains_match_subset_oracle():
    rng = random.Random(5150)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.4, 0.6, 0.8]))
        elements = intersection_family(g).nonsimple
        poset = IntersectionPoset(elements)
        for m in range(1, 5):
            expected = subset_chains(set(elements), m)
            got = {c.sets for c in chains_of_length(poset, m)}
            assert got == expected
            assert poset.chain_count(m) == len(expected)


def test_chain_length_validation():
    poset = IntersectionPoset([])
    with pytest.raises(InvalidArgumentError):
        chains_of_length(poset, 0)
    with pytest.raises(InvalidArgumentError):
        poset.chain_count(-1)


def test_characterising_sequence_fixed_instances(g2, g3):
    m2 = run_series(g2, OperatorKind.CLEAN).final
    (x2,) = m2.levels[2]
    assert characterising_sequence(m2, x2).sets == (fs("b", "c"),)

    m3 = run_series(g3, OperatorKind.CLEAN).final
    (x3,) = m3.levels[3]
    assert characterising_sequence(m3, x3).sets == (fs("1", "2"), fs("1", "2", "3"))


def test_level2_sequence_is_the_bottom_neighbourhood():
    rng = random.Random(909)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.4, 0.6, 0.8]))
        m = run_series(g, OperatorKind.CLEAN).final
        if m.level_count < 3:
            continue
        for x in m.levels[2]:
            assert characterising_sequence(m, x).sets == (m.neighbourhood_at_level(x, 0),)


def test_characterising_sequence_validation(g2):
    m = run_series(g2, OperatorKind.CLEAN).final
    with pytest.raises(InvalidArgumentError):
        characterising_sequence(m, "b")
    with pytest.raises(InvalidArgumentError):
        characterising_sequence(m, "K:a,b,c")
    with pytest.raises(InvalidArgumentError):
        characterising_sequence(m, "ghost")
    assert not CharacterisingSequence((fs("a", "b"), fs("a", "b"))).is_strict_chain()


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
    assert m.neighbourhood_at_level(x, 2) == frozenset(m.levels[2])


def test_verify_neighbourhood_formula_detects_tampering(g2):
    # dropping a clique/decomposition edge breaks the containing-cliques
    # check while leaving the sequences themselves intact
    m = run_series(g2, OperatorKind.CLEAN).final
    (x,) = m.levels[2]
    removed = ("K:a,b,c", x)
    edges = [e for e in m.edges() if e != removed]
    assert len(edges) == m.edge_count() - 1
    tampered = MultipartiteGraph(m.levels, edges)
    assert not verify_neighbourhood_formula(tampered).passed


def test_agreement_check_fails_first_when_only_a_lower_level_differs():
    # x and xp share their level-2 neighbourhood {y} and pass the
    # containing-cliques and window checks, but differ on level 0
    levels = [["a", "b", "c"], ["c1"], ["y"], ["z"], ["x", "xp"]]
    below = {
        "c1": "a b c",
        "y": "a b c c1",
        "z": "a b c c1 y",
        "x": "a c1 y",
        "xp": "a b c1 y",
    }
    m = MultipartiteGraph(levels, [(u, v) for v, us in below.items() for u in us.split()])
    expected = "level 4: 'x' and 'xp' agree on level 2 but differ on level 0: {a} vs {a,b}"
    assert verify_neighbourhood_formula(m) == VerificationReport(passed=False, counterexample=expected)
    assert reference_verify_neighbourhood_formula(m) == verify_neighbourhood_formula(m)


def test_verify_bijection_detects_tampering(g2):
    # dropping a bottom edge shrinks the vertex's sequence below two
    # vertices, which is no non-simple intersection
    m = run_series(g2, OperatorKind.CLEAN).final
    (x,) = m.levels[2]
    removed = ("b", x)
    edges = [e for e in m.edges() if e != removed]
    assert len(edges) == m.edge_count() - 1
    tampered = MultipartiteGraph(m.levels, edges)
    report = verify_bijection(g2, tampered)
    assert not report.passed and report.counterexample


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
        assert sb.k == max(sum(v in clique for clique in family) for v in g.vertices)
        assert sb.c == max(map(len, family))
    with pytest.raises(InvalidArgumentError):
        size_bound(Graph([]))


def test_poset_height_is_bounded_by_n_minus_2():
    rng = random.Random(627)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.4, 0.6, 0.8]))
        poset = IntersectionPoset(intersection_family(g).nonsimple)
        assert poset.height() <= max(len(g) - 2, 0)


def tampered(m: MultipartiteGraph, rng: random.Random, rounds: int) -> Iterator[MultipartiteGraph]:
    """Copies of ``m`` with one change each, ``rounds`` of every kind.

    The kinds: one edge deleted (its level pair drawn first, so that the
    sparse pairs are hit too), one edge added between two levels, and one
    vertex of level >= 2 deleted with its edges; last, the top level
    deleted.
    """
    edges = list(m.edges())
    present = set(edges)
    by_pair: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for a, b in edges:
        by_pair.setdefault((m.level_of(a), m.level_of(b)), []).append((a, b))
    pairs = sorted(by_pair)
    for _ in range(rounds):
        gone = rng.choice(by_pair[rng.choice(pairs)])
        yield MultipartiteGraph(m.levels, [e for e in edges if e != gone])
        while True:
            i, j = sorted(rng.sample(range(m.level_count), 2))
            extra = (rng.choice(m.levels[i]), rng.choice(m.levels[j]))
            if extra not in present:
                break
        yield MultipartiteGraph(m.levels, edges + [extra])
        k = rng.randrange(2, m.level_count)
        if len(m.levels[k]) > 1:
            x = rng.choice(m.levels[k])
            yield MultipartiteGraph([[v for v in level if v != x] for level in m.levels], [e for e in edges if x not in e])
    top = set(m.levels[-1])
    yield MultipartiteGraph(m.levels[:-1], [e for e in edges if e[1] not in top])


COUNTEREXAMPLES = (
    "level 1 does not match",
    "is not strictly increasing",
    "is not a non-simple clique intersection",
    "share the sequence",
    "is attained by no vertex",
    "series is not terminated",
    "cliques containing",
    "neighbourhood: expected",
)


def test_checks_match_the_reference_on_tampered_decompositions(clean_runs):
    rng = random.Random(0x7A3B)
    runs, _ = clean_runs
    cases = [(g, result.final) for g, result in rng.sample(runs, 120)]
    shapes = ((14, 0.5), (16, 0.5), (18, 0.5), (20, 0.5), (16, 0.7))
    large_rng = random.Random(7)
    for n, p in shapes:
        g = random_connected_graph(large_rng, n, p)
        cases.append((g, run_series(g, OperatorKind.CLEAN).final))

    seen = set()
    checked = 0
    for g, m in cases:
        if m.level_count < 3:
            continue
        assert verify_bijection(g, m) == reference_verify_bijection(g, m)
        for t in tampered(m, rng, rounds=2 if len(g) <= 12 else 1):
            bijection = verify_bijection(g, t)
            formula = verify_neighbourhood_formula(t)
            assert bijection == reference_verify_bijection(g, t)
            assert formula == reference_verify_neighbourhood_formula(t)
            assert not (bijection.passed and formula.passed)
            for report in (bijection, formula):
                seen.update(c for c in COUNTEREXAMPLES if c in (report.counterexample or ""))
            checked += 1
    assert checked >= 500
    assert seen == set(COUNTEREXAMPLES)


@st.composite
def multipartite_graphs(draw) -> MultipartiteGraph:
    """3 to 6 levels of 1 to 4 vertices, each cross-level edge present with one drawn probability."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=3, max_size=6))
    p = draw(st.floats(0.3, 0.9))
    rng = draw(st.randoms(use_true_random=False))
    levels = [[f"{li}.{i}" for i in range(size)] for li, size in enumerate(sizes)]
    pairs = [(u, v) for lower, upper in itertools.combinations(levels, 2) for u in lower for v in upper]
    return MultipartiteGraph(levels, [e for e in pairs if rng.random() < p])


@settings(max_examples=300, deadline=None)
@given(multipartite_graphs())
def test_neighbourhood_formula_matches_the_reference_on_arbitrary_graphs(m):
    assert verify_neighbourhood_formula(m) == reference_verify_neighbourhood_formula(m)


def test_each_graph_computes_its_sequences_once(monkeypatch, corpus, tmp_path, capsys):
    calls = []
    compute = oracle._compute_sequences

    def counted(m):
        calls.append(m.level_count)
        return compute(m)

    monkeypatch.setattr(oracle, "_compute_sequences", counted)
    g = max(corpus[:60], key=lambda g: run_series(g, OperatorKind.CLEAN).steps)
    result = run_series(g, OperatorKind.CLEAN)
    final = result.final
    assert final.level_count >= 5
    graph_path, doc_path = tmp_path / "g.txt", tmp_path / "d.json"
    graph_path.write_text(format_edge_list(g), encoding="utf-8")
    doc_path.write_text(write_decomposition(result, graph_content_hash(g)), encoding="ascii")
    calls.clear()
    assert cli_main(["verify", "--decomposition", str(doc_path), "--input", str(graph_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert calls == [final.level_count]

    # the writer filled the final graph's table, and per-vertex sequences read it
    calls.clear()
    for x in itertools.chain.from_iterable(final.levels[2:]):
        characterising_sequence(final, x)
    assert calls == []

    # graphs derived from one whose sequences are filled compute their own
    top = set(final.levels[-1])
    below = MultipartiteGraph(final.levels[:-1], [e for e in final.edges() if e[1] not in top])
    below_run = SeriesResult(below, SeriesStatus.TERMINATED, below.level_count - 2, (), OperatorKind.CLEAN)
    calls.clear()
    oracle._sequence_masks(below)
    derived = [
        below.append_level([(x, final.neighbourhood(x)) for x in final.levels[-1]]),
        factorise(below, OperatorKind.CLEAN).graph,
        document_to_multipartite(build_document(below_run, "")),
    ]
    assert calls == [below.level_count]
    for m in derived:
        fresh = MultipartiteGraph(m.levels, m.edges())
        assert m == fresh
        for x in itertools.chain.from_iterable(m.levels[2:]):
            assert characterising_sequence(m, x) == characterising_sequence(fresh, x)
        assert verify_bijection(g, m) == verify_bijection(g, fresh)
        assert verify_neighbourhood_formula(m) == verify_neighbourhood_formula(fresh)
    assert derived[0] == derived[1] == final
    assert verify_bijection(g, final).passed and verify_neighbourhood_formula(final).passed
