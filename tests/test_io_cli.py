"""Edge-list parsing, document round trips, and the command line."""

import contextlib
import hashlib
import importlib
import inspect
import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cleanfactor import (
    DecompositionDocument,
    DocumentFormatError,
    EdgeListParseError,
    Graph,
    InvalidArgumentError,
    MultipartiteGraph,
    OperatorKind,
    SeriesResult,
    SeriesStatus,
    anti_matching,
    build_document,
    characterising_sequence,
    cli_main,
    document_to_multipartite,
    factorise,
    format_edge_list,
    graph_content_hash,
    parse_document,
    read_document,
    read_edge_list,
    reconstruct_graph,
    run_series,
    run_series_from_bipartite,
    to_dot,
    to_json,
    verify_document_fields,
    vertex_clique_incidence,
    write_decomposition,
)
import cleanfactor.cli
import cleanfactor.io
from cleanfactor.io import _coded, _down_problem, _first_fault
from conftest import make_g2, make_g3, random_connected_graph, run_cli
from reference_graphs import Neighbours
from reference_io import (
    reference_decode_down,
    reference_decode_level,
    reference_encode_down,
    reference_encode_level,
    reference_encode_row,
    reference_parse_v8,
    reference_read_edge_list,
    reference_rebuild,
    reference_row_fault,
    with_rows,
)
from reference_oracle import reference_sequence

G2_TEXT = "a b\na c\nb c\nb d\nc d\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def decomposition_text(g, op=OperatorKind.CLEAN):
    return write_decomposition(run_series(g, op), graph_content_hash(g))


@dataclass(frozen=True)
class RowEdit:
    """An edit of one down row, as its indexes, which ``edited`` applies at ``("down", t)``."""

    make: Callable[[list[int]], list[int]]


def row_edit(edit):
    """An edit of a stored down row: ``edited`` decodes the document's rows, applies ``edit`` to the row's indexes,
    or puts the list ``edit`` in their place, and codes every row again as the writer would, so that the next row's
    first gap still gives its own first index."""
    return RowEdit(edit if callable(edit) else lambda row: edit)


def test_read_edge_list_triangle(tmp_path):
    path = write(tmp_path, "t.txt", "a b\nb c\na c\n")
    assert read_edge_list(path) == Graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def test_read_edge_list_comments_and_duplicates(tmp_path):
    path = write(tmp_path, "d.txt", "# comment\n\na b\na b\nb a\n")
    g = read_edge_list(path)
    assert g.edges() == (("a", "b"),)


def test_read_edge_list_isolated_vertex(tmp_path):
    path = write(tmp_path, "i.txt", "a b\nz\n")
    g = read_edge_list(path)
    assert "z" in g and g.degree("z") == 0


def test_read_edge_list_errors(tmp_path):
    with pytest.raises(InvalidArgumentError):
        read_edge_list(write(tmp_path, "loop.txt", "a a\n"))
    with pytest.raises(EdgeListParseError) as err:
        read_edge_list(write(tmp_path, "bad.txt", "a b\nx y z\n"))
    assert err.value.line == 2
    with pytest.raises(InvalidArgumentError):
        read_edge_list(write(tmp_path, "empty.txt", "# nothing\n"))




def test_document_shape_triangle(triangle):
    doc = build_document(run_series(triangle, OperatorKind.CLEAN), graph_content_hash(triangle))
    assert doc.levels == (("a", "b", "c"), 1)
    assert doc.down == ((0, 1, 2),)
    assert doc.status == "terminated" and doc.operator == "clean"
    assert document_to_multipartite(doc).levels[1] == ("K:a,b,c",)


def test_document_shape_g2():
    g = make_g2()
    doc = build_document(run_series(g, OperatorKind.CLEAN), graph_content_hash(g))
    # the generated levels are their sizes: the graph names their vertices from their rows, and the row above level 1
    # is held as its seed, the two cliques
    assert doc.levels == (("a", "b", "c", "d"), 2, 1)
    assert doc.down == ((0, 1, 2), (1, 2, 3), (4, 5))
    m = document_to_multipartite(doc)
    assert m.levels == (("a", "b", "c", "d"), ("K:a,b,c", "K:b,c,d"), ("L2:b,c",))
    # the one sequence, ({b, c}), is not stored: the library recovers it from the graph
    assert characterising_sequence(m, "L2:b,c") == (frozenset("bc"),)


def test_generated_levels_are_in_row_order():
    # G3's level 2: L2:1,2,3 (seed 6,7) comes before L2:1,2 (seed 6,7,8), against label order; each generated level
    # is in the order of its stored rows, seeds above level 1
    m = document_to_multipartite(parse_document(decomposition_text(make_g3())))
    assert m.levels[2] == ("L2:1,2,3", "L2:1,2")
    for k in range(1, m.level_count):
        rows = m._idx[m._level_range(k).start : m._level_range(k).stop]
        assert list(rows) == sorted(set(rows))


def test_a_generated_level_indexes_slices_and_hashes_as_the_tuple_of_its_names():
    m = run_series(make_g3(), OperatorKind.CLEAN).final
    for level in m.levels[1:]:
        names = tuple(level)
        assert [level[i] for i in range(-len(names), len(names))] == list(names + names)
        for part in (slice(None), slice(1, None), slice(None, None, -1), slice(-1, None), slice(5, 9)):
            assert level[part] == names[part]
        assert hash(level) == hash(names) and {names: True}[level]
        with pytest.raises(IndexError):
            level[len(names)]


# a row above level 1 is stored as its seed, its indexes on the level below; each row as its first index less the
# previous row's on its level, then its gaps: G3's level-2 seeds [6, 7] and [6, 7, 8] are [6,1] and [0,1,1]
G2_GOLDEN = (
    '{"down":[[0,1,1],[1,1,1],[4,1]],"format_version":8,"levels":[["a","b","c","d"],2,1],"operator":"clean",'
    '"source_hash":"sha256:9970d400b34ce5f898538d86e881d67f8fc872f293e0c3786ff39d7d4d2da7c1","status":"terminated"}\n'
)
G3_GOLDEN = (
    '{"down":[[0,1,1,1],[0,1,1,2],[0,1,4],[6,1],[0,1,1],[9,1]],'
    '"format_version":8,"levels":[["1","2","3","4","5","6"],3,2,1],"operator":"clean",'
    '"source_hash":"sha256:6fa31bd095ab454ebfba77659ff7408909733029efa4bdcf954e99258a1a4ba8","status":"terminated"}\n'
)
# G2 in format 7, which had the same bytes but for its version: it wrote each row's first index whole
G2_FORMAT_7 = G2_GOLDEN.replace('"format_version":8', '"format_version":7')
# G2 in format 6, the same bytes again: it ordered a generated level by its whole rows and rebuilt them on read
G2_FORMAT_6 = G2_GOLDEN.replace('"format_version":8', '"format_version":6')
# G2 in format 5, which stored each index whole
G2_FORMAT_5 = (
    '{"down":[[0,1,2],[1,2,3],[4,5]],"format_version":5,"levels":[["a","b","c","d"],2,1],"operator":"clean",'
    '"source_hash":"sha256:9970d400b34ce5f898538d86e881d67f8fc872f293e0c3786ff39d7d4d2da7c1","status":"terminated"}\n'
)
# G2 in format 4, which stored every row whole
G2_FORMAT_4 = (
    '{"down":[[0,1,2],[1,2,3],[1,2,4,5]],"format_version":4,"levels":[["a","b","c","d"],2,1],"operator":"clean",'
    '"source_hash":"sha256:9970d400b34ce5f898538d86e881d67f8fc872f293e0c3786ff39d7d4d2da7c1","status":"terminated"}\n'
)
# G2 in format 3, which also stored every generated label, each level in label order
G2_FORMAT_3 = (
    '{"down":[[0,1,2],[1,2,3],[1,2,4,5]],"format_version":3,'
    '"levels":[["a","b","c","d"],["K:a,b,c","K:b,c,d"],["L2:b,c"]],"operator":"clean",'
    '"source_hash":"sha256:9970d400b34ce5f898538d86e881d67f8fc872f293e0c3786ff39d7d4d2da7c1","status":"terminated"}\n'
)
# G2 in format 2, which also stored every vertex's sequence, in ``elements`` and ``sequences``
G2_FORMAT_2 = (
    '{"down":[[0,1,2],[1,2,3],[1,2,4,5]],"elements":[[1,2]],"format_version":2,'
    '"levels":[["a","b","c","d"],["K:a,b,c","K:b,c,d"],["L2:a,b,c,d"]],"operator":"clean","sequences":[[0]],'
    '"source_hash":"sha256:9970d400b34ce5f898538d86e881d67f8fc872f293e0c3786ff39d7d4d2da7c1","status":"terminated"}\n'
)

# G2 in format 1, which named every vertex by its label in an id-and-label record, stored each sequence as label lists
# and each edge as a pair of labels, and was indented; the reader refuses it by its version, whatever its spacing
G2_FORMAT_1 = (
    '{"edges":[["K:a,b,c","L2:b,c"],["K:b,c,d","L2:b,c"],["a","K:a,b,c"],["b","K:a,b,c"],["b","K:b,c,d"],'
    '["b","L2:b,c"],["c","K:a,b,c"],["c","K:b,c,d"],["c","L2:b,c"],["d","K:b,c,d"]],"format_version":1,"levels":['
    '{"index":0,"vertices":[{"id":"a","label":"a"},{"id":"b","label":"b"},{"id":"c","label":"c"},'
    '{"id":"d","label":"d"}]},'
    '{"index":1,"vertices":[{"id":"K:a,b,c","label":"K:a,b,c"},{"id":"K:b,c,d","label":"K:b,c,d"}]},'
    '{"index":2,"vertices":[{"id":"L2:b,c","label":"L2:b,c","sequence":[["b","c"]]}]}],"operator":"clean",'
    '"source_hash":"sha256:9970d400b34ce5f898538d86e881d67f8fc872f293e0c3786ff39d7d4d2da7c1","status":"terminated"}\n'
)


@pytest.mark.parametrize("make, golden", [(make_g2, G2_GOLDEN), (make_g3, G3_GOLDEN)], ids=["G2", "G3"])
def test_golden_bytes(make, golden):
    assert decomposition_text(make()) == golden


@pytest.mark.parametrize(
    "op, digest",
    [
        (OperatorKind.WEAK, "0877b862e943007b165dec3afe411c149f5932827910e548bf9d428affd52d3d"),
        (OperatorKind.FACTOR, "06e5b0c91fd34025edf9da2e658ea4f34d15dfce26cdf3e448844fbcc90af84c"),
    ],
    ids=["weak", "factor"],
)
def test_golden_digests_of_weak_and_factor(op, digest):
    # on G2 and G3 weak and factor give the clean levels; here weak tests no card level and factor one
    g = random_connected_graph(random.Random(7), 10, 0.6)
    result = run_series(g, op, 5)
    assert result.status is SeriesStatus.BUDGET_EXCEEDED
    text = write_decomposition(result, graph_content_hash(g))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_serialization_is_byte_deterministic():
    g = make_g3()
    assert decomposition_text(g) == decomposition_text(g)


def test_reserializing_a_parsed_document_is_byte_identical():
    text = decomposition_text(make_g2())
    assert to_json(parse_document(text)) == text


@pytest.mark.parametrize(
    "rows, stored",
    [
        # u's row [1, 2] before v's [0, 1]: level 1 is in label order, so v's first gap is negative
        ({"u": "bc", "v": "ab"}, [[1, 1], [-1, 1]]),
        # v has no lower neighbour: its row carries no first index, and w's first gap counts from u's first index
        ({"u": "ab", "v": "", "w": "bc"}, [[0, 1], [], [1, 1]]),
    ],
    ids=["negative-first-gap", "empty-row"],
)
def test_a_bipartite_start_round_trips_whatever_its_level_1_rows(rows, stored):
    h = MultipartiteGraph([["a", "b", "c"], list(rows)], [(x, u) for u, row in rows.items() for x in row])
    result = run_series_from_bipartite(h, OperatorKind.CLEAN)
    text = write_decomposition(result, "h")
    payload = json.loads(text)
    assert payload["levels"][1] == list(rows) and payload["down"][: len(rows)] == stored
    doc = parse_document(text)
    assert doc == build_document(result, "h") == reference_parse_v8(text) and to_json(doc) == text
    assert document_to_multipartite(doc) == result.final


def test_a_tampered_first_gap_is_refused_at_the_first_row_at_fault():
    # fresh Random(7) (12, .7), levels 12, 12, 33, 108, 116, 40: the first gap of a row in the middle of level 3
    # shifts that row and every later first index on the level. Raised by one, the first of them whose last index
    # was the last vertex of level 2 reaches level 3; lowered past level 2, the row itself leaves it
    payload = json.loads(decomposition_text(random_connected_graph(random.Random(7), 12, 0.7)))
    sizes = [len(payload["levels"][0])] + payload["levels"][1:]
    start, limit = sum(sizes[1:3]), sum(sizes[:3])  # level 3's first row in down, and its first vertex
    t = start + sizes[3] // 2
    rows = reference_decode_down(payload["levels"], payload["down"])
    at_fault = next(i for i in range(t, start + sizes[3]) if rows[i][-1] == limit - 1)
    assert at_fault > t
    for shift, i, problem in ((1, at_fault, f"index {limit} is not on a lower level"),
                              (-rows[t][0], t, "index 0 is not on the level below")):
        tampered = json.loads(json.dumps(payload))
        tampered["down"][t][0] += shift
        text = json.dumps(tampered)
        message = f"down row of vertex {sizes[0] + i} on level 3: {problem}"
        assert parsed(parse_document, text) == parsed(reference_parse_v8, text) == message


def assert_named_by_level0_neighbours(doc: DecompositionDocument) -> int:
    """Every vertex above level 1 of the decoded graph is ``L<k>:`` plus its level-0 neighbours' labels, read from
    its whole row, and the vertices of a level that share that base are, in seed order, the base, then ``#2``,
    ``#3``, ...; returns how many carry ``#n``."""
    level0, m = doc.levels[0], document_to_multipartite(doc)
    start = len(level0) + len(m.levels[1])
    suffixed = 0
    for k, level in enumerate(m.levels[2:], start=2):
        seen: dict[str, int] = {}
        for label, row in zip(level, m._whole()[start:]):
            base = f"L{k}:" + ",".join(level0[j] for j in row if j < len(level0))
            seen[base] = seen.get(base, 0) + 1
            assert label == (f"{base}#{seen[base]}" if seen[base] > 1 else base)
        suffixed += len(level) - len(seen)
        start += len(level)
    return suffixed


def test_corpus_documents_name_each_vertex_by_its_level0_neighbours(clean_runs):
    runs, _ = clean_runs
    suffixed = upper = 0
    for g, result in runs:
        doc = parse_document(write_decomposition(result, graph_content_hash(g)))
        suffixed += assert_named_by_level0_neighbours(doc)
        upper += sum(doc.levels[2:])
    # the README's figures
    assert (suffixed, upper) == (9643, 16261)


def test_vertices_without_level0_neighbours_are_named_by_their_level_alone():
    # the antimatching-factor workload's series: above level 2 most vertices meet no level-0 vertex
    empty = upper = 0
    for n in (3, 4, 5):
        result = run_series_from_bipartite(anti_matching(n), OperatorKind.FACTOR)
        text = write_decomposition(result, "")
        doc = parse_document(text)
        assert to_json(doc) == text
        assert document_to_multipartite(doc) == result.final
        assert_named_by_level0_neighbours(doc)
        for k, level in enumerate(document_to_multipartite(doc).levels[2:], start=2):
            empty += sum(re.fullmatch(rf"L{k}:(#[0-9]+)?", label) is not None for label in level)
            upper += len(level)
    assert (empty, upper) == (280, 426)


def test_json_keys_are_sorted():
    payload = json.loads(decomposition_text(make_g2()))
    assert list(payload) == sorted(payload)
    assert list(payload) == ["down", "format_version", "levels", "operator", "source_hash", "status"]


def test_reconstruct_graph_fixed_instances(triangle):
    for g in (triangle, make_g2(), make_g3()):
        doc = parse_document(decomposition_text(g))
        assert reconstruct_graph(doc) == g


def test_document_to_multipartite_round_trip():
    g = make_g3()
    result = run_series(g, OperatorKind.CLEAN)
    doc = parse_document(decomposition_text(g))
    assert document_to_multipartite(doc) == result.final


def test_parse_document_rejects_malformed_input():
    with pytest.raises(DocumentFormatError):
        parse_document("not json")
    with pytest.raises(DocumentFormatError):
        parse_document("{}")
    good = json.loads(decomposition_text(make_g2()))
    bad = dict(good, format_version=99)
    with pytest.raises(DocumentFormatError):
        parse_document(json.dumps(bad))
    bad = dict(good, down=good["down"][:-1] + [reference_encode_row([0, 99])])
    with pytest.raises(DocumentFormatError):
        parse_document(json.dumps(bad))


def assert_formats_agree(result, source_hash):
    """The document of ``result`` is ASCII, re-serialises to its own bytes, reads as ``reference_parse_v8`` reads it
    and decodes to ``result.final``.

    Against second implementations: the decoded graph has the labelled edges of the graph the constructor builds from
    the final levels and edges, compared as edges since the constructor keeps each level in label order, and
    ``characterising_sequence`` gives each vertex above level 1 the sequence ``reference_sequence`` reads from the
    final graph's labelled neighbourhoods.
    """
    final = result.final
    text = write_decomposition(result, source_hash)
    assert text.isascii()
    doc = parse_document(text)
    assert to_json(doc) == text
    assert reference_parse_v8(text) == doc
    m = document_to_multipartite(doc)
    reference = MultipartiteGraph([sorted(level) for level in final.levels], final.edges())
    assert [sorted(level) for level in m.levels] == [sorted(level) for level in reference.levels]
    assert m.edges() == reference.edges()
    adj = Neighbours(final)
    for x in itertools.chain.from_iterable(m.levels[2:]):
        assert characterising_sequence(m, x) == reference_sequence(final, adj, x)
    assert m == final


def test_codec_matches_the_reference_on_benchmark_documents(clean_runs):
    runs, _ = clean_runs
    rng = random.Random(7)
    large = [random_connected_graph(rng, n, p) for n, p in ((14, 0.5), (16, 0.5), (18, 0.5), (20, 0.5), (16, 0.7))]
    for g, result in runs + [(g, run_series(g, OperatorKind.CLEAN)) for g in large]:
        assert_formats_agree(result, graph_content_hash(g))
    for n in (3, 4, 5):
        h = anti_matching(n)
        result = run_series_from_bipartite(h, OperatorKind.FACTOR)
        assert_formats_agree(result, graph_content_hash(Graph(h.vertices, h.edges())))


@contextlib.contextmanager
def address_space_cap(headroom: int):
    """Cap this process's address space at its present size plus ``headroom`` bytes, and lift the cap after."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize() + headroom
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def series_of(start, op):
    """The series of a graph or of a bipartite start; weak and factor stop at four levels, under a 512 MiB cap."""
    run = run_series if isinstance(start, Graph) else run_series_from_bipartite
    with address_space_cap(512 << 20):
        return run(start, op, None if op is OperatorKind.CLEAN else 4)


def assert_rows_rebuild_from_their_seeds(result):
    """Every row above level 1 is held as its seed of two or more vertices on the level below, and its whole row is
    the seed plus the common neighbourhood of their rows, so the document, which stores the seed as the graph holds
    it, decodes to the graph and re-serialises to itself."""
    m = result.final
    whole = dict(enumerate(m._whole()))
    for k in range(2, m.level_count):
        lo = m._level_range(k - 1).start
        for i in m._level_range(k):
            seed = list(m._idx[i])
            assert len(seed) >= 2 and seed == [j for j in whole[i] if j >= lo]
            assert reference_rebuild(seed, whole) == whole[i]
    text = write_decomposition(result, "h")
    doc = parse_document(text)
    assert doc == build_document(result, "h") and document_to_multipartite(doc) == m and to_json(doc) == text


def test_corpus_rows_rebuild_from_their_seeds(clean_runs):
    # the first 100 corpus graphs: clean to the end, and those of at most 8 vertices weak and factor to four levels;
    # and the antimatching-factor workload's series from a bipartite start, to the end
    runs, _ = clean_runs
    for g, result in runs[:100]:
        assert_rows_rebuild_from_their_seeds(result)
        if len(g) <= 8:
            for op in (OperatorKind.WEAK, OperatorKind.FACTOR):
                assert_rows_rebuild_from_their_seeds(series_of(g, op))
    for n in (3, 4, 5):
        assert_rows_rebuild_from_their_seeds(run_series_from_bipartite(anti_matching(n), OperatorKind.FACTOR))


@st.composite
def small_starts(draw):
    """A graph of at most 8 vertices, or a bipartite start of at most 8 vertices in all."""
    if draw(st.booleans()):
        names = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
        pairs = list(itertools.combinations(names, 2))
        return Graph(names, draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else [])
    n = draw(st.integers(2, 8))
    n0 = draw(st.integers(1, n - 1))
    bottoms, uppers = [f"a{i}" for i in range(n0)], [f"z{j}" for j in range(n - n0)]
    pairs = [(a, z) for a in bottoms for z in uppers]
    return MultipartiteGraph((bottoms, uppers), draw(st.lists(st.sampled_from(pairs), max_size=16)))


@settings(max_examples=200, deadline=None)
@given(small_starts(), st.sampled_from(list(OperatorKind)))
def test_rows_rebuild_from_their_seeds(start, op):
    assert_rows_rebuild_from_their_seeds(series_of(start, op))


# quotes, escapes, control and non-ASCII characters, an astral character, and the generated label syntax
ADVERSARIAL = '"\\\n\x00é\U0001d11e,:#ab'
adversarial_labels = st.one_of(
    st.text(ADVERSARIAL, min_size=1, max_size=5),
    st.builds(str.__add__, st.sampled_from(["K:", "L2:"]), st.text(ADVERSARIAL, max_size=3)),
)


def unwritable(g):
    """Whether ``g`` holds something no edge list can express."""
    return (
        not g.vertices
        or any(v.split() != [v] for v in g.vertices)
        or any(u.startswith("#") and v.startswith("#") for u, v in g.edges())
        or any(v.startswith("#") and g.degree(v) == 0 for v in g.vertices)
    )


@st.composite
def adversarial_graphs(draw):
    labels = draw(st.lists(adversarial_labels, min_size=1, max_size=6, unique=True))
    pairs = list(itertools.combinations(labels, 2))
    return Graph(labels, draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else [])


@settings(max_examples=300, deadline=None)
@given(adversarial_graphs())
@example(Graph(["a", "b", "z"], [("a", "b")]))
@example(Graph([]))
@example(Graph(["y", "#x", "z"], [("y", "#x"), ("y", "z")]))
# a first line that starts with a byte-order mark
@example(Graph(["\ufeff", "a", "b"], [("a", "b")]))
@example(Graph(["\ufeffa", "\ufeffb"], [("\ufeffa", "\ufeffb")]))
def test_format_edge_list_round_trips(g):
    assert g.edges() == tuple(sorted(g.edges()))  # listed in index order, which is label order
    if unwritable(g):
        with pytest.raises(InvalidArgumentError):
            format_edge_list(g)
        return
    text = format_edge_list(g)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text, encoding="utf-8")
        assert read_edge_list(path) == g


@settings(max_examples=300, deadline=None)
@given(adversarial_graphs())
@example(Graph(["K:b", "b", "c", "d"], [("K:b", "c"), ("c", "d")]))  # the clique {b} is named K:b
@example(Graph(["a", "a,b", "b"], [("a", "b")]))  # the cliques {a, b} and {a,b}
@example(Graph(["\\", "\\,", ",", "#", "a#2"], [("\\", ","), ("\\,", "#"), ("#", "a#2"), (",", "a#2")]))
def test_every_edge_list_decomposes_verifies_and_reconstructs_to_itself(g):
    # no command names a generated vertex, so no label the user gives can stop one
    assume(not unwritable(g))
    with tempfile.TemporaryDirectory() as tmp:
        graph_path, doc_path = write(Path(tmp), "g.txt", format_edge_list(g)), str(Path(tmp) / "d.json")
        assert run_cli(["decompose", "--operator", "clean", "--input", graph_path, "--output", doc_path])[0] == 0
        code, out, err = run_cli(["verify", "--decomposition", doc_path, "--input", graph_path])
        assert (code, out.count(": ok"), err) == (0, 5, ""), out
        assert run_cli(["reconstruct", "--decomposition", doc_path]) == (0, format_edge_list(g), "")


@st.composite
def multipartite_runs(draw):
    """A finished run on a graph that a series can end with, its given labels adversarial.

    Level 0 is given, and so is level 1 where the series starts from a bipartite graph, with any edges between
    them; every level above is generated, its distinct rows held in order. A generated level 1 draws its rows over
    level 0; a level above draws seeds of two or more vertices on the level below and holds them, as a series does.
    """
    labels = draw(st.lists(adversarial_labels, min_size=2, max_size=10, unique=True))
    n0 = draw(st.integers(1, len(labels) - 1))
    pairs = [(u, v) for u in labels[:n0] for v in labels[n0:]]
    start = MultipartiteGraph([labels[:n0], labels[n0:]], draw(st.lists(st.sampled_from(pairs), max_size=12)))
    bipartite = draw(st.booleans())
    levels, idx = start._levels[: 1 + bipartite], start._idx[n0:] if bipartite else ()
    for _ in range(draw(st.integers(0 if bipartite else 1, 2))):
        below = n0 + len(idx)  # every vertex so far
        if len(levels) == 1:
            row = st.frozensets(st.integers(0, n0 - 1), max_size=4).map(sorted).map(tuple)
            rows = sorted(set(draw(st.lists(row, min_size=1, max_size=4))))
        else:
            lo = below - (levels[-1] if type(levels[-1]) is int else len(levels[-1]))
            if below - lo < 2:
                break
            seed = st.frozensets(st.integers(lo, below - 1), min_size=2, max_size=4).map(sorted).map(tuple)
            rows = sorted(set(draw(st.lists(seed, min_size=1, max_size=4))))
        levels, idx = levels + (len(rows),), idx + tuple(rows)
    m = MultipartiteGraph._from_rows(levels, idx)
    assume(named_apart(m))  # a given label that a generated name repeats is refused, as other tests show
    return SeriesResult(
        final=m,
        status=draw(st.sampled_from(list(SeriesStatus))),
        steps=m.level_count - 2,
        level_sizes=tuple(len(level) for level in m.levels),
        operator=draw(st.sampled_from(list(OperatorKind))),
    )


def named_apart(m):
    """Whether no two vertices of ``m`` share a name."""
    try:
        return bool(m.vertices)
    except InvalidArgumentError:
        return False


@settings(max_examples=300, deadline=None)
@given(multipartite_runs(), st.text(ADVERSARIAL))
def test_codec_matches_the_reference_on_adversarial_labels(result, source_hash):
    assert_formats_agree(result, source_hash)
    doc = parse_document(write_decomposition(result, source_hash))
    assert (doc.source_hash, doc.operator, doc.status) == (source_hash, result.operator.value, result.status.value)


def test_build_document_refuses_labels_above_level_1():
    # the constructor keeps every level's labels; a series generates each level above 1
    edges = [(u, v) for u in "ab" for v in "pqx"] + [("p", "x"), ("q", "x")]
    m = MultipartiteGraph([["a", "b"], ["p", "q"], ["x"]], edges)
    result = SeriesResult(m, SeriesStatus.TERMINATED, 1, (2, 2, 1), OperatorKind.WEAK)
    with pytest.raises(InvalidArgumentError, match="^level 2 lists labels, but a document holds labels on levels 0 and 1 only$"):
        build_document(result, "h")


def piece_document(rows: int) -> DecompositionDocument:
    """A well-formed document with ``rows`` varied down rows over three level-0 vertices."""
    cycle = ((0,), (1, 2), (0, 1, 2), (2,))
    return DecompositionDocument(
        8, "h", "clean", "terminated", (("a", "b", "c"), tuple(f"K:{i:04d}" for i in range(rows))),
        tuple(cycle[i % len(cycle)] for i in range(rows)),
    )


def written_rows(doc: DecompositionDocument) -> list[list[int]]:
    """``doc.down`` as the text holds it: each row as it stands, a seed above level 1, gap-coded from the previous
    row's first index on its level."""
    return reference_encode_down(list(doc.levels), doc.down)


def test_to_json_writes_empty_containers_like_json_dumps():
    # vertices without lower neighbours, an empty common neighbourhood; down rows around the writer's piece
    # boundaries; non-ASCII labels
    docs = [
        DecompositionDocument(8, "h", "weak", "budget-exceeded", (("a",), ("b", "c"), 1), ((), (0,), (1, 2))),
        DecompositionDocument(8, "h", "clean", "terminated", (("a",), ("b",)), ((0,),)),
        DecompositionDocument(8, "h", "weak", "terminated", (("a", "b"), 2, 1), ((0,), (0, 1), (2, 3))),
        *map(piece_document, (255, 256, 257, 513)),
        DecompositionDocument(
            8, "h\u00e9", "clean", "terminated", (("a", "\u00e9", "\U0001d538"), ("K:\u00e9",)), ((1, 2),)
        ),
    ]
    malformed = [
        DecompositionDocument(8, "h", "clean", "terminated", (("a",),), ()),  # no down rows
        DecompositionDocument(8, "h", "clean", "terminated", (("a",), ("b",)), ((0,),) * 300),  # more rows than levels
        DecompositionDocument(8, "h", "clean", "terminated", (("a", "b"), ("c",)), ((0, 1),) * 2),  # a row past the top
    ]
    for doc in malformed:
        payload = vars(doc) | {"down": written_rows(doc)}
        assert to_json(doc) == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    for doc in docs:
        payload = {
            "format_version": 8,
            "source_hash": doc.source_hash,
            "operator": doc.operator,
            "status": doc.status,
            "levels": [level if type(level) is int else list(level) for level in doc.levels],
            "down": written_rows(doc),
        }
        text = to_json(doc)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert parse_document(text) == doc


def test_to_json_peaks_at_a_few_times_its_text():
    # json.dumps holds one string per token until it joins them, so down is encoded a piece at a time
    rows = tuple(tuple(range(i, i + 16)) for i in range(4096))
    doc = DecompositionDocument(8, "h", "clean", "terminated", (("a",), ("b",)), rows)
    tracemalloc.start()
    try:
        text = to_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


DELETE = object()
SEQUENCE = ("levels", 2, "vertices", 0, "sequence")
OLD_FORMAT_REJECTED = "unsupported format_version: this reader takes 8"


@pytest.mark.parametrize(
    "path, value",
    [
        (("edges", 0), "a b"),
        (("edges", 0), ["a", "K:a,b,c", "b"]),
        (("edges", 0), ["a", 1]),
        (("edges", 0), ["ghost", "a"]),
        (("edges",), 5),
        (("edges",), None),
        (SEQUENCE, ["b"]),
        (SEQUENCE, [["b", 1]]),
        (SEQUENCE, [["b", ["c"]]]),
        (SEQUENCE, None),
        (SEQUENCE, DELETE),
        (("levels", 1, "vertices", 0, "id"), "a"),
        (("levels", 0, "vertices", 1, "id"), None),
        (("levels", 0, "vertices", 1, "label"), 2),
        (("levels", 0, "vertices", 1), "b"),
        (("levels", 1, "index"), True),
        (("format_version",), True),
        (("format_version",), 1.0),
    ],
    ids=[
        "non-list-edge",
        "three-element-edge",
        "non-string-endpoint",
        "undeclared-id",
        "edges-number",
        "edges-null",
        "non-list-sequence-element",
        "non-string-sequence-label",
        "unhashable-sequence-label",
        "null-sequence",
        "missing-sequence",
        "duplicate-id",
        "non-string-id",
        "non-string-label",
        "non-object-vertex",
        "boolean-index",
        "boolean-format-version",
        "float-format-version",
    ],
)
def test_parse_document_refuses_a_malformed_format_1_document_by_its_version(path, value):
    """Whatever else is wrong with a format-1 document, the reader names only its version."""
    text = json.dumps(edited(json.loads(G2_FORMAT_1), path, value))
    with pytest.raises(DocumentFormatError) as err:
        parse_document(text)
    assert str(err.value) == OLD_FORMAT_REJECTED


def edited(payload, path, value):
    """``payload`` with the item at ``path`` set to ``value``, to what the callable ``value`` makes of it, or deleted
    for ``DELETE``; a ``row_edit`` at ``("down", t)`` edits row ``t``'s indexes and codes the rows again."""
    *parents, last = path
    if isinstance(value, RowEdit):
        return with_rows(payload, lambda rows: rows.__setitem__(last, value.make(rows[last])))
    target = payload
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value(target[last]) if callable(value) else value
    return payload


# G2 in format 8: levels a b c d | 2 | 1, so level 1 holds indexes 4, 5 and level 2 index 6, stored as its seed [4, 5]
# gap-coded, [4, 1]; a row_edit names the indexes a row is edited to, and a row of non-integers is stored as it stands
NOT_A_LEVEL = "level {} must be a non-empty list of labels or, above level 0, a vertex count"
NOT_A_COUNT = "level 2 must be a positive vertex count: only levels 0 and 1 are given"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("down", 0), row_edit([0, 1, 4]), "down row of vertex 4 on level 1: index 4 is not on a lower level"),
        (("down", 0), row_edit([0, 1, 6]), "down row of vertex 4 on level 1: index 6 is not on a lower level"),
        (("down", 2), row_edit([4, 6]), "down row of vertex 6 on level 2: index 6 is not on a lower level"),
        (("down", 2), row_edit([1, 5]), "down row of vertex 6 on level 2: index 1 is not on the level below"),
        (("down", 2), row_edit([5, 4]), "down row of vertex 6 on level 2: indexes are not strictly ascending"),
        (("down", 2), row_edit([4, 4]), "down row of vertex 6 on level 2: indexes are not strictly ascending"),
        (("down", 2), row_edit([4, 7]), "down row of vertex 6 on level 2: index 7 is out of range"),
        (("down", 2), row_edit([5]), "down row of vertex 6 on level 2: a seed holds at least two indexes"),
        (("down", 2), row_edit([]), "down row of vertex 6 on level 2: a seed holds at least two indexes"),
        (("down", 0), row_edit([-1, 0, 1]), "down row of vertex 4 on level 1: index -1 is out of range"),
        (("down", 0), row_edit([0, 1, 7]), "down row of vertex 4 on level 1: index 7 is out of range"),
        (("down", 0), row_edit([0, 2, 1]), "down row of vertex 4 on level 1: indexes are not strictly ascending"),
        (("down", 0), row_edit([0, 1, 1]), "down row of vertex 4 on level 1: indexes are not strictly ascending"),
        (("down", 0), row_edit([1, 3]), "down row of vertex 5 on level 1: the level's rows are not ascending"),
        (("down", 1), row_edit([0, 1, 2]), "down row of vertex 5 on level 1: the level's rows are not ascending"),
        # the level-1 rows with their first gaps swapped read [1, 2, 3] twice
        (("down", 0), row_edit([1, 2, 3]), "down row of vertex 5 on level 1: the level's rows are not ascending"),
        (("down", 0), [0, 1, True], "down must hold integer indexes"),
        (("down", 0), [0, 1, 2.0], "down must hold integer indexes"),
        (("down", 0), "0 1 2", "down must be a list of index lists"),
        (("down", 2), DELETE, "down must hold 3 rows, not 2: they end on level 2"),
        (("down",), lambda down: down + down[2:], "down must hold 3 rows, not 4: rows remain after level 2"),
        (("down",), None, "down must be a list of index lists"),
        # level 1 takes level 2's row [4, 1], whose first gap now counts from level 1's last first index, 1
        (("levels", 1), 3, "down row of vertex 6 on level 1: index 5 is not on a lower level"),
        # level 2 takes level 1's last row, which is not on level 1
        (("levels", 1), 1, "down row of vertex 5 on level 2: index 1 is not on the level below"),
        (("levels", 2), 2, "down must hold 4 rows, not 3: they end on level 2"),
        (("levels", 2), 0, NOT_A_COUNT),
        (("levels", 2), True, NOT_A_COUNT),
        (("levels", 2), 1.0, NOT_A_COUNT),
        (("levels", 0), 4, NOT_A_LEVEL.format(0)),
        (("levels", 0), ["b", "a", "c", "d"], "level 0: labels are not sorted and distinct"),
        (("levels", 0), ["a", "a", "c", "d"], "level 0: labels are not sorted and distinct"),
        (("levels", 1), ["d", "e"], "a label appears on more than one level"),
        (("levels", 0), ["a", "b", "c", 4], NOT_A_LEVEL.format(0)),
        (("levels", 2), [], NOT_A_COUNT),
        (("levels", 1), [], NOT_A_LEVEL.format(1)),
        (("levels",), [["a", "b", "c", "d"]], "need at least two levels"),
        (("operator",), "strong", "unknown operator"),
        (("status",), None, "unknown status"),
        (("source_hash",), 7, "source_hash must be a string"),
        (("down",), DELETE, "missing key 'down'"),
        (("comment",), "hello", "unknown key 'comment'"),
        (("format_version",), 1, OLD_FORMAT_REJECTED),
        (("format_version",), 2, OLD_FORMAT_REJECTED),
        (("format_version",), 3, OLD_FORMAT_REJECTED),
        (("format_version",), 4, OLD_FORMAT_REJECTED),
        (("format_version",), 5, OLD_FORMAT_REJECTED),
        (("format_version",), 6, OLD_FORMAT_REJECTED),
        (("format_version",), 7, OLD_FORMAT_REJECTED),
        (("format_version",), True, OLD_FORMAT_REJECTED),
        (("format_version",), 8.0, OLD_FORMAT_REJECTED),
    ],
    ids=[
        "down-own-level",
        "down-level-above",
        "down-own-level-at-level-2",
        "seed-below-the-level-below",
        "seed-unsorted",
        "seed-repeated",
        "seed-beyond-last",
        "seed-one-member",
        "seed-empty",
        "down-negative",
        "down-beyond-last",
        "down-unsorted",
        "down-repeated",
        "down-rows-swapped",
        "down-rows-equal",
        "down-first-gaps-swapped",
        "down-boolean",
        "down-float",
        "down-row-not-list",
        "down-row-missing",
        "down-row-extra",
        "down-null",
        "level-grown",
        "level-1-shrunk",
        "top-level-grown",
        "level-shrunk",
        "level-size-boolean",
        "level-size-float",
        "level-0-size",
        "level-unsorted",
        "level-repeated",
        "label-on-two-levels",
        "label-not-string",
        "level-empty",
        "level-1-empty",
        "one-level",
        "unknown-operator",
        "unknown-status",
        "hash-not-string",
        "missing-key",
        "unknown-key",
        "format-version-1",
        "format-version-2",
        "format-version-3",
        "format-version-4",
        "format-version-5",
        "format-version-6",
        "format-version-7",
        "boolean-format-version",
        "float-format-version",
    ],
)
def test_parse_document_rejects_each_malformed_field(path, value, message):
    text = json.dumps(edited(json.loads(decomposition_text(make_g2())), path, value))
    with pytest.raises(DocumentFormatError) as err:
        parse_document(text)
    assert str(err.value) == message


def test_parse_document_formats_a_message_only_when_its_check_fails(monkeypatch):
    class Unprintable:
        def __repr__(self):
            raise AssertionError("a passing check formatted its message")

    expect = cleanfactor.io._expect
    expect(True, "unknown key {!r}", Unprintable())
    with pytest.raises(DocumentFormatError, match="^unknown key 'x'$"):
        expect(False, "unknown key {!r}", "x")
    calls = []
    monkeypatch.setattr(cleanfactor.io, "_expect", lambda ok, message, *args: calls.append((message, args)) or expect(ok, message, *args))
    parse_document(decomposition_text(make_g3()))
    # a message that names a key, a level, a count or the version comes as a template with its values beside it
    assert all(("{" in message) == bool(args) for message, args in calls)
    assert any(args for _, args in calls)


@pytest.mark.parametrize("edges", [5, None], ids=["number", "null"])
def test_cli_verify_rejects_non_list_edges(tmp_path, capsys, edges):
    # format 3 keeps the edges in down, one row per vertex
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    payload = json.loads(decomposition_text(make_g2()))
    payload["down"] = edges
    doc_path = write(tmp_path, "d.json", json.dumps(payload))
    capsys.readouterr()
    assert cli_main(["verify", "--decomposition", doc_path, "--input", graph_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: down must be a list of index lists\n"


def test_to_dot_mentions_every_vertex():
    g = make_g2()
    m = run_series(g, OperatorKind.CLEAN).final
    dot = to_dot(m)
    for v in m.vertices:
        assert f'"{v}"' in dot
    assert dot.count("--") == m.edge_count()


def test_to_dot_escapes_quotes_and_backslashes_in_labels():
    m = MultipartiteGraph([['a"b', "c\\d"], ["x"]], [('a"b', "x"), ("c\\d", "x")])
    # Graphviz quoting: a backslash is doubled and a double quote is escaped, in vertex and edge lines alike
    assert to_dot(m) == r'''graph decomposition {
  rankdir=BT;
  subgraph level_0 { rank=same; "a\"b"; "c\\d"; }
  subgraph level_1 { rank=same; "x"; }
  "a\"b" -- "x";
  "c\\d" -- "x";
}
'''


def test_cli_decompose_and_verify_round_trip(tmp_path, capsys):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    out_path = str(tmp_path / "d.json")
    assert cli_main(["decompose", "--operator", "clean", "--input", graph_path, "--output", out_path]) == 0
    assert "status=terminated" in capsys.readouterr().out
    assert cli_main(["verify", "--decomposition", out_path, "--input", graph_path]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 5


@pytest.mark.parametrize(
    "t, row, failure",
    [
        (0, [1, 2], "bijection: FAIL (level 1 does not match the maximal cliques of the input graph)"),
        # dropping c - K:a,b,c or b - K:b,c,d drops that vertex from the level-2 row the graph rebuilds from the seed
        (0, [0, 1], "neighbourhood-formula: FAIL (level 2, vertex 'L2:b': no 1-element chain predicts its lower"),
        (1, [2, 3], "neighbourhood-formula: FAIL (level 2, vertex 'L2:c': no 1-element chain predicts its lower"),
    ],
    ids=["a-dropped", "c-dropped", "b-dropped"],
)
def test_cli_verify_rejects_tampered_document(tmp_path, capsys, t, row, failure):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    out_path = str(tmp_path / "d.json")
    cli_main(["decompose", "--operator", "clean", "--input", graph_path, "--output", out_path])
    payload = json.loads((tmp_path / "d.json").read_text())
    edited(payload, ("down", t), row_edit(row))
    (tmp_path / "d.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli_main(["verify", "--decomposition", out_path, "--input", graph_path]) == 1
    assert any(line.startswith(failure) for line in capsys.readouterr().out.splitlines())


def test_cli_verify_prints_level_counts(tmp_path, capsys):
    graph_path = write(tmp_path, "g3.txt", format_edge_list(make_g3()))
    out_path = str(tmp_path / "d.json")
    cli_main(["decompose", "--operator", "clean", "--input", graph_path, "--output", out_path])
    capsys.readouterr()
    assert cli_main(["verify", "--decomposition", out_path, "--input", graph_path]) == 0
    assert "bijection: ok (2:2/2 3:1/1)\n" in capsys.readouterr().out


def g3_with(edit):
    """G3's document with ``edit`` applied to its parsed JSON."""
    payload = json.loads(decomposition_text(make_g3()))
    edit(payload)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def swap_level_2_rows(payload):
    with_rows(payload, lambda rows: rows.__setitem__(slice(3, 5), rows[4:2:-1]))


def grow_level_2(payload):
    payload["levels"][2] += 1


def rename_a_level_0_label(payload):
    payload["levels"][0][-1] = "9"


NO_CHAIN = "no 1-element chain predicts its lower neighbourhood"


def stored_row(i, row):
    """An edit that stores ``row`` as ``down[i]``; G3's level 1 holds vertices 6, 7, 8, level 2 9, 10 and level 3 11."""
    return lambda payload: edited(payload, ("down", i), row_edit(row))


@pytest.mark.parametrize(
    "edit, code, out, err",
    [
        # the seeds [6, 7] and [6, 7, 8] swapped: the level is ordered by its seeds
        (swap_level_2_rows, 2, "", "error: down row of vertex 10 on level 2: the level's rows are not ascending\n"),
        # level 2 takes level 3's seed [9, 10], stored [9,1], whose first gap now counts from level 2's last first
        # index, 6
        (grow_level_2, 2, "", "error: down row of vertex 11 on level 2: index 15 is out of range\n"),
        (rename_a_level_0_label, 1, "bijection: FAIL (level 0 does not match the input graph's vertex set)\n", ""),
        # [6, 7, 8] without 7: the row the graph rebuilds, (0, 1, 6, 8), loses 7, and no chain predicts it
        (stored_row(4, [6, 8]), 1, f"bijection: FAIL (level 2, vertex 'L2:1,2': {NO_CHAIN})\n", ""),
        (stored_row(3, [2, 7]), 2, "", "error: down row of vertex 9 on level 2: index 2 is not on the level below\n"),
        (stored_row(5, [7, 10]), 2, "", "error: down row of vertex 11 on level 3: index 7 is not on the level below\n"),
        (stored_row(3, [7]), 2, "", "error: down row of vertex 9 on level 2: a seed holds at least two indexes\n"),
    ],
    ids=["rows-swapped", "level-size", "label-renamed", "seed-member-dropped", "seed-member-two-levels-down",
         "seed-member-two-levels-down-at-level-3", "one-member-seed"],
)
def test_cli_names_the_level_of_a_tampered_document(tmp_path, edit, code, out, err):
    graph_path = write(tmp_path, "g3.txt", format_edge_list(make_g3()))
    doc_path = write(tmp_path, "d.json", g3_with(edit))
    done = run_cli(["verify", "--decomposition", doc_path, "--input", graph_path])
    assert (done[0], done[2]) == (code, err) and out in done[1]


def test_two_seeds_swapped_on_any_generated_level_are_refused_naming_the_level():
    # fresh Random(7) (12, .7), levels 12, 12, 33, 108, 116, 40: on each level above 1, two adjacent seeds swapped
    payload = json.loads(decomposition_text(random_connected_graph(random.Random(7), 12, 0.7)))
    sizes = [len(payload["levels"][0])] + payload["levels"][1:]
    for k in range(2, len(sizes)):
        t = sum(sizes[1:k]) + sizes[k] // 2  # the row in down of a vertex in the middle of level k
        swap = lambda rows: rows.__setitem__(slice(t - 1, t + 1), (rows[t], rows[t - 1]))
        text = json.dumps(with_rows(json.loads(json.dumps(payload)), swap))
        message = f"down row of vertex {sizes[0] + t} on level {k}: the level's rows are not ascending"
        assert parsed(parse_document, text) == parsed(reference_parse_v8, text) == message


@pytest.mark.parametrize(
    "graph, levels",
    [
        (make_g2, [["a", "b", "c", "d"], ["K:x", "K:y"], ["not a canonical label"]]),
        (make_g2, [["a", "b", "c", "d"], 2, ["L2:a,b"]]),
        (make_g3, [["1", "2", "3", "4", "5", "6"], 3, ["L2:1,2#2", "L2:1,2,3"], 1]),
    ],
    ids=["renamed-levels", "level-2-label", "suffix"],
)
def test_labels_on_a_generated_level_are_refused(tmp_path, graph, levels):
    """Only levels 0 and 1 can be given, so a document that names a higher level's vertices is malformed."""
    g = graph()
    text = json.dumps(json.loads(decomposition_text(g)) | {"levels": levels})
    assert parsed(parse_document, text) == parsed(reference_parse_v8, text) == NOT_A_COUNT
    graph_path, doc_path = write(tmp_path, "g.txt", format_edge_list(g)), write(tmp_path, "d.json", text)
    assert run_cli(["verify", "--decomposition", doc_path, "--input", graph_path]) == (2, "", f"error: {NOT_A_COUNT}\n")


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("status", "budget-exceeded", "status 'budget-exceeded': only terminated series are certified"),
        ("operator", "weak", "operator 'weak': only clean decompositions are certified"),
        # a bipartite start may give level 1's labels, but verify takes the series of a graph
        ("levels", [["a", "b", "c", "d"], ["K:x", "K:y"], 1], "level 1 lists labels: the series of a graph generates it"),
    ],
)
def test_cli_verify_rejects_uncertified_status_and_operator(tmp_path, capsys, field, value, detail):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    payload = json.loads(decomposition_text(make_g2()))
    payload[field] = value
    doc_path = write(tmp_path, "d.json", json.dumps(payload))
    capsys.readouterr()
    assert cli_main(["verify", "--decomposition", doc_path, "--input", graph_path]) == 1
    assert f"document-fields: FAIL ({detail})\n" in capsys.readouterr().out


def test_cli_verify_rejects_mismatched_input(tmp_path, capsys):
    g2_path = write(tmp_path, "g2.txt", G2_TEXT)
    tri_path = write(tmp_path, "tri.txt", "a b\nb c\na c\n")
    out_path = str(tmp_path / "d.json")
    cli_main(["decompose", "--operator", "clean", "--input", g2_path, "--output", out_path])
    capsys.readouterr()
    assert cli_main(["verify", "--decomposition", out_path, "--input", tri_path]) == 1
    assert "source-hash: FAIL" in capsys.readouterr().out


def test_cli_budget_exhaustion_is_a_normal_outcome(tmp_path, capsys):
    graph_path = write(
        tmp_path,
        "w.txt",
        "v0 v1\nv0 v2\nv0 v4\nv1 v3\nv1 v4\nv2 v3\nv2 v4\nv3 v4\n",
    )
    out_path = str(tmp_path / "w.json")
    code = cli_main(
        ["decompose", "--operator", "weak", "--max-levels", "5", "--input", graph_path, "--output", out_path]
    )
    assert code == 0
    assert "status=budget-exceeded" in capsys.readouterr().out


def test_threads_other_than_one_are_refused(tmp_path, capsys):
    g = make_g3()
    m = vertex_clique_incidence(g)
    for call in (
        lambda: factorise(m, OperatorKind.CLEAN, threads=2),
        lambda: run_series(g, OperatorKind.CLEAN, threads=2),
        lambda: run_series_from_bipartite(m, OperatorKind.CLEAN, threads=2),
    ):
        with pytest.raises(InvalidArgumentError, match="threads must be 1"):
            call()
    graph_path = write(tmp_path, "g3.txt", format_edge_list(g))
    out_path = tmp_path / "d.json"
    argv = ["decompose", "--operator", "clean", "--input", graph_path, "--output", str(out_path), "--threads", "2"]
    assert cli_main(argv) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_non_integer_counts_are_usage_errors(tmp_path, capsys):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    for argv, name in (
        (["decompose", "--operator", "clean", "--input", graph_path, "--output", "y", "--max-levels", "abc"], "--max-levels"),
        (["oracle", "--input", graph_path, "--chains", "abc"], "--chains"),
        (["oracle", "--input", graph_path, "--chains", "0"], "--chains"),
    ):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {name}: must be a positive integer" in err
        assert "_positive_int" not in err


def test_cli_dot_export(tmp_path):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    out_path = str(tmp_path / "d.json")
    dot_path = tmp_path / "d.dot"
    cli_main(
        ["decompose", "--operator", "clean", "--input", graph_path, "--output", out_path, "--dot", str(dot_path)]
    )
    assert dot_path.read_text().startswith("graph decomposition {")


def test_cli_cliques_and_oracle(tmp_path, capsys):
    graph_path = write(tmp_path, "g3.txt", format_edge_list(make_g3()))
    assert cli_main(["cliques", "--input", graph_path]) == 0
    assert capsys.readouterr().out == "1 2 3 4\n1 2 3 5\n1 2 6\n"
    assert cli_main(["oracle", "--input", graph_path, "--chains", "2"]) == 0
    assert capsys.readouterr().out == "1,2\n1,2,3\n1,2 < 1,2,3\n"
    # past G3's two-element chain the walk ends before its first round, not after a billion empty ones
    start = time.perf_counter()
    assert cli_main(["oracle", "--input", graph_path, "--chains", "1000000000"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "1,2\n1,2,3\n"


def test_cli_gen_reconstruct_and_exit_codes(tmp_path, capsys):
    assert cli_main(["gen", "anti-matching", "3"]) == 0
    gen_out = capsys.readouterr().out
    assert "b1 u2" in gen_out and gen_out.startswith("#")

    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    out_path = str(tmp_path / "d.json")
    cli_main(["decompose", "--operator", "clean", "--input", graph_path, "--output", out_path])
    capsys.readouterr()
    assert cli_main(["reconstruct", "--decomposition", out_path]) == 0
    assert capsys.readouterr().out == G2_TEXT

    assert cli_main(["decompose", "--operator", "bogus", "--input", "x", "--output", "y"]) == 2
    assert cli_main(["nonsense"]) == 2
    assert cli_main(["cliques", "--input", str(tmp_path / "missing.txt")]) == 2
    assert cli_main(["gen", "anti-matching", "1"]) == 2
    bad_doc = write(tmp_path, "bad.json", "{}")
    assert cli_main(["reconstruct", "--decomposition", bad_doc]) == 2
    loop = write(tmp_path, "loop.txt", "a a\n")
    assert cli_main(["cliques", "--input", loop]) == 2


def test_cli_dot_refuses_a_label_clash_with_one_error_line(tmp_path, capsys):
    # an isolated vertex named like the clean step's new vertex of G2: the document names neither, the DOT file both
    graph_path = write(tmp_path, "clash.txt", G2_TEXT + "L2:b,c\n")
    out_path, dot_path = tmp_path / "d.json", tmp_path / "d.dot"
    argv = ["decompose", "--operator", "clean", "--input", graph_path, "--output", str(out_path)]
    assert cli_main(argv + ["--dot", str(dot_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: vertex 'L2:b,c' appears more than once\n"
    assert not out_path.exists() and not dot_path.exists()
    assert cli_main(argv) == 0
    assert cli_main(["verify", "--decomposition", str(out_path), "--input", graph_path]) == 0


@pytest.mark.parametrize("text, clash", [("K:b c\nc d\nb\n", "K:b"), ("a b\na,b\n", None)])
def test_inputs_whose_generated_names_once_clashed_decompose_verify_and_reconstruct(tmp_path, text, clash):
    # the clique {b} is named K:b, a level-0 label; the cliques {a, b} and {a,b} are named K:a,b and K:a\,b
    graph_path = write(tmp_path, "g.txt", text)
    out_path, dot_path = str(tmp_path / "d.json"), str(tmp_path / "d.dot")
    argv = ["decompose", "--operator", "clean", "--input", graph_path, "--output", out_path]
    assert run_cli(argv)[0] == 0
    assert run_cli(["verify", "--decomposition", out_path, "--input", graph_path])[0] == 0
    code, out, _ = run_cli(["reconstruct", "--decomposition", out_path])
    assert code == 0 and read_edge_list(write(tmp_path, "r.txt", out)) == read_edge_list(graph_path)
    # only a lookup of the names can refuse the graph
    if clash is None:
        assert run_cli(argv + ["--dot", dot_path])[0] == 0
        assert '"K:a,b"' in Path(dot_path).read_text() and '"K:a\\\\,b"' in Path(dot_path).read_text()
    else:
        assert run_cli(argv + ["--dot", dot_path]) == (2, "", f"error: vertex {clash!r} appears more than once\n")


def test_cli_verify_names_a_vertex_by_its_index_where_the_names_clash(tmp_path):
    # K:b c, c d, b with a level 2 added, whose vertex no chain predicts: the clique {b} is named K:b, as a level-0 vertex is
    graph_path = write(tmp_path, "g.txt", "K:b c\nc d\nb\n")
    out_path = str(tmp_path / "d.json")
    assert run_cli(["decompose", "--operator", "clean", "--input", graph_path, "--output", out_path])[0] == 0
    payload = json.loads(Path(out_path).read_text())
    rows = reference_decode_down(payload["levels"], payload["down"])
    assert (payload["levels"][1:], rows) == ([3], [[0, 2], [1], [2, 3]])
    payload["levels"].append(1)
    # the seed of the row [2, 4, 6]: c, the cliques {K:b, c} and {c, d}, the first row of its level
    payload["down"].append(reference_encode_row([4, 6]))
    doc_path = write(tmp_path, "tampered.json", json.dumps(payload))
    code, out, err = run_cli(["verify", "--decomposition", doc_path, "--input", graph_path])
    failure = "level 2, vertex 7: no 1-element chain predicts its lower neighbourhood"
    assert (code, err) == (1, "")
    assert f"bijection: FAIL ({failure})\n" in out and f"neighbourhood-formula: FAIL ({failure})\n" in out


def test_a_leading_byte_order_mark_is_not_part_of_a_label(tmp_path, capsys):
    plain = read_edge_list(write(tmp_path, "t.txt", "a b\na c\nb c\n"))
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbfa b\na c\nb c\n")
    assert read_edge_list(bom) == plain
    assert graph_content_hash(read_edge_list(bom)) == graph_content_hash(plain)
    assert cli_main(["cliques", "--input", str(bom)]) == 0
    assert capsys.readouterr().out == "a b c\n"
    # a comment on the first line stays a comment
    bom.write_bytes(b"\xef\xbb\xbf# a comment\na b\n")
    assert read_edge_list(bom) == Graph("ab", [("a", "b")])
    # a bad byte is still placed by its offset in the file
    bom.write_bytes(b"\xef\xbb\xbfa b\nb \xff\n")
    with pytest.raises(EdgeListParseError) as err:
        read_edge_list(bom)
    assert err.value.line == 2
    assert "byte 9 (0xff)" in str(err.value)


def test_cli_reconstruct_writes_a_hash_label_second_and_verifies(tmp_path):
    # written first, '#x y' would read back as a comment and the graph as y-z alone
    graph_path = write(tmp_path, "g.txt", "y #x\ny z\n")
    doc_path = str(tmp_path / "d.json")
    assert run_cli(["decompose", "--operator", "clean", "--input", graph_path, "--output", doc_path])[0] == 0
    code, out, err = run_cli(["reconstruct", "--decomposition", doc_path])
    assert (code, out, err) == (0, "y #x\ny z\n", "")
    rebuilt = write(tmp_path, "r.txt", out)
    assert run_cli(["verify", "--decomposition", doc_path, "--input", rebuilt])[0] == 0


@pytest.mark.parametrize(
    "g, message",
    [
        (Graph(["a b", "c"], [("a b", "c")]), "label 'a b' is empty or holds whitespace, so no edge list can hold it"),
        (Graph(["#x", "#y"], [("#x", "#y")]), "edge-list line '#y #x' would read as a comment"),
        (Graph(["#x", "a", "b"], [("a", "b")]), "edge-list line '#x' would read as a comment"),
    ],
    ids=["whitespace", "hash-edge", "hash-isolated"],
)
def test_cli_reconstruct_refuses_a_graph_no_edge_list_can_hold(tmp_path, g, message):
    doc_path = write(tmp_path, "d.json", decomposition_text(g))
    assert run_cli(["reconstruct", "--decomposition", doc_path]) == (2, "", f"error: {message}\n")


def test_cli_non_utf8_edge_list_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a b\nb \xff\n")
    with pytest.raises(EdgeListParseError) as err:
        read_edge_list(bad)
    assert err.value.line == 2
    assert "byte 6 (0xff)" in str(err.value)
    old_mac = tmp_path / "cr.txt"
    old_mac.write_bytes(b"a b\rb c\r\nc \xfe\n")
    with pytest.raises(EdgeListParseError) as err:
        read_edge_list(old_mac)
    assert err.value.line == 3
    doc_path = write(tmp_path, "d.json", decomposition_text(make_g2()))
    capsys.readouterr()
    for argv in (
        ["decompose", "--operator", "clean", "--input", str(bad), "--output", str(tmp_path / "out.json")],
        ["verify", "--decomposition", doc_path, "--input", str(bad)],
    ):
        assert cli_main(argv) == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("error: line 2: byte 6 (0xff) is not valid UTF-8")
        assert err_text.count("\n") == 1


def test_edge_list_lines_end_only_at_newline_crlf_and_a_lone_cr(tmp_path):
    text = tmp_path / "g.txt"
    text.write_bytes(b"a b\nb c\r\nc d\rd e\n")
    assert read_edge_list(text) == Graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    # errors count lines the same way
    text.write_bytes(b"a b\rb c\r\nc c\n")
    with pytest.raises(InvalidArgumentError, match="^line 3: self-loop on vertex 'c'$"):
        read_edge_list(text)


# the characters other than \n and \r that str.splitlines breaks on
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", SPLITLINES_ONLY, ids=[f"U+{ord(c):04X}" for c in SPLITLINES_ONLY])
def test_edge_list_splitlines_breaks_separate_two_labels_inside_one_line(tmp_path, sep):
    text = tmp_path / "g.txt"
    text.write_bytes(f"a{sep}b\n".encode("utf-8"))
    assert read_edge_list(text) == Graph("ab", [("a", "b")])
    # so a line holding one has one label more, and the next line is line 2
    text.write_bytes(f"a b{sep}c\nc c\n".encode("utf-8"))
    with pytest.raises(EdgeListParseError, match="^line 1: expected one or two labels, got 3$"):
        read_edge_list(text)
    text.write_bytes(f"a{sep}b\nc c\n".encode("utf-8"))
    with pytest.raises(InvalidArgumentError, match="^line 2: self-loop on vertex 'c'$"):
        read_edge_list(text)


def read_outcome(read, path):
    """The graph ``read`` gives, or its error's type, message and line number."""
    try:
        return read(path)
    except InvalidArgumentError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


EDGE_LIST_PIECES = ["a", "b", "c", "ab", "#", " ", "\t", "\xa0", "\ufeff", "\n", "\r\n", "\r", *SPLITLINES_ONLY]


@settings(max_examples=400, deadline=None)
@given(st.booleans(), st.lists(st.sampled_from(EDGE_LIST_PIECES), max_size=24).map("".join))
@example(False, "a b\r\nb c\rc d\n")
@example(True, "#x\ra\x85b\n\r\nc c")
@example(True, "\ufeffa\n")  # a second mark is part of the first label
def test_edge_list_reader_matches_the_universal_newline_reference(tmp_path_factory, mark, text):
    path = tmp_path_factory.mktemp("edges") / "g.txt"
    path.write_bytes((("\ufeff" if mark else "") + text).encode("utf-8"))
    assert read_outcome(read_edge_list, path) == read_outcome(reference_read_edge_list, path)


def test_a_file_descriptor_is_refused_not_read(tmp_path):
    """``open`` would read an int as a file descriptor; a path argument that is an int is refused instead."""
    graph_path, doc_path = write(tmp_path, "g2.txt", G2_TEXT), write(tmp_path, "d.json", decomposition_text(make_g2()))
    for read, path in ((read_edge_list, graph_path), (read_document, doc_path)):
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(TypeError):
                read(fd)
        finally:
            with contextlib.suppress(OSError):  # reading it as a descriptor would have closed it
                os.close(fd)
        with pytest.raises(TypeError):
            read(3)


def test_cli_non_utf8_document_is_a_format_error(tmp_path, capsys):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    doc = tmp_path / "d.json"
    doc.write_bytes(decomposition_text(make_g2()).encode("utf-8").replace(b'"clean"', b'"cl\xe9an"'))
    with pytest.raises(DocumentFormatError):
        read_document(doc)
    capsys.readouterr()
    for argv in (
        ["verify", "--decomposition", str(doc), "--input", graph_path],
        ["reconstruct", "--decomposition", str(doc)],
    ):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "is not valid UTF-8" in captured.err
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_cli_writes_utf8_whatever_the_locale(tmp_path, encoding):
    # é lies in both cliques {a,b,é} and {a,c,é}, so the oracle lists {a,é}
    graph_path = write(tmp_path, "g.txt", "é a\né b\na b\né c\na c\n")
    loop_path = write(tmp_path, "loop.txt", "é é\n")
    doc_path, bad_path = str(tmp_path / "d.json"), write(tmp_path, "bad.json", "")
    assert run_cli(["decompose", "--operator", "clean", "--input", graph_path, "--output", doc_path])[0] == 0
    doc = read_document(doc_path)
    # without its level-0 vertex a, the second clique meets the first in é alone, so the level-2 row rebuilt from the
    # seed of both cliques is predicted by no chain, and verify names its vertex by that row
    Path(bad_path).write_text(to_json(replace(doc, down=(doc.down[0], doc.down[1][1:], doc.down[2]))), encoding="utf-8")
    env = dict(os.environ, PYTHONIOENCODING=encoding, PYTHONPATH=str(Path(cleanfactor.cli.__file__).parents[1]))
    runs = [
        (["cliques", "--input", graph_path], 0),
        (["cliques", "--input", loop_path], 2),
        (["oracle", "--input", graph_path, "--chains", "1"], 0),
        (document_command("reconstruct", doc_path, graph_path), 0),
        (document_command("verify", doc_path, graph_path), 0),
        (document_command("verify", bad_path, graph_path), 1),
    ]
    for argv, code in runs:
        done = subprocess.run([sys.executable, "-m", "cleanfactor", *argv], env=env, capture_output=True)
        # only the refused input writes to stderr
        assert (done.returncode, done.stderr == b"") == (code, code < 2)
        # the bytes are the UTF-8 of what the command writes in-process
        assert run_cli(argv) == (code, done.stdout.decode("utf-8"), done.stderr.decode("utf-8"))
        if argv[0] == "reconstruct":
            rebuilt = write(tmp_path, "r.txt", "")
            Path(rebuilt).write_bytes(done.stdout)
            assert read_edge_list(rebuilt) == read_edge_list(graph_path)
    assert "neighbourhood-formula: FAIL (level 2, vertex 'L2:é': " in done.stdout.decode("utf-8")


def document_command(command, doc_path, graph_path):
    """The argv of ``verify`` or ``reconstruct`` on ``doc_path``."""
    argv = [command, "--decomposition", doc_path]
    return argv + ["--input", graph_path] if command == "verify" else argv


@pytest.mark.parametrize("command", ["verify", "reconstruct"])
def test_cli_deeply_nested_document_is_a_format_error(tmp_path, command):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    doc_path = write(tmp_path, "d.json", "[" * 200_000)
    with pytest.raises(DocumentFormatError):
        read_document(doc_path)
    expected = (2, "", "error: not valid JSON: nested too deeply\n")
    assert run_cli(document_command(command, doc_path, graph_path)) == expected


@pytest.mark.parametrize("command", ["verify", "reconstruct"])
@pytest.mark.parametrize(
    "text",
    [G2_FORMAT_1, G2_FORMAT_2, G2_FORMAT_3, G2_FORMAT_4, G2_FORMAT_5, G2_FORMAT_6, G2_FORMAT_7],
    ids=[f"format-{version}" for version in range(1, 8)],
)
def test_cli_rejects_an_old_format_document_with_one_error_line(tmp_path, command, text):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    doc_path = write(tmp_path, "d.json", text)
    assert run_cli(document_command(command, doc_path, graph_path)) == (2, "", f"error: {OLD_FORMAT_REJECTED}\n")


def test_cli_reconstruct_refuses_a_level_1_that_does_not_rebuild_the_hashed_graph(tmp_path):
    # G2's clique {a, b, c} edited to {a, b, d}: the document still parses, but encodes a d where G2 has a c
    payload = edited(json.loads(G2_GOLDEN), ("down", 0), row_edit([0, 1, 3]))
    doc_path = write(tmp_path, "d.json", json.dumps(payload))
    mismatch = "error: the graph the document encodes does not match its source_hash\n"
    assert run_cli(["reconstruct", "--decomposition", doc_path]) == (1, "", mismatch)
    code, out, err = run_cli(["verify", "--decomposition", doc_path, "--input", write(tmp_path, "g2.txt", G2_TEXT)])
    assert (code, err) == (1, "") and "bijection: FAIL" in out


@pytest.mark.parametrize("command", ["verify", "reconstruct"])
def test_cli_rejects_an_unknown_key_with_one_error_line(tmp_path, command):
    # a key the reader dropped would pass verify unread and be missing from the re-serialised bytes
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    doc_path = write(tmp_path, "d.json", json.dumps(json.loads(G2_GOLDEN) | {"comment": "hello"}))
    assert run_cli(document_command(command, doc_path, graph_path)) == (2, "", "error: unknown key 'comment'\n")


def test_cli_maps_running_out_of_memory_to_one_error_line(monkeypatch, tmp_path):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cleanfactor.cli, "run_series", exhausted)
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    out_path = tmp_path / "d.json"
    argv = ["decompose", "--operator", "clean", "--input", graph_path, "--output", str(out_path)]
    assert run_cli(argv) == (2, "", "error: out of memory\n")
    assert not out_path.exists()


def test_cli_reconstruct_rejects_an_edge_inside_a_level(tmp_path):
    # format 1 could hold an edge ["a", "b"] inside level 0, which reconstruct accepted and verify refused;
    # a down row can name only indexes, and one on its own level is refused
    payload = json.loads(decomposition_text(make_g2()))
    edited(payload, ("down", 0), row_edit([0, 1, 2, 5]))  # 5 is K:b,c,d, on the level of K:a,b,c (4) itself
    doc_path = write(tmp_path, "d.json", json.dumps(payload))
    assert run_cli(["reconstruct", "--decomposition", doc_path]) == (
        2, "", "error: down row of vertex 4 on level 1: index 5 is not on a lower level\n")


SEED_DOCUMENTS = [json.loads(decomposition_text(g)) for g in (make_g2(), make_g3())]


@st.composite
def broken_documents(draw):
    """A valid format-8 document with one field edited so that it breaks a rule of the format; a down row is edited
    as its indexes and the rows are coded again."""
    payload = json.loads(json.dumps(draw(st.sampled_from(SEED_DOCUMENTS))))
    sizes = [level if type(level) is int else len(level) for level in payload["levels"]]
    n0, n = sizes[0], sum(sizes)
    junk = st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=2), st.none())
    field = draw(st.sampled_from(["down", "levels", "top"]))
    if field == "top":
        move = draw(st.sampled_from(["delete", "version", "extra"]))
        if move == "delete":
            del payload[draw(st.sampled_from(sorted(payload)))]
        elif move == "version":
            payload["format_version"] = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, True, 8.0, "8", None]))
        else:
            payload[draw(st.sampled_from(["elements", "sequences", "comment", ""]))] = draw(junk)
        return payload
    rows = payload[field] if field == "levels" else reference_decode_down(payload["levels"], payload[field])
    r = draw(st.integers(0, len(rows) - 1))
    row = rows[r]
    if field == "levels" and type(row) is int:
        # a generated level's size: anything but a positive integer, or another one, which down no longer fits
        rows[r] = draw(st.one_of(junk, st.integers(-2, 0), st.integers(1, 4).filter(lambda size: size != row)))
        return payload
    if field == "levels":
        moves = ["junk", "repeat"] + (["reverse"] if len(row) > 1 else [])
    else:
        moves = ["junk", "repeat", "out-of-range"] + (["reverse"] if len(row) > 1 else [])
    move = draw(st.sampled_from(moves))
    if move == "junk":
        # a string appended to level 0 can be a new valid label ("e" after G2's "a".."d")
        extra = st.one_of(st.booleans(), st.floats(allow_nan=False), st.none()) if field == "levels" else junk
        items = st.lists(st.one_of(extra, st.just([])), min_size=1, max_size=3)
        payload[field][r] = draw(st.one_of(junk, items.map(lambda extra: payload[field][r] + extra)))
        return payload
    if move == "repeat":
        row.insert(draw(st.integers(0, len(row) - 1)), row[0])
    elif move == "reverse":
        row.reverse()
    else:
        # a down row may name only indexes below the first index of its vertex's level
        limit = max(start for start in accumulate(sizes, initial=0) if start <= n0 + r)
        bad = draw(st.one_of(st.integers(-3, -1), st.integers(limit, n + 3)))
        row = sorted(set(row) | {bad}) if draw(st.booleans()) else [bad]
    rows[r] = row
    if field == "down":
        payload["down"] = reference_encode_down(payload["levels"], rows)
    return payload


@settings(max_examples=300, deadline=None)
@given(broken_documents())
def test_broken_documents_are_format_errors(payload):
    text = json.dumps(payload)
    with pytest.raises(DocumentFormatError):
        parse_document(text)
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = write(Path(tmp), "d.json", text)
        code, out, err = run_cli(["reconstruct", "--decomposition", doc_path])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 12), st.floats(allow_nan=False), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SEED_DOCUMENTS), st.data())
def test_parse_document_raises_only_format_errors(seed, data):
    """Any node replaced by any JSON value: the reference parser's outcome, and a format error or a document that decodes."""
    payload = json.loads(json.dumps(seed))
    parent, key = payload, data.draw(st.sampled_from(sorted(payload)))
    while isinstance(parent[key], list) and parent[key] and data.draw(st.booleans()):
        parent, key = parent[key], data.draw(st.integers(0, len(parent[key]) - 1))
    parent[key] = data.draw(json_values)
    text = json.dumps(payload)
    assert parsed(parse_document, text) == parsed(reference_parse_v8, text)
    try:
        doc = parse_document(text)
    except DocumentFormatError:
        return
    m = document_to_multipartite(doc)
    assert reconstruct_graph(doc).vertices == doc.levels[0] == m.levels[0]
    # a generated level is stored as its size; a given one (level 0, and level 1 of a bipartite start) as its labels
    assert tuple(len(level) for level in m.levels) == tuple(n if type(n) is int else len(n) for n in doc.levels)
    assert all(m.levels[li] == level for li, level in enumerate(doc.levels) if type(level) is tuple)
    verify_document_fields(doc)
    assert parse_document(to_json(doc)) == doc


def parsed(parse, text):
    """The document ``parse`` reads from ``text``, or the message it refuses the text with."""
    try:
        return parse(text)
    except DocumentFormatError as exc:
        return str(exc)


ROWS = st.lists(st.integers(-2, 9), max_size=4)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.one_of(ROWS, ROWS.map(lambda row: sorted(set(row)))), max_size=5),
    st.integers(0, 3),
    st.integers(0, 9),
    st.booleans(),
)
@example([[], [0], [], [2]], 0, 3, False)  # empty and one-index rows
@example([[0, 1], [-1]], 0, 3, False)  # a negative index
@example([[0, 1], [1, 3]], 0, 3, False)  # an index at the limit
@example([[0, 1], [1, 5]], 0, 3, False)  # an index past every vertex
@example([[0, 2], [0, 1]], 0, 3, False)  # a fall exactly at a row start: allowed
@example([[0, 2], [2, 3]], 0, 4, False)  # a repeat exactly at a row start: allowed
@example([[2], [], [1]], 0, 3, False)  # a fall across an empty row: allowed
@example([[0, 2], [1, 0]], 0, 3, False)  # a fall one position after a row start: refused
@example([[0, 2], [1, 1]], 0, 3, False)  # a repeat one position after a row start: refused
@example([[2, 3], [1, 3]], 2, 4, True)  # a seed index below the level below
@example([[2, 3], [3]], 2, 4, True)  # a one-member seed
@example([[2, 3], []], 2, 4, True)  # an empty seed
@example([[2, 3], [3, 2]], 2, 4, True)  # a seed not ascending
@example([[2, 3], [2, 4]], 2, 4, True)  # a seed index on the seed's own level
def test_first_row_fault_matches_the_per_row_reference(rows, lo, limit, seeds):
    """The first row at fault, found on the level's rows as written, and the reason its decoded walk gives, as the
    per-row reference finds them on the rows' indexes; the scan leaves each row it reached with its first index."""
    n = limit + 2  # indexes from limit up name a higher vertex, from n up none
    stored = reference_encode_level(rows)
    t = _first_fault(stored, lo, limit, 2 if seeds else 0)
    fault = None if t is None else (t, _down_problem(rows[t], lo, limit, n))
    assert fault == reference_row_fault(rows, lo, limit, n, seeds)
    reached = len(rows) if t is None else t + 1
    assert stored[:reached] == list(map(reference_encode_row, rows[:reached]))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 10**6), unique=True).map(sorted), max_size=6))
@example([[], [0], [5, 6], [-3, 0, 1_000_000]])
@example([[4, 5], [], [1, 2], [1, 3], []])  # a fall and a repeat of the first index, across an empty row
def test_gap_coding_a_level_of_strictly_ascending_rows_gives_it_back(rows):
    """The writer's codes for a level's rows, in any order, decoded by the reference, give each row back; only a
    first gap may be 0 or less."""
    stored = list(_coded(tuple(map(tuple, rows))))
    assert stored == reference_encode_level(rows) and all(gap > 0 for row in stored for gap in row[1:])
    assert reference_decode_level(stored) == rows
    firsts = [row[0] for row in rows if row]
    assert [row[0] for row in stored if row] == [b - a for a, b in zip([0] + firsts, firsts)]


LABELS = st.lists(st.sampled_from(["a", "b", "c", "d", "e", "K:a,b,c"]), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SEED_DOCUMENTS), st.data())
def test_parse_document_matches_the_reference_on_edited_labels_and_rows(seed, data):
    """A level or a down row replaced by labels or indexes, in any order, the rows coded again: the reference's
    message or document."""
    payload = json.loads(json.dumps(seed))
    field = data.draw(st.sampled_from(["levels", "down"]))
    n = sum(level if type(level) is int else len(level) for level in payload["levels"])
    items = LABELS if field == "levels" else st.lists(st.integers(-1, n), max_size=5)
    rows = payload[field] if field == "levels" else reference_decode_down(payload["levels"], payload[field])
    edit = data.draw(st.one_of(items, items.map(sorted), items.map(lambda xs: sorted(set(xs)))))
    rows[data.draw(st.integers(0, len(rows) - 1))] = edit
    if field == "down":
        payload["down"] = reference_encode_down(payload["levels"], rows)
    text = json.dumps(payload)
    assert parsed(parse_document, text) == parsed(reference_parse_v8, text)


# each bullet of the README's "Library API" section, by its heading, and the module whose __all__ it lists
API_MODULES = {
    "Graphs": "graphs",
    "Cliques": "cliques",
    "Factorisation": "factorisation",
    "Series": "series",
    "Oracle": "oracle",
    "Edge lists and documents": "io",
    "Errors": "errors",
    "Command line": "cli",
}


def _api_module(name):
    return importlib.import_module(f"cleanfactor.{name}")


def test_readme_api_list_is_the_package_all():
    # the backticked names on each bullet of the README's "Library API" section: one module's __all__ per bullet
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* ([^:]+):(.*(?:\n  .*)*)", section, re.MULTILINE)
    found = {heading: sorted(re.findall(r"`([^`]+)`", names)) for heading, names in bullets}
    assert len(found) == len(bullets)
    assert found == {heading: sorted(_api_module(name).__all__) for heading, name in API_MODULES.items()}
    assert sorted(itertools.chain.from_iterable(found.values())) == sorted(cleanfactor.__all__)


@pytest.mark.parametrize("section, prints", [("Library example", 3), ("File formats", 1)])
def test_readme_examples_print_what_their_comments_say(tmp_path, monkeypatch, capsys, section, prints):
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split(f"\n## {section}\n", 1)[1].split("```python\n", 1)[1].split("\n```\n", 1)[0]
    # the File formats example reads G2's document
    (tmp_path / "g2.json").write_text(decomposition_text(make_g2()), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(comments) == prints
    assert capsys.readouterr().out.splitlines() == comments


def test_module_all_lists_are_the_package_all():
    listed = []
    for name in API_MODULES.values():
        module = _api_module(name)
        for public in module.__all__:
            obj = getattr(module, public)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, public
        listed.extend(module.__all__)
    # no two lists share a name, so no star import in the package shadows another
    assert len(listed) == len(set(listed)) == len(cleanfactor.__all__) == len(set(cleanfactor.__all__))
    assert sorted(listed) == sorted(cleanfactor.__all__)
    namespace = {}
    exec("from cleanfactor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cleanfactor.__all__)
    # module-level names that the package's modules and the tests import, not exported
    from cleanfactor.graphs import bits
    from cleanfactor.io import FORMAT_VERSION

    # bits returns the ascending index list itself, at any width
    assert bits(0b101) == [0, 2] and bits(0) == [] and bits(1 << 1000 | 0b10) == [1, 1000] and FORMAT_VERSION == 8
    assert "bits" not in cleanfactor.__all__ and "FORMAT_VERSION" not in cleanfactor.__all__
