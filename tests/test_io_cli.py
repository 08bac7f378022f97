"""Edge-list parsing, document round trips, and the command line."""

import contextlib
import hashlib
import importlib
import inspect
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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
from cleanfactor.io import _strict
from conftest import make_g2, make_g3, random_connected_graph
from reference_io import (
    reference_build_document,
    reference_decode,
    reference_parse_document,
    reference_parse_v3,
    reference_strict,
    reference_to_json,
)

G2_TEXT = "a b\na c\nb c\nb d\nc d\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def decomposition_text(g, op=OperatorKind.CLEAN):
    return write_decomposition(run_series(g, op), graph_content_hash(g))


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
    assert doc.levels == (("a", "b", "c"), ("K:a,b,c",))
    assert doc.down == ((0, 1, 2),)
    assert doc.status == "terminated" and doc.operator == "clean"


def test_document_shape_g2():
    g = make_g2()
    doc = build_document(run_series(g, OperatorKind.CLEAN), graph_content_hash(g))
    assert doc.levels == (("a", "b", "c", "d"), ("K:a,b,c", "K:b,c,d"), ("L2:b,c",))
    assert doc.down == ((0, 1, 2), (1, 2, 3), (1, 2, 4, 5))
    # the one sequence, ({b, c}), is not stored: the library recovers it from the graph
    m = document_to_multipartite(doc)
    assert characterising_sequence(m, "L2:b,c") == (frozenset("bc"),)


G2_GOLDEN = (
    '{"down":[[0,1,2],[1,2,3],[1,2,4,5]],"format_version":3,'
    '"levels":[["a","b","c","d"],["K:a,b,c","K:b,c,d"],["L2:b,c"]],"operator":"clean",'
    '"source_hash":"sha256:9970d400b34ce5f898538d86e881d67f8fc872f293e0c3786ff39d7d4d2da7c1","status":"terminated"}\n'
)
G3_GOLDEN = (
    '{"down":[[0,1,2,3],[0,1,2,4],[0,1,5],[0,1,6,7,8],[0,1,2,6,7],[0,1,6,7,9,10]],'
    '"format_version":3,"levels":[["1","2","3","4","5","6"],["K:1,2,3,4","K:1,2,3,5","K:1,2,6"],'
    '["L2:1,2","L2:1,2,3"],["L3:1,2"]],"operator":"clean",'
    '"source_hash":"sha256:6fa31bd095ab454ebfba77659ff7408909733029efa4bdcf954e99258a1a4ba8","status":"terminated"}\n'
)
# G2 in format 2, which also stored every vertex's sequence, in ``elements`` and ``sequences``
G2_FORMAT_2 = (
    '{"down":[[0,1,2],[1,2,3],[1,2,4,5]],"elements":[[1,2]],"format_version":2,'
    '"levels":[["a","b","c","d"],["K:a,b,c","K:b,c,d"],["L2:a,b,c,d"]],"operator":"clean","sequences":[[0]],'
    '"source_hash":"sha256:9970d400b34ce5f898538d86e881d67f8fc872f293e0c3786ff39d7d4d2da7c1","status":"terminated"}\n'
)


@pytest.mark.parametrize("make, golden", [(make_g2, G2_GOLDEN), (make_g3, G3_GOLDEN)], ids=["G2", "G3"])
def test_golden_bytes(make, golden):
    assert decomposition_text(make()) == golden


@pytest.mark.parametrize(
    "op, digest",
    [
        (OperatorKind.WEAK, "fba6eed53ab69e2dd585d18938d26ff603acce879d8bc58e8726a36a77490fb0"),
        (OperatorKind.FACTOR, "cab6ffb41931b2565d20a6adfcab476ac3882e32e3c6506eced970ae577d8c33"),
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


def assert_named_by_level0_neighbours(doc: DecompositionDocument) -> int:
    """Every vertex above level 1 is ``L<k>:`` plus its level-0 neighbours' labels, read from its down row, and the
    vertices of a level that share that base are the base, then ``#2``, ``#3``, ...; returns how many carry ``#n``."""
    level0 = doc.levels[0]
    start = len(level0) + len(doc.levels[1])
    suffixed = 0
    for k, level in enumerate(doc.levels[2:], start=2):
        groups: dict[str, list[str]] = {}
        for label, row in zip(level, doc.down[start - len(level0) :]):
            base = f"L{k}:" + ",".join(level0[j] for j in row if j < len(level0))
            assert re.fullmatch(re.escape(base) + r"(#[1-9][0-9]*)?", label), (label, base)
            groups.setdefault(base, []).append(label)
        for base, names in groups.items():
            assert sorted(names) == sorted([base] + [f"{base}#{n}" for n in range(2, len(names) + 1)])
            suffixed += len(names) - 1
        start += len(level)
    return suffixed


def test_corpus_documents_name_each_vertex_by_its_level0_neighbours(clean_runs):
    runs, _ = clean_runs
    suffixed = upper = 0
    for g, result in runs:
        doc = parse_document(write_decomposition(result, graph_content_hash(g)))
        suffixed += assert_named_by_level0_neighbours(doc)
        upper += sum(map(len, doc.levels[2:]))
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
        for k, level in enumerate(doc.levels[2:], start=2):
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
    bad = dict(good, down=good["down"][:-1] + [[0, 99]])
    with pytest.raises(DocumentFormatError):
        parse_document(json.dumps(bad))


def decoded(text):
    """The graph a format-3 text decodes to, and each vertex's recovered sequence as level-0 label tuples."""
    m = document_to_multipartite(parse_document(text))
    sequences = {
        x: tuple(tuple(sorted(o)) for o in characterising_sequence(m, x))
        for x in itertools.chain.from_iterable(m.levels[2:])
    }
    return m, sequences


def assert_formats_agree(result, source_hash):
    """Format 3 decodes to format 1's graph, on which ``characterising_sequence`` gives the sequences format 1 stores.

    Format 1 is the reference codec and fills its sequences with ``reference_sequence``.
    """
    v1 = reference_to_json(reference_build_document(result, source_hash))
    v3 = write_decomposition(result, source_hash)
    assert v3.isascii()
    assert to_json(parse_document(v3)) == v3
    m, sequences = decoded(v3)
    assert (m, sequences) == reference_decode(reference_parse_document(v1))
    assert m == result.final


def test_codec_matches_the_reference_on_benchmark_documents(clean_runs):
    runs, _ = clean_runs
    rng = random.Random(7)
    large = [random_connected_graph(rng, n, p) for n, p in ((14, 0.5), (16, 0.5), (18, 0.5), (20, 0.5), (16, 0.7))]
    for g, result in runs + [(g, run_series(g, OperatorKind.CLEAN)) for g in large]:
        assert_formats_agree(result, graph_content_hash(g))
        # every stored label, #n suffixes included, is the one verify recomputes
        doc = parse_document(write_decomposition(result, graph_content_hash(g)))
        fields = verify_document_fields(doc, document_to_multipartite(doc))
        assert fields.passed, fields.counterexample
    for n in (3, 4, 5):
        h = anti_matching(n)
        result = run_series_from_bipartite(h, OperatorKind.FACTOR)
        assert_formats_agree(result, graph_content_hash(Graph(h.vertices, h.edges())))


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
    if unwritable(g):
        with pytest.raises(InvalidArgumentError):
            format_edge_list(g)
        return
    text = format_edge_list(g)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text, encoding="utf-8")
        assert read_edge_list(path) == g


@st.composite
def multipartite_runs(draw):
    """A finished run on a multipartite graph with adversarial labels and any edges between levels."""
    labels = draw(st.lists(adversarial_labels, min_size=2, max_size=10, unique=True))
    level_of = [0, 1] + [draw(st.integers(0, 3)) for _ in labels[2:]]
    used = sorted(set(level_of))
    levels = [[v for v, lv in zip(labels, level_of) if lv == li] for li in used]
    pairs = [(u, v) for a, lower in enumerate(levels) for upper in levels[a + 1 :] for u in lower for v in upper]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    m = MultipartiteGraph(levels, edges)
    return SeriesResult(
        final=m,
        status=draw(st.sampled_from(list(SeriesStatus))),
        steps=m.level_count - 2,
        level_sizes=tuple(len(level) for level in m.levels),
        operator=draw(st.sampled_from(list(OperatorKind))),
    )


@settings(max_examples=300, deadline=None)
@given(multipartite_runs(), st.text(ADVERSARIAL))
def test_codec_matches_the_reference_on_adversarial_labels(result, source_hash):
    assert_formats_agree(result, source_hash)
    doc = parse_document(write_decomposition(result, source_hash))
    assert (doc.source_hash, doc.operator, doc.status) == (source_hash, result.operator.value, result.status.value)


def test_to_json_writes_empty_containers_like_json_dumps():
    # a vertex without lower neighbours
    docs = [
        DecompositionDocument(3, "h", "weak", "budget-exceeded", (("a",), ("b",), ("c",)), ((), (0,))),
        DecompositionDocument(3, "h", "clean", "terminated", (("a",), ("b",)), ((0,),)),
    ]
    for doc in docs:
        payload = {
            "format_version": 3,
            "source_hash": doc.source_hash,
            "operator": doc.operator,
            "status": doc.status,
            "levels": [list(level) for level in doc.levels],
            "down": [list(row) for row in doc.down],
        }
        text = to_json(doc)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert parse_document(text) == doc


DELETE = object()
SEQUENCE = ("levels", 2, "vertices", 0, "sequence")
NOT_LABEL_LISTS = "vertex 'L2:b,c': sequence must be a list of label lists"
OLD_FORMAT_REJECTED = "unsupported format_version: this reader takes 3"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("edges", 0), "a b", "edges must be pairs of ids"),
        (("edges", 0), ["a", "K:a,b,c", "b"], "edges must be pairs of ids"),
        (("edges", 0), ["a", 1], "edges must be pairs of ids"),
        (("edges", 0), ["ghost", "a"], "edge ['ghost', 'a'] references an undeclared id"),
        (("edges",), 5, "edges must be a list"),
        (("edges",), None, "edges must be a list"),
        (SEQUENCE, ["b"], NOT_LABEL_LISTS),
        (SEQUENCE, [["b", 1]], NOT_LABEL_LISTS),
        (SEQUENCE, [["b", ["c"]]], NOT_LABEL_LISTS),
        (SEQUENCE, None, NOT_LABEL_LISTS),
        (SEQUENCE, DELETE, "vertex 'L2:b,c' at level 2 needs a sequence"),
        (("levels", 1, "vertices", 0, "id"), "a", "duplicate vertex id 'a'"),
        (("levels", 0, "vertices", 1, "id"), None, "vertex id must be a string"),
        (("levels", 0, "vertices", 1, "label"), 2, "vertex label must be a string"),
        (("levels", 0, "vertices", 1), "b", "vertex records must be objects"),
        (("levels", 1, "index"), True, "level index True out of order"),
        (("format_version",), True, "unsupported format_version"),
        (("format_version",), 1.0, "unsupported format_version"),
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
def test_parse_document_rejections_match_the_reference(path, value, message):
    """Malformed format-1 documents: the reference names the fault, the library refuses the format."""
    g = make_g2()
    v1 = reference_to_json(reference_build_document(run_series(g, OperatorKind.CLEAN), graph_content_hash(g)))
    text = json.dumps(edited(json.loads(v1), path, value))
    with pytest.raises(DocumentFormatError) as err:
        reference_parse_document(text)
    assert str(err.value) == message
    with pytest.raises(DocumentFormatError) as err:
        parse_document(text)
    assert str(err.value) == OLD_FORMAT_REJECTED


def edited(payload, path, value):
    """``payload`` with the item at ``path`` set to ``value``, or deleted for ``DELETE``."""
    *parents, last = path
    target = payload
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return payload


# G2 in format 3: levels a b c d | K:a,b,c K:b,c,d | L2:b,c, so level 1 holds indexes 4, 5 and level 2 index 6
@pytest.mark.parametrize(
    "path, value, message",
    [
        (("down", 0), [0, 1, 4], "down row of 'K:a,b,c': index 4 is not on a lower level"),
        (("down", 0), [0, 1, 6], "down row of 'K:a,b,c': index 6 is not on a lower level"),
        (("down", 2), [1, 2, 4, 6], "down row of 'L2:b,c': index 6 is not on a lower level"),
        (("down", 0), [-1, 0, 1], "down row of 'K:a,b,c': index -1 is out of range"),
        (("down", 0), [0, 1, 7], "down row of 'K:a,b,c': index 7 is out of range"),
        (("down", 0), [0, 2, 1], "down row of 'K:a,b,c': indexes are not strictly ascending"),
        (("down", 0), [0, 1, 1], "down row of 'K:a,b,c': indexes are not strictly ascending"),
        (("down", 0), [0, 1, True], "down must hold integer indexes"),
        (("down", 0), [0, 1, 2.0], "down must hold integer indexes"),
        (("down", 0), "0 1 2", "down must be a list of index lists"),
        (("down", 2), DELETE, "down must hold 3 rows, not 2"),
        (("down",), None, "down must be a list of index lists"),
        (("levels", 0), ["b", "a", "c", "d"], "level 0: labels are not sorted and distinct"),
        (("levels", 0), ["a", "a", "c", "d"], "level 0: labels are not sorted and distinct"),
        (("levels", 0), ["K:a,b,c", "b", "c", "d"], "a label appears on more than one level"),
        (("levels", 0), ["a", "b", "c", 4], "level 0 must be a non-empty list of labels"),
        (("levels", 2), [], "level 2 must be a non-empty list of labels"),
        (("levels",), [["a", "b", "c", "d"]], "need at least two levels"),
        (("operator",), "strong", "unknown operator"),
        (("status",), None, "unknown status"),
        (("source_hash",), 7, "source_hash must be a string"),
        (("down",), DELETE, "missing key 'down'"),
        (("comment",), "hello", "unknown key 'comment'"),
        (("format_version",), 1, OLD_FORMAT_REJECTED),
        (("format_version",), 2, OLD_FORMAT_REJECTED),
        (("format_version",), True, OLD_FORMAT_REJECTED),
        (("format_version",), 3.0, OLD_FORMAT_REJECTED),
    ],
    ids=[
        "down-own-level",
        "down-level-above",
        "down-own-level-at-level-2",
        "down-negative",
        "down-beyond-last",
        "down-unsorted",
        "down-repeated",
        "down-boolean",
        "down-float",
        "down-row-not-list",
        "down-row-missing",
        "down-null",
        "level-unsorted",
        "level-repeated",
        "label-on-two-levels",
        "label-not-string",
        "level-empty",
        "one-level",
        "unknown-operator",
        "unknown-status",
        "hash-not-string",
        "missing-key",
        "unknown-key",
        "format-version-1",
        "format-version-2",
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


def test_cli_decompose_and_verify_round_trip(tmp_path, capsys):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    out_path = str(tmp_path / "d.json")
    assert cli_main(["decompose", "--operator", "clean", "--input", graph_path, "--output", out_path]) == 0
    assert "status=terminated" in capsys.readouterr().out
    assert cli_main(["verify", "--decomposition", out_path, "--input", graph_path]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 5


def test_cli_verify_rejects_tampered_document(tmp_path, capsys):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    out_path = str(tmp_path / "d.json")
    cli_main(["decompose", "--operator", "clean", "--input", graph_path, "--output", out_path])
    payload = json.loads((tmp_path / "d.json").read_text())
    payload["down"][0] = payload["down"][0][1:]  # drop one edge
    (tmp_path / "d.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli_main(["verify", "--decomposition", out_path, "--input", graph_path]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_prints_level_counts(tmp_path, capsys):
    graph_path = write(tmp_path, "g3.txt", format_edge_list(make_g3()))
    out_path = str(tmp_path / "d.json")
    cli_main(["decompose", "--operator", "clean", "--input", graph_path, "--output", out_path])
    capsys.readouterr()
    assert cli_main(["verify", "--decomposition", out_path, "--input", graph_path]) == 0
    assert "bijection: ok (2:2/2 3:1/1)\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "graph, edit, detail",
    [
        (
            make_g2,
            {"levels": [["a", "b", "c", "d"], ["K:x", "K:y"], ["not a canonical label"]]},
            "vertex 4: label 'K:x' but the graph gives 'K:a,b,c'",
        ),
        (
            make_g2,
            {"levels": [["a", "b", "c", "d"], ["K:a,b,c", "K:b,c,d"], ["L2:a,b"]]},
            "vertex 6: label 'L2:a,b' but the graph gives 'L2:b,c'",
        ),
        (
            make_g3,
            {
                "levels": [
                    ["1", "2", "3", "4", "5", "6"],
                    ["K:1,2,3,4", "K:1,2,3,5", "K:1,2,6"],
                    ["L2:1,2#2", "L2:1,2,3"],
                    ["L3:1,2"],
                ]
            },
            "vertex 9: label 'L2:1,2#2' but the graph gives 'L2:1,2'",
        ),
    ],
    ids=["renamed-levels", "level-2-label", "suffix"],
)
def test_cli_verify_rejects_tampered_document_fields(tmp_path, capsys, graph, edit, detail):
    g = graph()
    graph_path = write(tmp_path, "g.txt", format_edge_list(g))
    doc_path = write(tmp_path, "d.json", json.dumps(json.loads(decomposition_text(g)) | edit))
    capsys.readouterr()
    assert cli_main(["verify", "--decomposition", doc_path, "--input", graph_path]) == 1
    out = capsys.readouterr().out
    assert f"document-fields: FAIL ({detail})\n" in out
    assert out.count(": ok") == 4


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("status", "budget-exceeded", "status 'budget-exceeded': only terminated series are certified"),
        ("operator", "weak", "operator 'weak': only clean decompositions are certified"),
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


def test_cli_decompose_rejects_a_label_clash_with_one_error_line(tmp_path, capsys):
    # an isolated vertex named like the label the clean step gives G2's new vertex
    graph_path = write(tmp_path, "clash.txt", G2_TEXT + "L2:b,c\n")
    out_path = tmp_path / "d.json"
    argv = ["decompose", "--operator", "clean", "--input", graph_path, "--output", str(out_path)]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: vertex 'L2:b,c' appears more than once\n"
    assert not out_path.exists()


@pytest.mark.parametrize("text, label", [("K:b c\nc d\nb\n", "K:b"), ("a b\na,b\n", "K:a,b")])
def test_cli_decompose_rejects_a_repeated_generated_label_with_one_error_line(tmp_path, text, label):
    # K:b is a level-0 label and the level-1 label of the clique {b}; both cliques of the second are labelled K:a,b
    graph_path = write(tmp_path, "g.txt", text)
    out_path = tmp_path / "d.json"
    argv = ["decompose", "--operator", "clean", "--input", graph_path, "--output", str(out_path)]
    assert run_cli(argv) == (2, "", f"error: vertex {label!r} appears more than once\n")
    assert not out_path.exists()


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


def run_cli(argv):
    """Exit status, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_cli_writes_utf8_whatever_the_locale(tmp_path, encoding):
    # é lies in both cliques {a,b,é} and {a,c,é}, so the oracle lists {a,é}
    graph_path = write(tmp_path, "g.txt", "é a\né b\na b\né c\na c\n")
    loop_path = write(tmp_path, "loop.txt", "é é\n")
    doc_path, bad_path = str(tmp_path / "d.json"), write(tmp_path, "bad.json", "")
    assert run_cli(["decompose", "--operator", "clean", "--input", graph_path, "--output", doc_path])[0] == 0
    doc = read_document(doc_path)
    # without its level-0 vertex a, the level-2 row is predicted by no chain, and verify names its vertex
    Path(bad_path).write_text(to_json(replace(doc, down=doc.down[:-1] + (doc.down[-1][1:],))), encoding="utf-8")
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
    assert "bijection: FAIL (level 2, vertex 'L2:a,é': " in done.stdout.decode("utf-8")


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
def test_cli_rejects_a_format_1_document_with_one_error_line(tmp_path, command):
    g = make_g2()
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    v1 = reference_to_json(reference_build_document(run_series(g, OperatorKind.CLEAN), graph_content_hash(g)))
    doc_path = write(tmp_path, "d.json", v1)
    assert run_cli(document_command(command, doc_path, graph_path)) == (2, "", f"error: {OLD_FORMAT_REJECTED}\n")


@pytest.mark.parametrize("command", ["verify", "reconstruct"])
def test_cli_rejects_a_format_2_document_with_one_error_line(tmp_path, command):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    doc_path = write(tmp_path, "d.json", G2_FORMAT_2)
    assert run_cli(document_command(command, doc_path, graph_path)) == (2, "", f"error: {OLD_FORMAT_REJECTED}\n")


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
    # a format-3 row can name only indexes, and one on its own level is refused
    payload = json.loads(decomposition_text(make_g2()))
    payload["down"][0] = [0, 1, 2, 5]  # 5 is 'K:b,c,d', on the level of 'K:a,b,c' itself
    doc_path = write(tmp_path, "d.json", json.dumps(payload))
    assert run_cli(["reconstruct", "--decomposition", doc_path]) == (
        2, "", "error: down row of 'K:a,b,c': index 5 is not on a lower level\n")


SEED_DOCUMENTS = [json.loads(decomposition_text(g)) for g in (make_g2(), make_g3())]


@st.composite
def broken_documents(draw):
    """A valid format-3 document with one field edited so that it breaks a rule of the format."""
    payload = json.loads(json.dumps(draw(st.sampled_from(SEED_DOCUMENTS))))
    n0, n = len(payload["levels"][0]), sum(map(len, payload["levels"]))
    junk = st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=2), st.none())
    field = draw(st.sampled_from(["down", "levels", "top"]))
    if field == "top":
        move = draw(st.sampled_from(["delete", "version", "extra"]))
        if move == "delete":
            del payload[draw(st.sampled_from(sorted(payload)))]
        elif move == "version":
            payload["format_version"] = draw(st.sampled_from([1, 2, True, 3.0, "3", None]))
        else:
            payload[draw(st.sampled_from(["elements", "sequences", "comment", ""]))] = draw(junk)
        return payload
    rows = payload[field]
    r = draw(st.integers(0, len(rows) - 1))
    row = rows[r]
    if field == "levels":
        moves = ["junk", "repeat", "other-level"] + (["reverse"] if len(row) > 1 else [])
    else:
        moves = ["junk", "repeat", "out-of-range"] + (["reverse"] if len(row) > 1 else [])
    move = draw(st.sampled_from(moves))
    if move == "junk":
        # a string appended to level 0 can be a new valid label ("e" after G2's "a".."d")
        extra = st.one_of(st.booleans(), st.floats(allow_nan=False), st.none()) if field == "levels" else junk
        items = st.lists(st.one_of(extra, st.just([])), min_size=1, max_size=3)
        rows[r] = draw(st.one_of(junk, items.map(lambda extra: row + extra)))
    elif move == "repeat":
        row.insert(draw(st.integers(0, len(row) - 1)), row[0])
    elif move == "reverse":
        row.reverse()
    elif move == "other-level":
        others = [v for level in payload["levels"] if level is not row for v in level]
        row.append(draw(st.sampled_from(others)))
        row.sort()
    else:
        # a down row may name only indexes below the first index of its vertex's level
        limit = max(start for start in accumulate(map(len, payload["levels"]), initial=0) if start <= n0 + r)
        bad = draw(st.one_of(st.integers(-3, -1), st.integers(limit, n + 3)))
        rows[r] = sorted(set(row) | {bad}) if draw(st.booleans()) else [bad]
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
    assert parsed(parse_document, text) == parsed(reference_parse_v3, text)
    try:
        doc = parse_document(text)
    except DocumentFormatError:
        return
    m = document_to_multipartite(doc)
    assert reconstruct_graph(doc).vertices == doc.levels[0] == m.levels[0]
    verify_document_fields(doc, m)
    assert parse_document(to_json(doc)) == doc


def parsed(parse, text):
    """The document ``parse`` reads from ``text``, or the message it refuses the text with."""
    try:
        return parse(text)
    except DocumentFormatError as exc:
        return str(exc)


ROWS = st.lists(st.integers(-2, 9), max_size=4)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(ROWS, ROWS.map(lambda row: sorted(set(row)))), max_size=5), st.integers(0, 9))
@example([[], [0], [], [2]], 3)  # empty and one-index rows
@example([[0, 1], [-1]], 3)  # a negative index
@example([[0, 1], [1, 3]], 3)  # an index at the limit
@example([[0, 2], [0, 1]], 3)  # a fall exactly at a row start: allowed
@example([[0, 2], [2, 3]], 4)  # a repeat exactly at a row start: allowed
@example([[2], [], [1]], 3)  # a fall across an empty row: allowed
@example([[0, 2], [1, 0]], 3)  # a fall one position after a row start: refused
@example([[0, 2], [1, 1]], 3)  # a repeat one position after a row start: refused
def test_flat_row_check_matches_the_per_row_reference(rows, limit):
    assert _strict(rows, limit) == reference_strict(rows, limit)


LABELS = st.lists(st.sampled_from(["a", "b", "c", "d", "e", "K:a,b,c"]), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SEED_DOCUMENTS), st.data())
def test_parse_document_matches_the_reference_on_edited_labels_and_rows(seed, data):
    """A level or a down row replaced by labels or indexes, in any order: the reference's message or document."""
    payload = json.loads(json.dumps(seed))
    field = data.draw(st.sampled_from(["levels", "down"]))
    items = LABELS if field == "levels" else st.lists(st.integers(-1, sum(map(len, payload["levels"]))), max_size=5)
    rows = payload[field]
    rows[data.draw(st.integers(0, len(rows) - 1))] = data.draw(
        st.one_of(items, items.map(sorted), items.map(lambda xs: sorted(set(xs))))
    )
    text = json.dumps(payload)
    assert parsed(parse_document, text) == parsed(reference_parse_v3, text)


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

    assert list(bits(0b101)) == [0, 2] and FORMAT_VERSION == 3
    assert "bits" not in cleanfactor.__all__ and "FORMAT_VERSION" not in cleanfactor.__all__
