"""Edge-list parsing, document round trips, and the command line."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanfactor import (
    DecompositionDocument,
    DocumentFormatError,
    EdgeListParseError,
    Graph,
    InvalidArgumentError,
    OperatorKind,
    anti_matching,
    build_document,
    cli_main,
    document_to_multipartite,
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
    write_decomposition,
)
from cleanfactor.io import LevelRecord, VertexRecord

from conftest import make_g2, make_g3, random_connected_graph
from reference_io import reference_parse_document, reference_to_json

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


def test_format_edge_list_round_trips(tmp_path):
    g = Graph(["a", "b", "z"], [("a", "b")])
    path = write(tmp_path, "r.txt", format_edge_list(g))
    assert read_edge_list(path) == g


def test_document_shape_triangle(triangle):
    doc = build_document(run_series(triangle, OperatorKind.CLEAN), graph_content_hash(triangle))
    assert len(doc.levels) == 2
    assert sum(len(level.vertices) for level in doc.levels) == 4
    assert len(doc.edges) == 3
    assert doc.status == "terminated" and doc.operator == "clean"


def test_document_shape_g2():
    g = make_g2()
    doc = build_document(run_series(g, OperatorKind.CLEAN), graph_content_hash(g))
    assert len(doc.levels) == 3
    assert sum(len(level.vertices) for level in doc.levels) == 7
    (record,) = doc.levels[2].vertices
    assert record.sequence == (("b", "c"),)


def test_serialization_is_byte_deterministic():
    g = make_g3()
    assert decomposition_text(g) == decomposition_text(g)


def test_reserializing_a_parsed_document_is_byte_identical():
    text = decomposition_text(make_g2())
    assert to_json(parse_document(text)) == text


def test_json_keys_are_sorted():
    payload = json.loads(decomposition_text(make_g2()))
    assert list(payload) == sorted(payload)


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
    bad = dict(good, edges=good["edges"] + [["ghost", "a"]])
    with pytest.raises(DocumentFormatError):
        parse_document(json.dumps(bad))


def test_codec_matches_the_reference_on_benchmark_documents(clean_runs):
    runs, _ = clean_runs
    docs = [build_document(result, graph_content_hash(g)) for g, result in runs]
    rng = random.Random(7)
    for n, p in ((14, 0.5), (16, 0.5), (18, 0.5), (20, 0.5), (16, 0.7)):
        g = random_connected_graph(rng, n, p)
        docs.append(build_document(run_series(g, OperatorKind.CLEAN), graph_content_hash(g)))
    for n in (3, 4, 5):
        h = anti_matching(n)
        result = run_series_from_bipartite(h, OperatorKind.FACTOR)
        docs.append(build_document(result, graph_content_hash(Graph(h.vertices, h.edges()))))
    for doc in docs:
        text = reference_to_json(doc)
        assert to_json(doc) == text
        assert parse_document(text) == reference_parse_document(text) == doc


# quotes, escapes, control and non-ASCII characters, an astral character, and the generated id syntax
ADVERSARIAL = '"\\\n\x00\u00e9\U0001d11e,:#ab'
adversarial_labels = st.one_of(
    st.text(ADVERSARIAL, min_size=1, max_size=5),
    st.builds(str.__add__, st.sampled_from(["K:", "L2:"]), st.text(ADVERSARIAL, max_size=3)),
)


@st.composite
def documents(draw):
    ids = draw(st.lists(adversarial_labels, min_size=2, max_size=10, unique=True))
    level_of = [0, 1] + [draw(st.integers(0, 3)) for _ in ids[2:]]
    used = sorted(set(level_of))
    levels = []
    for pos, li in enumerate(used):
        records = []
        for vid, lv in zip(ids, level_of):
            if lv != li:
                continue
            label = draw(st.one_of(st.just(vid), adversarial_labels))
            sequence = None
            if pos >= 2 or draw(st.booleans()):
                sequence = tuple(tuple(o) for o in draw(st.lists(st.lists(adversarial_labels, max_size=3), max_size=3)))
            records.append(VertexRecord(id=vid, label=label, sequence=sequence))
        levels.append(LevelRecord(index=pos, vertices=tuple(records)))
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=8))
    return DecompositionDocument(
        format_version=1,
        source_hash=draw(st.text(ADVERSARIAL)),
        operator=draw(st.sampled_from(["weak", "factor", "clean"])),
        status=draw(st.sampled_from(["terminated", "budget-exceeded"])),
        levels=tuple(levels),
        edges=tuple(edges),
    )


@settings(max_examples=300, deadline=None)
@given(documents())
def test_codec_matches_the_reference_on_adversarial_labels(doc):
    text = to_json(doc)
    assert text == reference_to_json(doc)
    assert text.isascii()
    parsed = parse_document(text)
    assert parsed == reference_parse_document(text) == doc
    assert to_json(parsed) == text


def test_to_json_writes_empty_containers_like_json_dumps():
    vertex = VertexRecord(id="x", label="x", sequence=())
    docs = [
        DecompositionDocument(1, "h", "clean", "terminated", (), ()),
        DecompositionDocument(1, "h", "clean", "terminated", (LevelRecord(0, ()),), ()),
        DecompositionDocument(1, "h", "clean", "terminated", (LevelRecord(0, (vertex,)),), ()),
        DecompositionDocument(1, "h", "clean", "terminated", (LevelRecord(0, (VertexRecord("x", "x", ((),)),)),), ()),
    ]
    for doc in docs:
        assert to_json(doc) == reference_to_json(doc)


DELETE = object()
SEQUENCE = ("levels", 2, "vertices", 0, "sequence")
NOT_LABEL_LISTS = "vertex 'L2:a,b,c,d': sequence must be a list of label lists"


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
        (SEQUENCE, DELETE, "vertex 'L2:a,b,c,d' at level 2 needs a sequence"),
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
    payload = json.loads(decomposition_text(make_g2()))
    *parents, last = path
    target = payload
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    text = json.dumps(payload)
    with pytest.raises(DocumentFormatError) as err:
        parse_document(text)
    assert str(err.value) == message
    with pytest.raises(DocumentFormatError) as err:
        reference_parse_document(text)
    assert str(err.value) == message


@pytest.mark.parametrize("edges", [5, None], ids=["number", "null"])
def test_cli_verify_rejects_non_list_edges(tmp_path, capsys, edges):
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    payload = json.loads(decomposition_text(make_g2()))
    payload["edges"] = edges
    doc_path = write(tmp_path, "d.json", json.dumps(payload))
    capsys.readouterr()
    assert cli_main(["verify", "--decomposition", doc_path, "--input", graph_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: edges must be a list\n"


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
    payload["edges"] = payload["edges"][1:]  # drop one edge
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


def tamper_vertex_field(tmp_path, level, field, value):
    """Decompose G2, overwrite one field of the first vertex record on ``level``, return the verify argv."""
    graph_path = write(tmp_path, "g2.txt", G2_TEXT)
    out_path = tmp_path / "d.json"
    cli_main(["decompose", "--operator", "clean", "--input", graph_path, "--output", str(out_path)])
    payload = json.loads(out_path.read_text())
    payload["levels"][level]["vertices"][0][field] = value
    out_path.write_text(json.dumps(payload))
    return ["verify", "--decomposition", str(out_path), "--input", graph_path]


@pytest.mark.parametrize(
    "level, field, value, detail",
    [
        (2, "sequence", [["b", "c", "d"]], """vertex 'L2:a,b,c,d': stored sequence [["b", "c", "d"]] but the graph gives [["b", "c"]]"""),
        (2, "sequence", [["c", "b"]], """vertex 'L2:a,b,c,d': stored sequence [["c", "b"]] but the graph gives [["b", "c"]]"""),
        (0, "sequence", [["a", "b"]], """vertex 'a': stored sequence [["a", "b"]] but the graph gives null"""),
        (1, "label", "K:x", "vertex 'K:a,b,c': label 'K:x' differs from its id"),
    ],
    ids=["sequence", "unsorted-sequence", "level-0-sequence", "label"],
)
def test_cli_verify_rejects_tampered_document_fields(tmp_path, capsys, level, field, value, detail):
    argv = tamper_vertex_field(tmp_path, level, field, value)
    capsys.readouterr()
    assert cli_main(argv) == 1
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


def test_cli_threads_do_not_change_output_bytes(tmp_path):
    graph_path = write(tmp_path, "g3.txt", format_edge_list(make_g3()))
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    cli_main(["decompose", "--operator", "clean", "--input", graph_path, "--output", str(one)])
    cli_main(["decompose", "--operator", "clean", "--input", graph_path, "--output", str(two), "--threads", "4"])
    assert one.read_bytes() == two.read_bytes()


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
    graph_path = write(tmp_path, "clash.txt", G2_TEXT + "L2:a,b,c,d\n")
    out_path = tmp_path / "d.json"
    argv = ["decompose", "--operator", "clean", "--input", graph_path, "--output", str(out_path)]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: vertex 'L2:a,b,c,d' appears in more than one level\n"
    assert not out_path.exists()


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
