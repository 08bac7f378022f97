"""The pinned gates: the benchmark's documents; r16, fresh ``Random(7)`` at 16 vertices and p = .7, through every
command, and its tamper; large and adversarial inputs through the command line; and the hash-seed gate.

Each gate pins bytes by their sha256 or a message by its text, so that a change which moves either fails here.
"""

import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cleanfactor import (
    InvalidArgumentError,
    MultipartiteGraph,
    OperatorKind,
    document_to_multipartite,
    factorisation,
    format_edge_list,
    read_document,
    run_series_from_bipartite,
    to_json,
)
from conftest import random_connected_graph, run_cli
from reference_io import with_rows

ROOT = Path(__file__).parents[1]
BOM = b"\xef\xbb\xbf"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def quiet(argv: list[str]) -> str:
    """The stdout of a command that must exit 0 and write nothing to stderr."""
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    return out


def run(argv: list[str], code: int = 0, timeout: float | None = None, **env: str) -> bytes:
    """The stdout of a command run in a process of its own, which must exit ``code`` and write nothing to stderr."""
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")} | env
    done = subprocess.run([sys.executable, "-m", "cleanfactor", *argv], env=env, capture_output=True, timeout=timeout)
    assert (done.returncode, done.stderr) == (code, b"")
    return done.stdout


def grow_last_seed(payload: dict, level: int) -> str:
    """The document with the last seed of ``level`` given the last vertex of the level below that it lacks.

    The seed stays last in seed order, so the document parses; only the pairing walk can name the vertex."""
    levels = payload["levels"]
    t, lo = sum(levels[1 : level + 1]) - 1, len(levels[0]) + sum(levels[1 : level - 1])

    def edit(rows):
        rows[t] = sorted(rows[t] + [max(set(range(lo, lo + levels[level - 1])) - set(rows[t]))])

    return json.dumps(with_rows(payload, edit), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize(
    "workload, digest",
    [
        ("corpus-clean", "3afdc2caa9bed6c1f1b4e54900b4cb974da805d1ca1e95d189d74141ca096545"),
        ("large-clean", "e8a4382d0c1d049b0e815c6c8f9487a40fa006eb5a00fd35406c1db200a0a0a7"),
        ("antimatching-factor", "4b9092bd087e2603c6474a2bab4c2eea08a51138c668f97a19f25dc3cdca294b"),
    ],
)
def test_benchmark_documents_keep_their_digests(workload, digest):
    # the seed-0 document digest of every benchmark workload: a speed-up must not change the bytes
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "0", "--seconds", "1"]
    lines = subprocess.run(argv, capture_output=True, check=True, text=True).stdout.splitlines()
    info, result = json.loads(lines[0]), json.loads(lines[-1])
    assert (result["failed"], info["doc_digest"]) == (0, digest)


# Fresh Random(7) (16, .7): 1,850 vertices, 1,834 of them generated, and its factor series to five levels (16, 19,
# 75, 474, 4679), whose 474-member top level takes the column partners. verify's report reads 2:75/75 3:414/414
# 4:733/733 5:493/493 6:100/100, and the oracle lists 75 non-simple intersections and 733 three-element chains. The
# --dot file (18,837 lines) and the anti-matching n = 5 edge list pin MultipartiteGraph.edges()
R16_PINS = {
    "r16.json": "9220eda50ac75e005925b4583d8956f4a2f07e6b380565d3450ad50cd037e0a6",
    "r16f.json": "ff58c7f450cabe6cf1adde85fff57de27cc9fb8e058f9fd95eac57988a261ba3",
    "r16v.txt": "148869bdfc8b0b366d90eedc4bad0bf21e551bbe96350d215dc43c92e136a90a",
    "r16c.txt": "5613983d6d88cb8e05024c8db94f6b8339e7352ca5f5d932258227470e3e6d4a",
    "r16o.txt": "b5d180ff6e55c258ec8c7f81e2dd70b34ccf177d9fb8a5530cc7d534d5c09b75",
    "r16.dot": "feb956a1831fc0f5e42b1b5b6952617aa3408a817771da76f0f0623dc1790212",
    "am5.txt": "e8c3e55994a5c3a0e5a8040c14cbbf6d88facc64db678ec84db40c5323855d3e",
}


@pytest.fixture(scope="module")
def r16(tmp_path_factory) -> Path:
    """A directory holding the r16 edge list and every file of ``R16_PINS``, each written by its command."""
    d = tmp_path_factory.mktemp("r16")
    (d / "r16.txt").write_text(format_edge_list(random_connected_graph(random.Random(7), 16, 0.7)), encoding="utf-8")
    edges = ["--input", str(d / "r16.txt")]
    quiet(["decompose", "--operator", "clean", *edges, "--output", str(d / "r16.json"), "--dot", str(d / "r16.dot")])
    quiet(["decompose", "--operator", "factor", "--max-levels", "5", *edges, "--output", str(d / "r16f.json")])
    for name, argv in [
        ("am5.txt", ["gen", "anti-matching", "5"]),
        ("r16v.txt", ["verify", "--decomposition", str(d / "r16.json"), *edges]),
        ("r16c.txt", ["cliques", *edges]),
        ("r16o.txt", ["oracle", "--chains", "3", *edges]),
    ]:
        (d / name).write_bytes(quiet(argv).encode("utf-8"))
    return d


def test_r16_outputs_keep_their_pins(r16):
    assert {name: sha((r16 / name).read_bytes()) for name in R16_PINS} == R16_PINS
    # re-serialising the parsed document gives the file's bytes
    text = (r16 / "r16.json").read_text(encoding="utf-8")
    assert to_json(read_document(str(r16 / "r16.json"))) == text


def test_verify_names_the_r16_vertex_whose_seed_was_grown(r16, tmp_path):
    # the last level-4 seed with the last level-3 vertex it lacks added: the pairing walk names that vertex, by the
    # row the graph rebuilds from it
    tampered = tmp_path / "r16t.json"
    tampered.write_text(grow_last_seed(json.loads((r16 / "r16.json").read_text(encoding="utf-8")), 4), encoding="utf-8")
    code, out, _ = run_cli(["verify", "--decomposition", str(tampered), "--input", str(r16 / "r16.txt")])
    failure = "level 4, vertex 'L4:v02,v06,v14#3': no 3-element chain predicts its lower neighbourhood"
    assert code == 1 and f"bijection: FAIL ({failure})" in out.splitlines()


def test_the_constructor_rebuilds_r16_and_refuses_a_row_its_seed_does_not_fix(r16):
    # each of the decoded graph's 1,815 rows above level 1 is checked against the row its seed fixes. With one
    # level-0 neighbour dropped from one top-level row, which its seed then does not fix, that vertex is named
    start = time.perf_counter()
    m = document_to_multipartite(read_document(str(r16 / "r16.json")))
    levels, edges = m.levels, m.edges()
    assert MultipartiteGraph(levels, edges).edges() == edges
    k, top, level0 = len(levels) - 1, set(levels[-1]), set(levels[0])
    u, x = next((u, x) for u, x in edges if x in top and u in level0)
    with pytest.raises(InvalidArgumentError) as err:
        MultipartiteGraph(levels, [e for e in edges if e != (u, x)])
    below = f"has other neighbours below level {k - 1} than those its neighbours on level {k - 1} share"
    assert str(err.value) == f"vertex {x!r} on level {k} {below}"
    assert time.perf_counter() - start < 60


@pytest.mark.parametrize("ending", [b"\r\n", b"\r", BOM], ids=["crlf", "cr", "bom"])
def test_r16_with_other_line_endings_decomposes_to_the_pinned_bytes(r16, tmp_path, ending):
    text = (r16 / "r16.txt").read_bytes()
    assert b"\r" not in text and not text.startswith(BOM)
    variant = tmp_path / "r16.txt"
    variant.write_bytes(BOM + text if ending == BOM else text.replace(b"\n", ending))
    quiet(["decompose", "--operator", "clean", "--input", str(variant), "--output", str(tmp_path / "r16.json")])
    assert sha((tmp_path / "r16.json").read_bytes()) == R16_PINS["r16.json"]


def edge_list(tmp_path: Path, lines) -> list[str]:
    path = tmp_path / "g.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["--input", str(path)]


def test_k1100_decomposes_and_verifies(tmp_path):
    # the complete graph K_1100 is one maximal clique of 1100 vertices
    edges = edge_list(tmp_path, (f"v{u:04d} v{v:04d}" for u, v in itertools.combinations(range(1100), 2)))
    doc = str(tmp_path / "k1100.json")
    quiet(["decompose", "--operator", "clean", *edges, "--output", doc])
    quiet(["verify", "--decomposition", doc, *edges])


def test_weak_step_on_more_uppers_than_bottoms_walks_the_bottoms_columns(monkeypatch):
    # 1,101 uppers u_j - b_i (i <= j) over 1,100 bottoms: the weak step walks the bottoms' columns, a chain of 1,099
    # nested seeds {b_0..b_i}
    n = 1100
    bottoms, uppers = [f"b{i:04d}" for i in range(n)], [f"u{j:04d}" for j in range(n + 1)]
    h = MultipartiteGraph((bottoms, uppers), [(b, u) for j, u in enumerate(uppers) for b in bottoms[: j + 1]])
    walked, closed_seeds = [], factorisation._closed_seeds
    spy = lambda members, *rest: walked.append(len(members)) or closed_seeds(members, *rest)  # noqa: E731
    monkeypatch.setattr(factorisation, "_closed_seeds", spy)
    assert run_series_from_bipartite(h, OperatorKind.WEAK, max_levels=3).level_sizes == (n, n + 1, n - 1)
    assert walked == [n]


def test_the_oracle_lists_a_chain_of_a_thousand_nested_intersections(tmp_path):
    # the nested cliques {b_i, a_1..a_i}, a0001..a1005 pairwise adjacent: their 1,003 non-simple intersections form
    # one chain, which the oracle walks without deep recursion, in seconds; a listing many times slower fails
    a = [f"a{i:04d}" for i in range(1, 1006)]
    b = [f"b{i:04d} {u}" for i in range(1, 1006) for u in a[:i]]
    edges = edge_list(tmp_path, [f"{u} {v}" for u, v in itertools.combinations(a, 2)] + b)
    out = run(["oracle", "--chains", "1003", *edges], timeout=120)
    assert out.count(b"\n") == 1004
    assert sha(out) == "53f4235cf6f06ca7e69f5ca53078feb8720449f4aa08f4dc6f0c83b139046c27"


def test_a_sparse_union_of_cliques_decomposes_verifies_and_lists_its_chains(tmp_path):
    # 150 groups of 3 to 6 of 300 vertices, most pairs of its 233 maximal cliques disjoint: 184 non-simple
    # intersections and 29 two-element chains
    rng = random.Random(1)
    groups = [rng.sample(range(300), rng.randint(3, 6)) for _ in range(150)]
    seen = {v for group in groups for v in group}
    pairs = [f"v{u:03d} v{v:03d}" for group in groups for u, v in itertools.combinations(group, 2)]
    edges = edge_list(tmp_path, pairs + [f"v{v:03d}" for v in range(300) if v not in seen])
    doc = str(tmp_path / "sparse.json")
    quiet(["decompose", "--operator", "clean", *edges, "--output", doc])
    quiet(["verify", "--decomposition", doc, *edges])
    out = quiet(["oracle", "--chains", "2", *edges])
    assert sha(out.encode("utf-8")) == "f451fe8aca9ae3b9600dc294aafaa1dd0e21a6dc1b8684b1c136f155ada7eb44"


def test_no_output_depends_on_the_hash_seed(tmp_path):
    # set iteration order must not leak into the document bytes, the verify report or the oracle listing, nor into
    # the vertex verify names in the document whose last level-3 seed was grown
    rng = random.Random(12)
    pairs = [f"v{u:02d} v{v:02d}" for u, v in itertools.combinations(range(12), 2) if rng.random() < 0.6]
    edges, outputs = edge_list(tmp_path, pairs), []
    for seed in ("0", "1"):
        out = {name: tmp_path / f"{name}{seed}.json" for name in ("clean", "weak", "factor")}
        run(["decompose", "--operator", "clean", *edges, "--output", str(out["clean"])], PYTHONHASHSEED=seed)
        # both stop at the level budget with exit 0; weak has no card level and factor one
        for op in ("weak", "factor"):
            budget = ["--max-levels", "5", *edges, "--output", str(out[op])]
            run(["decompose", "--operator", op, *budget], PYTHONHASHSEED=seed)
        verify = run(["verify", "--decomposition", str(out["clean"]), *edges], PYTHONHASHSEED=seed)
        listing = run(["oracle", *edges, "--chains", "2"], PYTHONHASHSEED=seed)
        outputs.append({name: path.read_bytes() for name, path in out.items()} | {"reports": (verify, listing)})
    tampered = tmp_path / "grown.json"
    tampered.write_text(grow_last_seed(json.loads(outputs[0]["clean"]), 3), encoding="utf-8")
    named = [run(["verify", "--decomposition", str(tampered), *edges], 1, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert named[0] == named[1] and re.search(rb"^bijection: FAIL \(level 3, vertex ", named[0], re.M)
    assert outputs[0] == outputs[1]
    # pinned too, so a change to the one-card walk that moves both runs alike still fails here
    assert sha(outputs[0]["weak"]) == "fc73eaaf7a8dfcf59ad1ab6893249b976bf2df438ced68ab6532be38155b6f20"
    assert sha(outputs[0]["factor"]) == "6d984f56c334832686e3d323754e59047a9fa29f8e4915b736c79068babff6de"


def test_the_workflow_runs_no_check_outside_pytest():
    # every gate is a test, so that one pytest command runs them all; only the installed-package step, which
    # installs the package, runs shell of its own
    steps = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8").split("\n      - ")[1:]
    installed = [step for step in steps if step.startswith("name: Installed package\n")]
    assert len(installed) == 1
    for step in steps:
        if step not in installed and "run:" in step:
            assert not re.search(r"<<|\bsha256sum\b|\bcmp\b|\bgrep\b", step.split("run:", 1)[1]), step
