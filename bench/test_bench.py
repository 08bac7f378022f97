"""Fast checks of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cleanfactor import graph_content_hash, read_edge_list

from pipeline import ADDITIVE, Tracer, layer_metrics, process
from speed import NOMINAL_S, Speedometer
from workloads import LARGE_SEED, LARGE_SHAPES, WORKLOADS, inputs, labellings, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _load_conftest():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_zero_reproduces_the_suite_graphs(tmp_path):
    conftest = _load_conftest()
    corpus = conftest.corpus.__wrapped__()
    written = write_inputs(WORKLOADS["corpus-clean"], 0, tmp_path / "corpus")
    assert [graph_content_hash(read_edge_list(p)) for p in written] == [graph_content_hash(g) for g in corpus]

    rng = random.Random(LARGE_SEED)
    large = [conftest.random_connected_graph(rng, n, p) for n, p in LARGE_SHAPES]
    written = write_inputs(WORKLOADS["large-clean"], 0, tmp_path / "large")
    assert [graph_content_hash(read_edge_list(p)) for p in written] == [graph_content_hash(g) for g in large]


def test_a_seed_gives_the_same_inputs_and_another_seed_isomorphic_ones():
    for workload in WORKLOADS.values():
        reference = inputs(workload, 0)
        again = inputs(workload, 5)
        assert [graph_content_hash(g) for g in again] == [graph_content_hash(g) for g in inputs(workload, 5)]
        for g, h in zip(reference, again):
            assert g.vertices == h.vertices
            assert sorted(g.degree(v) for v in g.vertices) == sorted(h.degree(v) for v in h.vertices)
        assert [graph_content_hash(g) for g in again] != [graph_content_hash(g) for g in reference]


def test_every_pass_has_its_own_labelling_except_on_seed_zero():
    w = WORKLOADS["large-clean"]
    hashes = [[graph_content_hash(g) for g in graphs] for graphs in labellings(w, 5, 3)]
    assert hashes[0] == [graph_content_hash(g) for g in inputs(w, 5)]
    assert hashes[0] != hashes[1] != hashes[2] != hashes[0]
    reference = [[graph_content_hash(g) for g in graphs] for graphs in labellings(w, 0, 3)]
    assert reference == [[graph_content_hash(g) for g in inputs(w, 0)]] * 3


def test_scaled_time_follows_the_yardstick_and_leaves_out_the_samples():
    speed = Speedometer(every_s=1.0)
    speed.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    speed.ends = [0.1, 1.1, 2.1, 3.1, 4.1]
    speed.times = [NOMINAL_S] * 5
    # 0.5..1.0, 1.1..2.0, 2.1..2.5 at nominal speed
    assert speed.scaled(0.5, 2.5) == pytest.approx(1.8)
    speed.times = [2 * NOMINAL_S] * 5
    assert speed.scaled(0.5, 2.5) == pytest.approx(0.9)
    # one slow sample among four does not move the factor much
    speed.times = [NOMINAL_S, NOMINAL_S, 10 * NOMINAL_S, NOMINAL_S, NOMINAL_S]
    assert speed.scaled(1.2, 1.8) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        speed.scaled(3.5, 4.5)


@pytest.mark.parametrize(
    "workload, seed, count",
    [("corpus-clean", 0, 60), ("corpus-clean", 3, 60), ("antimatching-factor", 3, 3)],
)
def test_traced_replay_gives_the_same_bytes_and_adds_up(tmp_path, workload, seed, count):
    w = WORKLOADS[workload]
    paths = write_inputs(w, seed, tmp_path / "inputs")[:count]
    tracer = Tracer()
    pipeline_s = 0.0
    for path in paths:
        plain = process(path, w)
        traced = process(path, w, tracer)
        assert traced.digest == plain.digest
        pipeline_s += traced.total_s
    metrics = layer_metrics(tracer, pipeline_s)
    # every self time is real time, and together they leave little of the pipeline unaccounted for
    assert all(metrics.get(name, 0.0) >= 0 for name in ADDITIVE)
    assert 0 <= metrics["trace.untimed_s"] <= 0.05 * pipeline_s
    assert metrics["factorisation.steps"] >= len(paths)
    if w.from_bipartite:
        # no cliques and no oracle checks from a bipartite start
        assert not {"cliques.vertex_clique_incidence_s", "oracle.verify_bijection_s"} & set(metrics)
    else:
        declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        # the traced run sets trace.pipeline_s and trace.overhead_share itself
        assert declared - set(metrics) <= {"trace.pipeline_s", "trace.overhead_share"}


def test_without_the_library_there_is_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus-clean", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
