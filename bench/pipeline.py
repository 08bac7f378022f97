"""One input through the pipeline: edge list to checked document.

``process`` makes the library calls that ``cleanfactor decompose`` and
``cleanfactor verify`` make, and checks the result. With a ``Tracer`` it
times every call into a layer from here, and replays ``run_series`` as
``vertex_clique_incidence`` followed by a ``factorise`` loop so that each
step can be timed. Work done only to measure a layer again on its own runs
inside ``Tracer.aside`` and is left out of the pipeline time.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from cleanfactor import (
    DEFAULT_OPEN_BUDGET,
    DecompositionDocument,
    Graph,
    MultipartiteGraph,
    OperatorKind,
    SeriesResult,
    SeriesStatus,
    build_document,
    characterising_sequence,
    document_to_multipartite,
    factorise,
    graph_content_hash,
    intersection_family,
    parse_document,
    read_edge_list,
    reconstruct_graph,
    run_series,
    run_series_from_bipartite,
    size_bound,
    to_json,
    verify_bijection,
    verify_neighbourhood_formula,
    vertex_clique_incidence,
    write_decomposition,
)

from workloads import Workload, bipartite

# Layer self times that partition the traced pipeline time, together with
# trace.untimed_s. factorisation.self_s + graphs.append_level_s is the time
# in factorise; series.self_s is the rest of the replayed series.
ADDITIVE = (
    "io.read_edge_list_s",
    "io.graph_content_hash_s",
    "io.build_document_s",
    "io.to_json_s",
    "io.parse_document_s",
    "io.document_to_multipartite_s",
    "io.reconstruct_graph_s",
    "cliques.vertex_clique_incidence_s",
    "factorisation.self_s",
    "graphs.append_level_s",
    "series.self_s",
    "oracle.verify_bijection_s",
    "oracle.verify_neighbourhood_formula_s",
    "oracle.size_bound_s",
)


class CheckFailed(Exception):
    """A document or a replayed step did not match what it must."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Tracer:
    """Seconds and counts per layer metric, summed over the traced inputs."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.aside_s = 0.0

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[name] += perf_counter() - start
        return out

    @contextmanager
    def aside(self) -> Iterator[None]:
        """Time spent in this block is measurement, not pipeline."""
        start = perf_counter()
        try:
            yield
        finally:
            self.aside_s += perf_counter() - start


def _direct(_name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    return fn(*args, **kwargs)


def _step_bucket(k: int) -> str:
    return f"factorisation.k{k}_s" if k <= 5 else "factorisation.k6plus_s"


def replay_series(g: Graph, h: MultipartiteGraph | None, op: OperatorKind, tracer: Tracer) -> SeriesResult:
    """``run_series`` (or ``run_series_from_bipartite`` from ``h``), step by step."""
    start = perf_counter()
    aside_before = tracer.aside_s
    if h is None:
        m = tracer.call("cliques.vertex_clique_incidence_s", vertex_clique_incidence, g)
        tracer.counts["cliques.maximal_cliques"] += len(m.levels[1])
    else:
        m = h
    # the series module's default level budget
    budget = len(g if h is None else h) + 2 if op is OperatorKind.CLEAN else DEFAULT_OPEN_BUDGET
    steps = 0
    while True:
        if m.level_count >= budget:
            status = SeriesStatus.BUDGET_EXCEEDED
            break
        k = m.level_count
        tracer.counts["factorisation.steps"] += 1
        tracer.counts["factorisation.upper_vertices"] += len(m.levels[-1])
        step_start = perf_counter()
        step = factorise(m, op, threads=1)
        elapsed = perf_counter() - step_start
        tracer.seconds["factorisation.factorise_s"] += elapsed
        tracer.seconds[_step_bucket(k)] += elapsed
        if not step.effective:
            tracer.seconds["factorisation.final_step_s"] += elapsed
            status = SeriesStatus.TERMINATED
            break
        with tracer.aside():
            new_vertices = [(label, c.members) for label, c in zip(step.graph.levels[-1], step.new_level)]
            appended = tracer.call("graphs.append_level_s", m.append_level, new_vertices)
            _require(appended == step.graph, f"append_level replay differs at level {k}")
            tracer.counts["factorisation.vertices_added"] += len(new_vertices)
            tracer.counts["graphs.edges_appended"] += sum(len(members) for _, members in new_vertices)
        m = step.graph
        steps += 1
    result = SeriesResult(
        final=m,
        status=status,
        steps=steps,
        level_sizes=tuple(len(level) for level in m.levels),
        operator=op,
    )
    tracer.seconds["series.run_series_s"] += perf_counter() - start - (tracer.aside_s - aside_before)
    return result


@dataclass(frozen=True)
class Outcome:
    """A checked document, kept as its digest and size, and the pipeline time."""

    digest: str
    doc_bytes: int
    decompose_s: float
    verify_s: float

    @property
    def total_s(self) -> float:
        return self.decompose_s + self.verify_s


def process(path: Path, workload: Workload, tracer: Tracer | None = None) -> Outcome:
    """Decompose one edge-list file and check the document; raise on any failure.

    The pipeline time is split into decompose (read, series, document) and
    verify (parse, rebuild, checks).
    """
    call = tracer.call if tracer is not None else _direct
    op = workload.operator
    aside_start = tracer.aside_s if tracer is not None else 0.0

    start = perf_counter()
    g = call("io.read_edge_list_s", read_edge_list, path)
    h = bipartite(g) if workload.from_bipartite else None
    if tracer is None:
        result = run_series(g, op, threads=1) if h is None else run_series_from_bipartite(h, op, threads=1)
        source_hash = graph_content_hash(g)
        text = write_decomposition(result, source_hash)
    else:
        result = replay_series(g, h, op, tracer)
        source_hash = call("io.graph_content_hash_s", graph_content_hash, g)
        doc = call("io.build_document_s", build_document, result, source_hash)
        text = call("io.to_json_s", to_json, doc)
        with tracer.aside():
            final = result.final
            for level in final.levels[2:]:
                for x in level:
                    tracer.call("oracle.characterising_sequence_s", characterising_sequence, final, x)
    mid = perf_counter()
    aside_mid = tracer.aside_s if tracer is not None else 0.0

    doc = call("io.parse_document_s", parse_document, text)
    _require(doc.source_hash == source_hash, "document source hash differs from the input's")
    _require(doc.status == SeriesStatus.TERMINATED.value, f"series did not terminate: {doc.status}")
    m = call("io.document_to_multipartite_s", document_to_multipartite, doc)
    if h is None:
        _check_clean(g, doc, m, call, tracer)
    else:
        _require(m == result.final, "rebuilt graph differs from the series result")
        base_edges = [(a, b) for a, b in m.edges() if m.level_of(b) <= 1]
        _require(MultipartiteGraph(m.levels[:2], base_edges) == h, "levels 0-1 differ from the input")
    end = perf_counter()

    aside_end = tracer.aside_s if tracer is not None else 0.0
    data = text.encode("utf-8")
    return Outcome(
        digest=hashlib.sha256(data).hexdigest(),
        doc_bytes=len(data),
        decompose_s=mid - start - (aside_mid - aside_start),
        verify_s=end - mid - (aside_end - aside_mid),
    )


def _check_clean(
    g: Graph, doc: DecompositionDocument, m: MultipartiteGraph, call: Callable[..., Any], tracer: Tracer | None
) -> None:
    """The checks of ``cleanfactor verify``, plus reconstruction of the input."""
    bijection = call("oracle.verify_bijection_s", verify_bijection, g, m)
    _require(bijection.passed, f"bijection: {bijection.counterexample}")
    formula = call("oracle.verify_neighbourhood_formula_s", verify_neighbourhood_formula, m)
    _require(formula.passed, f"neighbourhood formula: {formula.counterexample}")
    documented = SeriesResult(
        final=m,
        status=SeriesStatus(doc.status),
        steps=m.level_count - 2,
        level_sizes=tuple(len(level) for level in m.levels),
        operator=OperatorKind(doc.operator),
    )
    bound = call("oracle.size_bound_s", size_bound, g, series=documented)
    _require(bound.holds, f"size bound: actual={bound.actual} bound={bound.bound}")
    _require(call("io.reconstruct_graph_s", reconstruct_graph, doc) == g, "reconstructed graph differs")
    if tracer is not None:
        with tracer.aside():
            family = tracer.call("oracle.intersection_family_s", intersection_family, g)
            tracer.counts["oracle.nonsimple_intersections"] += len(family.nonsimple)
            tracer.counts["oracle.chains_checked"] += sum(chains for _, _, chains in bijection.level_counts)


def layer_metrics(tracer: Tracer, pipeline_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced pass whose pipeline time was ``pipeline_s``."""
    s = tracer.seconds
    out: dict[str, float] = dict(s)
    out.update(tracer.counts)
    out["factorisation.self_s"] = s["factorisation.factorise_s"] - s["graphs.append_level_s"]
    out["series.self_s"] = (
        s["series.run_series_s"] - s["cliques.vertex_clique_incidence_s"] - s["factorisation.factorise_s"]
    )
    out["trace.untimed_s"] = pipeline_s - sum(out.get(name, 0.0) for name in ADDITIVE)
    return out
