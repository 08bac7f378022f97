"""Benchmark workloads and their inputs, drawn from a seed.

Each workload is a fixed family of reference graphs. Seed 0 gives the
reference graphs themselves: for ``corpus-clean`` that is exactly the
acceptance corpus of ``tests/conftest.py``. Any other seed gives, for every
reference graph, isomorphic copies whose vertex labels are permuted by
``random.Random(seed)``, one labelling per pass of a run. A new seed
therefore changes every label-order dependent path (vertex indexes,
Bron-Kerbosch pivots, the enumeration order of closed seeds, level labels,
sort keys and hashes) while the decomposition sizes stay those of the
reference family. The work still moves by a few per cent with the
labelling; a run takes the median over its passes' labellings. Fresh graph
draws per seed would move the work itself by more than the benchmark's
bounds; see README.md.

Stdlib only, apart from the library under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cleanfactor import Graph, MultipartiteGraph, OperatorKind, anti_matching, format_edge_list

CORPUS_SEED = 0xC0FFEE
CORPUS_SIZE = 500
LARGE_SEED = 7
LARGE_SHAPES = ((14, 0.5), (16, 0.5), (18, 0.5), (20, 0.5), (16, 0.7))
ANTI_MATCHING_SIZES = (3, 4, 5)


# The three generators below reproduce tests/conftest.py draw for draw.
def is_connected(g: Graph) -> bool:
    vs = g.vertices
    if not vs:
        return False
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        for u in g.neighbours(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(vs)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    vs = [f"v{i:02d}" for i in range(n)]
    edges = [(u, v) for u, v in itertools.combinations(vs, 2) if rng.random() < p]
    return Graph(vs, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


def corpus_graphs() -> list[Graph]:
    """500 random connected graphs, 4..12 vertices, p cycling 0.3/0.5/0.7."""
    rng = random.Random(CORPUS_SEED)
    sizes = itertools.cycle(range(4, 13))
    probs = itertools.cycle((0.3, 0.5, 0.7))
    return [random_connected_graph(rng, next(sizes), next(probs)) for _ in range(CORPUS_SIZE)]


def large_graphs() -> list[Graph]:
    rng = random.Random(LARGE_SEED)
    return [random_connected_graph(rng, n, p) for n, p in LARGE_SHAPES]


def anti_matching_graphs() -> list[Graph]:
    """Anti-matchings flattened to graphs; bottoms are 'b*', uppers 'u*'."""
    out = []
    for n in ANTI_MATCHING_SIZES:
        h = anti_matching(n)
        out.append(Graph(h.vertices, h.edges()))
    return out


def bipartite(g: Graph) -> MultipartiteGraph:
    """The two-level graph an anti-matching edge list describes."""
    bottoms = [v for v in g.vertices if v.startswith("b")]
    uppers = [v for v in g.vertices if v.startswith("u")]
    return MultipartiteGraph((bottoms, uppers), g.edges())


@dataclass(frozen=True)
class Workload:
    """A family of inputs, its operator, and the nominal time of one pass over it.

    ``pass_s`` is an untraced pass at the reference commit on a 2-core VM. It
    fixes how many passes a run makes for a given ``--seconds``, so that the
    count does not depend on the speed of the code under test.
    """

    name: str
    operator: OperatorKind
    from_bipartite: bool
    reference: Callable[[], list[Graph]]
    pass_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-clean", OperatorKind.CLEAN, False, corpus_graphs, pass_s=12.0),
        Workload("large-clean", OperatorKind.CLEAN, False, large_graphs, pass_s=7.5),
        Workload("antimatching-factor", OperatorKind.FACTOR, True, anti_matching_graphs, pass_s=2.5),
    )
}


def relabel(g: Graph, rng: random.Random, keep: bool = False) -> Graph:
    """An isomorphic copy of ``g``: labels permuted within each label prefix.

    Permuting only among labels that share their first character keeps the
    'b'/'u' sides of an anti-matching apart. With ``keep`` the permutation
    is drawn but not applied, so the copy equals ``g`` at the same cost.
    """
    mapping: dict[str, str] = {}
    for _, group in itertools.groupby(g.vertices, key=lambda v: v[0]):
        side = list(group)
        permuted = rng.sample(side, len(side))
        mapping.update(zip(side, side if keep else permuted))
    return Graph(mapping.values(), [(mapping[u], mapping[v]) for u, v in g.edges()])


def labellings(workload: Workload, seed: int, passes: int) -> list[list[Graph]]:
    """The workload's graphs for each of ``passes`` passes; seed 0 is the reference family.

    Every pass draws its own labelling from the one ``random.Random(seed)``.
    Seed 0 goes through ``relabel`` as well, so that set-up does the same
    work on every seed.
    """
    rng = random.Random(seed)
    reference = workload.reference()
    return [[relabel(g, rng, keep=seed == 0) for g in reference] for _ in range(passes)]


def inputs(workload: Workload, seed: int) -> list[Graph]:
    """The workload's graphs of the first pass for ``seed``."""
    return labellings(workload, seed, 1)[0]


def edge_lists(workload: Workload, seed: int, passes: int = 1) -> list[list[str]]:
    """Generate the inputs as canonical edge-list text, one list per pass."""
    return [[format_edge_list(g) for g in graphs] for graphs in labellings(workload, seed, passes)]


def write_edge_lists(texts: list[str], directory: Path) -> list[Path]:
    """Write one edge-list file per text into a new directory."""
    directory.mkdir(parents=True, exist_ok=False)
    paths = []
    for i, text in enumerate(texts):
        path = directory / f"{i:04d}.txt"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def write_inputs(workload: Workload, seed: int, directory: Path) -> list[Path]:
    """Generate the inputs and write one canonical edge-list file per graph."""
    return write_edge_lists(edge_lists(workload, seed)[0], directory)
