"""Shared fixtures: the fixed instances and the randomized corpora."""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import time

import pytest

from cleanfactor import Graph, OperatorKind, cli_main, run_series


def make_triangle() -> Graph:
    return Graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])


def make_g2() -> Graph:
    # two triangles sharing the edge bc
    return Graph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")])


def make_g3() -> Graph:
    # union of the cliques {1,2,3,4}, {1,2,3,5}, {1,2,6}
    cliques = [("1", "2", "3", "4"), ("1", "2", "3", "5"), ("1", "2", "6")]
    edges = {tuple(sorted((u, v))) for cl in cliques for u, v in itertools.combinations(cl, 2)}
    return Graph([str(i) for i in range(1, 7)], sorted(edges))


@pytest.fixture
def triangle() -> Graph:
    return make_triangle()


@pytest.fixture
def g2() -> Graph:
    return make_g2()


@pytest.fixture
def g3() -> Graph:
    return make_g3()


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


@pytest.fixture(scope="session")
def corpus() -> list[Graph]:
    """500 random connected graphs, 4..12 vertices, p in {0.3, 0.5, 0.7}."""
    rng = random.Random(0xC0FFEE)
    sizes = itertools.cycle(range(4, 13))
    probs = itertools.cycle((0.3, 0.5, 0.7))
    return [random_connected_graph(rng, next(sizes), next(probs)) for _ in range(500)]


@pytest.fixture(scope="session")
def clean_runs(corpus):
    """Clean series over the whole corpus, plus the wall time spent running it."""
    start = time.perf_counter()
    runs = [(g, run_series(g, OperatorKind.CLEAN)) for g in corpus]
    elapsed = time.perf_counter() - start
    return runs, elapsed


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()
