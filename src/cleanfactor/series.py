"""Iterate a factorisation operator until it stops being effective.

The series of a graph starts from its vertex/clique incidence bipartite
graph; the series of a bipartite graph starts from that graph itself.
The clean variant provably terminates within n+1 levels, so its default
budget never binds; the weak and factor variants can diverge and run
under a configurable budget, with budget exhaustion reported as a normal
outcome rather than an error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cliques import _incidence
from .errors import InvalidArgumentError
from .factorisation import OperatorKind, _check_threads, _step, _top_masks
from .graphs import Graph, MultipartiteGraph

__all__ = [
    "SeriesStatus",
    "SeriesResult",
    "DEFAULT_OPEN_BUDGET",
    "run_series",
    "run_series_from_bipartite",
]

DEFAULT_OPEN_BUDGET = 32


class SeriesStatus(enum.Enum):
    TERMINATED = "terminated"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SeriesResult:
    """Final graph of a series plus how and why the iteration stopped.

    ``status`` is TERMINATED exactly when the last attempted factorisation
    was not effective; reaching the level budget before attempting one
    reports BUDGET_EXCEEDED.
    """

    final: MultipartiteGraph
    status: SeriesStatus
    steps: int
    level_sizes: tuple[int, ...]
    operator: OperatorKind


def _drive(m: MultipartiteGraph, adj: tuple[int, ...], op: OperatorKind, max_levels: int) -> SeriesResult:
    steps = 0
    while True:
        if m.level_count >= max_levels:
            status = SeriesStatus.BUDGET_EXCEEDED
            break
        step = _step(m, op, adj)
        if step is None:
            status = SeriesStatus.TERMINATED
            break
        m, adj = step
        steps += 1
    return SeriesResult(final=m, status=status, steps=steps, level_sizes=m._sizes, operator=op)


def _budget(op: OperatorKind, max_levels: int | None, vertex_count: int) -> int:
    if max_levels is None:
        if op is OperatorKind.CLEAN:
            return vertex_count + 2
        return DEFAULT_OPEN_BUDGET
    if max_levels < 2:
        raise InvalidArgumentError("max_levels must be at least 2")
    return max_levels


def run_series(g: Graph, op: OperatorKind, max_levels: int | None = None, *, threads: int = 1) -> SeriesResult:
    """Run the series of ``g`` from its vertex/clique incidence graph.

    The default budget is n+2 levels for the clean variant (enough for any
    input) and 32 for the other two. ``threads`` must be 1; see
    ``factorisation._check_threads``.
    """
    _check_threads(threads)
    if len(g) == 0:
        raise InvalidArgumentError("cannot run a series on the empty graph")
    budget = _budget(op, max_levels, len(g))
    return _drive(*_incidence(g), op, budget)


def run_series_from_bipartite(
    h: MultipartiteGraph, op: OperatorKind, max_levels: int | None = None, *, threads: int = 1
) -> SeriesResult:
    """Run the series starting from an arbitrary bipartite graph ``h``; ``threads`` as in ``run_series``."""
    _check_threads(threads)
    if h.level_count != 2:
        raise InvalidArgumentError("the series must start from a bipartite (two-level) graph")
    budget = _budget(op, max_levels, len(h))
    return _drive(h, _top_masks(h), op, budget)
