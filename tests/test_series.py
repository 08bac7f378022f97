"""Series iteration: termination, budgets, bipartite starts."""

import random

import pytest

from cleanfactor import (
    Graph,
    InvalidArgumentError,
    MultipartiteGraph,
    OperatorKind,
    SeriesStatus,
    anti_matching,
    factorise,
    run_series,
    run_series_from_bipartite,
    size_bound,
    verify_bijection,
    verify_neighbourhood_formula,
    vertex_clique_incidence,
)

from conftest import random_connected_graph
from reference_graphs import particularise

# Found by seeded random search: the weak series of this graph reproduces a
# four-vertex level forever, so it exceeds any budget.
WEAK_DIVERGENT = Graph(
    [f"v{i}" for i in range(5)],
    [
        ("v0", "v1"), ("v0", "v2"), ("v0", "v4"), ("v1", "v3"),
        ("v1", "v4"), ("v2", "v3"), ("v2", "v4"), ("v3", "v4"),
    ],
)


def test_fixed_instances(triangle, g2, g3):
    assert run_series(triangle, OperatorKind.CLEAN, 64).level_sizes == (3, 1)
    assert run_series(g2, OperatorKind.CLEAN, 64).level_sizes == (4, 2, 1)
    assert run_series(g3, OperatorKind.CLEAN, 64).level_sizes == (6, 3, 2, 1)
    for g in (triangle, g2, g3):
        assert run_series(g, OperatorKind.CLEAN, 64).status is SeriesStatus.TERMINATED


def test_terminated_means_one_more_step_is_not_effective(g2, g3):
    for g in (g2, g3):
        for op in OperatorKind:
            result = run_series(g, op, 64)
            if result.status is SeriesStatus.TERMINATED:
                assert not factorise(result.final, op).effective


def test_level_sizes_track_the_final_graph(g3, clean_runs):
    results = [run_series(g3, OperatorKind.CLEAN), *(result for _, result in clean_runs[0])]
    for result in results:
        assert result.level_sizes == tuple(map(len, result.final.levels))
        assert len(result.level_sizes) == result.steps + 2
        assert result.operator is OperatorKind.CLEAN
    factor = run_series_from_bipartite(anti_matching(5), OperatorKind.FACTOR)
    assert factor.level_sizes == tuple(map(len, factor.final.levels))


def test_series_is_deterministic(g3):
    a = run_series(g3, OperatorKind.CLEAN)
    b = run_series(g3, OperatorKind.CLEAN)
    assert a == b


def test_anti_matching_factor_series_terminates():
    # combinatorial explosion on the middle levels, then termination
    assert run_series_from_bipartite(anti_matching(3), OperatorKind.FACTOR).status is SeriesStatus.TERMINATED
    assert run_series_from_bipartite(anti_matching(4), OperatorKind.FACTOR).level_sizes == (4, 4, 6)
    result5 = run_series_from_bipartite(anti_matching(5), OperatorKind.FACTOR)
    assert result5.status is SeriesStatus.TERMINATED
    assert result5.level_sizes == (5, 5, 20, 70, 120, 150, 60)


def test_bipartite_start_single_edge():
    h = MultipartiteGraph([["u"], ["y"]], [("u", "y")])
    result = run_series_from_bipartite(h, OperatorKind.CLEAN)
    assert result.status is SeriesStatus.TERMINATED
    assert result.level_sizes == (1, 1)
    assert result.steps == 0


def test_bipartite_start_on_incidence_graph_matches_graph_start(g2):
    direct = run_series(g2, OperatorKind.CLEAN)
    from_bipartite = run_series_from_bipartite(vertex_clique_incidence(g2), OperatorKind.CLEAN)
    assert direct.final == from_bipartite.final
    assert direct.status == from_bipartite.status


def test_bipartite_start_validation(g2):
    tri = factorise(vertex_clique_incidence(g2), OperatorKind.CLEAN).graph
    with pytest.raises(InvalidArgumentError):
        run_series_from_bipartite(tri, OperatorKind.CLEAN)


def test_particularised_series_matches_from_level_one():
    # same level sizes from level 1 up; level 0 gains the pendants
    h = anti_matching(4)
    plain = run_series_from_bipartite(h, OperatorKind.CLEAN)
    pinned = run_series_from_bipartite(particularise(h), OperatorKind.CLEAN)
    assert plain.status is SeriesStatus.TERMINATED
    assert pinned.status is SeriesStatus.TERMINATED
    assert plain.level_sizes[1:] == pinned.level_sizes[1:]
    assert pinned.level_sizes[0] == plain.level_sizes[0] + len(h.levels[1])


def test_weak_series_can_exceed_any_budget():
    for budget in (5, 9):
        result = run_series(WEAK_DIVERGENT, OperatorKind.WEAK, budget)
        assert result.status is SeriesStatus.BUDGET_EXCEEDED
        assert len(result.level_sizes) == budget
        assert result.level_sizes == (5,) + (4,) * (budget - 1)
    # the same graph is harmless under the stronger operators
    assert run_series(WEAK_DIVERGENT, OperatorKind.FACTOR).status is SeriesStatus.TERMINATED
    assert run_series(WEAK_DIVERGENT, OperatorKind.CLEAN).level_sizes == (5, 4, 4)


def test_default_budgets(g3):
    # weak/factor default to a finite budget, clean to n+2 which never binds
    result = run_series(WEAK_DIVERGENT, OperatorKind.WEAK)
    assert result.status is SeriesStatus.BUDGET_EXCEEDED
    assert len(result.level_sizes) == 32
    assert run_series(g3, OperatorKind.CLEAN).status is SeriesStatus.TERMINATED


def test_budget_is_checked_before_attempting_a_step(triangle):
    # a 2-level budget stops the series before the first factorisation
    result = run_series(triangle, OperatorKind.CLEAN, 2)
    assert result.status is SeriesStatus.BUDGET_EXCEEDED
    assert result.steps == 0


def test_budget_validation(triangle):
    with pytest.raises(InvalidArgumentError):
        run_series(triangle, OperatorKind.CLEAN, 1)
    with pytest.raises(InvalidArgumentError):
        run_series(Graph([]), OperatorKind.CLEAN)


def test_dense_eighteen_vertex_graph():
    # the sixth draw of the large benchmark shapes: (18, .7), levels up to 1059
    rng = random.Random(7)
    shapes = ((14, 0.5), (16, 0.5), (18, 0.5), (20, 0.5), (16, 0.7), (18, 0.7))
    g = [random_connected_graph(rng, n, p) for n, p in shapes][-1]
    result = run_series(g, OperatorKind.CLEAN)
    assert result.status is SeriesStatus.TERMINATED
    assert result.level_sizes == (18, 58, 259, 1059, 1004, 242)
    bijection = verify_bijection(g, result.final)
    assert bijection.passed, bijection.counterexample
    formula = verify_neighbourhood_formula(result.final)
    assert formula.passed, formula.counterexample
    assert size_bound(g, series=result).holds
