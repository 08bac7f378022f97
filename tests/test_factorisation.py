"""Candidate families, maximality, the factorisation step, and the test helper particularise."""

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from cleanfactor import (
    CandidateSet,
    Graph,
    InvalidArgumentError,
    MultipartiteGraph,
    OperatorKind,
    StepResult,
    anti_matching,
    build_document,
    document_to_multipartite,
    factorise,
    graph_content_hash,
    parse_document,
    run_series,
    run_series_from_bipartite,
    size_bound,
    to_json,
    vertex_clique_incidence,
    write_decomposition,
)
from cleanfactor import factorisation
from cleanfactor.factorisation import (
    _PAIRS_PER_FOLD,
    _closed_seeds,
    _maximal_family,
    _plan,
    _step,
)
from cleanfactor.graphs import bits

from bruteforce import (
    candidate_family,
    closed_candidates,
    maximal_candidates,
    maximal_sets,
    reference_factorise,
    subset_candidate_family,
)
from conftest import random_connected_graph, random_graph
from reference_graphs import Neighbours, bipartite_starts, particularise, random_series_graph, top_masks

C1, C2, C3 = "K:1,2,3,4", "K:1,2,3,5", "K:1,2,6"
# the graph shapes of the benchmark's large-clean workload, drawn from Random(7)
LARGE_CLEAN_SHAPES = ((14, 0.5), (16, 0.5), (18, 0.5), (20, 0.5), (16, 0.7))


def drop_top_level(m: MultipartiteGraph) -> MultipartiteGraph:
    keep = {v for level in m.levels[:-1] for v in level}
    edges = [(a, b) for a, b in m.edges() if a in keep and b in keep]
    return MultipartiteGraph(m.levels[:-1], edges)


def series_graphs(m: MultipartiteGraph, op: OperatorKind, limit=32, size=None):
    """Every multipartite graph along the series of op from m, in order; one of more than ``size`` vertices fails."""
    out = [m]
    while len(out) < limit:
        step = factorise(out[-1], op)
        if not step.effective:
            break
        assert size is None or len(step.graph) <= size, f"step {len(out)} makes {len(step.graph)} vertices, past {size}"
        out.append(step.graph)
    return out


def clean_prefix_graphs(g, limit=32):
    """Every multipartite graph along the clean series of g, in order.

    No graph of the series has more vertices than its terminated clean decomposition, which ``size_bound`` counts
    without a series: so a faulty step fails the test at once rather than growing the series without end.
    """
    return series_graphs(vertex_clique_incidence(g), OperatorKind.CLEAN, limit, size_bound(g).actual)


def test_candidate_set_validation():
    with pytest.raises(InvalidArgumentError):
        CandidateSet(upper=frozenset("a"), lower_by_level=(frozenset("bc"),))
    with pytest.raises(InvalidArgumentError):
        CandidateSet(upper=frozenset("ab"), lower_by_level=(frozenset("c"),))


def test_candidate_set_views():
    cand = CandidateSet(upper=frozenset(["x", "y"]), lower_by_level=(frozenset("a"), frozenset("b")))
    assert cand.lower == {"a", "b"}
    assert cand.members == {"a", "b", "x", "y"}
    assert cand.lower_by_level[1] == {"b"}


def test_triangle_has_no_candidates(triangle):
    # a single upper vertex cannot seed a candidate
    m = vertex_clique_incidence(triangle)
    for op in OperatorKind:
        assert candidate_family(m, op) == set()
        assert not factorise(m, op).effective


def test_bg2_single_candidate_for_every_operator(g2):
    m = vertex_clique_incidence(g2)
    for op in OperatorKind:
        family = candidate_family(m, op)
        assert len(family) == 1
        (cand,) = family
        assert cand.upper == {"K:a,b,c", "K:b,c,d"}
        assert cand.lower == {"b", "c"}
        assert cand.lower_by_level[0] == {"b", "c"}


def test_anti_matching_weak_candidates_need_n_at_least_4():
    # common neighbourhoods have n-2 vertices, so n=3 yields nothing
    assert candidate_family(anti_matching(3), OperatorKind.WEAK) == set()
    assert candidate_family(anti_matching(4), OperatorKind.WEAK) != set()


def test_maximal_candidates_trivial_cases():
    assert maximal_candidates([]) == set()
    small = CandidateSet(frozenset(["x", "y"]), (frozenset("ab"),))
    big = CandidateSet(frozenset(["x", "y", "z"]), (frozenset("ab"),))
    assert maximal_candidates([small]) == {small}
    assert maximal_candidates([small, big]) == {big}


def test_bg3_weak_family_and_maximal_elements(g3):
    m = vertex_clique_incidence(g3)
    family = candidate_family(m, OperatorKind.WEAK)
    assert {c.members for c in family} == {
        frozenset({C1, C2, "1", "2", "3"}),
        frozenset({C1, C3, "1", "2"}),
        frozenset({C2, C3, "1", "2"}),
        frozenset({C1, C2, C3, "1", "2"}),
    }
    top = maximal_candidates(family)
    assert {c.members for c in top} == {
        frozenset({C1, C2, "1", "2", "3"}),
        frozenset({C1, C2, C3, "1", "2"}),
    }


def test_factorise_g2_clean(g2):
    step = factorise(vertex_clique_incidence(g2), OperatorKind.CLEAN)
    assert step.effective
    (x,) = step.graph.levels[2]
    assert Neighbours(step.graph)(x) == {"b", "c", "K:a,b,c", "K:b,c,d"}


def test_factorise_g3_clean(g3):
    step = factorise(vertex_clique_incidence(g3), OperatorKind.CLEAN)
    assert step.effective
    level2 = step.graph.levels[2]
    assert len(level2) == 2
    adj = Neighbours(step.graph)
    bottoms = {adj.at_level(x, 0) for x in level2}
    assert bottoms == {frozenset({"1", "2"}), frozenset({"1", "2", "3"})}


def test_factorise_matches_definition_and_is_deterministic(g3):
    m = vertex_clique_incidence(g3)
    for op in OperatorKind:
        step1 = factorise(m, op)
        step2 = factorise(m, op)
        assert step1 == step2
        chosen = {c.members for c in step1.new_level}
        direct = {c.members for c in maximal_candidates(candidate_family(m, op))}
        assert chosen == direct


def test_new_level_reads_the_rows_so_the_walks_masks_stay_with_the_series(corpus):
    # the series hands each step the masks the step before returned, factorise builds them from the graph's rows;
    # new_level reads the rows, so it reads the step's candidates back from every graph whose top level the step
    # appended, and either source of the masks gives the same next step
    steps = 0
    for g in corpus[:40]:
        source, base = graph_content_hash(g), vertex_clique_incidence(g)
        assert StepResult(False, base).new_level == ()
        for op in OperatorKind:
            # weak and factor may not terminate; four levels are two steps
            result = run_series(g, op, max_levels=None if op is OperatorKind.CLEAN else 4)
            m, adj = base, top_masks(base)
            while m.level_count < result.final.level_count:
                step = factorise(m, op)
                new, chosen = step.graph, step.new_level
                stepped, adj = _step(m, op, adj)
                assert stepped == new and adj == top_masks(new)
                doc = to_json(build_document(replace(result, final=new), source))
                assert StepResult(True, document_to_multipartite(parse_document(doc))).new_level == chosen
                # the constructor's copy holds its levels in label order, so its new level reads in another order
                built = MultipartiteGraph(new.levels, new.edges())
                assert set(StepResult(True, built).new_level) == set(chosen)
                # a capped series' next step can be large
                if new != result.final or op is OperatorKind.CLEAN:
                    following = _step(new, op, adj)
                    assert factorise(new, op) == StepResult(following is not None, following and following[0])
                m = new
                steps += 1
            if m is not base:
                assert StepResult(True, result.final).new_level == chosen
    assert steps == 132


def test_new_level_refuses_a_two_level_graph_naming_the_cause(g2):
    # no step appended G2's incidence graph's level 1, so there is no candidate to read back
    with pytest.raises(InvalidArgumentError) as caught:
        StepResult(True, vertex_clique_incidence(g2)).new_level
    assert str(caught.value) == "a two-level graph has no appended level to read"
    assert StepResult(False, vertex_clique_incidence(g2)).new_level == ()


def test_new_vertices_adjacent_to_exactly_their_candidate():
    rng = random.Random(31337)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5, 0.7]))
        m = vertex_clique_incidence(g)
        for op in OperatorKind:
            step = factorise(m, op)
            if not step.effective:
                continue
            top = step.graph.levels[-1]
            assert len(top) == len(step.new_level)
            adj = Neighbours(step.graph)
            for label, cand in zip(top, step.new_level):
                assert adj(label) == cand.members
            assert drop_top_level(step.graph) == m


def test_operator_families_nest(g3):
    rng = random.Random(2024)
    graphs = []
    for _ in range(12):
        g = random_graph(rng, rng.randint(3, 9), rng.choice([0.4, 0.6]))
        graphs.extend(clean_prefix_graphs(g))
    graphs = [m for m in graphs if len(m.levels[-1]) <= 12]
    assert any(m.level_count == 2 for m in graphs)
    for m in graphs:
        weak = candidate_family(m, OperatorKind.WEAK)
        factor = candidate_family(m, OperatorKind.FACTOR)
        clean = candidate_family(m, OperatorKind.CLEAN)
        assert clean <= factor <= weak
        if m.level_count == 2:
            assert clean == factor == weak


def test_maximal_weak_candidates_are_closed_bicliques():
    rng = random.Random(777)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.3, 0.5, 0.7]))
        for m in clean_prefix_graphs(g):
            if len(m.levels[-1]) > 14:
                continue
            family = candidate_family(m, OperatorKind.WEAK)
            top = maximal_candidates(family)
            adj = Neighbours(m)
            for cand in family:
                closure = frozenset(y for y in m.levels[-1] if cand.lower <= adj(y))
                assert (cand in top) == (cand.upper == closure)


def test_all_operators_match_subset_oracle():
    rng = random.Random(808)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5, 0.7]))
        for m in clean_prefix_graphs(g):
            if len(m.levels[-1]) > 12:
                continue
            for op in OperatorKind:
                oracle_family = subset_candidate_family(m, op)
                produced = {c.members for c in candidate_family(m, op)}
                assert produced == oracle_family
                produced_top = {c.members for c in maximal_candidates(candidate_family(m, op))}
                assert produced_top == maximal_sets(oracle_family)
                # the seeds are masks over the top level's positions, so each is shifted up to global indexes
                offset = m._level_range(m.level_count - 1).start
                fast = {frozenset(m.vertices[i] for i in bits(s << offset | c)) for s, c in _maximal_family(m, op, top_masks(m))}
                assert fast == produced_top


def test_clean_steps_split_into_equality_classes_match_the_subset_oracle():
    # clean steps at four levels and up whose top level splits into classes by the rows on the equality level, at
    # least one of two or more members: the only path that walks one class at a time. Most such small steps have
    # no candidate, so the draw is large enough that some two dozen of them do
    rng = random.Random(5)
    steps = candidates = 0
    with_candidates: Counter[int] = Counter()
    for _ in range(600):
        g = random_graph(rng, rng.randint(7, 12), rng.choice([0.6, 0.7, 0.8]))
        for m in clean_prefix_graphs(g)[2:]:
            if len(m.levels[-1]) > 14:
                continue
            _, eq_level = _plan(OperatorKind.CLEAN, m.level_count)
            adj = Neighbours(m)
            if max(Counter(adj.at_level(y, eq_level) for y in m.levels[-1]).values()) < 2:
                continue
            offset = m._level_range(m.level_count - 1).start
            fast = {frozenset(m.vertices[i] for i in bits(s << offset | c)) for s, c in _maximal_family(m, OperatorKind.CLEAN, top_masks(m))}
            assert fast == maximal_sets(subset_candidate_family(m, OperatorKind.CLEAN))
            steps += 1
            candidates += len(fast)
            with_candidates[m.level_count] += bool(fast)
    # 262 such steps; 66 candidates come from 23 of them at four levels and one at five
    assert (steps, candidates, with_candidates[4], with_candidates[5]) == (262, 66, 23, 1)


def qualifying_closed_seeds(members, adj, base, cards):
    """What ``_closed_seeds`` returns, by brute force over every subset of ``members``.

    That is (seed, common) for every closed seed of two or more members whose common
    neighbourhood keeps two vertices in all and on each mask of ``cards``.
    """

    def common_of(local: int) -> int:
        common = base
        for i, u in enumerate(members):
            if (local >> i) & 1:
                common &= adj[u]
        return common

    out = set()
    for local in range(1 << len(members)):
        common = common_of(local)
        close = sum(1 << i for i, u in enumerate(members) if common & ~adj[u] == 0)
        if close != local or local.bit_count() < 2 or common.bit_count() < 2:
            continue
        if any((common & card).bit_count() < 2 for card in cards):
            continue
        out.add((sum(1 << u for i, u in enumerate(members) if (local >> i) & 1), common))
    return out


def test_closed_seeds_enumerates_exactly_the_qualifying_closed_seeds():
    rng = random.Random(11)
    visited = deep = 0
    for _ in range(300):
        # three lower levels of 1..4 vertices, up to 11 uppers above them
        lmask, n_low = [], 0
        for size in [rng.randint(1, 4) for _ in range(3)]:
            lmask.append(((1 << size) - 1) << n_low)
            n_low += size
        base = (1 << n_low) - 1
        n_up = rng.randint(1, 11)
        members = sorted(rng.sample(range(n_low, n_low + 14), n_up))
        density = rng.choice((0.5, 0.7, 0.85))
        adj = [0] * (n_low + 14)
        for u in members:
            adj[u] = sum(1 << v for v in range(n_low) if rng.random() < density)
        # the card-level sets _plan gives (weak and clean at k=2, factor at k=4, clean at k=3), or any
        # subset of at most two levels, which is all _plan gives
        card_levels = rng.choice(((), (2,), (1, 0), tuple(rng.sample(range(3), rng.randint(0, 2)))))
        card_masks = [lmask[i] for i in card_levels]
        expected = qualifying_closed_seeds(members, adj, base, card_masks)
        cards = card_masks or [base]
        got = _closed_seeds(members, adj, base, cards[0], cards[-1])
        assert len(got) == len(set(got))
        assert set(got) == expected
        visited += len(expected)
        deep += sum(seed.bit_count() >= 4 for seed, _ in expected)
    assert visited >= 1000
    # many closed seeds of four or more members, so the walk passes inherited lists well below the root
    assert deep >= 500


# One case of the root's pass each, over two lower levels {0,1,2} and {3,4,5}: the uppers' rows,
# the card levels, and the closed seeds as (members, common).
ROOT_PASS_CASES = {
    # 11 is 10's twin: it joins 10's seed and gets no node of its own
    "twin rows": ({10: {0, 1, 2}, 11: {0, 1, 2}, 12: {1, 2, 3}}, (), [({10, 11}, {0, 1, 2}), ({10, 11, 12}, {1, 2})]),
    # 11 and 12 cover 10's row: they join 10's seed, and 10 enters their live lists, where it
    # covers the common of 11 and 12 and so drops that node
    "a later row covers an earlier one": ({10: {0, 1}, 11: {0, 1, 2}, 12: {0, 1, 3}}, (), [({10, 11, 12}, {0, 1})]),
    # 10 covers 11's row: 11 gets no node, but enters 10's live list, where it extends 10's seed
    "an earlier row covers a later one": ({10: {0, 1, 2}, 11: {0, 1}, 12: {0, 1, 3}}, (), [({10, 11, 12}, {0, 1})]),
    # 10 and 11 equal base_common and close the root; 12 is the one member of top
    "two rows equal to base_common": (
        {10: {0, 1, 2, 3, 4, 5}, 11: {0, 1, 2, 3, 4, 5}, 12: {0, 1}},
        (),
        [({10, 11}, {0, 1, 2, 3, 4, 5}), ({10, 11, 12}, {0, 1})],
    ),
    # 12 fails the card test at the root, so top is 11 alone, whose seed takes the root's 10
    "a top with a single member": (
        {10: {0, 1, 2, 3, 4, 5}, 11: {0, 1, 3, 4}, 12: {0, 3}},
        (0, 1),
        [({10, 11}, {0, 1, 3, 4})],
    ),
}


@pytest.mark.parametrize("case", ROOT_PASS_CASES)
def test_closed_seeds_handles_each_case_of_the_root_pass(case):
    rows, card_levels, expected = ROOT_PASS_CASES[case]
    members = sorted(rows)
    adj = [0] * 13
    for u, row in rows.items():
        adj[u] = sum(1 << v for v in row)
    lmask = [0b000111, 0b111000]
    base = 0b111111
    card_masks = [lmask[i] for i in card_levels]
    cards = card_masks or [base]
    got = _closed_seeds(members, adj, base, cards[0], cards[-1])
    want = {(sum(1 << u for u in seed), sum(1 << v for v in common)) for seed, common in expected}
    assert len(got) == len(set(got))
    assert set(got) == want == qualifying_closed_seeds(members, adj, base, card_masks)


def closure_closed_seeds(members, adj, base, cards):
    """What ``_closed_seeds`` returns, from the intersection closure of the rows: no walk and no subsets.

    A closed seed of two or more members has the meet of two or more rows as its common, and a
    meet that passes the card test has every partial meet pass it too. So the qualifying commons
    are the pairwise meets that pass, closed under meeting with one more row while they pass;
    each common's seed is every member whose row covers it.
    """

    def ok(c: int) -> bool:
        return c.bit_count() >= 2 and all((c & card).bit_count() >= 2 for card in cards)

    rows = [adj[u] & base for u in members]
    commons = {x for r, q in itertools.combinations(rows, 2) if ok(x := r & q)}
    frontier, distinct = commons, set(rows)
    while frontier:
        frontier = {x for c in frontier for r in distinct if ok(x := c & r)} - commons
        commons |= frontier
    return {(sum(1 << u for u, r in zip(members, rows) if c & ~r == 0), c) for c in commons}


def random_class(rng: random.Random, n_top: int, card_levels: tuple[int, ...], dense: bool = False):
    """A class over three lower levels whose root pass has exactly ``n_top`` members in ``top``.

    Most rows are sparse, so most pairs fail the card test, unless ``dense``: then the rows nest,
    each dropping a prefix of one order of the lower vertices, and every pair passes. Among them
    are twin rows, rows that
    cover an earlier row, rows the earlier ones cover, up to two rows equal to ``base_common`` (which
    join the root) and up to three rows that fail the card test (which stay out of ``top``).
    Returns members, adj, base_common and the card masks (``[base_common]`` for none), as
    ``closure_closed_seeds`` takes them.
    """
    lmask, n_low = [], 0
    for size in [rng.randint(12, 16) if dense else rng.randint(6, 12) for _ in range(3)]:
        lmask.append(((1 << size) - 1) << n_low)
        n_low += size
    base = (1 << n_low) - 1
    cards = [lmask[i] for i in card_levels] or [base]
    density = (0.1, 0.15, 0.08)[len(card_levels)]
    order = rng.sample(range(n_low), n_low) if dense else []

    def passes(row: int) -> bool:
        return all((row & card).bit_count() >= 2 for card in cards)

    top: list[int] = []
    while len(top) < n_top:
        shape = rng.random()
        if top and shape < 0.1:
            row = rng.choice(top)
        elif top and shape < 0.25:
            row = rng.choice(top) | 1 << rng.randrange(n_low)
        elif top and shape < 0.35:
            row = rng.choice(top) & ~(1 << rng.randrange(n_low))
        elif dense:
            row = base & ~sum(1 << v for v in order[: rng.randrange(n_low // 3)])
        else:
            row = sum(1 << v for v in range(n_low) if rng.random() < density)
        if row != base and passes(row):
            top.append(row)
    # a row with one vertex on the first card mask fails the card test
    low = (cards[0] & -cards[0]).bit_length() - 1
    failing = [(base & ~cards[0]) | 1 << low for _ in range(rng.randint(0, 3))]
    rows = top + [base] * rng.randint(0, 2) + failing
    rng.shuffle(rows)
    members = sorted(rng.sample(range(n_low, n_low + 2 * len(rows)), len(rows)))
    adj = [0] * (n_low + 2 * len(rows))
    for u, row in zip(members, rows):
        adj[u] = row
    return members, adj, base, cards


# the fewest members of top that can take the columns: each row holds two card vertices at least,
# so the folds number at least 2t, and _PAIRS_PER_FOLD * 2t < t(t - 1)/2 needs t >= 4 * _PAIRS_PER_FOLD + 2
FEWEST_FOR_COLUMNS = 4 * _PAIRS_PER_FOLD + 2

# every card shape _plan gives (none, one level, two levels), each with sparse tops from the fewest
# members that can take the columns up to well past the ratio (their pairs per fold straddle
# _PAIRS_PER_FOLD from 40 to 64 members), and two dense tops, which stay well below it
COLUMN_CASES = [
    pytest.param(n_top, card_levels, dense, id=f"{'dense' if dense else 'top'}{n_top}-cards{''.join(map(str, card_levels)) or 'none'}")
    for card_levels in ((), (2,), (1, 0))
    for n_top, dense in [(n, False) for n in (FEWEST_FOR_COLUMNS, 40, 48, 64, 140, 200)] + [(n, True) for n in (64, 90)]
]


def count_partners(monkeypatch) -> list[int]:
    """Record one entry per call of ``_partners``, which runs only on the column path."""
    calls: list[int] = []
    partners = factorisation._partners
    monkeypatch.setattr(factorisation, "_partners", lambda *args: calls.append(1) or partners(*args))
    return calls


def takes_columns(members, adj, base, cards) -> bool:
    """Whether the root pass takes the columns: top's rows hold fewer vertices on the first card mask than one per _PAIRS_PER_FOLD pairs."""
    top = [adj[u] & cards[0] for u in members if adj[u] != base and all((adj[u] & card).bit_count() >= 2 for card in cards)]
    n = len(top)
    return _PAIRS_PER_FOLD * sum(row.bit_count() for row in top) < n * (n - 1) // 2


@pytest.mark.parametrize("n_top, card_levels, dense", COLUMN_CASES)
def test_closed_seeds_match_the_closure_on_both_sides_of_the_column_threshold(n_top, card_levels, dense, monkeypatch):
    columns = count_partners(monkeypatch)
    rng = random.Random(n_top * 10 + len(card_levels))
    takes = []
    for _ in range(2):
        members, adj, base, cards = random_class(rng, n_top, card_levels, dense)
        takes.append(takes_columns(members, adj, base, cards))
        got = _closed_seeds(members, adj, base, cards[0], cards[-1])
        assert len(got) == len(set(got))
        assert set(got) == closure_closed_seeds(members, adj, base, cards)
    assert len(columns) == sum(takes)
    # dense tops keep the pairwise pass, and so do sparse tops of the fewest members that could
    # take the columns, whose rows hold more than two card vertices on average; sparse tops of 64
    # members or more take the columns
    if dense or n_top == FEWEST_FOR_COLUMNS:
        assert not any(takes)
    elif n_top >= 64:
        assert all(takes)


@pytest.mark.parametrize(
    "n, extra",
    [(FEWEST_FOR_COLUMNS - 1, 0), (FEWEST_FOR_COLUMNS, 0), (FEWEST_FOR_COLUMNS, 1), (64, 0), (64, 1)],
    ids=["under-the-fewest", "fewest-below", "fewest-at", "64-below", "64-at"],
)
def test_the_columns_run_only_while_the_rows_hold_fewer_card_vertices_than_one_per_eight_pairs(n, extra, monkeypatch):
    # a top of n rows with no card level: every vertex of a row is folded once. With "below" the rows
    # hold the most vertices that still take the columns, with "at" one more; under the fewest
    # members, even rows of two vertices each hold too many
    columns = count_partners(monkeypatch)
    most = -(-n * (n - 1) // 2 // _PAIRS_PER_FOLD) - 1  # the most folds that still take the columns
    folds = max(most + extra, 2 * n)
    sizes = [folds // n + (i < folds % n) for i in range(n)]
    rng = random.Random(n + extra)
    base = (1 << 40) - 1
    rows: set[int] = set()
    for size in sizes:
        while len(rows) < len(sizes) and (row := sum(1 << v for v in rng.sample(range(40), size))) in rows:
            pass
        rows.add(row)
    assert len(rows) == n and sum(r.bit_count() for r in rows) == folds
    members = list(range(40, 40 + n))
    adj = [0] * 40 + sorted(rows)
    got = _closed_seeds(members, adj, base, base, base)
    assert len(got) == len(set(got))
    assert set(got) == closure_closed_seeds(members, adj, base, [base])
    assert len(columns) == (folds == most)


@pytest.mark.parametrize("n_top", [2, 63, 64, 150])
def test_partners_are_the_later_rows_sharing_two_vertices_on_the_card(n_top):
    # a card of 5..30 indexes that starts past index 0, with rows holding vertices on both sides of it
    rng = random.Random(n_top)
    for _ in range(20):
        lo = rng.randint(1, 20)
        card = ((1 << rng.randint(5, 30)) - 1) << lo
        width = card.bit_length() + rng.randint(0, 20)
        density = rng.choice((0.05, 0.15, 0.4))
        trows = [sum(1 << v for v in range(width) if rng.random() < density) for _ in range(n_top)]
        expected = [[m for m in range(n + 1, n_top) if (trows[n] & trows[m] & card).bit_count() >= 2] for n in range(n_top)]
        assert factorisation._partners(trows, card) == expected


def test_the_final_step_of_the_anti_matching_five_factor_series_takes_the_columns(monkeypatch):
    # its one class has 60 members whose rows hold 120 vertices on the card level: 1,770 pairs,
    # 14.75 per fold. It walks in about 0.3 ms with the columns and 0.5 ms pairwise
    m = anti_matching(5)
    adj = top_masks(m)
    # the series as run_series_from_bipartite steps it, each step walking the masks the one before returned
    while (step := _step(m, OperatorKind.FACTOR, adj)) is not None:
        m, adj = step
        assert adj == top_masks(m)
    assert m == run_series_from_bipartite(anti_matching(5), OperatorKind.FACTOR).final
    columns = count_partners(monkeypatch)
    k = m.level_count
    (card_level,), _ = _plan(OperatorKind.FACTOR, k)
    offset = m._level_range(k - 1).start
    members, base = range(len(m.levels[-1])), (1 << offset) - 1
    card = sum(1 << v for v in m._level_range(card_level))
    assert len(members) == 60 and sum((row & card).bit_count() for row in adj) == 120
    got = _closed_seeds(members, adj, base, card, card)
    assert len(columns) == 1
    assert set(got) == closure_closed_seeds(members, adj, base, [card])


@pytest.mark.parametrize("t", [64, 256])
def test_a_class_of_nested_rows_keeps_the_pairwise_pass(t, monkeypatch):
    # row i holds the first i + 2 card vertices, so the rows hold more vertices than top has pairs
    columns = count_partners(monkeypatch)
    base = (1 << (t + 2)) - 1
    rows = [(1 << (i + 2)) - 1 for i in range(t)]
    random.Random(t).shuffle(rows)
    members = range(t + 2, 2 * t + 2)
    adj = [0] * (t + 2) + rows
    got = _closed_seeds(members, adj, base, base, base)
    assert not columns
    assert set(got) == closure_closed_seeds(members, adj, base, [base])


def test_the_columns_and_the_pairwise_pass_write_the_same_documents(corpus, monkeypatch):
    # the clean series of the first 60 corpus graphs and of the (14, .5) and (16, .5) large-clean
    # graphs, and the factor series of anti-matching 3 to 5, with every top of two or more members
    # on the columns and with none
    columns = count_partners(monkeypatch)
    large = random.Random(7)
    graphs = corpus[:60] + [random_connected_graph(large, n, p) for n, p in LARGE_CLEAN_SHAPES[:2]]

    def documents() -> list[str]:
        out = [write_decomposition(run_series(g, OperatorKind.CLEAN), graph_content_hash(g)) for g in graphs]
        return out + [write_decomposition(run_series_from_bipartite(anti_matching(n), OperatorKind.FACTOR), "") for n in (3, 4, 5)]

    monkeypatch.setattr(factorisation, "_PAIRS_PER_FOLD", 0)
    on_columns = documents()
    assert columns
    columns.clear()
    monkeypatch.setattr(factorisation, "_PAIRS_PER_FOLD", 10**9)
    pairwise = documents()
    assert not columns
    assert on_columns == pairwise


def recursive_closed_seeds(members, adj, base_common, a, b):
    """``_closed_seeds`` as it was written with a recursive walk and a pairwise root pass, kept for its output order."""
    rows = [adj[u] for u in members]
    units = [1 << u for u in members]
    out = []

    def visit(seed, c, j, scan):
        live = []
        for i in scan:
            x = c & rows[i]
            if x == c:
                if i < j:
                    return
                seed |= units[i]
            elif (x & a).bit_count() > 1 and (x & b).bit_count() > 1:
                live.append(i)
        if seed & (seed - 1):
            out.append((seed, c))
        for i in live:
            if i > j:
                visit(seed, c & rows[i], i, live)

    if (base_common & a).bit_count() < 2 or (base_common & b).bit_count() < 2:
        return out
    root, top, lives = 0, [], []
    for i, row in enumerate(rows):
        if row == base_common:
            root |= units[i]
        elif (row & a).bit_count() > 1 and (row & b).bit_count() > 1:
            top.append(i)
            lives.append([])
    if root & (root - 1):
        out.append((root, base_common))
    covered = [False] * len(top)
    for n, p in enumerate(top):
        rp, seed, live = rows[p], root | units[p], lives[n]
        for m in range(n + 1, len(top)):
            rq = rows[top[m]]
            x = rp & rq
            if x == rp:
                seed |= units[top[m]]
                if x == rq:
                    covered[m] = True
                else:
                    lives[m].append(p)
            elif x == rq:
                covered[m] = True
                live.append(top[m])
            elif (x & a).bit_count() > 1 and (x & b).bit_count() > 1:
                live.append(top[m])
                lives[m].append(p)
        if covered[n]:
            continue
        if seed & (seed - 1):
            out.append((seed, rp))
        for i in live:
            if i > p:
                visit(seed, rp & rows[i], i, live)
    return out


def staircase(n: int) -> MultipartiteGraph:
    """Uppers u_0..u_{n-1} over bottoms b_0..b_n, with u_i adjacent to b_j for every j >= i: nested rows."""
    bottoms = [f"b{j:04d}" for j in range(n + 1)]
    uppers = [f"u{i:04d}" for i in range(n)]
    rows = [tuple(range(i, n + 1)) for i in range(n)]
    return MultipartiteGraph._from_rows((tuple(bottoms), tuple(uppers)), rows)


def test_closed_seeds_keep_the_order_of_the_recursive_walk():
    rng = random.Random(19)
    for case in COLUMN_CASES:
        members, adj, base, cards = random_class(rng, *case.values)
        got = _closed_seeds(members, adj, base, cards[0], cards[-1])
        assert got == recursive_closed_seeds(members, adj, base, cards[0], cards[-1])
    # a chain of 499 nested seeds, as deep as the recursive walk goes here
    h = staircase(500)
    bottom = len(h.levels[0])
    members, base = range(len(h.levels[1])), (1 << bottom) - 1
    adj = [sum(1 << j for j in row) for row in h._idx[bottom:]]
    got = _closed_seeds(members, adj, base, base, base)
    assert len(got) == 499
    assert got == recursive_closed_seeds(members, adj, base, base, base)


def test_weak_step_walks_a_chain_of_a_thousand_nested_seeds():
    # the recursive walk raised RecursionError here: each closed seed {u_0..u_i} is the child of the one before
    n = 1100
    h = staircase(n)
    step = factorise(h, OperatorKind.WEAK)
    assert step.effective
    m, new_rows = _step(h, OperatorKind.WEAK, top_masks(h))
    assert m == step.graph
    # one vertex per i >= 1: the seed {u_0..u_i} plus its common, u_i's row; u_1099's row is the last with two bottoms.
    # These are the new rows' masks in seed order, where a seed sorts before the seeds it is a prefix of, built from
    # the staircase: top_masks would rebuild each whole row from its seed, some 10^9 set tests in all
    uppers = h._level_range(1)
    expected = [sum(1 << u for u in uppers[: i + 1]) | sum(1 << j for j in h._idx[uppers[i]]) for i in range(1, n)]
    assert len(new_rows) == len(expected) == n - 1
    assert list(new_rows) == expected


def each_side(m: MultipartiteGraph) -> tuple[list[int], list[int]]:
    """An unconstrained step's two sides: the top's rows over the lower side, and the lower side's columns over the top's positions."""
    offset = m._level_range(m.level_count - 1).start
    rows = [sum(1 << j for j in row) for row in m._whole()[offset:]]
    return rows, [sum(1 << p for p, row in enumerate(rows) if row >> v & 1) for v in range(offset)]


def test_an_unconstrained_step_walks_either_side_to_the_same_pairs(corpus, monkeypatch):
    # a weak step, and a clean or factor step at k = 2, has no class and no card level that narrows the common, so
    # its closed seeds and closed commons are the two halves of one Galois connection: the walk over either side
    # gives the same pairs. The step walks the side with fewer vertices, and the top side on a tie
    walked: list[list[int]] = []
    closed_seeds = factorisation._closed_seeds
    monkeypatch.setattr(factorisation, "_closed_seeds", lambda members, adj, *rest: walked.append(list(adj)) or closed_seeds(members, adj, *rest))
    rng = random.Random(51)
    # the steps of budget-5 weak series, each corpus graph's first clean step, the first factor step of anti-matching
    # n = 3..5 (each a tie) and of every bipartite start on 2..4 lower and 1..4 upper vertices, and a staircase and
    # its mirror: chains of 199 nested seeds over the top side and over the lower side
    weak = [vertex_clique_incidence(random_graph(rng, rng.randint(6, 12), rng.choice([0.5, 0.7]))) for _ in range(40)]
    steps = [(m, OperatorKind.WEAK) for start in weak for m in series_graphs(start, OperatorKind.WEAK, limit=3)]
    steps += [(vertex_clique_incidence(g), OperatorKind.CLEAN) for g in corpus]
    starts = [anti_matching(n) for n in (3, 4, 5)] + [h for lower in (2, 3, 4) for h in bipartite_starts(lower, range(1, 5))]
    steps += [(h, OperatorKind.FACTOR) for h in starts]
    bottoms, uppers = tuple(f"b{i:03d}" for i in range(200)), tuple(f"u{j:03d}" for j in range(201))
    mirror = MultipartiteGraph._from_rows((bottoms, uppers), [tuple(range(min(j + 1, 200))) for j in range(201)])
    steps += [(staircase(200), OperatorKind.WEAK), (mirror, OperatorKind.WEAK)]
    cases: Counter[tuple[str, str]] = Counter()
    for m, op in steps:
        offset, n_top = m._level_range(m.level_count - 1).start, len(m.levels[-1])
        rows, cols = each_side(m)
        base, full = (1 << offset) - 1, (1 << n_top) - 1
        top = _closed_seeds(range(n_top), rows, base, base, base)
        lower = [(seed, c) for c, seed in _closed_seeds(range(offset), cols, full, full, full)]
        assert len(set(top)) == len(top) and len(set(lower)) == len(lower)
        assert set(top) == set(lower)
        walked.clear()
        assert set(_maximal_family(m, op, rows)) == set(top)
        assert walked == [cols if offset < n_top else rows]
        if n_top <= 60:
            index = {v: i for i, v in enumerate(m.vertices)}
            brute = {(sum(1 << (index[y] - offset) for y in seed), sum(1 << index[v] for v in common)) for seed, common in closed_candidates(m, op)}
            assert set(top) == brute
        side = "lower" if offset < n_top else "tie" if offset == n_top else "top"
        cases[op.value, side] += 1
        if min(offset, n_top) == 2:
            cases[op.value, f"two on the {side}"] += 1
    # the lower side is walked in every operator's steps, two-vertex sides on both sides among the factor steps
    assert cases == {
        ("weak", "lower"): 32, ("weak", "tie"): 10, ("weak", "top"): 74, ("weak", "two on the top"): 4,
        ("clean", "lower"): 134, ("clean", "tie"): 74, ("clean", "top"): 292, ("clean", "two on the top"): 19,
        ("factor", "lower"): 385, ("factor", "tie"): 4009, ("factor", "top"): 1016,
        ("factor", "two on the lower"): 55, ("factor", "two on the tie"): 10, ("factor", "two on the top"): 172,
    }


def test_plan_gives_at_most_two_card_levels():
    # _closed_seeds tests the common neighbourhood on two card masks, so no step may need three
    for op in OperatorKind:
        for k in range(2, 13):
            card_levels, _ = _plan(op, k)
            assert len(card_levels) <= 2
            assert all(0 <= i < k - 1 for i in card_levels)


def test_factorise_matches_the_reference_step(corpus):
    rng = random.Random(0xFAC7)
    # two to four levels, arbitrary rows on level 1 and a series' rows above it
    inputs = [random_series_graph(rng, rng.randint(0, 2)) for _ in range(300)]
    large = random.Random(7)
    graphs = corpus[:100] + [random_connected_graph(large, n, p) for n, p in LARGE_CLEAN_SHAPES]
    for g in graphs:
        inputs.extend(clean_prefix_graphs(g))
    # every graph of the antimatching-factor workload's series (anti_matching(3..5), factor): nine graphs
    for n in (3, 4, 5):
        inputs.extend(series_graphs(anti_matching(n), OperatorKind.FACTOR))
    suffixed = plain = 0
    for m in inputs:
        # the weak and factor steps over the widest clean levels take seconds each
        ops = list(OperatorKind) if len(m.levels[-1]) <= 200 else [OperatorKind.CLEAN]
        for op in ops:
            step = factorise(m, op)
            graph, new_level = reference_factorise(m, op)
            assert step.effective == (graph is not None)
            assert step.graph == graph
            assert step.new_level == new_level
            if graph is None:
                continue
            assert step.graph.vertices == graph.vertices  # which builds both label indexes
            for slot in ("_index", "_labels", "_level_of"):
                assert getattr(step.graph, slot) == getattr(graph, slot), slot
            # both hold the new level's seeds; the reference keeps the whole rows it appended, the seeds' rebuilds
            assert step.graph._whole() == graph._full and step.graph._idx == graph._idx
            # the masks the step hands the next one are those of the rows the reference appended
            stepped, masks = _step(m, op, top_masks(m))
            assert stepped == graph and masks == top_masks(graph)
            top = graph.levels[-1]
            suffixed += sum("#" in x for x in top)
            plain += sum("#" not in x for x in top)
    assert suffixed > 0 and plain > 0


def test_a_new_vertex_named_as_an_existing_one_is_refused_at_the_first_lookup(g2):
    # the clean step of G2 names its one new vertex L2:b,c, here a level-0 label too: the series names
    # nothing, so it runs, and the first lookup of a name refuses the graph
    g = Graph(g2.vertices + ("L2:b,c",), g2.edges())
    final = run_series(g, OperatorKind.CLEAN).final
    assert final.level_count == 3 and len(final.levels[2]) == 1
    with pytest.raises(InvalidArgumentError) as err:
        final.level_of("L2:b,c")
    assert str(err.value) == "vertex 'L2:b,c' appears more than once"


@pytest.mark.parametrize("op", list(OperatorKind))
def test_two_new_vertices_whose_members_read_alike_get_distinct_names(op):
    # {y1,y2} has lower part {b,c,d} and {y3,y4} has {"b,c",d}, which would read alike if the comma
    # inside the level-0 label "b,c" were not escaped
    ys = {"y1": "a b c d", "y2": "b c d e", "y3": "a b,c d", "y4": "b,c d e"}
    h = MultipartiteGraph(
        [("a", "b", "b,c", "c", "d", "e"), tuple(ys)],
        [(u, y) for y, lower in ys.items() for u in lower.split()],
    )
    final = run_series_from_bipartite(h, op).final
    assert {"L2:b,c,d", "L2:b\\,c,d"} <= set(final.levels[2])
    assert final.level_of("L2:b\\,c,d") == 2 and len(set(final.vertices)) == len(final)


def test_particularise_single_edge():
    h = MultipartiteGraph([["u"], ["y"]], [("u", "y")])
    pinned = particularise(h)
    assert pinned.levels[0] == ("p:y", "u")
    assert set(pinned.edges()) == {("u", "y"), ("p:y", "y")}
    # a pin whose label is taken gets a prime until it is free: p:y and p:y' are bottoms already
    h = MultipartiteGraph([["p:y", "p:y'"], ["y", "z"]], [("p:y", "y"), ("p:y'", "z")])
    pinned = particularise(h)
    assert pinned.levels[0] == ("p:y", "p:y'", "p:y''", "p:z")
    assert set(pinned.edges()) == {("p:y", "y"), ("p:y'", "z"), ("p:y''", "y"), ("p:z", "z")}


def test_particularise_separates_twin_uppers():
    h = MultipartiteGraph([["a", "b"], ["y1", "y2"]], [("a", "y1"), ("b", "y1"), ("a", "y2"), ("b", "y2")])
    adj = Neighbours(particularise(h))
    n1 = adj("y1")
    n2 = adj("y2")
    assert not (n1 <= n2 or n2 <= n1)


def test_particularise_anti_matching():
    pinned = particularise(anti_matching(3))
    assert len(pinned.levels[0]) == 6  # 3 original bottoms + 3 pendants
    assert pinned.edge_count() == 9  # 6 original edges + 3 pendant edges
    adj = Neighbours(pinned)
    assert all(adj.degree(u) == 3 for u in pinned.levels[1])


def test_particularise_rejects_non_bipartite(g2):
    m = factorise(vertex_clique_incidence(g2), OperatorKind.CLEAN).graph
    with pytest.raises(InvalidArgumentError):
        particularise(m)
