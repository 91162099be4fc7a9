import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import hgcut.reduce
from hgcut import (
    Deadline,
    Hypergraph,
    PipelineConfig,
    SolveTimeout,
    brute_mincut,
    compact,
    connected_components,
    cut_value,
    mincut_ordering,
    run_pipeline,
    run_pipeline_detailed,
)
from hgcut.hgraph import storage_nbytes
from hgcut.reduce import (
    RULE_ORDER,
    _contract,
    _incidence_scan,
    _pair_scan,
    _reduce_rounds,
    _solve_residual,
    initial_state,
    rule_heavy_edge,
    rule_heavy_overlap,
    rule_imbalanced_triangle,
    rule_imbalanced_vertex,
    update_upper_bound,
)
from hgcut.synth import GenSpec, random_hypergraph
from conftest import (
    ExpiresOnCheck, equality_case_instance, loose_imbalanced_vertex, random_instance,
    two_cycle_union, unit_cycle,
)


def make_state(h, **config):
    return initial_state(h, PipelineConfig(**config))


def unit_clique(n):
    return Hypergraph(n, [[u, v] for u in range(n) for v in range(u + 1, n)])


def check_expired_deadline(h, rule):
    """An expired deadline stops ``rule`` inside its scan, before it changes
    anything."""
    state = make_state(h)
    bound = state.upper_bound
    state.deadline = Deadline(0)
    with pytest.raises(SolveTimeout):
        rule(state)
    assert state.current is h
    assert state.upper_bound == bound
    assert state.round_stats == []


@pytest.mark.parametrize("rule", [rule for _, rule in RULE_ORDER], ids=[name for name, _ in RULE_ORDER])
def test_every_rule_checks_the_deadline_inside_its_scan(rule):
    """An expired deadline stops every rule on a unit 100-clique (4,950
    two-pin pairs) before it changes anything."""
    check_expired_deadline(unit_clique(100), rule)


def value_after(state):
    """min(bound, mincut(reduced)): the input's minimum cut while every
    rule applied so far was exact."""
    if state.current.vertex_count >= 2:
        return min(state.upper_bound, brute_mincut(state.current).value)
    return state.upper_bound


def check_exact(h, state):
    """min(bound, mincut(reduced)) must equal mincut(input)."""
    assert value_after(state) == brute_mincut(h).value


class TestUpperBound:
    def test_running_minimum(self):
        h = Hypergraph(3, [[0, 1], [1, 2]], [1, 1])
        state = make_state(h)
        assert state.upper_bound == 1
        state.upper_bound = 5
        assert update_upper_bound(state) == 1

    def test_does_not_increase(self):
        h = Hypergraph(3, [[0, 1], [1, 2], [0, 2]], [2, 2, 2])
        state = make_state(h)
        state.upper_bound = 2
        assert update_upper_bound(state) == 2

    def test_isolated_vertex_gives_zero(self):
        h = Hypergraph(3, [[0, 1]])
        state = make_state(h)
        assert state.upper_bound == 0
        res = run_pipeline(h, PipelineConfig(want_partition=True))
        assert res.value == 0
        assert res.provenance == "trivial-degree"


class TestRuleSingleton:
    """No rule removes one-pin or zero-weight edges; ``_solve_residual``
    compacts the residual before the solver sees it."""

    def test_removes_single_pin(self):
        h = Hypergraph(2, [[0], [0, 1]], [9, 1])
        state = make_state(h)
        assert _solve_residual(state).value == 1
        assert list(state.current.edges()) == [((0, 1), 1)]

    def test_removes_zero_weight(self):
        h = Hypergraph(2, [[0, 1], [0, 1]], [0, 2])
        state = make_state(h)
        assert _solve_residual(state).value == 2
        assert list(state.current.edges()) == [((0, 1), 2)]

    def test_fixed_point(self):
        h = Hypergraph(2, [[0, 1]], [2])
        state = make_state(h)
        assert _solve_residual(state).value == 2
        assert state.current is h


class TestRuleHeavyEdge:
    def test_cascades_through_parallel_merges(self):
        h = Hypergraph(3, [[0, 1], [1, 2], [0, 2]], [3, 1, 1])
        state = make_state(h)
        assert state.upper_bound == 2
        assert rule_heavy_edge(state)
        # contracting {0,1} merges the two unit edges into one of weight 2,
        # which then qualifies as well
        assert state.current.vertex_count == 1
        check_exact(h, state)

    def test_single_spanning_edge(self):
        h = Hypergraph(3, [[0, 1, 2]], [5])
        state = make_state(h)
        assert rule_heavy_edge(state)
        assert state.current.vertex_count == 1
        assert state.upper_bound == 5

    def test_below_bound_untouched(self):
        h = Hypergraph(3, [[0, 1], [1, 2], [0, 2]], [1, 1, 1])
        state = make_state(h)
        assert not rule_heavy_edge(state)
        assert state.current is h

    def test_expired_deadline_leaves_state_untouched(self):
        h = Hypergraph(3, [[0, 1], [1, 2], [0, 2]], [3, 1, 1])
        state = make_state(h)
        state.deadline = Deadline(0)
        with pytest.raises(SolveTimeout):
            rule_heavy_edge(state)
        assert state.current is h
        assert state.upper_bound == 2
        assert state.round_stats == []


class TestRuleHeavyOverlap:
    def test_pair_with_shared_weight_at_bound(self):
        h = Hypergraph(4, [[0, 1, 2], [0, 1, 3], [2, 3]])
        state = make_state(h)
        assert state.upper_bound == 2
        assert rule_heavy_overlap(state)
        assert state.current.vertex_count == 3
        check_exact(h, state)

    def test_nothing_left_after_parallel_merge(self):
        h = Hypergraph(2, [[0, 1], [0, 1]], [1, 1])
        state = make_state(compact(h))
        rule_heavy_edge(state)
        assert state.current.vertex_count == 1
        assert not rule_heavy_overlap(state)

    def test_shared_weight_below_bound(self):
        h = Hypergraph(4, [[0, 1, 2], [1, 3], [2, 3], [0, 3]])
        state = make_state(h)
        assert state.upper_bound == 2
        assert not rule_heavy_overlap(state)

    def test_expired_deadline_inside_one_large_edge(self):
        # a unit edge over all K vertices and a weight-3 cycle: every
        # vertex reaches the bound of 7, so each scans the whole edge
        k = 2000
        edges = [list(range(k))] + [[i, (i + 1) % k] for i in range(k)]
        h = Hypergraph(k, edges, [1] + [3] * k)
        assert make_state(h).upper_bound == 7
        check_expired_deadline(h, rule_heavy_overlap)

    def test_shared_edges_and_common_neighbours_add_up(self):
        # (0, 1) shares c = 2 and has the common neighbour 2 (N = 1): alone
        # neither reaches the bound of 3, together they do
        h = Hypergraph(5, [[0, 1], [0, 1, 3], [0, 2], [1, 2], [2, 4], [3, 4], [3, 4], [2, 4]])
        state = make_state(h)
        assert state.upper_bound == 3
        assert rule_heavy_overlap(state)
        assert state.current.vertex_count == 4
        check_exact(h, state)

    def test_common_neighbor_reaches_bound(self):
        h = Hypergraph(4, [[0, 1], [0, 2], [1, 2], [2, 3], [0, 3]])
        state = make_state(h)
        assert state.upper_bound == 2
        assert rule_heavy_overlap(state)
        check_exact(h, state)

    def test_no_common_neighbors_below_bound(self):
        h = Hypergraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]], [1, 2, 1, 2])
        state = make_state(h)
        assert state.upper_bound == 3
        assert not rule_heavy_overlap(state)

    def test_heavy_edge_alone_also_qualifies(self):
        h = Hypergraph(3, [[0, 1], [1, 2]], [2, 2])
        state = make_state(h)
        assert state.upper_bound == 2
        assert rule_heavy_overlap(state)
        check_exact(h, state)

    def test_deadline_checked_inside_the_neighbour_sums(self):
        # every pair of a unit 100-clique sums 98 common neighbours to reach
        # the bound of 99; the incidence scan alone checks 4 times
        state = make_state(unit_clique(100))
        state.deadline = ExpiresOnCheck(float("inf"))
        assert rule_heavy_overlap(state)
        assert state.deadline.checks >= 100
        assert state.current.vertex_count == 1


class TestRuleImbalancedVertex:
    def test_light_endpoint_contracts(self):
        h = Hypergraph(3, [[0, 1], [1, 2]], [3, 1])
        state = make_state(h)
        assert rule_imbalanced_vertex(state)
        check_exact(h, state)

    def test_equality_not_contracted(self):
        h = equality_case_instance()
        state = make_state(h)
        assert not rule_imbalanced_vertex(state)
        assert state.current is h

    def test_larger_edges_skipped(self):
        h = Hypergraph(3, [[0, 1, 2]], [10])
        state = make_state(h)
        assert not rule_imbalanced_vertex(state)

    def test_shared_three_pin_edge_counts(self):
        # vertex 0 has degree 2; the three-pin edge adds to c(0, 1) = 2, so
        # c + w2 = 3 > 2, though the two-pin edge alone is half the degree
        h = Hypergraph(4, [[0, 1], [0, 1, 2], [1, 3], [2, 3]])
        state = make_state(h)
        assert rule_imbalanced_vertex(state)
        assert state.current.vertex_count == 3
        check_exact(h, state)

    def test_parallel_two_pin_edges_are_tested_as_one(self):
        # neither copy of {0, 1} outweighs half of a degree of 7; together
        # they do
        h = Hypergraph(3, [[0, 1], [0, 1], [1, 2], [0, 2]], [2, 2, 3, 3])
        state = make_state(h)
        assert state.upper_bound == 6
        assert rule_imbalanced_vertex(state)
        assert state.current.vertex_count == 2
        check_exact(h, state)


class TestRuleImbalancedTriangle:
    def test_unit_triangle_contracts(self, triangle):
        state = make_state(triangle)
        assert rule_imbalanced_triangle(state)
        assert state.current.vertex_count == 2
        assert list(state.current.edges()) == [((0, 1), 2)]
        assert state.upper_bound == 2
        check_exact(triangle, state)

    def test_no_triangle_present(self):
        h = Hypergraph(4, [[0, 1], [2, 3]], [5, 5])
        state = make_state(h)
        assert not rule_imbalanced_triangle(state)

    def test_marking_limits_to_one_contraction_per_vertex(self):
        # two unit triangles sharing vertex 2: once 2 joins one contraction,
        # the edge pairs through it are skipped this pass
        h = Hypergraph(
            5, [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [2, 4]]
        )
        state = make_state(h)
        assert rule_imbalanced_triangle(state)
        assert state.current.vertex_count == 3
        check_exact(h, state)

    def test_both_endpoints_must_pass(self):
        # in the triangle 1-2-3 only vertex 2 of the edge (2, 3) passes the
        # degree test; contracting on it alone loses the minimum cut {0, 3} | {1, 2}
        h = Hypergraph(
            4,
            [[0, 2, 3], [1, 3], [2, 3], [0, 3], [0, 1], [1, 2], [0, 1, 2, 3], [0, 1, 2], [0, 2]],
            [2, 4, 5, 11, 6, 11, 12, 1, 1],
        )
        assert brute_mincut(h).value == 31
        state = make_state(h)
        rule_imbalanced_triangle(state)
        check_exact(h, state)
        assert run_pipeline(h).value == 31

    def test_expired_deadline_inside_the_pair_scan(self):
        # no pair of a unit 100-clique qualifies; each scans 99 neighbours
        check_expired_deadline(unit_clique(100), rule_imbalanced_triangle)


def test_two_pin_rules_build_one_pair_map_per_hypergraph(monkeypatch):
    """The pair map is built once per hypergraph: where heavy-overlap
    contracts nothing, imbalanced-triangle reads the map it read.
    imbalanced-vertex scans the incidence lists and builds none."""
    calls = []  # (hypergraph, pair map) per call; keeps every graph alive
    two_pin_pairs = Hypergraph.two_pin_pairs

    def spy(h):
        calls.append((h, two_pin_pairs(h)))
        return calls[-1][1]

    monkeypatch.setattr(Hypergraph, "two_pin_pairs", spy)
    h = unit_cycle(8)  # no rule fires
    state = make_state(h)
    assert not rule_imbalanced_vertex(state)
    assert calls == []
    for rule in (rule_heavy_overlap, rule_imbalanced_triangle):
        assert not rule(state)
    assert len(calls) == 2
    assert all(g is h and maps is calls[0][1] for g, maps in calls)

    for seed in range(20):
        run_pipeline(random_instance(seed))
    first: dict = {}
    for g, maps in calls:
        assert first.setdefault(id(g), maps) is maps


class TestPipeline:
    def test_triangle_fully_reduced(self, triangle):
        res, state = run_pipeline_detailed(triangle, PipelineConfig(want_partition=True))
        assert res.value == 2
        assert state.current.vertex_count == 1  # no residual solver involved
        assert cut_value(triangle, res.partition) == 2

    def test_two_disjoint_triangles(self):
        h = Hypergraph(6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
        res = run_pipeline(h, PipelineConfig(want_partition=True))
        assert res.value == 0
        assert cut_value(h, res.partition) == 0

    def test_no_log_unless_a_partition_is_wanted(self):
        h = two_cycle_union()
        for config in (PipelineConfig(), PipelineConfig(use_lp=True)):
            res, state = run_pipeline_detailed(h, config)
            assert res.value == brute_mincut(h).value == 4
            assert res.partition is None
            assert state.log is None

    def test_single_spanning_edge_terminal(self, spanning_edge):
        res = run_pipeline(spanning_edge)
        assert res.value == 7
        assert res.provenance == "reduction-terminal"

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(Hypergraph(1))

    def test_threshold_hands_residual_to_solver(self):
        for seed in range(40):
            h = random_instance(seed)
            res = run_pipeline(h)
            assert res.value == brute_mincut(h).value

    def test_determinism(self):
        for seed in (3, 17):
            h = random_instance(seed)
            runs = [
                run_pipeline_detailed(h, PipelineConfig(use_lp=True, seed=99, want_partition=True))
                for _ in range(2)
            ]
            (r1, s1), (r2, s2) = runs
            assert r1 == r2
            assert s1.round_stats == s2.round_stats
            assert s1.current == s2.current

    def test_edge_and_pin_counts_never_grow(self):
        for seed in range(40):
            h = random_instance(seed)
            _, state = run_pipeline_detailed(h)
            per_round = {}
            for s in state.round_stats:
                per_round.setdefault(s.round, []).append(s)
            last = h.edge_count
            for rnd in sorted(per_round):
                stats = per_round[rnd]
                assert stats[0].edges_before <= last
                for s in stats:
                    assert s.edges_after <= s.edges_before
                last = stats[-1].edges_after

    def test_peak_is_the_input_estimate_with_the_exact_solver(self):
        # contractions and compactions only shrink n, m and p
        inputs = [random_instance(seed) for seed in range(30)]
        inputs += [unit_cycle(30), two_cycle_union(), two_unit_cycles(parallel=True)]
        for h in inputs:
            for use_lp in (False, True):
                _, state = run_pipeline_detailed(h, PipelineConfig(use_lp=use_lp))
                assert state.peak_bytes == storage_nbytes(h)

    def test_partition_matches_value(self):
        for seed in range(60):
            h = random_instance(seed)
            res = run_pipeline(h, PipelineConfig(want_partition=True))
            if res.partition is not None:
                assert cut_value(h, res.partition) == res.value

    def test_bip_backend_matches(self):
        for seed in range(60):
            h = random_instance(seed)
            res = run_pipeline(h, PipelineConfig(solver="bip"))
            assert res.value == brute_mincut(h).value


class TestStopReasonAndResidual:
    def test_fixpoint_stops_once_every_rule_saw_the_hypergraph(self):
        fixpoints = 0
        for seed in range(40):
            for unit in (True, False):
                h = random_instance(seed, unit=unit, n_range=(10, 16), m_range=(30, 48))
                state = make_state(h)
                if _reduce_rounds(state) is not None:
                    continue
                fixpoints += 1
                assert state.stop_reason == "fixpoint"
                # the run ends right after one no-change call of every rule
                trailing = 0
                for s in reversed(state.round_stats):
                    if (s.vertices_before, s.edges_before) != (s.vertices_after, s.edges_after):
                        break
                    trailing += 1
                assert trailing == len(RULE_ORDER)
                current, bound = state.current, state.upper_bound
                for _, rule in RULE_ORDER:
                    assert not rule(state)
                assert state.current is current and state.upper_bound == bound
        assert fixpoints >= 10

    def test_terminal_and_zero_bound(self, triangle):
        _, state = run_pipeline_detailed(triangle)
        assert (state.stop_reason, state.residual) == ("terminal", None)
        for h in (Hypergraph(6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]),
                  Hypergraph(3, [[0, 1]])):
            _, state = run_pipeline_detailed(h)
            assert (state.stop_reason, state.residual) == ("zero-bound", None)

    def test_residual_records_the_solver_work(self):
        seen = 0
        for seed in range(40):
            h = random_instance(seed, unit=True, n_range=(10, 16), m_range=(30, 48))
            for solver in ("exact", "bip"):
                res, state = run_pipeline_detailed(h, PipelineConfig(solver=solver))
                if state.stop_reason != "fixpoint":
                    continue
                seen += 1
                r, cur = state.residual, state.current
                assert (r.solver, r.n, r.m, r.p) == (solver, cur.vertex_count, cur.edge_count, cur.pin_count)
                assert r.status == "optimal"
                if solver == "exact":
                    assert r.phases == mincut_ordering(cur).phases
                    assert 1 <= r.phases <= cur.vertex_count - 1
                    assert (r.nodes, r.pivots) == (None, None)
                else:
                    assert r.phases is None and r.nodes >= 1 and r.pivots >= 0
        assert seen >= 10

    @pytest.mark.parametrize("solver", ["exact", "bip"])
    @pytest.mark.parametrize("checks", [1, 2])
    def test_residual_timeout_keeps_the_bound(self, solver, checks):
        # the deadline expires inside the solver: at its first check, or at
        # the second (after the exact solver's first phase, or at the bip
        # root LP's first pivot); either way the bound's value is raised
        # with a block that re-scores to it
        h = unit_cycle(30)
        state = make_state(h, solver=solver, want_partition=True)
        assert _reduce_rounds(state) is None and state.current.vertex_count == 30
        state.deadline = ExpiresOnCheck(checks)
        with pytest.raises(SolveTimeout) as exc:
            _solve_residual(state)
        best = exc.value.best
        assert state.deadline.checks == checks
        assert best.value == state.upper_bound == 2 == cut_value(h, best.partition)


class TestStrictness:
    def test_strict_rule_keeps_equality_instance_intact(self):
        h = equality_case_instance()
        assert brute_mincut(h).value == 5
        assert h.min_weighted_degree() == 6  # the cut below is non-trivial
        state = make_state(h)
        assert not rule_imbalanced_vertex(state)
        assert state.current == h

    def test_pipeline_solves_equality_instance(self):
        h = equality_case_instance()
        assert run_pipeline(h).value == 5

    def test_non_strict_unmarked_variant_overshoots(self):
        h = equality_case_instance()
        state = make_state(h)
        assert loose_imbalanced_vertex(state)
        reduced = state.current
        assert reduced.vertex_count >= 2
        overshoot = min(state.upper_bound, brute_mincut(reduced).value)
        assert overshoot == 6 > 5  # the equality contraction destroyed the optimum


def dense_weighted_instance(seed):
    """4-9 vertices, n..3n edges of mostly two pins, weights 1..3, 1..10 or
    1..100; may be disconnected."""
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    edges = [rng.sample(range(n), rng.choice((2, 2, 2, 3))) for _ in range(rng.randint(n, 3 * n))]
    return Hypergraph(n, edges, [rng.randint(1, rng.choice((3, 10, 100))) for _ in edges])


# a unit multigraph on which the triangle rule over an unmarked pair scan
# gives 4 against a true 3
TRIANGLE_MARKING_CASE = Hypergraph(
    5, [[1, 3], [1, 2], [1, 0], [3, 4], [4, 3], [0, 2], [0, 2], [0, 2], [4, 1], [2, 3], [3, 4], [2, 0]]
)


def exactness_inputs():
    """The per-rule exactness inputs: the equality case, the triangle
    marking case, a triangle with an isolated vertex (every rule then runs
    at bound 0), and sparse random and dense weighted inputs for 150 seeds."""
    yield equality_case_instance()
    yield TRIANGLE_MARKING_CASE
    yield Hypergraph(5, [[0, 1], [1, 2], [0, 2], [1, 2, 3]])
    for seed in range(150):
        yield random_instance(seed)
        yield dense_weighted_instance(seed)


def unmarked_pair_scan(state, test):
    """``_pair_scan`` without its marking."""
    pair_w, neighbors = state.current.two_pin_pairs()
    return _contract(state, [(u, v) for (u, v), w in pair_w.items() if test(u, v, w, neighbors[u], neighbors[v])])


def triangle_rule(accept, scan=_pair_scan):
    """The triangle rule over ``scan``, accepting a pair when
    ``accept(d(u), d(v), w_uv, w_ux, w_vx)`` holds at a common neighbour x."""

    def rule(state):
        wdeg = state.current.weighted_degrees()
        return scan(
            state,
            lambda u, v, w, nu, nv: any(accept(wdeg[u], wdeg[v], w, nu[x], nv[x]) for x in nu.keys() & nv.keys()),
        )

    return rule


def overlap_rule(side, slack):
    """The heavy-overlap rule with ``side`` picking each common neighbour's
    weight, and the neighbour term tested against the bound lowered by
    ``slack``."""

    def rule(state):
        bound = state.upper_bound
        neighbors = state.current.two_pin_pairs()[1]

        def test(u, v, c, w2):
            if c >= bound or not w2:
                return c >= bound
            nu, nv = neighbors[u], neighbors[v]
            return c + sum(side(nu[x], nv[x]) for x in nu.keys() & nv.keys()) >= bound - slack

        return _incidence_scan(state, test)

    return rule


def non_strict_imbalanced_vertex(state):
    wdeg = state.current.weighted_degrees()
    return _incidence_scan(state, lambda u, v, c, w2: w2 > 0 and c + w2 >= min(wdeg[u], wdeg[v]))


def triangle_test(du, dv, w, a, b):
    return du <= 2 * (w + a) and dv <= 2 * (w + b)


RULE_MUTANTS = {
    "neighbour-term-summing-max": overlap_rule(max, 0),
    "neighbour-term-at-bound-minus-1": overlap_rule(min, 1),
    "heavy-overlap-at-bound-minus-1": lambda state: _incidence_scan(
        state, lambda u, v, c, w2: c >= state.upper_bound - 1
    ),
    "triangle-test-with-or": triangle_rule(lambda du, dv, w, a, b: du <= 2 * (w + a) or dv <= 2 * (w + b)),
    "triangle-test-reading-the-dearer-edge": triangle_rule(
        lambda du, dv, w, a, b: triangle_test(du, dv, w, max(a, b), max(a, b))
    ),
    "pair-scan-without-marking": triangle_rule(triangle_test, unmarked_pair_scan),
    "non-strict-imbalanced-vertex": non_strict_imbalanced_vertex,
}


@pytest.mark.parametrize("mutant", RULE_MUTANTS.values(), ids=RULE_MUTANTS.keys())
def test_exactness_inputs_reject_every_rule_mutant(mutant):
    """Each known wrong variant of a rule, run alone, loses the minimum cut
    on at least one per-rule exactness input."""
    for h in exactness_inputs():
        state = make_state(h)
        mutant(state)
        if value_after(state) != brute_mincut(h).value:
            return
    pytest.fail("no exactness input rejects this mutant")


class TestPerRuleExactness:
    def test_every_rule_preserves_mincut(self):
        for h in exactness_inputs():
            for name, rule in RULE_ORDER:
                state = make_state(h)
                rule(state)
                check_exact(h, state)

    def test_contract_holds_after_every_application_in_a_run(self):
        for seed in range(50):
            h = random_instance(seed)
            truth = brute_mincut(h).value
            state = make_state(h)
            for _ in range(3):
                for _, rule in RULE_ORDER:
                    rule(state)
                    check_exact(h, state)
                    if state.current.vertex_count == 1:
                        break

    def test_pin_and_edge_counts_monotone_under_rules(self):
        for seed in range(50):
            h = random_instance(seed)
            state = make_state(h)
            edges, pins = state.current.edge_count, state.current.pin_count
            for _ in range(3):
                for _, rule in RULE_ORDER:
                    rule(state)
                    assert state.current.edge_count <= edges
                    assert state.current.pin_count <= pins
                    edges, pins = state.current.edge_count, state.current.pin_count


def test_every_rule_earns_its_round():
    """Every rule in ``RULE_ORDER`` contracts a vertex somewhere in the
    reduction of 150 seeded random hypergraphs: 8-200 vertices, edges of 2
    to 2..8 pins, weights 1, 1..10 or 1..1000."""
    fired = set()
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(8, 200)
        spec = GenSpec(
            n,
            rng.randint(n, 3 * n),
            size_range=(2, rng.randint(2, 8)),
            weight_range=((1, 1), (1, 10), (1, 1000))[seed % 3],
            seed=seed,
            ensure_connected=True,
        )
        state = make_state(random_hypergraph(spec))
        _reduce_rounds(state)
        fired.update(s.rule for s in state.round_stats if s.contractions)
    assert [name for name, _ in RULE_ORDER if name not in fired] == []


@st.composite
def small_hypergraphs(draw):
    """Connected, n <= 14, edges of 2..6 pins, weights 1..w for w up to 1000."""
    n = draw(st.integers(3, 14))
    w_hi = draw(st.sampled_from([2, 10, 100, 1000]))
    pins = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(6, n), unique=True)
    edges = draw(st.lists(pins, min_size=n - 1, max_size=3 * n))
    weights = draw(st.lists(st.integers(1, w_hi), min_size=len(edges), max_size=len(edges)))
    h = Hypergraph(n, edges, weights)
    assume(max(connected_components(h)) == 0)
    return h


@st.composite
def hierarchical_nets(draw):
    """Cells in 2-4 macros, n <= 14: a net over each macro, nets over strict
    subsets of a macro inside it, and port nets from one macro to the next
    or between random cells; weights 1..w for w up to 1000."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    ids = draw(st.permutations(range(sum(sizes))))
    weight = st.integers(1, draw(st.sampled_from([2, 10, 100, 1000])))
    macros, start = [], 0
    for k in sizes:
        macros.append(ids[start:start + k])
        start += k
    edges = []
    for cells in macros:
        edges.append(cells)
        if len(cells) > 2:
            inner = st.lists(st.sampled_from(cells), min_size=2, max_size=len(cells) - 1, unique=True)
            edges += draw(st.lists(inner, max_size=3))
    for a, b in zip(macros, macros[1:]):
        edges.append([draw(st.sampled_from(a)), draw(st.sampled_from(b))])
    cell = st.sampled_from(ids)
    edges += draw(st.lists(st.lists(cell, min_size=2, max_size=3, unique=True), max_size=2))
    return Hypergraph(len(ids), edges, [draw(weight) for _ in edges])


class TestComposition:
    """The contract after every rule application inside real multi-round
    pipeline runs, on the intermediate instances the rules actually meet,
    random and hierarchical."""

    @settings(
        max_examples=600,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(st.one_of(small_hypergraphs(), hierarchical_nets()))
    @example(
        Hypergraph(
            4,
            [[0, 2, 3], [1, 3], [2, 3], [0, 3], [0, 1], [1, 2], [0, 1, 2, 3], [0, 1, 2], [0, 2]],
            [2, 4, 5, 11, 6, 11, 12, 1, 1],
        )
    )
    def test_contract_after_every_rule_in_pipeline_runs(self, h):
        truth = brute_mincut(h).value
        applied = []

        def checked(name, rule):
            def run(state):
                nbytes = storage_nbytes(state.current)
                changed = rule(state)
                applied.append(name)
                current = state.current
                assert storage_nbytes(current) <= nbytes, name
                rest = brute_mincut(current).value if current.vertex_count >= 2 else state.upper_bound
                assert min(state.upper_bound, rest) == truth, (name, len(applied))
                return changed

            return run

        wrapped = tuple((name, checked(name, rule)) for name, rule in RULE_ORDER)
        original = hgcut.reduce.RULE_ORDER
        hgcut.reduce.RULE_ORDER = wrapped
        try:
            assert run_pipeline(h).value == truth
        finally:
            hgcut.reduce.RULE_ORDER = original

    @settings(
        max_examples=600,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(st.one_of(small_hypergraphs(), hierarchical_nets()))
    @example(  # the only edge as heavy as the bound has one pin
        Hypergraph(4, [[0], [0, 1], [1, 2], [2, 3], [0, 3]], [9, 2, 1, 2, 1])
    )
    def test_every_contraction_lowers_the_vertex_count(self, h):
        """No caller hands ``contract_groups`` links that join nothing, so
        each call is a rebuild, with or without label propagation."""

        def contract_groups(g, links, log=None):
            out = original(g, links, log)
            assert out.vertex_count < g.vertex_count
            return out

        original = hgcut.reduce.contract_groups
        hgcut.reduce.contract_groups = contract_groups
        try:
            for use_lp in (False, True):
                run_pipeline(h, PipelineConfig(use_lp=use_lp))
        finally:
            hgcut.reduce.contract_groups = original


# -- disconnected inputs: no input pass, no link between components ------------


@st.composite
def component_unions(draw):
    """Unions of 1-3 connected random components of 2-5 vertices, with
    interleaved vertex ids and one-pin, zero-weight and parallel edges;
    other weights are 1, 1..3 or 1..1000.  A component is spanned by a
    cycle, which the rules may leave standing, or by a random tree."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    ids = draw(st.permutations(range(sum(sizes))))
    weight = st.integers(1, draw(st.sampled_from([1, 3, 1000])))
    edges, weights = [], []
    start = 0
    for k in sizes:
        comp = ids[start:start + k]
        start += k
        own = len(edges)  # this component's edges start here
        if k >= 3 and draw(st.booleans()):
            edges += [[comp[i - 1], comp[i]] for i in range(k)]
        else:
            for i in range(1, k):
                earlier = st.sampled_from(comp[:i])
                edges.append([comp[i]] + draw(st.lists(earlier, min_size=1, max_size=2, unique=True)))
        weights += [draw(weight) for _ in range(own, len(edges))]
        for _ in range(draw(st.integers(0, k))):
            kind = draw(st.sampled_from(["random", "one-pin", "zero", "parallel"]))
            if kind == "parallel":
                edges.append(list(edges[draw(st.integers(own, len(edges) - 1))]))
            elif kind == "one-pin":
                edges.append([draw(st.sampled_from(comp))])
            else:
                edges.append(draw(st.lists(st.sampled_from(comp), min_size=1, max_size=k, unique=True)))
            weights.append(0 if kind == "zero" else draw(weight))
    return Hypergraph(len(ids), edges, weights)


def two_unit_cycles(parallel=False):
    """Unit 4-cycles on the even and the odd vertices, with a one-pin and
    a zero-weight edge, and optionally a parallel copy of a cycle edge."""
    edges = [[v, (v + 2) % 8] for v in range(8)] + [[0], [1, 3, 5]]
    weights = [1] * 8 + [5, 0]
    if parallel:
        edges.append([2, 4])
        weights.append(1)
    return Hypergraph(8, edges, weights)


UNION_CONFIGS = (
    PipelineConfig(want_partition=True),
    PipelineConfig(use_lp=True, seed=7, want_partition=True),
    PipelineConfig(solver="bip", want_partition=True),
)


class TestDisconnectedInputs:
    """No connectivity pass runs over the input: a disconnected one must
    still end with a zero cut, because no contraction links two of its
    components."""

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(component_unions())
    @example(two_unit_cycles())  # fixpoint; the residual is disconnected
    @example(two_unit_cycles(parallel=True))  # one cycle collapses later
    def test_matches_oracle_and_certificates_rescore(self, h):
        truth = brute_mincut(h).value
        disconnected = max(connected_components(h)) != 0
        for config in UNION_CONFIGS:
            res = run_pipeline(h, config)
            assert cut_value(h, res.partition) == res.value
            if not config.use_lp:
                assert res.value == truth
            elif disconnected:
                assert res.value == 0
            else:  # label propagation is a heuristic, never below the optimum
                assert res.value >= truth

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(component_unions())
    @example(two_unit_cycles())
    @example(two_unit_cycles(parallel=True))
    def test_no_link_joins_two_input_components(self, h):
        labels = connected_components(h)

        def one_component(log, vertices):
            return len({labels[x] for v in vertices for x in log.members_of_current(v)}) <= 1

        def contract(state, links):
            assert all(one_component(state.log, link) for link in links)
            return original_contract(state, links)

        original_contract = hgcut.reduce._contract
        hgcut.reduce._contract = contract
        try:
            for config in UNION_CONFIGS:
                run_pipeline(h, config)
        finally:
            hgcut.reduce._contract = original_contract

    def test_one_pin_edges_leave_the_first_bound_exact(self):
        # counting the one-pin edges would give degrees of 8 for a cut of 5
        h = Hypergraph(2, [[0, 1], [0], [1]], [5, 3, 3])
        assert make_state(h).upper_bound == 5
        for config in UNION_CONFIGS:
            res = run_pipeline(h, config)
            assert res.value == 5
            assert cut_value(h, res.partition) == 5
