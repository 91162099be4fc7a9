import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import hgcut.reduce
from hgcut import (
    Hypergraph,
    PipelineConfig,
    brute_mincut,
    connected_components,
    cut_value,
    mincut_ordering,
    run_pipeline,
    run_pipeline_detailed,
)
from hgcut.reduce import (
    RULE_ORDER,
    _reduce_rounds,
    initial_state,
    rule_heavy_edge,
    rule_heavy_neighborhood,
    rule_heavy_overlap,
    rule_imbalanced_triangle,
    rule_imbalanced_vertex,
    rule_nested_substructure,
    rule_singleton,
    update_upper_bound,
)
from conftest import equality_case_instance, loose_imbalanced_vertex, random_instance


def make_state(h, **config):
    return initial_state(h, PipelineConfig(**config))


def check_exact(h, state):
    """min(bound, mincut(reduced)) must equal mincut(input)."""
    truth = brute_mincut(h).value
    if state.current.vertex_count >= 2:
        got = min(state.upper_bound, brute_mincut(state.current).value)
    else:
        got = state.upper_bound
    assert got == truth


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
    def test_removes_single_pin(self):
        h = Hypergraph(2, [[0], [0, 1]], [9, 1])
        state = make_state(h)
        assert rule_singleton(state)
        assert list(state.current.edges()) == [((0, 1), 1)]

    def test_removes_zero_weight(self):
        h = Hypergraph(2, [[0, 1], [0, 1]], [0, 2])
        state = make_state(h)
        assert rule_singleton(state)
        assert list(state.current.edges()) == [((0, 1), 2)]

    def test_fixed_point(self):
        h = Hypergraph(2, [[0, 1]], [2])
        state = make_state(h)
        assert not rule_singleton(state)
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
        state = make_state(h)
        rule_singleton(state)
        rule_heavy_edge(state)
        assert state.current.vertex_count == 1
        assert not rule_heavy_overlap(state)

    def test_shared_weight_below_bound(self):
        h = Hypergraph(4, [[0, 1, 2], [1, 3], [2, 3], [0, 3]])
        state = make_state(h)
        assert state.upper_bound == 2
        assert not rule_heavy_overlap(state)


class TestRuleNestedSubstructure:
    def test_contracts_enclosed_pair(self):
        h = Hypergraph(4, [[0, 1, 2, 3], [1, 2]])
        state = make_state(h)
        assert rule_nested_substructure(state)
        assert state.current.vertex_count == 3
        check_exact(h, state)

    def test_escape_edge_taints(self):
        h = Hypergraph(5, [[0, 1, 2, 3], [1, 2], [2, 4]])
        state = make_state(h)
        assert not rule_nested_substructure(state)
        assert state.current is h

    def test_superset_edge_does_not_taint(self):
        h = Hypergraph(5, [[0, 1, 2, 3], [0, 1, 2, 3, 4], [1, 2]])
        state = make_state(h)
        assert rule_nested_substructure(state)
        assert state.current.vertex_count == 4
        check_exact(h, state)

    def test_two_components_in_one_parent_only_untainted_merges(self):
        # inside parent {1..6}: components {1, 2, 3} and {5, 6}; the edge
        # {6, 7} leaves the parent, so {5, 6} stays apart
        h = Hypergraph(
            8,
            [[1, 2, 3, 4, 5, 6], [1, 2], [2, 3], [5, 6], [6, 7], list(range(8))],
            [1, 2, 2, 2, 1, 1],
        )
        state = make_state(h, want_partition=True)
        assert rule_nested_substructure(state)
        assert state.current.vertex_count == 6
        merged = [state.log.members_of_current(c) for c in range(6)]
        assert [m for m in merged if len(m) > 1] == [(1, 2, 3)]
        check_exact(h, state)


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


class TestRuleHeavyNeighborhood:
    def test_common_neighbor_reaches_bound(self):
        h = Hypergraph(4, [[0, 1], [0, 2], [1, 2], [2, 3], [0, 3]])
        state = make_state(h)
        assert state.upper_bound == 2
        assert rule_heavy_neighborhood(state)
        check_exact(h, state)

    def test_no_common_neighbors_below_bound(self):
        h = Hypergraph(4, [[0, 1], [1, 2], [2, 3], [0, 3]], [1, 2, 1, 2])
        state = make_state(h)
        assert state.upper_bound == 3
        assert not rule_heavy_neighborhood(state)

    def test_heavy_edge_alone_also_qualifies(self):
        h = Hypergraph(3, [[0, 1], [1, 2]], [2, 2])
        state = make_state(h)
        assert state.upper_bound == 2
        assert rule_heavy_neighborhood(state)
        check_exact(h, state)


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


class TestPerRuleExactness:
    def test_every_rule_preserves_mincut(self):
        for seed in range(150):
            h = random_instance(seed)
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


class TestComposition:
    """The contract after every rule application inside real multi-round
    pipeline runs, on the intermediate instances the rules actually meet."""

    @settings(
        max_examples=400,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(small_hypergraphs())
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
                changed = rule(state)
                applied.append(name)
                current = state.current
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
