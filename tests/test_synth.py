import random

import pytest

from hgcut import (
    GenSpec,
    Hypergraph,
    connected_components,
    find_benchmark_core,
    k2_core,
    mincut_ordering,
    random_hypergraph,
    randomize_weights,
)


def core_with_vertex_map(h, k):
    """``k2_core`` of ``h`` and the input vertex behind each core vertex.
    The survivors come from an independent peeling, and the core must equal
    ``h`` restricted to them and relabelled in id order: the same edges,
    in input order, with the same weights."""
    alive = set(range(h.vertex_count))
    while True:
        live_edges = [e for e in range(h.edge_count) if len(alive.intersection(h.pins(e))) >= 2]
        deg = {v: 0 for v in alive}
        for e in live_edges:
            for v in alive.intersection(h.pins(e)):
                deg[v] += 1
        victims = {v for v, d in deg.items() if d < k}
        if not victims:
            break
        alive -= victims
    keep = tuple(sorted(alive))
    relabel = {v: i for i, v in enumerate(keep)}
    expected = Hypergraph(
        len(keep),
        [[relabel[v] for v in h.pins(e) if v in alive] for e in live_edges],
        [h.weight(e) for e in live_edges],
    )
    core = k2_core(h, k)
    assert core == expected
    return core, keep


class TestRandomHypergraph:
    def test_deterministic(self):
        spec = GenSpec(vertex_count=6, edge_count=8, size_range=(2, 4), seed=7)
        assert random_hypergraph(spec) == random_hypergraph(spec)
        assert random_hypergraph(spec).edge_count == 8

    def test_infeasible_sizes(self):
        with pytest.raises(ValueError, match="exceeds"):
            random_hypergraph(GenSpec(vertex_count=3, edge_count=2, size_range=(4, 5)))

    def test_connectivity_flag(self):
        for seed in range(40):
            spec = GenSpec(
                vertex_count=12, edge_count=5, size_range=(2, 3),
                seed=seed, ensure_connected=True,
            )
            h = random_hypergraph(spec)
            assert max(connected_components(h)) == 0

    def test_distinct_pins(self):
        h = random_hypergraph(GenSpec(vertex_count=8, edge_count=20, size_range=(2, 4), seed=3))
        for e in range(h.edge_count):
            pins = h.pins(e)
            assert len(pins) == len(set(pins))


class TestRandomizeWeights:
    def test_degenerate_range_gives_unit_weights(self):
        h = random_hypergraph(GenSpec(vertex_count=6, edge_count=6, seed=1, weight_range=(3, 9)))
        hw = randomize_weights(h, 1, 1, seed=0)
        assert hw.is_unweighted()

    def test_range_respected_topology_unchanged(self):
        h = random_hypergraph(GenSpec(vertex_count=6, edge_count=6, seed=2))
        hw = randomize_weights(h, 1, 100, seed=5)
        assert [hw.pins(e) for e in range(hw.edge_count)] == [h.pins(e) for e in range(h.edge_count)]
        assert all(1 <= w <= 100 for w in hw.edge_weights())

    def test_same_seed_same_weights(self):
        h = random_hypergraph(GenSpec(vertex_count=6, edge_count=6, seed=2))
        assert randomize_weights(h, 1, 100, 9) == randomize_weights(h, 1, 100, 9)


class TestCore:
    def test_triangle_is_its_own_core(self, triangle):
        assert k2_core(triangle, 2) == triangle

    def test_star_peels_to_nothing(self):
        star = Hypergraph(4, [[0, 1], [0, 2], [0, 3]])
        core = k2_core(star, 2)
        assert core.vertex_count == 0
        assert core.edge_count == 0

    def test_k_below_two_rejected(self, triangle):
        with pytest.raises(ValueError):
            k2_core(triangle, 1)

    def test_fixed_point_conditions(self):
        rng = random.Random(0)
        for seed in range(40):
            h = random_hypergraph(
                GenSpec(vertex_count=12, edge_count=16, size_range=(2, 4), seed=seed)
            )
            k = rng.randint(2, 4)
            core = k2_core(h, k)
            for v in range(core.vertex_count):
                assert len(core.incident(v)) >= k
            for e in range(core.edge_count):
                assert len(core.pins(e)) >= 2

    def test_matches_naive_repeated_peeling(self):
        # reference: recompute from scratch each pass in a shuffled order;
        # the fixed point must not depend on processing order
        def naive(h, k, order_seed):
            alive_v = set(range(h.vertex_count))
            pins = {e: set(h.pins(e)) for e in range(h.edge_count)}
            rng = random.Random(order_seed)
            while True:
                dead_e = [e for e, s in pins.items() if len(s) < 2]
                for e in dead_e:
                    del pins[e]
                deg = {v: 0 for v in alive_v}
                for s in pins.values():
                    for v in s:
                        deg[v] += 1
                victims = [v for v in alive_v if deg[v] < k]
                if not victims and not dead_e:
                    return alive_v, {frozenset(s) for s in pins.values()}
                rng.shuffle(victims)
                for v in victims:
                    alive_v.discard(v)
                    for s in pins.values():
                        s.discard(v)

        for seed in range(20):
            h = random_hypergraph(
                GenSpec(vertex_count=10, edge_count=14, size_range=(2, 4), seed=seed)
            )
            core, keep = core_with_vertex_map(h, 2)
            back = {i: v for i, v in enumerate(keep)}
            got_edges = {
                frozenset(back[v] for v in core.pins(e)) for e in range(core.edge_count)
            }
            for order_seed in range(3):
                alive, edges = naive(h, 2, order_seed)
                assert set(keep) == alive
                assert got_edges == edges

    def test_core_is_subhypergraph(self):
        for seed in range(20):
            h = random_hypergraph(
                GenSpec(vertex_count=10, edge_count=14, size_range=(2, 4), seed=seed)
            )
            core, keep = core_with_vertex_map(h, 2)
            originals = [frozenset(h.pins(e)) for e in range(h.edge_count)]
            for e in range(core.edge_count):
                mapped = frozenset(keep[v] for v in core.pins(e))
                assert any(mapped <= orig for orig in originals)


class TestFindBenchmarkCore:
    def test_first_hit_semantics(self):
        # two unit triangles joined by one bridge edge: already a 2-core,
        # and the bridge cut (1) is below the smallest weighted degree (2)
        h = Hypergraph(6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]])
        found = find_benchmark_core(h)
        assert found is not None
        k, core, value = found
        assert k == 2
        assert value == mincut_ordering(core).value < core.min_weighted_degree()

    def test_star_has_no_core(self):
        star = Hypergraph(4, [[0, 1], [0, 2], [0, 3]])
        assert find_benchmark_core(star) is None

    def test_postcondition_recheck(self):
        for seed in range(30):
            h = random_hypergraph(
                GenSpec(vertex_count=12, edge_count=18, size_range=(2, 4),
                        seed=seed, weight_range=(1, 6))
            )
            found = find_benchmark_core(h)
            if found is None:
                continue
            k, core, value = found
            assert k >= 2
            assert core.vertex_count >= 2
            assert value == mincut_ordering(core).value < core.min_weighted_degree()
