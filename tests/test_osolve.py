import random

import numpy as np
import pytest

from hgcut import (
    Deadline,
    GenSpec,
    Hypergraph,
    brute_mincut,
    connected_components,
    cut_value,
    ma_ordering,
    mincut_ordering,
    phase_cut_values,
    random_hypergraph,
    randomize_weights,
    run_pipeline,
    trimmer_mincut,
)
from hgcut.osolve import _Incidence
from conftest import random_instance, two_cycle_union


def two_clusters(n, seed, *, size_range, weight_range, density=4, crossing=3):
    """Two random halves of ``density * n / 2`` edges each, joined by a few
    two-pin edges, so the minimum cut is usually not a single vertex."""
    rng = random.Random(seed)
    half = n // 2
    pins, weights = [], []
    for offset, count in ((0, half), (half, n - half)):
        spec = GenSpec(count, density * count, size_range, weight_range,
                       seed=rng.randrange(2**30), ensure_connected=True)
        for e, w in random_hypergraph(spec).edges():
            pins.append([v + offset for v in e])
            weights.append(w)
    for _ in range(crossing):
        pins.append([rng.randrange(half), rng.randrange(half, n)])
        weights.append(rng.randint(*weight_range))
    return Hypergraph(n, pins, weights)


def stoer_wagner_value(h):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(h.vertex_count))
    for (u, v), w in h.edges():
        if g.has_edge(u, v):
            g[u][v]["weight"] += w
        else:
            g.add_edge(u, v, weight=w)
    return nx.stoer_wagner(g)[0]


class TestMaOrdering:
    def test_path_from_zero(self):
        path = Hypergraph(3, [[0, 1], [1, 2]])
        assert ma_ordering(path, 0).order == (0, 1, 2)

    def test_triangle_final_key(self, triangle):
        ordering = ma_ordering(triangle, 0)
        assert ordering.order[0] == 0
        assert ordering.keys[ordering.order[-1]] == 2

    def test_two_vertices(self):
        h = Hypergraph(2, [[0, 1]], [5])
        ordering = ma_ordering(h, 0)
        assert ordering.order == (0, 1)
        assert ordering.keys[1] == 5

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            ma_ordering(Hypergraph(4, [[0, 1], [2, 3]]))

    def test_edge_counted_once_on_first_contact(self):
        # the 3-pin edge contributes once to each outside pin when vertex 0
        # enters, and never again as more of its pins are absorbed
        h = Hypergraph(3, [[0, 1, 2]], [4])
        ordering = ma_ordering(h, 0)
        assert ordering.keys[ordering.order[1]] == 4
        assert ordering.keys[ordering.order[2]] == 4

    def test_float_weights_use_heap_path(self):
        h = Hypergraph(3, [[0, 1], [1, 2], [0, 2]], [1.5, 2.5, 0.5])
        assert mincut_ordering(h).value == brute_mincut(h).value


class TestMincutOrdering:
    def test_triangle(self, triangle):
        res = mincut_ordering(triangle)
        assert res.value == 2
        assert cut_value(triangle, res.partition) == 2

    def test_single_spanning_edge(self, spanning_edge):
        assert mincut_ordering(spanning_edge).value == 7

    def test_two_components(self):
        res = mincut_ordering(Hypergraph(4, [[0, 1], [2, 3]]))
        assert res.value == 0
        assert res.partition in (frozenset({0, 1}), frozenset({2, 3}))

    def test_too_small(self):
        with pytest.raises(ValueError, match="no cut"):
            mincut_ordering(Hypergraph(1))

    def test_oracle_equivalence_sample(self):
        for seed in range(200):
            h = random_instance(seed)
            res = mincut_ordering(h)
            assert res.value == brute_mincut(h).value
            assert cut_value(h, res.partition) == res.value

    def test_phase_count_and_candidate_floor(self):
        for seed in range(40):
            h = random_instance(seed)
            candidates = phase_cut_values(h)
            assert 1 <= len(candidates) <= h.vertex_count - 1
            assert min(candidates) == mincut_ordering(h).value
            assert all(c >= min(candidates) for c in candidates)

    def test_start_vertex_independence(self):
        for seed in range(25):
            h = random_instance(seed)
            truth = brute_mincut(h).value
            # the global answer never depends on where each phase starts;
            # check by solving hypergraphs relabelled to move any vertex to 0
            for shift in range(h.vertex_count):
                n = h.vertex_count
                perm = [(v + shift) % n for v in range(n)]
                hh = Hypergraph(
                    n,
                    [[perm[v] for v in h.pins(e)] for e in range(h.edge_count)],
                    list(h.edge_weights()),
                )
                assert mincut_ordering(hh).value == truth


def separating_minimum(totals, masks, a, b):
    """Cheapest cut with every vertex of ``a`` inside and of ``b`` outside."""
    am = sum(1 << v for v in a)
    bm = sum(1 << v for v in b)
    return totals[((masks & am) == am) & ((masks & bm) == 0)].min()


class TestCertifiedMerges:
    """Every merge of the solver joins two vertex sets that no cut cheaper
    than the running best separates (the maximum-adjacency lemma)."""

    def test_no_merge_separates_a_cheaper_cut(self, monkeypatch):
        order, merge = _Incidence.order, _Incidence.merge
        running = {}
        checks = []

        def traced_order(inc, start):
            result = order(inc, start)
            cand = inc.key[result[-1]]
            running["best"] = min(running.get("best", cand), cand)
            return result

        def traced_merge(inc, keep, gone):
            checks.append((list(inc.members[keep]), list(inc.members[gone]), running["best"]))
            merge(inc, keep, gone)

        monkeypatch.setattr(_Incidence, "order", traced_order)
        monkeypatch.setattr(_Incidence, "merge", traced_merge)
        mismatches = wrong_values = merges = 0
        for w_hi in (2, 100, 10_000, 1_000_000):
            for seed in range(60):
                rng = random.Random(seed * 31 + w_hi)
                n = rng.randint(3, 12)
                edges = [rng.sample(range(n), rng.randint(2, min(6, n))) for _ in range(rng.randint(n, 3 * n))]
                h = Hypergraph(n, edges, [rng.randint(1, w_hi) for _ in edges])
                if max(connected_components(h)) != 0:
                    continue
                masks = np.arange(1 << n, dtype=np.int64)
                totals = np.zeros(len(masks), dtype=np.int64)
                for pins, w in h.edges():
                    em = sum(1 << v for v in pins)
                    inside = masks & em
                    totals += np.where((inside != 0) & (inside != em), w, 0)
                running.clear()
                checks.clear()
                wrong_values += mincut_ordering(h).value != totals[1:-1].min()
                for a, b, best in checks:
                    mismatches += separating_minimum(totals, masks, a, b) < best
                merges += len(checks)
        assert merges > 1000
        assert (mismatches, wrong_values) == (0, 0)

    def test_phase_count_repeats_and_falls_below_n_minus_one(self):
        h = two_cycle_union()
        runs = [mincut_ordering(h) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0].value == 4
        assert runs[0].phases == len(phase_cut_values(h)) == 9 < h.vertex_count - 1


class TestAboveOracleLimit:
    def test_weights_far_above_the_pin_count(self):
        h = two_clusters(40, 5, size_range=(2, 2), weight_range=(5_000_000, 10_000_000))
        res = mincut_ordering(h, Deadline(10))
        assert res.value == stoer_wagner_value(h)
        assert cut_value(h, res.partition) == res.value

    def test_graphs_against_stoer_wagner(self):
        for seed, n in ((1, 150), (2, 220), (3, 300)):
            h = two_clusters(n, seed, size_range=(2, 2), weight_range=(1, 1000), density=8)
            res = mincut_ordering(h)
            assert res.value == stoer_wagner_value(h)
            assert cut_value(h, res.partition) == res.value

    def test_unweighted_hypergraphs_against_trimmer(self):
        for seed in (4, 5):
            h = two_clusters(200, seed, size_range=(2, 5), weight_range=(1, 1))
            assert mincut_ordering(h).value == trimmer_mincut(h, seed=seed).value

    def test_pipeline_against_solver(self):
        for seed in (4, 5):
            unit = two_clusters(200, seed, size_range=(2, 5), weight_range=(1, 1))
            for h in (unit, randomize_weights(unit, 1, 1000, seed=seed)):
                assert run_pipeline(h).value == mincut_ordering(h).value
