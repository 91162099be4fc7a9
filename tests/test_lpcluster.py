from collections import Counter

import hgcut.lpcluster
from hgcut import (
    Hypergraph,
    PipelineConfig,
    brute_mincut,
    cut_value,
    propagate_once,
    run_pipeline,
    score,
)
from hgcut.reduce import _lp_contract, initial_state
from conftest import random_instance


def two_triangles_with_bridge():
    return Hypergraph(
        6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 5]]
    )


class TestScore:
    def test_three_pin_edge(self):
        h = Hypergraph(3, [[0, 1, 2]], [2])
        labels = [7, 7, 7]
        assert score(0, 7, h, labels) == 2.0  # two members, coefficient 2/2

    def test_untouched_cluster_scores_zero(self):
        h = Hypergraph(4, [[0, 1], [2, 3]])
        labels = [0, 1, 2, 2]
        assert score(0, 2, h, labels) == 0.0

    def test_mixed_edges(self):
        h = Hypergraph(3, [[0, 1], [0, 1, 2]], [3, 1])
        labels = [9, 5, 5]
        # 3/1 from the pair edge plus 2 * (1/2) from the three-pin edge
        assert score(0, 5, h, labels) == 4.0

    def test_own_label_excludes_self(self):
        h = Hypergraph(2, [[0, 1]], [4])
        labels = [3, 3]
        assert score(0, 3, h, labels) == 4.0  # only the other pin counts


class TestPropagateOnce:
    def test_deterministic_per_seed(self):
        h = random_instance(9)
        assert propagate_once(h, seed=5) == propagate_once(h, seed=5)

    def test_no_edges_keeps_labels(self):
        h = Hypergraph(4)
        assert propagate_once(h, seed=1) == (0, 1, 2, 3)

    def test_first_mover_always_joins_someone(self):
        # with edges present, the first processed vertex has score zero on
        # its own label and positive elsewhere, so at most n-1 labels remain
        for seed in range(30):
            h = random_instance(seed)
            labels = propagate_once(h, seed=seed)
            assert len(set(labels)) <= h.vertex_count - 1

    def test_spanning_edge_usually_collapses(self):
        h = Hypergraph(4, [[0, 1, 2, 3]])
        outcomes = Counter(
            len(set(propagate_once(h, seed=s))) for s in range(50)
        )
        assert 1 in outcomes  # a full cascade to one label occurs
        assert max(outcomes) <= 3

    def test_own_label_can_survive_a_tie(self):
        # vertex 1 is pulled equally by its own cluster {0,1} and by {2};
        # across seeds it must sometimes keep its current label
        h = Hypergraph(3, [[0, 1], [1, 2]])
        seen = set()
        for seed in range(60):
            labels = propagate_once(h, seed=seed, labels=[7, 7, 9])
            seen.add(labels[1])
        assert 7 in seen and 9 in seen

    def test_bridge_instance_distribution(self):
        h = two_triangles_with_bridge()
        outcomes = Counter(
            len(set(propagate_once(h, seed=s))) for s in range(100)
        )
        # heuristic output: report the observed spread, assert only sanity
        assert set(outcomes) <= {1, 2, 3, 4, 5}
        assert outcomes.most_common(1)[0][0] == 2


class TestContractClusters:
    """``reduce._lp_contract`` on fixed labels: one pass's clusters go
    through ``_contract``, and a total collapse is refused."""

    @staticmethod
    def lp_contract(monkeypatch, h, labels):
        monkeypatch.setattr(hgcut.lpcluster, "propagate_once", lambda g, seed: labels)
        state = initial_state(h, PipelineConfig(use_lp=True, want_partition=True))
        return _lp_contract(state), state

    def test_all_singletons_noop(self, monkeypatch):
        h = random_instance(3)
        changed, state = self.lp_contract(monkeypatch, h, tuple(range(h.vertex_count)))
        assert not changed and state.current is h

    def test_one_cluster_per_component(self, monkeypatch):
        h = Hypergraph(6, [[0, 1, 2], [3, 4, 5]])
        changed, state = self.lp_contract(monkeypatch, h, (0, 0, 0, 1, 1, 1))
        hc = state.current
        assert changed
        assert hc.vertex_count == 2
        assert hc.edge_count == 0
        assert brute_mincut(hc).value == 0 == brute_mincut(h).value
        assert state.upper_bound == 0
        assert [state.log.expand_block([v]) for v in range(2)] == [{0, 1, 2}, {3, 4, 5}]

    def test_total_collapse_rejected(self, monkeypatch):
        h = Hypergraph(3, [[0, 1], [1, 2]])
        changed, state = self.lp_contract(monkeypatch, h, (4, 4, 4))
        assert not changed and state.current is h


class TestHeuristicPipeline:
    def test_upper_bound_property(self):
        matches = 0
        total = 120
        for seed in range(total):
            h = random_instance(seed)
            truth = brute_mincut(h).value
            res = run_pipeline(h, PipelineConfig(use_lp=True, seed=seed, want_partition=True))
            assert res.value >= truth
            if res.partition is not None:
                assert cut_value(h, res.partition) == res.value
            matches += res.value == truth
        # heuristic quality is reported, not pinned
        assert matches > 0

    def test_seeded_runs_identical(self):
        h = random_instance(12)
        config = PipelineConfig(use_lp=True, seed=42)
        assert run_pipeline(h, config) == run_pipeline(h, config)
