import random

import pytest

from hgcut import (
    ContractionLog,
    Hypergraph,
    brute_mincut,
    compact,
    connected_components,
    contract_groups,
    contract_set,
    cut_value,
    format_hmetis,
    parse_hmetis,
)
from conftest import random_instance


class TestBuild:
    def test_basic_construction(self):
        h = Hypergraph(3, [[0, 1], [1, 2]], [1, 1])
        assert h.vertex_count == 3
        assert h.edge_count == 2
        assert h.pin_count == 4
        assert h.min_weighted_degree() == 1

    def test_duplicate_pin_collapsed(self):
        h = Hypergraph(2, [[0, 0, 1]], [2])
        assert h.pins(0) == (0, 1)
        assert h.weight(0) == 2

    def test_pin_out_of_range(self):
        with pytest.raises(ValueError, match="pin out of range"):
            Hypergraph(3, [[0, 3]])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Hypergraph(2, [[0, 1]], [-1])

    def test_pins_sorted(self):
        h = Hypergraph(4, [[3, 1, 2]])
        assert h.pins(0) == (1, 2, 3)

    def test_degree_queries(self):
        h = Hypergraph(3, [[0, 1], [1, 2], [0, 1, 2]], [2, 3, 5])
        degrees = [len(h.incident(v)) for v in range(h.vertex_count)]
        assert degrees[1] == 3
        assert h.weighted_degrees()[1] == 10
        assert min(degrees) == 2
        assert max(degrees) == 3
        assert h.min_weighted_degree() == 7

    def test_incidence_consistent_with_pin_count(self):
        h = random_instance(11)
        assert sum(len(h.incident(v)) for v in range(h.vertex_count)) == h.pin_count


class TestContract:
    def test_contract_removes_collapsed_edge(self):
        h = Hypergraph(3, [[0, 1, 2], [1, 2]])
        log = ContractionLog(3)
        hc = contract_set(h, {1, 2}, log)
        assert hc.vertex_count == 2
        assert list(hc.edges()) == [((0, 1), 1)]

    def test_contract_merges_parallel_edges(self):
        h = Hypergraph(3, [[0, 1], [1, 2], [0, 2]], [3, 1, 1])
        log = ContractionLog(3)
        hc = contract_set(h, {0, 1}, log)
        assert hc.vertex_count == 2
        assert list(hc.edges()) == [((0, 1), 2)]
        # the merge preserves the minimum cut (both are 2)
        assert brute_mincut(h).value == 2
        assert brute_mincut(hc).value == 2

    def test_contract_everything(self):
        h = Hypergraph(3, [[0, 1], [1, 2]])
        hc = contract_set(h, {0, 1, 2})
        assert hc.vertex_count == 1
        assert hc.edge_count == 0

    def test_contract_below_two_is_noop_with_warning(self):
        h = Hypergraph(3, [[0, 1]])
        with pytest.warns(UserWarning):
            assert contract_set(h, {1}) is h

    def test_overlapping_links_close(self):
        h = Hypergraph(4, [[0, 1, 2], [2, 3], [0, 3]], [1, 2, 3])
        log, ref_log = ContractionLog(4), ContractionLog(4)
        hc = contract_groups(h, [[0, 1], [1, 2]], log)
        assert hc == contract_groups(h, [[0, 1, 2]], ref_log)
        assert hc.vertex_count == 2 and list(hc.edges()) == [((0, 1), 5)]
        assert [log.members_of_current(v) for v in range(2)] == [
            ref_log.members_of_current(v) for v in range(2)
        ]

    def test_log_tracks_members(self):
        log = ContractionLog(4)
        h = Hypergraph(4, [[0, 1], [1, 2], [2, 3]])
        hc = contract_set(h, {1, 2}, log)
        assert hc.vertex_count == 3
        members = {log.members_of_current(v) for v in range(3)}
        assert frozenset((1, 2)) in {frozenset(m) for m in members}


class TestCompact:
    def test_removes_single_pin_edge(self):
        h = Hypergraph(2, [[0], [0, 1]], [5, 3])
        assert list(compact(h).edges()) == [((0, 1), 3)]

    def test_merges_identical_pin_sets(self):
        h = Hypergraph(2, [[0, 1], [0, 1]], [1, 2])
        assert list(compact(h).edges()) == [((0, 1), 3)]

    def test_drops_zero_weight(self):
        h = Hypergraph(2, [[0, 1]], [0])
        assert compact(h).edge_count == 0

    def test_identity_when_clean(self):
        h = Hypergraph(3, [[0, 1], [1, 2]])
        assert compact(h) is h

    def test_preserves_mincut_on_random_instances(self):
        for seed in range(60):
            h = random_instance(seed)
            dirty = Hypergraph(
                h.vertex_count,
                [h.pins(e) for e in range(h.edge_count)] + [[0], [0, 1]],
                list(h.edge_weights()) + [4, 0],
            )
            assert brute_mincut(compact(dirty)).value == brute_mincut(dirty).value


class TestComponents:
    def test_two_components(self):
        h = Hypergraph(4, [[0, 1], [2, 3]])
        labels = connected_components(h)
        assert labels[0] == labels[1] != labels[2] == labels[3]
        assert brute_mincut(h).value == 0

    def test_single_component(self):
        assert connected_components(Hypergraph(3, [[0, 1, 2]])) == [0, 0, 0]

    def test_no_edges(self):
        assert connected_components(Hypergraph(3)) == [0, 1, 2]


class TestCutValue:
    def test_triangle_singleton_block(self, triangle):
        assert cut_value(triangle, {0}) == 2

    def test_single_spanning_edge(self, spanning_edge):
        assert cut_value(spanning_edge, {0, 1}) == 7

    def test_component_boundary(self):
        h = Hypergraph(4, [[0, 1], [2, 3]])
        assert cut_value(h, {0, 1}) == 0

    def test_one_sided_rejected(self, triangle):
        with pytest.raises(ValueError, match="non-empty"):
            cut_value(triangle, set())
        with pytest.raises(ValueError, match="non-empty"):
            cut_value(triangle, {0, 1, 2})


class TestInvariants:
    def test_contraction_never_lowers_mincut(self):
        for seed in range(80):
            h = random_instance(seed)
            rng = random.Random(seed)
            k = rng.randint(2, h.vertex_count - 1)
            group = rng.sample(range(h.vertex_count), k)
            hc = contract_set(h, group)
            if hc.vertex_count >= 2:
                assert brute_mincut(hc).value >= brute_mincut(h).value

    def test_uncontracted_partition_has_same_cut(self):
        for seed in range(80):
            h = random_instance(seed)
            rng = random.Random(seed + 1)
            log = ContractionLog(h.vertex_count)
            k = rng.randint(2, h.vertex_count - 1)
            hc = contract_set(h, rng.sample(range(h.vertex_count), k), log)
            if hc.vertex_count < 2:
                continue
            side = rng.sample(range(hc.vertex_count), rng.randint(1, hc.vertex_count - 1))
            expanded = log.expand_block(side)
            assert cut_value(h, expanded) == cut_value(hc, side)


class TestHmetisFormat:
    def test_round_trip_structural(self):
        for seed in range(30):
            h = random_instance(seed)
            assert parse_hmetis(format_hmetis(h)) == h

    def test_write_is_canonical_and_stable(self):
        for seed in range(30):
            h = random_instance(seed)
            text = format_hmetis(h)
            assert format_hmetis(parse_hmetis(text)) == text

    def test_plain_format_round_trip(self):
        text = "3 3\n1 2\n2 3\n1 3\n"
        h = parse_hmetis(text)
        assert h.is_unweighted() and h.edge_count == 3
        assert format_hmetis(h) == text

    def test_comments_and_blank_lines_skipped(self):
        text = "% a comment\n2 3 1\n\n4 1 2\n% another\n2 2 3\n"
        h = parse_hmetis(text)
        assert list(h.edges()) == [((0, 1), 4), ((1, 2), 2)]

    def test_vertex_weight_formats(self):
        # vertex-weight lines are validated, then dropped: no cut reads them
        text = "1 2 1\n3 1 2\n"
        h = parse_hmetis("1 2 11\n3 1 2\n5\n7\n")
        assert h == parse_hmetis(text)
        assert format_hmetis(h) == text

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="pin out of range"):
            parse_hmetis("1 2\n1 3\n")
        with pytest.raises(ValueError, match="fmt"):
            parse_hmetis("1 2 7\n1 2\n")
        with pytest.raises(ValueError, match="data lines"):
            parse_hmetis("2 2\n1 2\n")
        with pytest.raises(ValueError, match="not an integer"):
            parse_hmetis("1 2\n1 x\n")
        with pytest.raises(ValueError, match="empty"):
            parse_hmetis("% nothing\n")
