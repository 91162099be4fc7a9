"""The referee against brute-force enumeration on small instances.

    python3 -m pytest bench/test_referee.py -q
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import networkx as nx
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import referee  # noqa: E402


def brute_mincut(inst: gen.Instance) -> int:
    """Smallest cut over every bipartition with vertex 0 on the left."""
    best = None
    rest = range(1, inst.n)
    for size in range(0, inst.n - 1):
        for extra in itertools.combinations(rest, size):
            value = brute_cut(inst, {0, *extra})
            best = value if best is None else min(best, value)
    return best


def brute_cut(inst: gen.Instance, block: set) -> int:
    return sum(
        w for pins, w in zip(inst.edges, inst.weights)
        if any(v in block for v in pins) and not all(v in block for v in pins)
    )


def uniform_edges(rng, n: int, m: int, size_lo: int, size_hi: int) -> list:
    sizes = rng.integers(size_lo, size_hi + 1, size=m)
    return gen._dedupe(rng.integers(0, n, size=int(sizes.sum())), sizes)


def small_random(seed: int, n: int, wlo: int, whi: int, size_hi: int) -> gen.Instance:
    rng = np.random.default_rng([99, seed])
    edges = uniform_edges(rng, n, 2 * n, 2, size_hi)
    weights = rng.integers(wlo, whi + 1, size=len(edges)).tolist()
    return gen.Instance(f"small{seed}", n, edges, weights)


@pytest.mark.parametrize("seed", range(40))
def test_flow_matches_brute_force(seed):
    n = 3 + seed % 8
    inst = small_random(seed, n, 1, [1, 10, 1000][seed % 3], 2 + seed % 4)
    assert referee.mincut_flow(inst) == brute_mincut(inst)


@pytest.mark.parametrize("seed", range(20))
def test_planted_value_is_the_minimum(seed):
    rng = np.random.default_rng([98, seed])
    triangle = seed >= 10
    parts = []
    for size in (4 + seed % 3, 5):
        e = uniform_edges(rng, size, 2 * size, 2, 4)
        parts.append((size, e, rng.integers(1, 9, size=len(e)).tolist()))
    cycles, cwlo = (2, 4) if triangle else (1 + seed % 2, 1)
    inst = gen._planted(rng, "p", parts, cycles, cwlo, 9, seed % 3 > 0, triangle=triangle)
    value = referee.expected_value(inst)
    assert value == brute_mincut(inst)
    assert value < referee.weighted_degrees(inst).min()
    if triangle:
        # Three crossing edges, and the first edge u-v crosses the cut.
        crossing = [e for e in inst.edges if 0 < len(inst.planted & set(e)) < len(e)]
        assert len(crossing) == 3
        assert inst.edges[0] in crossing


def test_certificate_reasons(tmp_path):
    import run

    inst = small_random(3, 6, 1, 5, 3)
    good = tmp_path / "good"
    good.write_text(json.dumps({"block": [0, 2]}))
    assert run._certificate_value(inst, good) == brute_cut(inst, {0, 2})
    assert run._certificate_value(inst, tmp_path / "missing") is None
    for body in ("{", "{}", '{"block": []}', '{"block": [99]}'):
        bad = tmp_path / "bad"
        bad.write_text(body)
        assert run._certificate_value(inst, bad).startswith("bad certificate")


@pytest.mark.parametrize("seed", range(10))
def test_flow_matches_stoer_wagner_on_graphs(seed):
    inst = small_random(seed, 30, 1, 50, 2)
    inst.edges += [(v, v + 1) for v in range(inst.n - 1)]  # connected
    inst.weights += [1] * (inst.n - 1)
    graph = nx.Graph()
    graph.add_nodes_from(range(inst.n))
    for (u, v), w in zip(inst.edges, inst.weights):
        old = graph.get_edge_data(u, v, {"weight": 0})["weight"]
        graph.add_edge(u, v, weight=old + w)
    assert referee.mincut_flow(inst) == nx.stoer_wagner(graph)[0]


def test_named_instance_minimum_is_31():
    n, edges, weights = gen.NAMED_FAILING
    inst = gen.Instance("named", n, list(edges), list(weights))
    assert referee.expected_value(inst) == brute_mincut(inst) == 31


def test_cut_of_matches_brute_cut():
    inst = small_random(7, 9, 1, 100, 5)
    for block in ({0}, {0, 3, 4}, {1, 2, 5, 6, 8}):
        assert referee.cut_of(inst, block) == brute_cut(inst, block)
    with pytest.raises(ValueError):
        referee.cut_of(inst, range(inst.n))
    with pytest.raises(ValueError):
        referee.cut_of(inst, [inst.n])


def test_judge_reasons():
    assert referee.judge(4, 6, "ok", 4, 4) is None
    assert "minimum cut is 4" in referee.judge(4, 6, "ok", 5, 5)
    assert "re-scores" in referee.judge(4, 6, "ok", 4, 7)
    assert "no certificate" in referee.judge(4, 6, "ok", 4, None)
    assert "status" in referee.judge(4, 6, "failed", None, None)
    assert "smallest weighted degree" in referee.judge(8, 6, "ok", 8, 8)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generation_is_seeded(workload):
    a = gen.generate(workload, 5)
    b = gen.generate(workload, 5)
    c = gen.generate(workload, 6)
    assert len(a) == gen.OPS_PER_WORKLOAD
    assert [(i.edges, i.weights) for i in a] == [(i.edges, i.weights) for i in b]
    assert [i.n for i in a] == [i.n for i in c]
    assert [(i.edges, i.weights) for i in a] != [(i.edges, i.weights) for i in c]
