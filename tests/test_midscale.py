"""Exactness at mid scale, against the flow referee of ``bench/referee.py``.

Brute force stops at 14 vertices; the referee solves any size exactly by
n-1 maximum flows on Lawler's expansion.  Seeded inputs of 50-200 vertices
come from three families: random hypergraphs with edges of 2 to 50 pins,
unions of two Hamiltonian cycles, and Zipf-like hubs over a cycle, each
with weights 1, 1..1e3 or 1..1e6.
"""

import random
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")

import hgcut.reduce  # noqa: E402
from hgcut import GenSpec, Hypergraph, PipelineConfig, random_hypergraph, run_pipeline  # noqa: E402
from hgcut.reduce import RULE_ORDER  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import referee  # noqa: E402
from gen import Instance  # noqa: E402

WEIGHTS = ((1, 1), (1, 1000), (1, 1_000_000))
INF = float("inf")


def random_family(seed, n_range=(50, 200)):
    """Random connected hypergraphs; edges of 2 to 3, 10 or 50 pins."""
    rng = random.Random(seed)
    n = rng.randint(*n_range)
    spec = GenSpec(
        n,
        rng.randint(n, 2 * n),
        size_range=(2, rng.choice((3, 10, 50))),
        weight_range=WEIGHTS[seed % 3],
        seed=seed,
        ensure_connected=True,
    )
    return random_hypergraph(spec)


def cycle_union(seed, n_range=(50, 200)):
    """Two random Hamiltonian cycles of two-pin edges on the same vertices."""
    rng = random.Random(seed)
    n = rng.randint(*n_range)
    edges = []
    for _ in range(2):
        order = rng.sample(range(n), n)
        edges += [[order[i - 1], order[i]] for i in range(n)]
    return Hypergraph(n, edges, [rng.randint(*WEIGHTS[seed % 3]) for _ in edges])


def zipf_hubs(seed, n_range=(50, 200)):
    """A cycle of two-pin edges plus n edges that each join one of five hubs,
    picked with Zipf-like odds 1/rank, to 1-4 random vertices."""
    rng = random.Random(seed)
    n = rng.randint(*n_range)
    hubs = rng.sample(range(n), 5)
    edges = [[v, (v + 1) % n] for v in range(n)]
    for _ in range(n):
        hub = rng.choices(hubs, weights=[1 / rank for rank in range(1, 6)])[0]
        edges.append(sorted({hub, *rng.sample(range(n), rng.randint(1, 4))}))
    return Hypergraph(n, edges, [rng.randint(*WEIGHTS[seed % 3]) for _ in edges])


FAMILIES = (random_family, cycle_union, zipf_hubs)


def as_instance(h):
    edges, weights = zip(*h.edges())
    return Instance("midscale", h.vertex_count, list(edges), list(weights))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", range(8))
def test_pipeline_against_the_flow_referee(family, seed):
    """``heicut`` finds the referee's minimum cut, ``heicut-lp`` never goes
    below it, and both certificates re-score to their values."""
    h = family(seed)
    inst = as_instance(h)
    truth = referee.mincut_flow(inst)
    res = run_pipeline(h, PipelineConfig(want_partition=True))
    assert res.value == truth
    assert referee.cut_of(inst, res.partition) == res.value
    lp = run_pipeline(h, PipelineConfig(use_lp=True, seed=seed, want_partition=True))
    assert lp.value >= truth
    assert referee.cut_of(inst, lp.partition) == lp.value


def test_contract_after_every_changing_rule_call(monkeypatch):
    """On 40-80 vertices, ``min(bound, mincut(current))`` equals the input's
    minimum cut after every rule call that changes the hypergraph."""
    calls = 0

    def checked(name, rule):
        def run(state):
            nonlocal calls
            before = state.current
            changed = rule(state)
            current = state.current
            if current is not before:
                calls += 1
                rest = referee.mincut_flow(as_instance(current)) if current.vertex_count >= 2 else INF
                assert min(state.upper_bound, rest) == truth, name
            return changed

        return run

    monkeypatch.setattr(hgcut.reduce, "RULE_ORDER", tuple((name, checked(name, rule)) for name, rule in RULE_ORDER))
    for family in FAMILIES:
        for seed in range(4):
            h = family(seed, n_range=(40, 80))
            truth = referee.mincut_flow(as_instance(h))
            assert run_pipeline(h).value == truth
    assert calls >= 20
