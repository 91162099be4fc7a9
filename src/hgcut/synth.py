"""Benchmark-instance generation: random hypergraphs, re-weighting, cores.

Includes the peeling construction used for "hard" benchmark instances:
iteratively remove vertices of unweighted degree below k and hyperedges
that fall under two pins, then keep the smallest k whose core admits a cut
strictly below the smallest weighted vertex degree.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

from .hgraph import Hypergraph, Weight, connected_components
from .osolve import mincut_ordering

__all__ = [
    "GenSpec",
    "random_hypergraph",
    "randomize_weights",
    "k2_core",
    "find_benchmark_core",
]


@dataclass(frozen=True)
class GenSpec:
    """Reproducible recipe for a random hypergraph."""

    vertex_count: int
    edge_count: int
    size_range: Tuple[int, int] = (2, 4)
    weight_range: Tuple[int, int] = (1, 1)
    seed: int = 0
    ensure_connected: bool = False


def _check_int_range(lo: int, hi: int, what: str) -> None:
    if not isinstance(lo, int) or not isinstance(hi, int):
        raise ValueError(f"{what} bounds must be integers")
    if lo > hi:
        raise ValueError(f"{what} range is empty: [{lo}, {hi}]")
    if lo < 0:
        raise ValueError(f"{what} must be nonnegative")


def random_hypergraph(spec: GenSpec) -> Hypergraph:
    """Draw a random hypergraph; identical spec gives an identical instance."""
    n, m = spec.vertex_count, spec.edge_count
    if n < 1:
        raise ValueError("need at least one vertex")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    smin, smax = spec.size_range
    if smin < 1 or smin > smax:
        raise ValueError(f"bad edge size range [{smin}, {smax}]")
    if smax > n:
        raise ValueError(f"edge size {smax} exceeds vertex count {n}")
    _check_int_range(*spec.weight_range, "edge weight")

    rng = random.Random(spec.seed)
    population = range(n)
    pins_lists = []
    weights = []
    for _ in range(m):
        size = rng.randint(smin, smax)
        pins_lists.append(rng.sample(population, size))
        weights.append(rng.randint(*spec.weight_range))

    h = Hypergraph(n, pins_lists, weights)
    if spec.ensure_connected and n > 1:
        labels = connected_components(h)
        ncomp = max(labels) + 1
        if ncomp > 1:
            reps = [-1] * ncomp
            for v in range(n):
                if reps[labels[v]] < 0:
                    reps[labels[v]] = v
            for a, b in zip(reps, reps[1:]):
                pins_lists.append([a, b])
                weights.append(rng.randint(*spec.weight_range))
            h = Hypergraph(n, pins_lists, weights)
    return h


def randomize_weights(h: Hypergraph, lo: int, hi: int, seed: int = 0) -> Hypergraph:
    """Redraw every hyperedge weight uniformly from [lo, hi]."""
    _check_int_range(lo, hi, "weight")
    rng = random.Random(seed)
    eweights = [rng.randint(lo, hi) for _ in range(h.edge_count)]
    return Hypergraph(
        h.vertex_count, [h.pins(e) for e in range(h.edge_count)], eweights, _normalized=True
    )


def k2_core(h: Hypergraph, k: int) -> Hypergraph:
    """Peel to the fixed point of: drop vertices with degree < k, then drop
    hyperedges with fewer than two remaining pins.

    Degree counts incident surviving hyperedges, ignoring weights.  The
    result is a sub-hypergraph (surviving pins/edges are subsets of the
    input's), with the survivors relabelled in id order; it may be empty.
    """
    if k < 2:
        raise ValueError("core order k must be at least 2")
    n, m = h.vertex_count, h.edge_count
    pin_sets = [set(h.pins(e)) for e in range(m)]
    edge_alive = [len(s) >= 2 for s in pin_sets]
    deg = [0] * n
    for e in range(m):
        if edge_alive[e]:
            for v in pin_sets[e]:
                deg[v] += 1
    vertex_alive = [True] * n
    queue = deque(v for v in range(n) if deg[v] < k)
    queued = bytearray(n)
    for v in queue:
        queued[v] = 1

    while queue:
        v = queue.popleft()
        if not vertex_alive[v]:
            continue
        vertex_alive[v] = False
        for e in h.incident(v):
            if not edge_alive[e]:
                continue
            s = pin_sets[e]
            s.discard(v)
            if len(s) < 2:
                edge_alive[e] = False
                for u in s:
                    deg[u] -= 1
                    if vertex_alive[u] and deg[u] < k and not queued[u]:
                        queued[u] = 1
                        queue.append(u)

    keep = [v for v in range(n) if vertex_alive[v]]
    relabel = {v: i for i, v in enumerate(keep)}
    pins_lists = []
    weights = []
    for e in range(m):
        if edge_alive[e]:
            pins_lists.append(tuple(sorted(relabel[v] for v in pin_sets[e])))
            weights.append(h.weight(e))
    return Hypergraph(len(keep), pins_lists, weights, _normalized=True)


def find_benchmark_core(h: Hypergraph) -> Optional[Tuple[int, Hypergraph, Weight]]:
    """Smallest k >= 2 whose core admits a cut below its smallest weighted
    degree, with that core and its minimum cut; None when the cores run
    out first."""
    k = 2
    while True:
        core = k2_core(h, k)
        if core.vertex_count < 2:
            return None
        value = mincut_ordering(core).value
        if value < core.min_weighted_degree():
            return k, core, value
        k += 1
