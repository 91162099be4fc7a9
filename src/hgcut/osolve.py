"""Exact weighted hypergraph minimum cut via maximum-adjacency orderings.

One ordering phase greedily grows a prefix: each step selects the
unordered vertex with the largest total weight of hyperedges that connect
it to the prefix, where every hyperedge contributes its weight exactly
once, to all its remaining pins, at the moment it first touches the
prefix.  That weight is the vertex's key.  The final vertex t has every
incident hyperedge counted, so its key is the cut isolating t; the
smallest such candidate over all phases so far is ``best``.

Lemma (maximum-adjacency ordering; Nagamochi and Ibaraki for graphs,
Klimmek and Wagner 1996 and Chekuri and Xu, SODA 2017, for hypergraphs):
for consecutive vertices of an ordering, lambda(v_{i-1}, v_i) >=
key(v_i).  Trimming every hyperedge to the first i vertices leaves those
vertices an ordering of the trimmed hypergraph with the same keys; its
last pair is a pendant pair, so the trimmed hypergraph's minimum
(v_{i-1}, v_i)-cut equals key(v_i), and trimming only lowers cut values.
So after each phase every pair with key(v_i) >= best is merged: no cut
cheaper than ``best`` separates it, and min(best, mincut(rest)) stays the
minimum cut.  The final pair always qualifies (its key is a candidate),
so each phase merges at least one pair, and phases repeat until one
vertex is left.

All phases run on one mutable incidence structure built once per solve;
merging two vertices costs the degree of the merged-away vertex, not a
rebuild.  Each run of merged pairs keeps its smallest id, so live
vertices keep their relative order and ties break toward the smallest
vertex id.  The priority queue is a lazy binary heap, so no weight range
makes a phase slower.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from ._limits import Deadline, SolveTimeout
from .hgraph import (
    CutResult,
    Hypergraph,
    PROVENANCE_ORDERING,
    Weight,
    connected_components,
)

__all__ = ["MaOrdering", "OrderingResult", "ma_ordering", "mincut_ordering", "phase_cut_values"]


@dataclass(frozen=True)
class MaOrdering:
    """A maximum-adjacency ordering with the selection key of each vertex."""

    order: tuple
    keys: tuple  # indexed by vertex id; connection weight at selection time


@dataclass(frozen=True)
class OrderingResult(CutResult):
    """A minimum cut from the ordering solver and the phases it ran."""

    phases: int = 0


class _Incidence:
    """Mutable incidence structure that ordering phases share.

    Hyperedges with fewer than two pins or zero weight are left out: they
    never connect a vertex to the prefix.  ``in_order`` and ``touched``
    hold the stamp of the phase that last set them, so no phase clears
    them.
    """

    def __init__(self, h: Hypergraph) -> None:
        n = h.vertex_count
        self.pins = [set(pins) if len(pins) >= 2 and w != 0 else set() for pins, w in h.edges()]
        self.weights = list(h.edge_weights())
        self.incident = [set() for _ in range(n)]
        for eid, pins in enumerate(self.pins):
            for v in pins:
                self.incident[v].add(eid)
        self.members = [[v] for v in range(n)]
        self.live = list(range(n))  # ascending
        self.key: list = [0] * n
        self.in_order = [0] * n
        self.touched = [0] * h.edge_count
        self.stamp = 0

    def order(self, start: int) -> list:
        """Maximum-adjacency ordering of the live vertices from ``start``;
        ``self.key`` holds each live vertex's key at selection time."""
        self.stamp += 1
        stamp = self.stamp
        pins, incident, weights = self.pins, self.incident, self.weights
        key, in_order, touched = self.key, self.in_order, self.touched
        for v in self.live:
            key[v] = 0
        heap = [(0, v) for v in self.live]  # sorted, hence already a heap
        push, pop = heapq.heappush, heapq.heappop
        remaining = len(self.live)
        order = []
        v = start
        while True:
            in_order[v] = stamp
            order.append(v)
            if len(order) == remaining:
                return order
            for eid in incident[v]:
                if touched[eid] == stamp:
                    continue
                touched[eid] = stamp
                w = weights[eid]
                for u in pins[eid]:
                    if in_order[u] != stamp:
                        k = key[u] + w
                        key[u] = k
                        push(heap, (-k, u))
            while True:
                negk, v = pop(heap)
                if in_order[v] != stamp and key[v] == -negk:
                    break

    def merge(self, keep: int, gone: int) -> None:
        """Merge vertex ``gone`` into ``keep``; edges left with one pin drop."""
        pins, incident = self.pins, self.incident
        inc_keep = incident[keep]
        for eid in incident[gone]:
            edge = pins[eid]
            edge.discard(gone)
            if keep in edge:
                if len(edge) < 2:
                    inc_keep.discard(eid)
            else:
                edge.add(keep)
                inc_keep.add(eid)
        self.members[keep].extend(self.members[gone])
        self.live.remove(gone)


def ma_ordering(h: Hypergraph, start: int = 0) -> MaOrdering:
    """Maximum-adjacency ordering of a connected hypergraph from ``start``."""
    n = h.vertex_count
    if n < 2:
        raise ValueError("ordering needs at least two vertices")
    if start < 0 or start >= n:
        raise ValueError(f"start vertex out of range: {start}")
    if max(connected_components(h)) != 0:
        raise ValueError("hypergraph is disconnected; order each component separately")
    inc = _Incidence(h)
    order = inc.order(start)
    return MaOrdering(order=tuple(order), keys=tuple(inc.key))


def _run_phases(h: Hypergraph, deadline: Optional[Deadline] = None):
    """Ordering phases until one vertex is left, each followed by merging
    every pair the lemma certifies; returns (best, block, candidates)."""
    inc = _Incidence(h)
    key = inc.key
    best: Optional[Weight] = None
    best_block: Optional[tuple] = None
    candidates = []
    while len(inc.live) > 1:
        if deadline is not None and deadline.expired():
            raise SolveTimeout(None)
        order = inc.order(inc.live[0])
        t = order[-1]
        cand = key[t]
        candidates.append(cand)
        if best is None or cand < best:
            best = cand
            best_block = tuple(inc.members[t])
        run = [order[0]]
        for v in order[1:]:
            if key[v] < best:
                _merge_run(inc, run)
                run = [v]
            else:
                run.append(v)
        _merge_run(inc, run)
    return best, best_block, candidates


def _merge_run(inc: _Incidence, run: list) -> None:
    keep = min(run)
    for v in run:
        if v != keep:
            inc.merge(keep, v)


def mincut_ordering(h: Hypergraph, deadline: Optional[Deadline] = None) -> OrderingResult:
    """Exact minimum cut; disconnected inputs yield 0 along a component."""
    n = h.vertex_count
    if n < 2:
        raise ValueError("no cut exists: fewer than two vertices")
    labels = connected_components(h)
    if max(labels) != 0:
        block = frozenset(v for v in range(n) if labels[v] == 0)
        return OrderingResult(value=0, partition=block, provenance=PROVENANCE_ORDERING)
    best, block, candidates = _run_phases(h, deadline)
    return OrderingResult(
        value=best,
        partition=frozenset(block) if block is not None else None,
        provenance=PROVENANCE_ORDERING,
        phases=len(candidates),
    )


def phase_cut_values(h: Hypergraph) -> list:
    """The candidate cut recorded by each ordering phase (diagnostic)."""
    if h.vertex_count < 2:
        raise ValueError("no cut exists: fewer than two vertices")
    if max(connected_components(h)) != 0:
        raise ValueError("hypergraph is disconnected")
    _, _, candidates = _run_phases(h)
    return candidates
