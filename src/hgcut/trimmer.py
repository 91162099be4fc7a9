"""Certificate-based baseline for unweighted hypergraph minimum cuts.

A maximum-adjacency vertex ordering (unit keys: the number of incident
hyperedges touching the ordered prefix) assigns each hyperedge a head, its
first pin in the order.  Every other pin records the edge in its backward
list, sorted by the heads' positions.  Keeping at most k backward edges
per vertex yields a certificate with at most k*n hyperedges that preserves
every pairwise connectivity up to k, so the doubling loop stops as soon as
the certificate's minimum cut drops below k, at which point it equals the
input's minimum cut.  Weighted instances are rejected: trimming counts
edges, not weight.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ._limits import Deadline, SolveTimeout
from .hgraph import (
    CutResult,
    Hypergraph,
    PROVENANCE_ORDERING,
    connected_components,
    cut_value,
)
from .osolve import _Incidence, mincut_ordering

__all__ = [
    "HeadOrdering",
    "compute_head_ordering",
    "backward_lists",
    "construct_certificate",
    "trimmer_mincut",
]


@dataclass(frozen=True)
class HeadOrdering:
    ma_order: tuple  # permutation of vertex ids
    head: tuple  # per edge: its first pin in ma_order
    edge_order: tuple  # edge ids sorted by (head position, original index)


def _require_unweighted(h: Hypergraph) -> None:
    if not h.is_unweighted():
        raise ValueError("unweighted hypergraphs only: every edge weight must be 1")


def compute_head_ordering(h: Hypergraph, seed: int = 0) -> HeadOrdering:
    """Maximum-adjacency ordering from a seeded random start, plus the
    induced per-edge heads and the head-sorted edge order."""
    _require_unweighted(h)
    n = h.vertex_count
    if n < 1:
        raise ValueError("empty hypergraph")
    if n > 1 and max(connected_components(h)) != 0:
        raise ValueError("hypergraph is disconnected")
    start = random.Random(seed).randrange(n)
    order = _Incidence(h).order(start)
    position = [0] * n
    for idx, v in enumerate(order):
        position[v] = idx
    head = tuple(min(pins, key=lambda v: position[v]) for pins, _ in h.edges())
    edge_order = tuple(
        sorted(range(h.edge_count), key=lambda e: (position[head[e]], e))
    )
    return HeadOrdering(ma_order=tuple(order), head=head, edge_order=edge_order)


def backward_lists(h: Hypergraph, ordering: HeadOrdering) -> tuple:
    """Per vertex, the tuple of its non-head edges in head order."""
    lists: List[list] = [[] for _ in range(h.vertex_count)]
    for eid in ordering.edge_order:
        head = ordering.head[eid]
        for v in h.pins(eid):
            if v != head:
                lists[v].append(eid)
    return tuple(tuple(l) for l in lists)


def construct_certificate(
    h: Hypergraph,
    ordering: HeadOrdering,
    backward: tuple,
    k: int,
) -> Hypergraph:
    """Sub-hypergraph keeping each vertex's first k backward edges.

    An edge kept by any of its pins appears once; the vertex set is
    unchanged, so the result has at most k * n hyperedges.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    keep = set()
    for lst in backward:
        keep.update(lst[:k])
    kept = sorted(keep)
    return Hypergraph(
        h.vertex_count,
        [h.pins(e) for e in kept],
        [h.weight(e) for e in kept],
        _normalized=True,
    )


def trimmer_mincut(
    h: Hypergraph,
    seed: int = 0,
    deadline: Optional[Deadline] = None,
    trace: Optional[List[Tuple[int, int]]] = None,
) -> CutResult:
    """Doubling loop over trimmed certificates with an exact inner solver.

    Stops at the first k whose certificate cut is below k; that value is
    the minimum cut of the input.  ``trace`` collects (k, cut) pairs.
    An expired deadline raises ``SolveTimeout(None)``: a certificate's cut
    may undercount the input's, so the inner solver's best cut is dropped.
    """
    _require_unweighted(h)
    n = h.vertex_count
    if n < 2:
        raise ValueError("no cut exists: fewer than two vertices")
    labels = connected_components(h)
    if max(labels) != 0:
        block = frozenset(v for v in range(n) if labels[v] == 0)
        return CutResult(value=0, partition=block, provenance=PROVENANCE_ORDERING)

    ordering = compute_head_ordering(h, seed)
    backward = backward_lists(h, ordering)
    k = 2
    while True:
        if deadline is not None and deadline.expired():
            raise SolveTimeout(None)
        certificate = construct_certificate(h, ordering, backward, k)
        try:
            res = mincut_ordering(certificate, deadline)
        except SolveTimeout:
            raise SolveTimeout(None) from None
        if trace is not None:
            trace.append((k, res.value))
        if res.value < k:
            partition = res.partition
            if partition is not None and cut_value(h, partition) != res.value:
                partition = None  # certificate-optimal block not optimal here
            return CutResult(
                value=res.value, partition=partition, provenance=PROVENANCE_ORDERING
            )
        k *= 2
