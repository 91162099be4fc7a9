"""Heuristic contraction via single-pass label propagation.

Every vertex starts in its own cluster (label = vertex id).  One pass
visits the vertices in a seeded random order and moves each to the label
with the strongest pin-weighted connection: an incident hyperedge of
weight w and size s contributes w/(s-1) for every other pin it shares
with the candidate cluster.  Ties are broken uniformly at random, with the
vertex's own label always in the candidate set.  Contracting the resulting
multi-vertex clusters shrinks the hypergraph quickly but is a heuristic:
it can only raise the minimum cut, never lower it.

This module only computes labels.  The pipeline contracts them
(``reduce._lp_contract``): the clusters go as links through the same
``contract_groups`` call as every rule's, and a pass that would leave a
single vertex is refused.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .hgraph import Hypergraph

__all__ = ["score", "propagate_once"]


def score(v: int, label: int, h: Hypergraph, labels: Sequence[int]) -> float:
    """Connection strength of vertex v to the cluster holding ``label``.

    Sums w(e)/(|e|-1) times the number of *other* pins of e in the cluster,
    over edges incident to v; v itself never counts toward its own label.
    """
    total = 0.0
    for eid in h.incident(v):
        pins = h.pins(eid)
        size = len(pins)
        if size < 2:
            continue
        members = 0
        for u in pins:
            if u != v and labels[u] == label:
                members += 1
        if members:
            total += members * (h.weight(eid) / (size - 1))
    return total


def propagate_once(
    h: Hypergraph,
    seed: int = 0,
    labels: Optional[Sequence[int]] = None,
) -> tuple:
    """One label-propagation pass in a seeded random vertex order; returns
    the label of every vertex."""
    n = h.vertex_count
    lab = list(labels) if labels is not None else list(range(n))
    if len(lab) != n:
        raise ValueError("label vector length must match vertex count")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)

    for v in order:
        acc: dict = {}
        for eid in h.incident(v):
            pins = h.pins(eid)
            size = len(pins)
            if size < 2:
                continue
            coef = h.weight(eid) / (size - 1)
            for u in pins:
                if u != v:
                    lu = lab[u]
                    acc[lu] = acc.get(lu, 0.0) + coef
        own = lab[v]
        if own not in acc:
            acc[own] = 0.0
        best = max(acc.values())
        tied = sorted(l for l, s in acc.items() if s == best)
        lab[v] = tied[0] if len(tied) == 1 else rng.choice(tied)

    return tuple(lab)
