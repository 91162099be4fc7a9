"""Heuristic contraction via single-pass label propagation.

Every vertex starts in its own cluster (label = vertex id).  One pass
visits the vertices in a seeded random order and moves each to the label
with the strongest pin-weighted connection: an incident hyperedge of
weight w and size s contributes w/(s-1) for every other pin it shares
with the candidate cluster.  Ties are broken uniformly at random, with the
vertex's own label always in the candidate set.  Contracting the resulting
multi-vertex clusters shrinks the hypergraph quickly but is a heuristic:
it can only raise the minimum cut, never lower it.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from .hgraph import ContractionLog, Hypergraph, contract_groups

__all__ = ["score", "propagate_once", "contract_clusters"]


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


def contract_clusters(
    h: Hypergraph,
    labels: Sequence[int],
    log: Optional[ContractionLog] = None,
) -> Hypergraph:
    """Contract every group of vertices sharing a label; refuses a total
    collapse.

    If contracting would leave a single vertex the input is returned
    unchanged, so heuristic mode never erases every remaining cut.
    """
    n = h.vertex_count
    if len(labels) != n:
        raise ValueError("labels do not match hypergraph")
    groups: dict = {}
    for v, l in enumerate(labels):
        groups.setdefault(l, []).append(v)
    multi = [g for g in groups.values() if len(g) >= 2]
    if not multi:
        return h
    resulting = n - sum(len(g) - 1 for g in multi)
    if resulting < 2:
        return h
    return contract_groups(h, multi, log)
