"""Independent referee: minimum cuts and cut values computed without hgcut.

Planted instances carry their minimum cut by construction (see ``gen``);
the referee re-scores the planted block with its own cut code and checks
that it stays below the construction bound.  Every other instance is
solved exactly through Lawler's expansion: each hyperedge ``e`` becomes an
arc ``in_e -> out_e`` of capacity ``w(e)``, with uncapacitated arcs
``v -> in_e`` and ``out_e -> v`` for its pins, so a minimum s-t cut of the
network is a minimum s-t cut of the hypergraph.  The global minimum is the
smallest of the n-1 maximum flows from vertex 0, each computed by
``scipy.sparse.csgraph.maximum_flow``.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from gen import Instance


def _csr(inst: Instance):
    sizes = np.fromiter((len(e) for e in inst.edges), dtype=np.int64, count=len(inst.edges))
    flat = np.fromiter((v for e in inst.edges for v in e), dtype=np.int64, count=int(sizes.sum()))
    starts = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return flat, sizes, starts


def weighted_degrees(inst: Instance) -> np.ndarray:
    flat, sizes, _ = _csr(inst)
    deg = np.zeros(inst.n, dtype=np.int64)
    np.add.at(deg, flat, np.repeat(np.asarray(inst.weights, dtype=np.int64), sizes))
    return deg


def cut_of(inst: Instance, block: Iterable[int]) -> int:
    """Total weight of edges with pins on both sides; both sides non-empty."""
    inside = np.zeros(inst.n, dtype=np.int64)
    ids = np.fromiter(block, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= inst.n):
        raise ValueError("block names a vertex outside the instance")
    inside[ids] = 1
    count = int(inside.sum())
    if count == 0 or count == inst.n:
        raise ValueError("both sides of a cut must be non-empty")
    flat, sizes, starts = _csr(inst)
    hits = np.add.reduceat(inside[flat], starts)
    crossing = (hits > 0) & (hits < sizes)
    return int(np.asarray(inst.weights, dtype=np.int64)[crossing].sum())


def mincut_flow(inst: Instance) -> int:
    """Exact global minimum cut by n-1 maximum flows on Lawler's network."""
    n, m = inst.n, len(inst.edges)
    if n < 2:
        raise ValueError("no cut exists with fewer than two vertices")
    flat, sizes, _ = _csr(inst)
    eids = np.repeat(np.arange(m, dtype=np.int64), sizes)
    big = int(sum(inst.weights)) + 1
    if big >= 2**31:
        raise ValueError("weights too large for the int32 flow network")
    rows = np.concatenate([flat, n + np.arange(m), n + m + eids])
    cols = np.concatenate([n + eids, n + m + np.arange(m), flat])
    caps = np.concatenate([
        np.full(len(flat), big),
        np.asarray(inst.weights, dtype=np.int64),
        np.full(len(flat), big),
    ]).astype(np.int32)
    size = n + 2 * m
    graph = csr_matrix((caps, (rows, cols)), shape=(size, size))
    return min(maximum_flow(graph, 0, t).flow_value for t in range(1, n))


def expected_value(inst: Instance) -> int:
    """The minimum cut of ``inst``, by construction or by flows."""
    if inst.planted is not None:
        value = cut_of(inst, inst.planted)
        if value >= inst.planted_lb:
            raise ValueError(f"{inst.name}: planted cut {value} not below its bound {inst.planted_lb}")
        return value
    return mincut_flow(inst)


def judge(expected: int, min_degree: int, status: str, value, rescored: Optional[int]) -> Optional[str]:
    """Reason the op failed, or None when its output is right."""
    if status != "ok":
        return f"status {status!r}"
    if value != expected:
        return f"value {value} but the minimum cut is {expected}"
    if value > min_degree:
        return f"value {value} above the smallest weighted degree {min_degree}"
    if rescored is None:
        return "no certificate written"
    if rescored != value:
        return f"certificate re-scores to {rescored}, not {value}"
    return None
