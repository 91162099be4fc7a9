"""Brute-force ground truth for global and s-t minimum cuts.

Enumerates bipartitions with integer bitmasks (vectorized with numpy) and
shares no code with the ordering solver or the reduction pipeline, so it
can serve as an independent referee for both.
"""

from __future__ import annotations

import numpy as np

from ._limits import DEFAULT_MAX_VERTICES
from .hgraph import CutResult, Hypergraph, PROVENANCE_ORACLE, Weight

__all__ = ["DEFAULT_MAX_VERTICES", "brute_mincut", "brute_st_mincut"]


def _edge_masks(h: Hypergraph) -> list:
    masks = []
    for pins, w in h.edges():
        em = 0
        for v in pins:
            em |= 1 << v
        masks.append((em, w))
    return masks


def _cut_totals(h: Hypergraph, block_masks: np.ndarray) -> np.ndarray:
    exact = all(isinstance(w, int) for w in h.edge_weights())
    totals = np.zeros(block_masks.shape[0], dtype=np.int64 if exact else np.float64)
    for em, w in _edge_masks(h):
        if bin(em).count("1") < 2:
            continue
        inside = block_masks & np.uint64(em)
        crossing = (inside != 0) & (inside != np.uint64(em))
        totals += np.where(crossing, w, 0)
    return totals


def brute_mincut(h: Hypergraph, max_vertices: int = DEFAULT_MAX_VERTICES) -> CutResult:
    """Minimum cut by enumerating every bipartition with vertex 0 fixed.

    Enumerates the 2**(n-1) - 1 bipartitions whose first block contains
    vertex 0, evaluates each edge by a pins-on-both-sides bitmask test, and
    returns the minimum together with one optimal block.
    """
    n = h.vertex_count
    if n < 2:
        raise ValueError("minimum cut needs at least two vertices")
    if n > max_vertices:
        raise ValueError(f"instance too large for enumeration: n={n} > {max_vertices}")

    count = 1 << (n - 1)
    rest = np.arange(count, dtype=np.uint64)
    block_masks = (rest << np.uint64(1)) | np.uint64(1)  # vertex 0 always inside
    block_masks = block_masks[:-1] if count > 1 else block_masks  # drop block == V
    totals = _cut_totals(h, block_masks)

    best = int(np.argmin(totals))
    value = totals[best]
    value = int(value) if totals.dtype == np.int64 else float(value)
    bm = int(block_masks[best])
    block = frozenset(v for v in range(n) if bm >> v & 1)
    return CutResult(value=value, partition=block, provenance=PROVENANCE_ORACLE)


def brute_st_mincut(
    h: Hypergraph,
    s: int,
    t: int,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> Weight:
    """Minimum cut separating s and t, by enumeration over the free vertices."""
    n = h.vertex_count
    if s == t:
        raise ValueError("s and t must differ")
    for v in (s, t):
        if v < 0 or v >= n:
            raise ValueError(f"vertex id out of range: {v}")
    if n > max_vertices:
        raise ValueError(f"instance too large for enumeration: n={n} > {max_vertices}")

    free = [v for v in range(n) if v != s and v != t]
    count = 1 << len(free)
    rest = np.arange(count, dtype=np.uint64)
    block_masks = np.full(count, 1 << s, dtype=np.uint64)
    for j, v in enumerate(free):
        block_masks |= ((rest >> np.uint64(j)) & np.uint64(1)) << np.uint64(v)
    totals = _cut_totals(h, block_masks)
    value = totals.min()
    return int(value) if totals.dtype == np.int64 else float(value)
