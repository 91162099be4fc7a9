"""Seeded input generators for the three benchmark workloads.

Every workload is a fixed schedule of 40 operations; the seed changes only
the random draws inside each instance, never the kinds, sizes or weight
ranges, so shares and sizes are the same for every seed.  Instances are
written as hMetis files by ``write_hmetis`` here, so the solver under test
only ever sees files.

A *planted* instance has a minimum cut known by construction: two sides,
each holding ``r`` random Hamiltonian cycles of two-pin edges, joined by
crossing edges of total weight ``c``.  Any bipartition other than the
planted one splits a side and therefore cuts every cycle of that side at
least twice, so it costs at least ``lb = min over sides of
sum(2 * min cycle weight)``.  With ``c < lb`` the minimum cut is exactly
``c``, and since every vertex lies on ``2r`` cycle edges, ``c`` is also
below the smallest weighted degree.  ``_planted`` states the variant with
a crossing triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

OPS_PER_WORKLOAD = 40
WORKLOADS = ("bulk", "cores", "bip")
BULK_WEIGHTED = 26
BIP_RESIDUALS = (8, 10, 11, 11, 11, 11, 13, 13, 13, 14)

# The program fails every op that carries this fault, on every seed.
TRIANGLE_FAULT = (
    "rule_imbalanced_triangle (src/hgcut/reduce.py:438) tests 'or' where "
    "Padberg-Rinaldi test 3 needs 'and'"
)
# The imbalanced-triangle instance on which the pipeline returns 32 while
# the minimum cut is 31; kept in every ``bip`` run, independent of the seed.
NAMED_FAILING = (
    4,
    [(0, 2, 3), (1, 3), (2, 3), (0, 3), (0, 1), (1, 2), (0, 1, 2, 3), (0, 1, 2), (0, 2)],
    [2, 4, 5, 11, 6, 11, 12, 1, 1],
)


@dataclass
class Instance:
    """One hypergraph plus what the referee needs to know about it."""

    name: str
    n: int
    edges: List[Tuple[int, ...]]  # sorted, distinct pins
    weights: List[int]
    planted: Optional[frozenset] = None  # block of the planted cut, if any
    planted_lb: Optional[int] = None  # construction bound on every other cut
    fault: Optional[str] = None  # why the program fails this op on every seed


def write_hmetis(inst: Instance, path) -> None:
    weighted = any(w != 1 for w in inst.weights)
    lines = [f"{len(inst.edges)} {inst.n}" + (" 1" if weighted else "")]
    for pins, w in zip(inst.edges, inst.weights):
        body = " ".join(str(v + 1) for v in pins)
        lines.append(f"{w} {body}" if weighted else body)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- building blocks -----------------------------------------------------------


def _dedupe(flat: np.ndarray, sizes: np.ndarray) -> List[Tuple[int, ...]]:
    """Split ``flat`` into edges of the given sizes; keep those with two or
    more distinct pins."""
    out = []
    pos = 0
    for s in sizes.tolist():
        e = tuple(sorted(set(flat[pos : pos + s].tolist())))
        pos += s
        if len(e) >= 2:
            out.append(e)
    return out


def _zipf_edges(rng, verts: np.ndarray, m: int, exponent: float, size_p: float, size_max: int):
    """Hyperedges whose pins follow a Zipf-like popularity over ``verts``;
    the most popular vertices become hubs.  Sizes are geometric from 2."""
    k = len(verts)
    prob = np.arange(1, k + 1, dtype=float) ** (-exponent)
    prob /= prob.sum()
    hubs = rng.permutation(verts)
    sizes = np.minimum(1 + rng.geometric(size_p, size=m), size_max)
    flat = hubs[rng.choice(k, size=int(sizes.sum()), p=prob)]
    return _dedupe(flat, sizes)


def _cycles(rng, verts: np.ndarray, count: int, wlo: int, whi: int, span: int = 2, per_cycle: bool = False):
    """``count`` random cycles over ``verts``; edge i of a cycle holds
    ``span`` consecutive vertices of a random order.  Weights are drawn per
    edge, or once per cycle with ``per_cycle``.  Every bipartition of
    ``verts`` cuts at least two edges of each cycle, so the returned bound
    ``sum(2 * lightest edge)`` holds for every cut inside ``verts``."""
    edges, weights, lb = [], [], 0
    k = len(verts)
    for _ in range(count):
        order = rng.permutation(verts).tolist()
        if per_cycle:
            ws = [int(rng.integers(wlo, whi + 1))] * k
        else:
            ws = rng.integers(wlo, whi + 1, size=k).tolist()
        for i in range(k):
            edges.append(tuple(sorted(order[(i + j) % k] for j in range(span))))
        weights.extend(ws)
        lb += 2 * min(ws)
    return edges, weights, lb


def _planted(rng, name, side_parts, cycles, cwlo, cwhi, weighted: bool, triangle: bool = False) -> Instance:
    """Join two sides, each ``(size, edges, weights)`` over its own ids
    0..size-1, with cycles on each side and crossing edges of 1-2 pins per
    side.  The first side becomes the planted block.

    Without ``triangle``: one crossing edge, of weight 1, or with
    ``weighted`` just below the cycle bound.

    With ``triangle``: three crossing edges of total weight ``c``, two of
    them in a triangle of two-pin edges.  An extra vertex ``u`` joins the
    first side ``A``; it lies on no cycle and has four two-pin edges of
    weight ``a``: to ``v`` in ``B`` and to ``w``, ``x``, ``y`` in ``A``.
    The edge ``v-w`` (weight ``b``) closes the triangle ``u-v-w`` and a
    random crossing edge carries the rest of ``c``.  A cut other than the
    planted one either splits ``A - u`` or ``B`` (at least the cycle bound
    ``lb``), isolates ``u`` (``4a``) or moves ``u`` to ``B``
    (``c + 2a``), so the minimum cut is ``c`` while ``c < lb`` and
    ``c < 4a``.  ``u`` has weighted degree ``4a``, at most twice its two
    triangle edges, so a triangle rule that tests one endpoint where both
    are needed contracts ``u-v`` across the planted cut; the triangle's
    edges come first in the edge list, so ``u-v`` is the first pair such
    a rule meets."""
    edges, weights, lbs, sides = [], [], [], []
    off = 0
    for size, e, w in side_parts:
        verts = np.arange(off, off + size)
        sides.append(verts)
        edges.extend(tuple(v + off for v in pins) for pins in e)
        weights.extend(w)
        ce, cw, lb = _cycles(rng, verts, cycles, cwlo, cwhi)
        edges.extend(ce)
        weights.extend(cw)
        lbs.append(lb)
        off += size
    lb = min(lbs)
    block = set(range(len(sides[0])))
    head, head_w = [], []
    if triangle:
        u = off
        off += 1
        block.add(u)
        w, x, y = rng.choice(sides[0], size=3, replace=False).tolist()
        v = int(rng.choice(sides[1]))
        a = max(1, lb // 3) if weighted else 1
        b, d = rng.integers(1, max(1, lb // 8) + 1, size=2).tolist() if weighted else (1, 1)
        head = [(u, v), (w, u), (w, v), (x, u), (y, u)]
        head = [tuple(sorted(e)) for e in head]
        head_w = [a, a, b, a, a]
        crossing = d
        bound = min(lb, 4 * a, a + b + d + 2 * a)
    else:
        crossing = 1
        if weighted:
            crossing = max(1, lb - 1 - int(rng.integers(0, lb // 4 + 1)))
        bound = lb
    pins = [rng.choice(side, size=int(rng.integers(1, 3)), replace=False).tolist() for side in sides]
    edges.append(tuple(sorted(pins[0] + pins[1])))
    weights.append(crossing)
    return Instance(
        name, off, head + edges, head_w + weights,
        planted=frozenset(block), planted_lb=bound,
        fault=TRIANGLE_FAULT if triangle else None,
    )


# -- workloads -----------------------------------------------------------------


def _bulk_op(rng, i: int) -> Instance:
    """Ops 0-25 weighted, 26-39 unit-weight; sizes rise with the index.
    The unit ops 27, 31, 35 and 39 have the crossing triangle."""
    weighted = i < BULK_WEIGHTED
    if weighted:
        n = 1500 + 60 * i
        wlo, whi, cwlo, cwhi = 1, 200, 20, 100
    else:
        n = 100 + 10 * (i - BULK_WEIGHTED)
        wlo = whi = cwlo = cwhi = 1
    half = n // 2
    parts = []
    for _ in range(2):
        e = _zipf_edges(rng, np.arange(half), half, 0.9, 0.5, 8)
        parts.append((half, e, rng.integers(wlo, whi + 1, size=len(e)).tolist()))
    return _planted(rng, f"bulk{i:02d}", parts, 2, cwlo, cwhi, weighted, triangle=not weighted and i % 4 == 3)


def _core(rng, n: int, size_lo: int, size_hi: int) -> list:
    """Configuration model: vertex degrees 3, 4, 5 in equal shares, pin
    slots shuffled and cut into edges of ``size_lo..size_hi`` pins.  Repeated
    pins in one edge collapse, so a few degrees fall below 3."""
    degrees = 3 + rng.permutation(n) % 3
    slots = rng.permutation(np.repeat(np.arange(n), degrees))
    sizes = []
    left = len(slots)
    while left > 0:
        s = min(int(rng.integers(size_lo, size_hi + 1)), left)
        sizes.append(s)
        left -= s
    return _dedupe(slots, np.array(sizes))


def _cores_op(rng, i: int) -> Instance:
    """Ops 0-9 planted, 10-19 two-uniform, 20-23 wide weights (5e3..1e4),
    24-39 three-uniform with narrow (50..100) weights.  The classes differ
    in speed, and the median and p75 ops fall inside the three-uniform and
    the planted class, away from a class boundary where those order
    statistics would jump between seeds.

    The unplanted ops are unions of two cycles with one weight per cycle,
    so every vertex has the same weighted degree and, since every cut
    crosses each two-pin cycle twice and each three-pin cycle three times,
    the minimum cut equals that degree."""
    if i < 10:
        half = 64 + 3 * i
        parts = []
        for _ in range(2):
            e = _core(rng, half, 2, 4)
            parts.append((half, e, rng.integers(50, 101, size=len(e)).tolist()))
        return _planted(rng, f"cores{i:02d}", parts, 1, 50, 100, True, triangle=i % 4 == 3)
    if i < 20:
        n, span, lo, hi = 100 + 4 * (i - 10), 2, *((50, 100) if i % 2 else (1, 1))
    elif i < 24:
        # Cycle weights w and 15000 - w keep every degree, and so the
        # bucket queue's key range, the same for every seed.
        n, span = 50 + 2 * (i - 20), 3
        lo = hi = int(rng.integers(5000, 10001))
    else:
        n, span, lo, hi = 80 + (i - 24), 3, 50, 100
    edges, weights, _ = _cycles(rng, np.arange(n), 1, lo, hi, span=span, per_cycle=True)
    if 20 <= i < 24:
        lo = hi = 15000 - lo
    more, more_w, _ = _cycles(rng, np.arange(n), 1, lo, hi, span=span, per_cycle=True)
    return Instance(f"cores{i:02d}", n, edges + more, weights + more_w)


def _linear_triples(rng, n: int, degree: int) -> list:
    """A 3-uniform hypergraph in which every vertex has ``degree`` edges and
    no two edges share two vertices (redrawn until both hold)."""
    while True:
        slots = rng.permutation(np.repeat(np.arange(n), degree)).tolist()
        edges = [tuple(sorted(slots[i : i + 3])) for i in range(0, len(slots), 3)]
        pairs = [(e[a], e[b]) for e in edges for a, b in ((0, 1), (0, 2), (1, 2))]
        if all(len(set(e)) == 3 for e in edges) and len(set(pairs)) == len(pairs):
            return edges


def _bip_op(rng, i: int) -> Instance:
    """Op 0 is the named failing instance.  The others are 3-regular linear
    3-uniform hypergraphs with weights 80..100, which no rule can shrink,
    plus one heavy two-pin edge between two vertices that share no edge,
    which ``heavy-edge`` contracts; the residual has exactly
    ``BIP_RESIDUALS[i % 10]`` vertices.  The sizes come in large classes so
    that the median op and the p75 op each fall well inside one class."""
    if i == 0:
        n, edges, weights = NAMED_FAILING
        return Instance("bip00-imbalanced-triangle", n, list(edges), list(weights), fault=TRIANGLE_FAULT)
    n = 1 + BIP_RESIDUALS[i % 10]
    edges = _linear_triples(rng, n, 3)
    weights = rng.integers(80, 101, size=len(edges)).tolist()
    together = {(e[a], e[b]) for e in edges for a, b in ((0, 1), (0, 2), (1, 2))}
    u = int(rng.integers(n))
    v = next(x for x in rng.permutation(n).tolist() if x != u and (min(u, x), max(u, x)) not in together)
    edges.append((min(u, v), max(u, v)))
    weights.append(1000)
    return Instance(f"bip{i:02d}", n, edges, weights)


_BUILDERS = {"bulk": _bulk_op, "cores": _cores_op, "bip": _bip_op}


def generate(workload: str, seed: int) -> List[Instance]:
    build = _BUILDERS[workload]
    code = WORKLOADS.index(workload)
    return [
        build(np.random.default_rng([code, seed, i]), i)
        for i in range(OPS_PER_WORKLOAD)
    ]
