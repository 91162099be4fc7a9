"""Hypergraph data model, contraction machinery, and hMetis-style file I/O.

A :class:`Hypergraph` is an immutable-after-build incidence structure over
dense vertex ids ``0..n-1``.  Each hyperedge stores a sorted tuple of
distinct pins plus a nonnegative weight; vertices carry no weight, since
no cut reads one.  The per-vertex incidence index, the weighted degrees
and the two-pin pair map are derived from the edge list on first use, so
hypergraphs that are only scanned edge by edge never build them.

Weights may be ints or floats.  Integer weights are kept exact end to end
(Python ints do not overflow), which is what makes equality checks against
brute-force enumeration meaningful.

Contraction is done by relabelling through a closure and rebuilding the
structure in one pass: pins are deduplicated per edge, edges that fall
below two pins (or have zero weight) are dropped, and edges with identical
pin sets are merged by summing their weights.  The relabelling is the
whole merge history.  A :class:`ContractionLog` follows it to hold the
input vertices behind each current vertex, so any bipartition of a
reduced hypergraph expands back to the input vertex set with an identical
cut value; the pipeline keeps one only when a partition is asked for.

Every contraction is one ``contract_groups`` call on *links*: vertex
tuples whose members must end in one vertex, which may overlap.
``_roots``, the one union-find, closes them and numbers the classes
densely in the order of each class's smallest vertex; those numbers are
the relabelling.  ``connected_components`` is the same closure over the
edge list.

One hMetis parser reads the text once and validates every token once:
each hyperedge line is split once, converted with one ``map(int, ...)``
and range-checked through its smallest and largest pin, and the
hypergraph is built through the trusted constructor path, so the public
constructor does not check the pins again.  Faults are worded where they
are found; line numbers are looked up only after a fault, so the happy
path never counts lines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NoReturn, Optional, Sequence, Union

Weight = Union[int, float]

__all__ = [
    "Weight",
    "Hypergraph",
    "ContractionLog",
    "CutResult",
    "PROVENANCE_TRIVIAL",
    "PROVENANCE_REDUCTION",
    "PROVENANCE_ORDERING",
    "PROVENANCE_BIP",
    "PROVENANCE_ORACLE",
    "compact",
    "contract_set",
    "contract_groups",
    "connected_components",
    "cut_value",
    "storage_nbytes",
    "parse_hmetis",
    "format_hmetis",
    "load_hypergraph",
    "save_hypergraph",
]

PROVENANCE_TRIVIAL = "trivial-degree"
PROVENANCE_REDUCTION = "reduction-terminal"
PROVENANCE_ORDERING = "ordering-solver"
PROVENANCE_BIP = "bip-solver"
PROVENANCE_ORACLE = "oracle"


def _check_weight(w: Weight, what: str) -> Weight:
    if isinstance(w, bool) or not isinstance(w, (int, float)):
        raise ValueError(f"{what} must be a number, got {w!r}")
    if w != w or w < 0:
        raise ValueError(f"{what} must be nonnegative, got {w!r}")
    return w


class Hypergraph:
    """Immutable incidence structure with hyperedge weights."""

    __slots__ = ("_n", "_pins", "_weights", "_incidence", "_p", "_wdeg", "_pairs")

    def __init__(
        self,
        vertex_count: int,
        pins_lists: Iterable[Iterable[int]] = (),
        edge_weights: Optional[Sequence[Weight]] = None,
        *,
        _normalized: bool = False,
    ) -> None:
        if vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        n = int(vertex_count)
        self._n = n

        if _normalized:
            # Trusted internal path: pins already sorted, distinct, in range.
            pins = list(pins_lists)  # type: ignore[arg-type]
            weights = list(edge_weights) if edge_weights is not None else [1] * len(pins)
        else:
            raw = [list(e) for e in pins_lists]
            if edge_weights is None:
                weights = [1] * len(raw)
            else:
                weights = [_check_weight(w, "hyperedge weight") for w in edge_weights]
                if len(weights) != len(raw):
                    raise ValueError(
                        f"{len(raw)} hyperedges but {len(weights)} edge weights"
                    )
            pins = []
            for e in raw:
                for v in e:
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise ValueError(f"pin ids must be integers, got {v!r}")
                    if v < 0 or v >= n:
                        raise ValueError(f"pin out of range: {v} (vertex count {n})")
                pins.append(tuple(sorted(set(e))))

        self._pins: list = pins
        self._weights: list = weights
        self._p = sum(map(len, pins))
        self._incidence: Optional[list] = None
        self._wdeg: Optional[list] = None
        self._pairs: Optional[tuple] = None

    # -- basic queries ----------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._pins)

    @property
    def pin_count(self) -> int:
        return self._p

    def pins(self, eid: int) -> tuple:
        return self._pins[eid]

    def weight(self, eid: int) -> Weight:
        return self._weights[eid]

    def edges(self) -> Iterator[tuple]:
        return zip(self._pins, self._weights)

    def edge_weights(self) -> tuple:
        return tuple(self._weights)

    def _incidence_lists(self) -> list:
        """Incident edge ids per vertex, ascending; built on first use."""
        incidence = self._incidence
        if incidence is None:
            incidence = [[] for _ in range(self._n)]
            for eid, e in enumerate(self._pins):
                for v in e:
                    incidence[v].append(eid)
            self._incidence = incidence
        return incidence

    def incident(self, v: int) -> Sequence[int]:
        return self._incidence_lists()[v]

    def weighted_degrees(self) -> list:
        """The weight of the cut isolating each vertex: one-pin edges do not count."""
        if self._wdeg is None:
            wd = [0] * self._n
            for e, w in zip(self._pins, self._weights):
                if len(e) > 1:
                    for v in e:
                        wd[v] += w
            self._wdeg = wd
        return self._wdeg

    def two_pin_pairs(self) -> tuple:
        """``(pair_w, neighbors)``, built on first use.  ``pair_w`` maps each
        pin pair to the summed weight of its two-pin edges, in the order
        ``compact`` would keep them: zero-weight edges are skipped, so an
        uncompacted input gives what its compacted form gives.
        ``neighbors[u]`` maps each two-pin neighbour of ``u`` to the pair's
        weight.  Callers must not change either."""
        if self._pairs is None:
            pair_w: dict = {}
            for pins, w in zip(self._pins, self._weights):
                if len(pins) == 2 and w:
                    pair_w[pins] = pair_w.get(pins, 0) + w
            neighbors: dict = {}
            for (u, v), w in pair_w.items():
                neighbors.setdefault(u, {})[v] = w
                neighbors.setdefault(v, {})[u] = w
            self._pairs = (pair_w, neighbors)
        return self._pairs

    def min_weighted_degree(self) -> Weight:
        if self._n == 0:
            raise ValueError("empty hypergraph has no vertex degrees")
        return min(self.weighted_degrees())

    def is_unweighted(self) -> bool:
        return all(w == 1 for w in self._weights)

    # -- comparison / repr -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._pins == other._pins
            and self._weights == other._weights
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Hypergraph(n={self._n}, m={self.edge_count}, p={self._p})"


def storage_nbytes(h: Hypergraph) -> int:
    """Deterministic size estimate of the incidence structure, in bytes.

    Counts pins twice (edge side and incidence side) at word size plus
    fixed per-edge and per-vertex overhead.  Used for portable peak-memory
    reporting instead of OS-level RSS.
    """
    return 16 * h.pin_count + 64 * h.edge_count + 24 * h.vertex_count + 64


# -- contraction ------------------------------------------------------------


class ContractionLog:
    """The input vertices behind each vertex of the current hypergraph.

    One list of input vertex ids per current vertex.  A contraction hands
    its relabelling to :meth:`apply`, which moves every list to its new
    id; where lists meet, the longer absorbs the shorter, so a run copies
    each input vertex O(log N) times.  Cuts found on the reduced structure
    expand back to the input vertex set through :meth:`expand_block`.
    """

    def __init__(self, vertex_count: int) -> None:
        self._members = [[v] for v in range(int(vertex_count))]

    def apply(self, relabel: Sequence[int], new_count: int) -> None:
        """Move current vertex ``v``'s members to ``relabel[v]``."""
        new: list = [None] * new_count
        for members, c in zip(self._members, relabel):
            into = new[c]
            if into is None:
                new[c] = members
            elif len(into) >= len(members):
                into.extend(members)
            else:
                members.extend(into)
                new[c] = members
        self._members = new

    def members_of_current(self, current_id: int) -> tuple:
        """Input vertex ids merged into the given current vertex."""
        return tuple(self._members[current_id])

    def expand_block(self, current_ids: Iterable[int]) -> frozenset:
        """Map a block of current vertex ids to the input vertex set."""
        members = self._members
        out: list = []
        for c in current_ids:
            out.extend(members[c])
        return frozenset(out)


def contract_groups(
    h: Hypergraph,
    links: Iterable[Sequence[int]],
    log: Optional[ContractionLog] = None,
) -> Hypergraph:
    """Contract each class of the closure of ``links`` into one vertex and
    compact; ``h`` itself when no link joins two vertices.

    Links may overlap (see :func:`_roots`); every vertex in them must be a
    vertex of ``h``.  The edge list is rebuilt with deduplicated pins,
    edges below two pins or with zero weight are dropped, and parallel
    edges (identical pin sets) are merged by summing weights.  Two-pin
    edges are relabelled without a set or a sort; a closure holding every
    vertex in one class gives the one-vertex hypergraph without looking at
    any edge or vertex.
    """
    n = h.vertex_count
    relabel, new_n = _roots(n, links)
    if new_n == n:
        return h

    if new_n == 1:
        # One class holds every vertex: no edge survives.
        if log is not None:
            log.apply(relabel, 1)
        return Hypergraph(1, [], [], _normalized=True)

    merged: dict = {}
    for pins, w in zip(h._pins, h._weights):
        if w == 0:
            continue
        if len(pins) == 2:
            a = relabel[pins[0]]
            b = relabel[pins[1]]
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
        else:
            mapped = {relabel[v] for v in pins}
            if len(mapped) < 2:
                continue
            key = tuple(sorted(mapped))
        if key in merged:
            merged[key] += w
        else:
            merged[key] = w

    if log is not None:
        log.apply(relabel, new_n)

    return Hypergraph(new_n, list(merged.keys()), list(merged.values()), _normalized=True)


def contract_set(
    h: Hypergraph,
    vertices: Iterable[int],
    log: Optional[ContractionLog] = None,
) -> Hypergraph:
    """Contract one vertex set; below two distinct vertices this is a no-op."""
    vs = sorted(set(vertices))
    if len(vs) < 2:
        warnings.warn("contract_set called with fewer than two vertices; no-op")
        return h
    return contract_groups(h, [vs], log)


def compact(h: Hypergraph) -> Hypergraph:
    """Drop unusable hyperedges and merge parallel ones.

    Removes edges with fewer than two pins or zero weight and merges edges
    with identical pin sets by summing weights.  The vertex set is
    unchanged.  Returns ``h`` itself when nothing needs to change.
    """
    merged: dict = {}
    for pins, w in zip(h._pins, h._weights):
        if len(pins) < 2 or w == 0:
            continue
        if pins in merged:
            merged[pins] += w
        else:
            merged[pins] = w
    if len(merged) == len(h._pins):
        return h
    return Hypergraph(h.vertex_count, list(merged.keys()), list(merged.values()), _normalized=True)


# -- traversal and cut evaluation --------------------------------------------


def _roots(n: int, links: Iterable[Sequence[int]]) -> tuple:
    """Close the vertices ``0..n-1`` under ``links``: every link (a pin
    tuple, a pair or a list, possibly overlapping others) puts its members
    in one class.  Returns ``(labels, count)``: each vertex's class label,
    dense and numbered in the order of each class's smallest vertex, and
    the number of classes.

    Union-find with path halving.  A link always keeps the smaller root,
    so every parent pointer points to a smaller id and one ascending pass
    resolves each vertex to its root and numbers the roots.
    """
    parent = list(range(n))
    for link in links:
        if len(link) < 2:
            continue
        it = iter(link)
        r = next(it)
        while parent[r] != r:
            parent[r] = parent[parent[r]]
            r = parent[r]
        for v in it:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if v < r:
                parent[r] = v
                r = v
            elif v > r:
                parent[v] = r
    count = 0
    for v in range(n):
        r = parent[v]  # v's parent; smaller entries already hold labels
        if r == v:
            parent[v] = count
            count += 1
        else:
            parent[v] = parent[r]
    return parent, count


def connected_components(h: Hypergraph) -> list:
    """Component label per vertex; labels are dense, numbered in the order
    of each component's smallest vertex.

    The closure of the edge list, so no incidence index is needed.
    """
    return _roots(h.vertex_count, h._pins)[0]


def cut_value(h: Hypergraph, block: Iterable[int]) -> Weight:
    """Total weight of hyperedges with pins on both sides of the bipartition.

    ``block`` is one side; the other side is its complement.  Both sides
    must be non-empty.
    """
    n = h.vertex_count
    inside = bytearray(n)
    count = 0
    for v in block:
        if v < 0 or v >= n:
            raise ValueError(f"vertex id out of range: {v}")
        if not inside[v]:
            inside[v] = 1
            count += 1
    if count == 0 or count == n:
        raise ValueError("both blocks of a cut must be non-empty")
    total: Weight = 0
    for pins, w in h.edges():
        has_in = has_out = False
        for v in pins:
            if inside[v]:
                has_in = True
                if has_out:
                    break
            else:
                has_out = True
                if has_in:
                    break
        if has_in and has_out:
            total += w
    return total


# -- results ------------------------------------------------------------------


@dataclass(frozen=True)
class CutResult:
    """A cut value with optional certifying bipartition on input vertices."""

    value: Weight
    partition: Optional[frozenset] = None
    provenance: str = PROVENANCE_REDUCTION


# -- hMetis-style file format -------------------------------------------------
#
# Line 1: `m n [fmt]` with fmt in {absent, 1, 10, 11}.  The next m
# non-comment lines hold one hyperedge each: a leading weight iff fmt is
# 1 or 11, then 1-based pin ids.  If fmt is 10 or 11, n further lines hold
# one vertex weight each; they are validated and dropped, since no cut
# reads a vertex weight.  Lines starting with `%` are comments.


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"{what} is not an integer: {tok!r}") from None


def _parse_weight(tok: str) -> Weight:
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        w = float(tok)
    except ValueError:
        raise ValueError(f"weight is not a number: {tok!r}") from None
    if w != w:
        raise ValueError(f"weight is not a number: {tok!r}")
    return w


def _pin_fault(toks: list, n: int) -> NoReturn:
    """Raise the fault of the first bad pin of a hyperedge line, in line order."""
    for tok in toks:
        v = _parse_int(tok, "pin id")
        if v < 1 or v > n:
            raise ValueError(f"pin out of range: {v} (vertex count {n})")
    raise AssertionError("no bad pin")


def _line_number(lines: list, index: int) -> int:
    """Line number of data line ``index``; the header is data line 0."""
    data = (i for i, toks in enumerate(map(str.split, lines), 1) if toks and toks[0][0] != "%")
    return next(islice(data, index, None))


def parse_hmetis(text: str) -> Hypergraph:
    """Parse hMetis-format text into a Hypergraph (pins become 0-based).

    The text is read once.  Each line is split once, as it is read, and
    each hyperedge line converted with one ``map(int, ...)`` and
    range-checked through its smallest and largest pin; the hypergraph is
    then built through the trusted constructor path.  A fault raises
    ``ValueError`` naming the first fault: a wrong number of data lines,
    or else the line number and reason of the first faulty line.  Only
    then are the remaining data lines counted and the faulty line located.
    """
    lines = text.splitlines()
    rows = (toks for toks in map(str.split, lines) if toks and toks[0][0] != "%")
    head = next(rows, None)
    if head is None:
        raise ValueError("empty hypergraph file")
    try:
        if len(head) not in (2, 3):
            raise ValueError("header must be 'm n [fmt]'")
        m = _parse_int(head[0], "hyperedge count")
        n = _parse_int(head[1], "vertex count")
        if m < 0 or n < 0:
            raise ValueError("counts must be nonnegative")
        fmt = head[2] if len(head) == 3 else "0"
        if fmt not in ("0", "1", "10", "11"):
            raise ValueError(f"unsupported fmt code {fmt!r}")
    except ValueError as exc:
        raise ValueError(f"line {_line_number(lines, 0)}: {exc}") from None
    has_ew = fmt in ("1", "11")
    has_vw = fmt in ("10", "11")
    pins_lists = []
    eweights: list = []
    vertex_lines = 0
    fault = None
    try:
        for toks in islice(rows, m):
            if has_ew:
                if len(toks) < 2:
                    raise ValueError("weighted hyperedge needs a weight and pins")
                w = _parse_weight(toks[0])
                if w < 0:
                    raise ValueError("negative hyperedge weight")
                eweights.append(w)
                toks = toks[1:]
            try:
                pins = sorted(set(map(int, toks)))
            except ValueError:
                pins = None
            if pins is None or pins[0] < 1 or pins[-1] > n:
                _pin_fault(toks, n)
            pins_lists.append(tuple([v - 1 for v in pins]))
        if has_vw:
            for toks in islice(rows, n):
                if len(toks) != 1:
                    raise ValueError("vertex weight lines hold one number")
                if _parse_weight(toks[0]) < 0:
                    raise ValueError("negative vertex weight")
                vertex_lines += 1
    except ValueError as exc:
        fault = str(exc)
    # A wrong data-line count is reported before a fault inside a line.
    done = 1 + len(pins_lists) + vertex_lines  # data lines read without a fault
    found = done + (fault is not None) + sum(1 for _ in rows)
    need = 1 + m + (n if has_vw else 0)
    if found != need:
        raise ValueError(
            f"expected {need} data lines ({m} hyperedges"
            + (f" plus {n} vertex weights" if has_vw else "")
            + f"), found {found}"
        )
    if fault is not None:
        raise ValueError(f"line {_line_number(lines, done)}: {fault}")
    return Hypergraph(n, pins_lists, eweights if has_ew else [1] * m, _normalized=True)


def _fmt_weight(w: Weight) -> str:
    if isinstance(w, float):
        if w.is_integer():
            return str(int(w))
        return repr(w)
    return str(w)


def format_hmetis(h: Hypergraph) -> str:
    """Serialize to canonical hMetis text: sorted pins, fmt 1 if any edge
    weight is not 1, else no fmt code."""
    has_ew = not h.is_unweighted()
    lines = [f"{h.edge_count} {h.vertex_count}{' 1' if has_ew else ''}"]
    for pins, w in h.edges():
        body = " ".join(str(v + 1) for v in pins)
        if has_ew:
            lines.append(f"{_fmt_weight(w)} {body}" if body else _fmt_weight(w))
        else:
            lines.append(body)
    return "\n".join(lines) + "\n"


def load_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hmetis(fh.read())


def save_hypergraph(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hmetis(h))
