"""Exact reduction rules and the contraction pipeline driver.

The pipeline keeps a running upper bound on the minimum cut: the smallest
weighted vertex degree seen on any hypergraph during the run (every such
degree is the value of the cut isolating that vertex).  Rules may contract
structure that provably cannot sit on a cut cheaper than the bound, so

    min(upper_bound, mincut(reduced)) == mincut(input)

holds after every rule application; the final answer folds the bound back
in.  Rounds apply the rules in a fixed order, each at most once per round.
A rule's outcome depends only on the current hypergraph and the bound, so
reduction stops at a fixpoint as soon as every rule in a row, counted
across round boundaries, has left both unchanged; it also stops when the
bound reaches zero or one vertex remains.  What remains goes to a
residual solver (exact ordering solver or the branch-and-bound
relaxation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ._limits import Deadline, SolveTimeout
from .hgraph import (
    ContractionLog,
    CutResult,
    Hypergraph,
    PROVENANCE_BIP,
    PROVENANCE_ORDERING,
    PROVENANCE_REDUCTION,
    PROVENANCE_TRIVIAL,
    Weight,
    compact,
    connected_components,
    contract_groups,
    storage_nbytes,
)

__all__ = [
    "PipelineConfig",
    "PipelineState",
    "ResidualStats",
    "RuleStats",
    "RULE_ORDER",
    "initial_state",
    "update_upper_bound",
    "rule_singleton",
    "rule_heavy_edge",
    "rule_heavy_overlap",
    "rule_nested_substructure",
    "rule_imbalanced_vertex",
    "rule_imbalanced_triangle",
    "rule_heavy_neighborhood",
    "run_pipeline",
    "run_pipeline_detailed",
]

INF = float("inf")


@dataclass
class PipelineConfig:
    use_lp: bool = False
    seed: int = 0
    solver: str = "exact"  # residual backend: "exact" or "bip"
    want_partition: bool = False
    lp_iterations: int = 1
    time_limit: Optional[float] = None
    bip_node_limit: Optional[int] = None


@dataclass
class RuleStats:
    round: int
    rule: str
    vertices_before: int
    vertices_after: int
    edges_before: int
    edges_after: int
    contractions: int
    upper_bound: Weight


@dataclass
class ResidualStats:
    """The residual hypergraph and what its solver did: ``phases`` for the
    exact solver, ``nodes`` and ``pivots`` for the binary program.  A
    disconnected residual needs no solver (status ``disconnected``)."""

    solver: str
    n: int
    m: int
    p: int
    status: str
    phases: Optional[int] = None
    nodes: Optional[int] = None
    pivots: Optional[int] = None


@dataclass
class PipelineState:
    current: Hypergraph
    log: ContractionLog
    config: PipelineConfig
    upper_bound: Weight = INF
    bound_block: Optional[frozenset] = None
    round_stats: List[RuleStats] = field(default_factory=list)
    round_index: int = 0
    peak_bytes: int = 0
    deadline: Optional[Deadline] = None
    # why reduction stopped: "fixpoint", "terminal" (one vertex left) or
    # "zero-bound" (a cut of weight 0 is known); None while running
    stop_reason: Optional[str] = None
    residual: Optional[ResidualStats] = None

    def replace(self, h: Hypergraph) -> None:
        self.current = h
        nbytes = storage_nbytes(h)
        if nbytes > self.peak_bytes:
            self.peak_bytes = nbytes


def initial_state(h: Hypergraph, config: Optional[PipelineConfig] = None) -> PipelineState:
    config = config if config is not None else PipelineConfig()
    state = PipelineState(
        current=h,
        log=ContractionLog(h.vertex_count),
        config=config,
        deadline=Deadline(config.time_limit),
    )
    state.peak_bytes = storage_nbytes(h)
    update_upper_bound(state)
    return state


def update_upper_bound(state: PipelineState) -> Weight:
    """Fold the current smallest weighted degree into the running bound.

    Only meaningful while at least two vertices remain (a single vertex
    admits no cut).  At zero the pipeline can stop: an isolated vertex
    certifies an empty cut.
    """
    h = state.current
    if h.vertex_count >= 2:
        wd = h.weighted_degrees()
        d = min(wd)
        if d < state.upper_bound:
            state.upper_bound = d
            if state.config.want_partition:
                v = wd.index(d)
                state.bound_block = frozenset(state.log.members_of_current(v))
    return state.upper_bound


class _UnionFind:
    """Disjoint sets over current vertex ids, for batching contractions."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def groups(self) -> list:
        by_root: dict = {}
        for v in range(len(self.parent)):
            by_root.setdefault(self.find(v), []).append(v)
        return [g for g in by_root.values() if len(g) >= 2]


def _note(state: PipelineState, rule: str, before: Hypergraph) -> None:
    after = state.current
    state.round_stats.append(
        RuleStats(
            round=state.round_index,
            rule=rule,
            vertices_before=before.vertex_count,
            vertices_after=after.vertex_count,
            edges_before=before.edge_count,
            edges_after=after.edge_count,
            contractions=before.vertex_count - after.vertex_count,
            upper_bound=state.upper_bound,
        )
    )


def _contract(state: PipelineState, uf: _UnionFind) -> bool:
    groups = uf.groups()
    if not groups:
        return False
    state.replace(contract_groups(state.current, groups, state.log))
    update_upper_bound(state)
    return True


# -- the seven rules ----------------------------------------------------------


def rule_singleton(state: PipelineState) -> bool:
    """Drop hyperedges that can never be cut (single pin or zero weight);
    parallel edges are merged along the way."""
    before = state.current
    h = compact(before)
    applied = h is not before
    if applied:
        state.replace(h)
        update_upper_bound(state)
    _note(state, "singleton", before)
    return applied


def rule_heavy_edge(state: PipelineState) -> bool:
    """Contract hyperedges at least as heavy as the bound.

    Cutting such an edge costs no less than a cut already known, so its
    pins can merge.  Contractions merge parallel edges and may create new
    qualifying edges, so the scan repeats until none are left.
    """
    before = state.current
    applied = False
    while state.upper_bound > 0:
        h = state.current
        bound = state.upper_bound
        uf = _UnionFind(h.vertex_count)
        for pins, w in h.edges():
            if len(pins) >= 2 and w >= bound:
                first = pins[0]
                for v in pins[1:]:
                    uf.union(first, v)
        if not _contract(state, uf):
            break
        applied = True
        if state.current.vertex_count <= 1:
            break
    _note(state, "heavy-edge", before)
    return applied


def rule_heavy_overlap(state: PipelineState) -> bool:
    """Contract vertex pairs whose shared incident weight reaches the bound.

    If a cut separated such a pair it would cut every shared hyperedge, so
    it could not improve on the bound.  Only vertices whose weighted degree
    reaches the bound can participate, which caps the scan at the sum of
    squared edge sizes.  Larger overlapping sets collapse over successive
    rounds through cascaded pair contractions.
    """
    before = state.current
    applied = False
    bound = state.upper_bound
    if bound > 0:
        h = state.current
        wdeg = h.weighted_degrees()
        uf = _UnionFind(h.vertex_count)
        shared: dict = {}
        for u in range(h.vertex_count):
            if wdeg[u] < bound:
                continue
            shared.clear()
            for eid in h.incident(u):
                w = h.weight(eid)
                for v in h.pins(eid):
                    if v > u:
                        shared[v] = shared.get(v, 0) + w
            for v, total in shared.items():
                if total >= bound:
                    uf.union(u, v)
        applied = _contract(state, uf)
    _note(state, "heavy-overlap", before)
    return applied


def rule_nested_substructure(state: PipelineState) -> bool:
    """Contract substructures nested strictly inside one hyperedge.

    For a parent edge e, pins touching an edge incomparable with e (one
    that reaches outside e without containing it) are tainted: they may
    have an escaping path.  The remaining pins, linked by edges that are
    strict subsets of e, can only reach the rest of the hypergraph through
    e itself, so each untainted component of two or more pins (short of
    all of e) merges without changing any cut.  Superset edges are ignored:
    they cannot carry a path that leaves e without containing it.
    """
    before = state.current
    h = state.current
    m = h.edge_count
    pin_sets = [None] * m

    def pset(eid: int) -> set:
        s = pin_sets[eid]
        if s is None:
            s = set(h.pins(eid))
            pin_sets[eid] = s
        return s

    uf = _UnionFind(h.vertex_count)
    used = bytearray(h.vertex_count)
    for parent in range(m):
        pins = h.pins(parent)
        if len(pins) < 3:
            continue
        parent_set = pset(parent)
        candidates: set = set()
        for v in pins:
            candidates.update(h.incident(v))
        candidates.discard(parent)

        subs = []
        tainted: set = set()
        for eid in candidates:
            es = pset(eid)
            if len(es) < len(parent_set) and es <= parent_set:
                subs.append(eid)
            elif parent_set <= es:
                continue  # contains e: cannot leave e without carrying it
            else:
                tainted.update(es & parent_set)
        if not subs:
            continue

        local: dict = {}
        for eid in subs:
            vs = sorted(pset(eid))
            local.setdefault(vs[0], vs[0])
            for v in vs[1:]:
                _local_union(local, vs[0], v)
        comps: dict = {}
        for v in local:
            comps.setdefault(_local_find(local, v), []).append(v)
        for comp in sorted(comps.values(), key=min):
            if len(comp) < 2 or len(comp) >= len(parent_set):
                continue
            if any(v in tainted for v in comp):
                continue
            if any(used[v] for v in comp):
                continue
            for v in comp:
                used[v] = 1
            first = comp[0]
            for v in comp[1:]:
                uf.union(first, v)

    applied = _contract(state, uf)
    _note(state, "nested-substructure", before)
    return applied


def _local_find(parent: dict, v: int) -> int:
    root = v
    while parent[root] != root:
        root = parent[root]
    while parent[v] != root:
        parent[v], v = root, parent[v]
    return root


def _local_union(parent: dict, a: int, b: int) -> int:
    parent.setdefault(a, a)
    parent.setdefault(b, b)
    ra, rb = _local_find(parent, a), _local_find(parent, b)
    if ra != rb:
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
    return ra


def _pair_weights(h: Hypergraph) -> Tuple[dict, dict]:
    """Weights of size-2 edges and the induced neighbor map."""
    pair_w: dict = {}
    neighbors: dict = {}
    for pins, w in h.edges():
        if len(pins) != 2:
            continue
        u, v = pins
        key = (u, v)
        pair_w[key] = pair_w.get(key, 0) + w
    for (u, v), w in pair_w.items():
        neighbors.setdefault(u, {})[v] = w
        neighbors.setdefault(v, {})[u] = w
    return pair_w, neighbors


def rule_imbalanced_vertex(
    state: PipelineState,
    *,
    strict: bool = True,
    mark: bool = True,
) -> bool:
    """Contract a two-pin edge that outweighs half of an endpoint's degree.

    The inequality must be strict: two equal-weight edges sharing a pin can
    otherwise both qualify through that pin, and contracting them together
    assumes the shared vertex sits on both sides of a cut at once.  The
    non-strict, unmarked variant exists only so tests can demonstrate that
    failure.  Each vertex joins at most one contraction per pass.
    """
    before = state.current
    h = state.current
    wdeg = h.weighted_degrees()
    marked = bytearray(h.vertex_count)
    uf = _UnionFind(h.vertex_count)
    for pins, w in h.edges():
        if len(pins) != 2:
            continue
        u, v = pins
        if mark and (marked[u] or marked[v]):
            continue
        doubled = 2 * w
        if strict:
            hit = wdeg[u] < doubled or wdeg[v] < doubled
        else:
            hit = wdeg[u] <= doubled or wdeg[v] <= doubled
        if hit:
            uf.union(u, v)
            marked[u] = marked[v] = 1
    applied = _contract(state, uf)
    _note(state, "imbalanced-vertex", before)
    return applied


def rule_imbalanced_triangle(state: PipelineState) -> bool:
    """Contract a two-pin edge inside a triangle of two-pin edges when both
    endpoints' degrees are at most twice their two triangle edges combined
    (Padberg-Rinaldi test 3).

    Non-strict, with per-pass vertex marking.  A cut separating the
    endpoints leaves one of them apart from the triangle's third vertex;
    moving that endpoint across uncuts both of its triangle edges, so the
    cut does not get dearer.  Either endpoint may be the one apart, so the
    test must hold for both.
    Only trivial cuts can be lost, and those are already folded into the
    running bound.
    """
    before = state.current
    h = state.current
    wdeg = h.weighted_degrees()
    pair_w, neighbors = _pair_weights(h)
    marked = bytearray(h.vertex_count)
    uf = _UnionFind(h.vertex_count)
    for (u, v), w_uv in pair_w.items():
        if marked[u] or marked[v]:
            continue
        nu = neighbors.get(u)
        nv = neighbors.get(v)
        if not nu or not nv:
            continue
        common = nu.keys() & nv.keys()
        for w in sorted(common):
            if wdeg[u] <= 2 * (w_uv + nu[w]) and wdeg[v] <= 2 * (w_uv + nv[w]):
                uf.union(u, v)
                marked[u] = marked[v] = 1
                break
    applied = _contract(state, uf)
    _note(state, "imbalanced-triangle", before)
    return applied


def rule_heavy_neighborhood(state: PipelineState) -> bool:
    """Contract a two-pin edge whose weight plus the cheaper-side weights of
    all common two-pin neighbors reaches the bound.

    A cut separating the endpoints would also cut one edge of each common
    neighbor, so it could not beat the bound.  Per-pass vertex marking, as
    above.
    """
    before = state.current
    applied = False
    bound = state.upper_bound
    if bound > 0:
        h = state.current
        pair_w, neighbors = _pair_weights(h)
        marked = bytearray(h.vertex_count)
        uf = _UnionFind(h.vertex_count)
        for (u, v), w_uv in pair_w.items():
            if marked[u] or marked[v]:
                continue
            total = w_uv
            nu = neighbors.get(u)
            nv = neighbors.get(v)
            if nu and nv:
                for w in nu.keys() & nv.keys():
                    total += min(nu[w], nv[w])
            if total >= bound:
                uf.union(u, v)
                marked[u] = marked[v] = 1
        applied = _contract(state, uf)
    _note(state, "heavy-neighborhood", before)
    return applied


RULE_ORDER: Tuple[Tuple[str, Callable[[PipelineState], bool]], ...] = (
    ("singleton", rule_singleton),
    ("heavy-edge", rule_heavy_edge),
    ("heavy-overlap", rule_heavy_overlap),
    ("nested-substructure", rule_nested_substructure),
    ("imbalanced-vertex", rule_imbalanced_vertex),
    ("imbalanced-triangle", rule_imbalanced_triangle),
    ("heavy-neighborhood", rule_heavy_neighborhood),
)


# -- pipeline driver ----------------------------------------------------------


def _lp_contract(state: PipelineState) -> bool:
    from .lpcluster import Clustering, contract_clusters, propagate_once

    config = state.config
    before = state.current
    iters = max(1, config.lp_iterations)
    labels = None
    seed0 = (config.seed * 1_000_003 + state.round_index * 101) & 0x7FFFFFFF
    for i in range(iters):
        clustering = propagate_once(state.current, seed=seed0 + i, labels=labels)
        labels = clustering.labels
    h = contract_clusters(
        state.current, Clustering(labels=labels, iterations=iters, seed=seed0), state.log
    )
    changed = h is not state.current
    if changed:
        state.replace(h)
        update_upper_bound(state)
    _note(state, "label-propagation", before)
    return changed


def _zero_result(state: PipelineState) -> CutResult:
    return CutResult(value=0, partition=state.bound_block, provenance=PROVENANCE_TRIVIAL)


def _bound_result(state: PipelineState) -> CutResult:
    return CutResult(
        value=state.upper_bound,
        partition=state.bound_block,
        provenance=PROVENANCE_REDUCTION,
    )


def _check_deadline(state: PipelineState) -> None:
    if state.deadline is not None and state.deadline.expired():
        best = None
        if state.upper_bound < INF:
            best = CutResult(
                value=state.upper_bound,
                partition=state.bound_block,
                provenance=PROVENANCE_TRIVIAL,
            )
        raise SolveTimeout(best)


def _reduce_rounds(state: PipelineState) -> Optional[CutResult]:
    config = state.config
    unchanged = 0  # rule calls in a row that changed neither graph nor bound
    while True:
        state.round_index += 1
        _check_deadline(state)
        if config.use_lp and state.current.vertex_count > 2:
            if _lp_contract(state):
                unchanged = 0
            if state.upper_bound == 0:
                state.stop_reason = "zero-bound"
                return _zero_result(state)
        for _, rule in RULE_ORDER:
            _check_deadline(state)
            unchanged = 0 if rule(state) else unchanged + 1
            if state.upper_bound == 0:
                state.stop_reason = "zero-bound"
                return _zero_result(state)
            if state.current.vertex_count == 1:
                state.stop_reason = "terminal"
                return _bound_result(state)
            if unchanged == len(RULE_ORDER):
                state.stop_reason = "fixpoint"
                return None


def _solve_residual(state: PipelineState) -> CutResult:
    """Solve what reduction left.  The residual's connectivity is computed
    once: ``mincut_ordering`` checks it itself, and only the binary program
    needs the check here."""
    from .osolve import mincut_ordering

    config = state.config
    h = state.current

    if h.vertex_count == 1:
        return _bound_result(state)
    stats = ResidualStats(
        solver=config.solver, n=h.vertex_count, m=h.edge_count, p=h.pin_count, status="optimal"
    )
    state.residual = stats

    if config.solver == "exact":
        res = mincut_ordering(h, state.deadline)
        if res.phases == 0:  # disconnected: a zero cut along one component
            return _disconnected(state, res.partition)
        stats.phases = res.phases
        solver_value = res.value
        solver_block = (
            state.log.expand_block(res.partition)
            if config.want_partition and res.partition is not None
            else None
        )
        solver_prov = PROVENANCE_ORDERING
    elif config.solver == "bip":
        from .bip import SolveLimits, build_model, solve_relaxed, tableau_bytes

        labels = connected_components(h)
        if max(labels) != 0:
            return _disconnected(state, [v for v in range(h.vertex_count) if labels[v] == 0])
        model = build_model(h)
        state.peak_bytes = max(state.peak_bytes, storage_nbytes(h) + tableau_bytes(model))
        remaining = state.deadline.remaining() if state.deadline is not None else None
        sol = solve_relaxed(
            model,
            SolveLimits(time_limit=remaining, node_limit=config.bip_node_limit),
        )
        stats.status, stats.nodes, stats.pivots = sol.status, sol.nodes, sol.pivots
        solver_value = sol.value
        solver_block = (
            state.log.expand_block(sol.block)
            if config.want_partition and sol.block is not None
            else None
        )
        solver_prov = PROVENANCE_BIP
        if sol.status == "feasible-timeout":
            value = min(state.upper_bound, solver_value)
            if value == state.upper_bound:
                raise SolveTimeout(_trim_bound(state))
            raise SolveTimeout(CutResult(value=solver_value, partition=solver_block, provenance=solver_prov))
    else:
        raise ValueError(f"unknown residual solver: {config.solver!r}")

    if state.upper_bound < solver_value:
        return _trim_bound(state)
    return CutResult(value=solver_value, partition=solver_block, provenance=solver_prov)


def _disconnected(state: PipelineState, side) -> CutResult:
    """The zero cut of a disconnected residual; ``side`` is one component."""
    state.residual.status = "disconnected"
    block = state.log.expand_block(side) if state.config.want_partition else None
    return CutResult(value=0, partition=block, provenance=PROVENANCE_REDUCTION)


def _trim_bound(state: PipelineState) -> CutResult:
    return CutResult(
        value=state.upper_bound,
        partition=state.bound_block,
        provenance=PROVENANCE_TRIVIAL,
    )


def run_pipeline_detailed(
    h: Hypergraph,
    config: Optional[PipelineConfig] = None,
) -> Tuple[CutResult, PipelineState]:
    """Reduce, then solve the residue; returns the result plus run state."""
    if h.vertex_count < 2:
        raise ValueError("minimum cut needs at least two vertices")
    state = initial_state(h, config)
    if state.upper_bound == 0:
        state.stop_reason = "zero-bound"
        return _zero_result(state), state

    labels = connected_components(h)
    if max(labels) != 0:
        state.stop_reason = "zero-bound"
        block = None
        if state.config.want_partition:
            block = frozenset(v for v in range(h.vertex_count) if labels[v] == 0)
        return (
            CutResult(value=0, partition=block, provenance=PROVENANCE_REDUCTION),
            state,
        )

    result = _reduce_rounds(state)
    if result is None:
        result = _solve_residual(state)
    return result, state


def run_pipeline(h: Hypergraph, config: Optional[PipelineConfig] = None) -> CutResult:
    """Reduction rounds followed by the configured residual solver."""
    return run_pipeline_detailed(h, config)[0]
