"""Exact reduction rules and the contraction pipeline driver.

The pipeline keeps a running upper bound on the minimum cut: the smallest
weighted vertex degree seen on any hypergraph during the run (every such
degree is the value of the cut isolating that vertex).  Rules may contract
structure that provably cannot sit on a cut cheaper than the bound, so

    min(upper_bound, mincut(reduced)) == mincut(input)

holds after every rule application; the final answer folds the bound back
in.  Rounds apply the rules in ``RULE_ORDER``, each at most once per round.
A rule's outcome depends only on the current hypergraph and the bound, so
reduction stops at a fixpoint as soon as every rule in a row, counted
across round boundaries, has left both unchanged; it also stops when the
bound reaches zero or one vertex remains.  What remains goes to a
residual solver (exact ordering solver or the branch-and-bound
relaxation).

A rule asks for a contraction by collecting *links*: vertex tuples whose
members must end in one vertex (a heavy edge's pins or a pair), which may
overlap.  It hands them all to ``_contract``, which makes one
``contract_groups`` call; that call closes the links itself.  Label
propagation contracts the same way: ``_lp_contract`` groups one pass's
labels into clusters, refuses a pass that would leave a single vertex, and
hands the clusters to ``_contract`` as links.  ``heavy-overlap`` and
``imbalanced-vertex`` are tests over ``_incidence_scan``, the triangle rule
over the marked ``_pair_scan`` of the two-pin pairs.  The driver, not the
rule, records each call's effect in ``round_stats``.

No pass checks the input's connectivity.  Every link lies inside one
hyperedge or joins a pair that shares one, and label propagation spreads
labels only along hyperedges, so no contraction joins two components.  A
disconnected input stops at ``zero-bound`` once a component collapses to
a vertex of degree 0, or else at a fixpoint whose residual the solver step
finds disconnected.

No rule compacts the input.  Weighted degrees ignore one-pin edges, so the
first bound is a cut value.  ``heavy-edge`` reads parallel edges one by
one; the incidence scan sums them.  ``heavy-overlap`` and the triangle rule
read the two-pin pairs from ``Hypergraph.two_pin_pairs``, which each
hypergraph builds once.  Every ``contract_groups`` rebuild compacts, and
``_solve_residual`` compacts an input that no rule changed.  An input that
``heavy-edge`` alone collapses costs one rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ._limits import Deadline, SolveTimeout
from .hgraph import (
    ContractionLog,
    CutResult,
    Hypergraph,
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
    "rule_heavy_edge",
    "rule_heavy_overlap",
    "rule_imbalanced_vertex",
    "rule_imbalanced_triangle",
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
    time_limit: Optional[float] = None


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
    config: PipelineConfig
    # input vertices behind each current vertex; None unless a partition
    # is wanted
    log: Optional[ContractionLog] = None
    upper_bound: Weight = INF
    bound_block: Optional[frozenset] = None
    round_stats: List[RuleStats] = field(default_factory=list)
    round_index: int = 0
    peak_bytes: int = 0
    deadline: Deadline = field(default_factory=Deadline)
    # why reduction stopped: "fixpoint", "terminal" (one vertex left) or
    # "zero-bound" (a cut of weight 0 is known); None while running
    stop_reason: Optional[str] = None
    residual: Optional[ResidualStats] = None


def initial_state(h: Hypergraph, config: Optional[PipelineConfig] = None) -> PipelineState:
    config = config if config is not None else PipelineConfig()
    state = PipelineState(
        current=h,
        config=config,
        log=ContractionLog(h.vertex_count) if config.want_partition else None,
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
            if state.log is not None:
                v = wd.index(d)
                state.bound_block = frozenset(state.log.members_of_current(v))
    return state.upper_bound


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


def _contract(state: PipelineState, links: Sequence[Sequence[int]]) -> bool:
    """Contract each class of the closure of ``links`` into one vertex;
    False when no link joins two vertices."""
    if not links:
        return False
    h = contract_groups(state.current, links, state.log)
    if h is state.current:
        return False
    state.current = h
    update_upper_bound(state)
    return True


# -- the four rules -----------------------------------------------------------


def rule_heavy_edge(state: PipelineState) -> bool:
    """Contract hyperedges at least as heavy as the bound.

    Cutting such an edge costs no less than a cut already known, so its
    pins can merge.  Contractions merge parallel edges and may create new
    qualifying edges, so the scan repeats until none are left.  The
    deadline is checked before each step, so an expired one leaves the
    state as the last whole step left it.
    """
    applied = False
    while state.current.vertex_count > 1:
        _check_deadline(state)
        bound = state.upper_bound
        heavy = [pins for pins, w in state.current.edges() if w >= bound and len(pins) > 1]
        if not _contract(state, heavy):
            break
        applied = True
    return applied


def _incidence_scan(state: PipelineState, test: Callable[..., bool]) -> bool:
    """Contract every pair ``u < v`` that ``test(u, v, c, w2)`` accepts:
    ``c`` sums the edges holding both, ``w2`` the two-pin ``uv`` edges.  No
    vertex is marked.  The deadline is checked after every 4,096 scanned
    pins, before anything changes."""
    h = state.current
    edges = list(h.edges())
    links = []
    scanned = 0
    for u in range(h.vertex_count):
        shared, two = {}, {}
        for eid in h.incident(u):
            pins, w = edges[eid]
            scanned += len(pins)
            if scanned >= 4096:
                _check_deadline(state)
                scanned = 0
            if len(pins) > 2:
                for v in pins:
                    if v > u:
                        shared[v] = shared.get(v, 0) + w
            elif pins[-1] != u:  # pins are sorted: a two-pin edge to v > u
                v = pins[-1]
                two[v] = two.get(v, 0) + w
                shared[v] = shared.get(v, 0) + w
        for v, c in shared.items():
            if test(u, v, c, two.get(v, 0)):
                links.append((u, v))
    return _contract(state, links)


def rule_heavy_overlap(state: PipelineState) -> bool:
    """Contract a pair when ``c + N(u, v)`` reaches the bound, with ``c`` as
    in ``_incidence_scan`` and ``N(u, v)`` the sum of ``min(w(ux), w(vx))``
    over the common two-pin neighbours ``x`` of a pair with ``w2 > 0``
    (Padberg-Rinaldi test 4).  A cut separating the pair cuts every edge
    holding both and, for each such ``x``, ``ux`` or ``vx``; these edges are
    all distinct, so no such cut beats the bound.  That holds for every
    pair at once, so nothing is marked.  ``N`` is summed only when ``c``
    falls short; the deadline is checked after every 4,096 of its
    neighbour entries, before anything changes."""
    bound = state.upper_bound
    neighbors = state.current.two_pin_pairs()[1]
    scanned = 0

    def test(u, v, c, w2):
        nonlocal scanned
        if c >= bound or not w2:
            return c >= bound
        nu, nv = neighbors[u], neighbors[v]
        scanned += min(len(nu), len(nv))
        if scanned >= 4096:
            _check_deadline(state)
            scanned = 0
        return c + sum(min(nu[x], nv[x]) for x in nu.keys() & nv.keys()) >= bound

    return _incidence_scan(state, test)


def _pair_scan(state: PipelineState, test: Callable[..., bool]) -> bool:
    """One marked pass over the two-pin pairs, in edge order: contract each
    pair ``(u, v)`` of weight ``w_uv`` with both endpoints unmarked that
    ``test(u, v, w_uv, nu, nv)`` accepts, and mark both.  ``nu`` and ``nv``
    map each endpoint's two-pin neighbours to the pair's weight (see
    ``Hypergraph.two_pin_pairs``).  The deadline is checked after every
    4,096 scanned neighbour entries, before anything changes."""
    pair_w, neighbors = state.current.two_pin_pairs()
    marked = bytearray(state.current.vertex_count)
    links = []
    scanned = 0
    for (u, v), w_uv in pair_w.items():
        if marked[u] or marked[v]:
            continue
        nu, nv = neighbors[u], neighbors[v]
        scanned += min(len(nu), len(nv))
        if scanned >= 4096:
            _check_deadline(state)
            scanned = 0
        if test(u, v, w_uv, nu, nv):
            links.append((u, v))
            marked[u] = marked[v] = 1
    return _contract(state, links)


def rule_imbalanced_vertex(state: PipelineState) -> bool:
    """Contract a pair joined by two-pin edges when ``c + w2 > d(u)`` for an
    endpoint ``u`` (``c`` and ``w2`` as in ``_incidence_scan``).  Moving
    ``u`` across a cut that separates the pair newly cuts at most
    ``d(u) - c`` and uncuts the two-pin edges, so the cut gets strictly
    cheaper unless it is ``{u}``, which the bound holds.  That holds for
    every pair at once, so nothing is marked.  At equality a separating cut
    may tie, and tied pairs sharing a vertex can lose every minimum cut.
    """
    wdeg = state.current.weighted_degrees()
    return _incidence_scan(state, lambda u, v, c, w2: w2 > 0 and c + w2 > min(wdeg[u], wdeg[v]))


def rule_imbalanced_triangle(state: PipelineState) -> bool:
    """Contract a two-pin edge inside a triangle of two-pin edges when both
    endpoints' degrees are at most twice their two triangle edges combined
    (Padberg-Rinaldi test 3).

    Non-strict, with per-pass vertex marking.  A cut separating the
    endpoints leaves one of them apart from the triangle's third vertex;
    moving that endpoint across uncuts both of its triangle edges, so the
    cut does not get dearer.  Either endpoint may be the one apart, so the
    test must hold for both.  Only trivial cuts can be lost, and those are
    already folded into the running bound.
    """
    wdeg = state.current.weighted_degrees()

    def test(u, v, w_uv, nu, nv):
        for x in nu.keys() & nv.keys():
            if wdeg[u] <= 2 * (w_uv + nu[x]) and wdeg[v] <= 2 * (w_uv + nv[x]):
                return True
        return False

    return _pair_scan(state, test)


RULE_ORDER: Tuple[Tuple[str, Callable[[PipelineState], bool]], ...] = (
    ("heavy-edge", rule_heavy_edge),
    ("heavy-overlap", rule_heavy_overlap),
    ("imbalanced-vertex", rule_imbalanced_vertex),
    ("imbalanced-triangle", rule_imbalanced_triangle),
)


# -- pipeline driver ----------------------------------------------------------


def _lp_contract(state: PipelineState) -> bool:
    """Contract the clusters of one label-propagation pass; refuses to
    leave one vertex, since the heuristic must never erase every cut."""
    from .lpcluster import propagate_once

    seed = (state.config.seed * 1_000_003 + state.round_index * 101) & 0x7FFFFFFF
    classes: dict = {}
    for v, label in enumerate(propagate_once(state.current, seed=seed)):
        classes.setdefault(label, []).append(v)
    if len(classes) < 2:
        return False
    return _contract(state, [c for c in classes.values() if len(c) > 1])


def _result(state: PipelineState, provenance: str, value=None, side=None) -> CutResult:
    """A cut of the input: by default the running bound and the block that
    certifies it.  A cut of the current hypergraph passes its ``value``
    and its side as current ids, which the log expands to input vertices;
    the zero cuts pass ``value`` as the int 0 (a float bound of 0.0 would
    print otherwise)."""
    block = state.bound_block
    if side is not None:
        block = state.log.expand_block(side) if state.log is not None else None
    return CutResult(
        value=state.upper_bound if value is None else value,
        partition=block,
        provenance=provenance,
    )


def _check_deadline(state: PipelineState) -> None:
    if state.deadline.expired():
        raise SolveTimeout(_result(state, PROVENANCE_TRIVIAL) if state.upper_bound < INF else None)


def _reduce_rounds(state: PipelineState) -> Optional[CutResult]:
    """Rounds of label propagation (with ``use_lp``, while more than two
    vertices remain) and then the rules in ``RULE_ORDER``.  Each step checks
    the deadline first and the stop conditions after; label propagation
    never counts toward the fixpoint."""
    unchanged = 0  # rule calls in a row that changed neither graph nor bound
    while True:
        state.round_index += 1
        steps = RULE_ORDER
        if state.config.use_lp and state.current.vertex_count > 2:
            steps = (("label-propagation", _lp_contract),) + steps
        for name, step in steps:
            _check_deadline(state)
            before = state.current
            if step(state):
                unchanged = 0
            elif step is not _lp_contract:
                unchanged += 1
            _note(state, name, before)
            if state.upper_bound == 0:
                state.stop_reason = "zero-bound"
                return _result(state, PROVENANCE_TRIVIAL, 0)
            if state.current.vertex_count == 1:
                state.stop_reason = "terminal"
                return _result(state, PROVENANCE_REDUCTION)
            if unchanged == len(RULE_ORDER):
                state.stop_reason = "fixpoint"
                return None


def _solve_residual(state: PipelineState) -> CutResult:
    """Solve what reduction left and return the better of the running
    bound and the solver's cut, ties to the solver's cut.  A solver whose
    deadline expires raises ``SolveTimeout`` with its best cut or None;
    the better of that and the bound is raised the same way.  The run's
    one connectivity check is on the residual: ``mincut_ordering`` makes
    it itself, and only the binary program needs it here.  The residual is
    compacted first, since an input that no rule changed may still hold
    one-pin, zero-weight or parallel edges."""
    from .osolve import mincut_ordering

    config = state.config
    state.current = compact(state.current)
    h = state.current
    stats = ResidualStats(
        solver=config.solver, n=h.vertex_count, m=h.edge_count, p=h.pin_count, status="optimal"
    )
    state.residual = stats

    try:
        if config.solver == "exact":
            res = mincut_ordering(h, state.deadline)
            if res.phases == 0:  # disconnected: a zero cut along one component
                stats.status = "disconnected"
                return _result(state, PROVENANCE_REDUCTION, 0, res.partition)
            stats.phases = res.phases
        elif config.solver == "bip":
            from .bip import build_model, solve_relaxed, tableau_bytes

            labels = connected_components(h)
            if max(labels) != 0:
                stats.status = "disconnected"
                return _result(state, PROVENANCE_REDUCTION, 0, (v for v, c in enumerate(labels) if c == 0))
            model = build_model(h)
            state.peak_bytes = max(state.peak_bytes, storage_nbytes(h) + tableau_bytes(model))
            res = solve_relaxed(model, state.deadline)
            stats.nodes, stats.pivots = res.nodes, res.pivots
        else:
            raise ValueError(f"unknown residual solver: {config.solver!r}")
    except SolveTimeout as exc:
        raise SolveTimeout(_better(state, exc.best)) from None
    return _better(state, res)


def _better(state: PipelineState, res: Optional[CutResult]) -> CutResult:
    """The running bound or the solver's cut ``res``, whichever is smaller."""
    if res is None or state.upper_bound < res.value:
        return _result(state, PROVENANCE_TRIVIAL)
    return _result(state, res.provenance, res.value, res.partition)


def run_pipeline_detailed(
    h: Hypergraph,
    config: Optional[PipelineConfig] = None,
) -> Tuple[CutResult, PipelineState]:
    """Reduce, then solve the residue; returns the result plus run state.
    A ``SolveTimeout`` leaves with the state in its ``state``.  The input's
    connectivity is never checked (see the module notes)."""
    if h.vertex_count < 2:
        raise ValueError("minimum cut needs at least two vertices")
    state = initial_state(h, config)
    if state.upper_bound == 0:
        state.stop_reason = "zero-bound"
        return _result(state, PROVENANCE_TRIVIAL, 0), state

    try:
        result = _reduce_rounds(state)
        if result is None:
            result = _solve_residual(state)
    except SolveTimeout as exc:
        exc.state = state
        raise
    return result, state


def run_pipeline(h: Hypergraph, config: Optional[PipelineConfig] = None) -> CutResult:
    """Reduction rounds followed by the configured residual solver."""
    return run_pipeline_detailed(h, config)[0]
