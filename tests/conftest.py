import random

import pytest

from hgcut import GenSpec, Hypergraph, random_hypergraph

RUN_RECORD_SCHEMA = {
    "type": "object",
    "required": [
        "instance", "algorithm", "value", "status", "reason",
        "runtime_ms", "peak_memory_bytes", "seed", "config", "round_stats",
        "stop_reason", "residual",
    ],
    "properties": {
        "instance": {"type": "string"},
        "algorithm": {"enum": ["heicut", "heicut-lp", "trimmer", "bip", "exact", "oracle"]},
        "value": {"type": ["number", "null"]},
        "status": {"enum": ["ok", "timeout-with-incumbent", "failed"]},
        "reason": {"type": ["string", "null"]},
        "runtime_ms": {"type": "number", "minimum": 0},
        "peak_memory_bytes": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer"},
        "config": {"type": "object"},
        "round_stats": {"type": ["array", "null"]},
        # pipeline algorithms only; null for the others
        "stop_reason": {"enum": ["fixpoint", "terminal", "zero-bound", "timeout", None]},
        "residual": {
            "type": ["object", "null"],
            "required": ["solver", "n", "m", "p", "status", "phases", "nodes", "pivots"],
            "properties": {
                "solver": {"enum": ["exact", "bip"]},
                "n": {"type": "integer", "minimum": 2},
                "m": {"type": "integer", "minimum": 0},
                "p": {"type": "integer", "minimum": 0},
                "status": {"enum": ["optimal", "feasible-timeout", "infeasible", "disconnected"]},
                "phases": {"type": ["integer", "null"], "minimum": 1},
                "nodes": {"type": ["integer", "null"], "minimum": 0},
                "pivots": {"type": ["integer", "null"], "minimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


def profile_fixture_records():
    """Three algorithms over five shared instances with hand-checkable
    value fractions: alpha always best, beta off by 2x once, gamma fails
    twice and is 3x off once."""
    records = []

    def rec(algo, inst, value, status="ok"):
        records.append(
            {
                "instance": inst,
                "algorithm": algo,
                "value": value,
                "status": status,
                "reason": None,
                "runtime_ms": 5.0,
                "peak_memory_bytes": 1000,
                "seed": 0,
                "config": {},
                "round_stats": None,
            }
        )

    for inst, value in zip("abcde", [10, 10, 10, 10, 10]):
        rec("alpha", f"i{inst}", value)
    for inst, value in zip("abcde", [10, 20, 10, 10, 10]):
        rec("beta", f"i{inst}", value)
    rec("gamma", "ia", 10)
    rec("gamma", "ib", None, status="failed")
    rec("gamma", "ic", None, status="failed")
    rec("gamma", "id", 10)
    rec("gamma", "ie", 30)
    return records


def random_instance(seed, *, unit=False, n_range=(4, 10), m_range=(3, 16), w_hi=8):
    """Seeded random connected instance used across the exactness suites."""
    rng = random.Random(seed)
    n = rng.randint(*n_range)
    m = rng.randint(*m_range)
    return random_hypergraph(
        GenSpec(
            vertex_count=n,
            edge_count=m,
            size_range=(2, min(4, n)),
            weight_range=(1, 1) if unit else (1, w_hi),
            seed=rng.randrange(2**30),
            ensure_connected=True,
        )
    )


def equality_case_instance() -> Hypergraph:
    """Two equal-weight two-pin edges meet at vertex 1 with its weighted
    degree exactly twice either edge; clusters hang off both ends through
    three-pin edges so no two-pin edge passes the strict test.  The true
    minimum cut (5) is below the smallest weighted degree (6)."""
    pins = [[0, 1], [1, 2], [3, 4, 5], [0, 3], [0, 4], [6, 7, 8], [2, 6], [2, 7], [5, 8]]
    weights = [3, 3, 4, 2, 2, 4, 2, 2, 2]
    return Hypergraph(9, pins, weights)


def two_cycle_union(n=16, step=5):
    """Two Hamiltonian cycles of unit two-pin edges on ``n`` vertices, one
    in id order and one jumping ``step`` ids (coprime to ``n``); 4-regular
    with minimum cut 4."""
    cycles = (list(range(n)), [(step * i) % n for i in range(n)])
    return Hypergraph(n, [[c[i], c[(i + 1) % n]] for c in cycles for i in range(n)])


@pytest.fixture
def triangle():
    return Hypergraph(3, [[0, 1], [1, 2], [0, 2]])


@pytest.fixture
def spanning_edge():
    return Hypergraph(4, [[0, 1, 2, 3]], [7])
