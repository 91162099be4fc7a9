"""Near-optimal minimum cuts for weighted and unweighted hypergraphs.

Exact cut-preserving reductions shrink the instance, a residual solver
(maximum-adjacency ordering or relaxed binary program) finishes it, and a
brute-force oracle, a certificate-trimming baseline, and benchmark
generators round out the toolkit.

The binary program (``bip``) and the oracle are the only users of numpy;
their names are imported on first access, so ``import hgcut`` does not
load numpy.
"""

from importlib import import_module

from ._limits import Deadline, SolveTimeout
from .hgraph import (
    ContractionLog,
    CutResult,
    Hypergraph,
    compact,
    connected_components,
    contract_groups,
    contract_set,
    cut_value,
    format_hmetis,
    load_hypergraph,
    parse_hmetis,
    save_hypergraph,
)
from .lpcluster import Clustering, contract_clusters, propagate_once, score
from .osolve import MaOrdering, ma_ordering, mincut_ordering, phase_cut_values
from .reduce import PipelineConfig, PipelineState, run_pipeline, run_pipeline_detailed
from .synth import GenSpec, find_benchmark_core, k2_core, random_hypergraph, randomize_weights
from .trimmer import (
    BackwardLists,
    HeadOrdering,
    backward_lists,
    compute_head_ordering,
    construct_certificate,
    trimmer_mincut,
)

__version__ = "0.1.0"

# Names re-exported from the numpy-backed modules, by module.
_LAZY = {
    **dict.fromkeys(
        ("BipModel", "RelaxedSolution", "SolveLimits", "build_model", "export_lp", "solve_relaxed"),
        "bip",
    ),
    **dict.fromkeys(("brute_mincut", "brute_st_mincut"), "oracle"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "BackwardLists",
    "BipModel",
    "Clustering",
    "ContractionLog",
    "CutResult",
    "Deadline",
    "GenSpec",
    "HeadOrdering",
    "Hypergraph",
    "MaOrdering",
    "PipelineConfig",
    "PipelineState",
    "RelaxedSolution",
    "SolveLimits",
    "SolveTimeout",
    "backward_lists",
    "brute_mincut",
    "brute_st_mincut",
    "build_model",
    "compact",
    "compute_head_ordering",
    "connected_components",
    "construct_certificate",
    "contract_clusters",
    "contract_groups",
    "contract_set",
    "cut_value",
    "export_lp",
    "find_benchmark_core",
    "format_hmetis",
    "k2_core",
    "load_hypergraph",
    "ma_ordering",
    "mincut_ordering",
    "parse_hmetis",
    "phase_cut_values",
    "propagate_once",
    "random_hypergraph",
    "randomize_weights",
    "run_pipeline",
    "run_pipeline_detailed",
    "save_hypergraph",
    "score",
    "solve_relaxed",
    "trimmer_mincut",
]
