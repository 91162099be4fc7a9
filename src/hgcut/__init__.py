"""Near-optimal minimum cuts for weighted and unweighted hypergraphs.

Exact cut-preserving reductions shrink the instance, a residual solver
(maximum-adjacency ordering or relaxed binary program) finishes it, and a
brute-force oracle, a certificate-trimming baseline, and benchmark
generators round out the toolkit.

Every public name is imported on first access, so ``import hgcut`` loads
no submodule; the binary program (``bip``) and the oracle are the only
users of numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every re-exported name, by module.  Names resolve on first access, so
# ``import hgcut.cli`` loads only the modules the command line needs, and
# numpy stays unloaded until ``bip`` or ``oracle`` is asked for.
_LAZY = {
    **dict.fromkeys(("Deadline", "SolveTimeout"), "_limits"),
    **dict.fromkeys(
        (
            "ContractionLog", "CutResult", "Hypergraph", "compact", "connected_components",
            "contract_groups", "contract_set", "cut_value", "format_hmetis", "load_hypergraph",
            "parse_hmetis", "save_hypergraph",
        ),
        "hgraph",
    ),
    **dict.fromkeys(("propagate_once", "score"), "lpcluster"),
    **dict.fromkeys(("MaOrdering", "ma_ordering", "mincut_ordering", "phase_cut_values"), "osolve"),
    **dict.fromkeys(("PipelineConfig", "PipelineState", "run_pipeline", "run_pipeline_detailed"), "reduce"),
    **dict.fromkeys(
        ("GenSpec", "find_benchmark_core", "k2_core", "random_hypergraph", "randomize_weights"), "synth"
    ),
    **dict.fromkeys(
        (
            "HeadOrdering", "backward_lists", "compute_head_ordering", "construct_certificate",
            "trimmer_mincut",
        ),
        "trimmer",
    ),
    **dict.fromkeys(
        ("BipModel", "RelaxedSolution", "build_model", "export_lp", "solve_relaxed"),
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


__all__ = sorted(_LAZY)
