"""Command-line entry point: solve instances, build profiles, generate data.

``solve`` runs one algorithm on one hMetis file and prints a single-line
JSON run record.  ``profile`` aggregates many such records into the
within-factor-tau fractions used to compare solvers.  ``gen`` produces
random instances, re-weighted copies, and peeled benchmark cores.

Peak memory in run records is a deterministic estimate from an internal
size counter (see ``hgraph.storage_nbytes``), not OS-level RSS; exit
status is 0 exactly when a record reports ``ok`` or
``timeout-with-incumbent``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict
from typing import Optional

from ._limits import Deadline, SolveTimeout
from .bip import SolveLimits, build_model, solve_relaxed, tableau_bytes
from .hgraph import load_hypergraph, save_hypergraph, storage_nbytes
from .oracle import DEFAULT_MAX_VERTICES, brute_mincut
from .osolve import mincut_ordering
from .reduce import PipelineConfig, run_pipeline_detailed
from .synth import GenSpec, find_benchmark_core, random_hypergraph, randomize_weights
from .trimmer import trimmer_mincut

ALGORITHMS = ("heicut", "heicut-lp", "trimmer", "bip", "exact", "oracle")

OK = "ok"
TIMEOUT = "timeout-with-incumbent"
FAILED = "failed"


def _parse_fmt_code(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            s = raw.strip()
            if not s or s.startswith("%"):
                continue
            head = s.split()
            return head[2] if len(head) == 3 else "0"
    return "0"


def _emit(record: dict) -> None:
    print(json.dumps(record, separators=(",", ":"), sort_keys=False))


def _record(
    instance: str,
    algorithm: str,
    seed: int,
    config: dict,
    started: float,
    status: str,
    value=None,
    reason: Optional[str] = None,
    peak_memory_bytes: int = 0,
    round_stats=None,
    stop_reason: Optional[str] = None,
    residual: Optional[dict] = None,
) -> dict:
    return {
        "instance": instance,
        "algorithm": algorithm,
        "value": value,
        "status": status,
        "reason": reason,
        "runtime_ms": (time.perf_counter() - started) * 1000.0,
        "peak_memory_bytes": int(peak_memory_bytes),
        "seed": seed,
        "config": config,
        "round_stats": round_stats,
        "stop_reason": stop_reason,
        "residual": residual,
    }


def _write_partition(path, value, block) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"value": value, "block": sorted(block)}, fh)
        fh.write("\n")


def _write_round_stats(path, round_stats) -> None:
    """One JSON line per rule application, for remaining-edges reports."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in round_stats:
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")


def cmd_solve(args) -> int:
    started = time.perf_counter()
    algo = args.algo
    if algo == "heicut" and args.use_lp:
        algo = "heicut-lp"
    config = {
        "algo": algo,
        "solver": args.solver,
        "seed": args.seed,
        "time_limit": args.time_limit,
        "mode": args.mode,
    }

    def fail(reason: str) -> int:
        _emit(_record(args.instance, algo, args.seed, config, started, FAILED, reason=reason))
        return 1

    try:
        h = load_hypergraph(args.instance)
    except (OSError, ValueError) as exc:
        return fail(str(exc))

    want_partition = args.partition_out is not None
    pipeline_algo = algo in ("heicut", "heicut-lp")
    round_stats = stop_reason = residual = None
    peak = storage_nbytes(h)

    try:
        if pipeline_algo:
            pipeline = PipelineConfig(
                use_lp=(algo == "heicut-lp"),
                seed=args.seed,
                solver=args.solver,
                want_partition=want_partition,
                time_limit=args.time_limit,
            )
            result, state = run_pipeline_detailed(h, pipeline)
            value, block = result.value, result.partition
            round_stats = [asdict(s) for s in state.round_stats]
            stop_reason = state.stop_reason
            residual = asdict(state.residual) if state.residual is not None else None
            peak = state.peak_bytes
        elif algo == "trimmer":
            fmt = _parse_fmt_code(args.instance)
            if fmt in ("1", "11"):
                return fail("unweighted only: input file carries edge weights")
            res = trimmer_mincut(h, seed=args.seed, deadline=Deadline(args.time_limit))
            value, block = res.value, res.partition
            peak = 2 * storage_nbytes(h)
        elif algo == "bip":
            model = build_model(h, mode=args.mode)
            sol = solve_relaxed(model, SolveLimits(time_limit=args.time_limit))
            value, block = sol.value, sol.block
            peak = storage_nbytes(h) + tableau_bytes(model)
            if sol.status == "feasible-timeout":
                if want_partition and block is not None:
                    _write_partition(args.partition_out, value, block)
                _emit(
                    _record(
                        args.instance, algo, args.seed, config, started, TIMEOUT,
                        value=value, peak_memory_bytes=peak,
                    )
                )
                return 0
        elif algo == "exact":
            res = mincut_ordering(h, Deadline(args.time_limit))
            value, block = res.value, res.partition
            peak = 2 * storage_nbytes(h)
        elif algo == "oracle":
            res = brute_mincut(h, max_vertices=args.max_enumeration)
            value, block = res.value, res.partition
            peak = storage_nbytes(h) + 8 * (1 << max(0, h.vertex_count - 1))
        else:
            return fail(f"unknown algorithm: {algo}")
    except SolveTimeout as exc:
        if exc.best is None:
            return fail("time limit exceeded before any solution was found")
        if want_partition and exc.best.partition is not None:
            _write_partition(args.partition_out, exc.best.value, exc.best.partition)
        _emit(
            _record(
                args.instance, algo, args.seed, config, started, TIMEOUT,
                value=exc.best.value, peak_memory_bytes=peak, round_stats=round_stats,
                stop_reason="timeout" if pipeline_algo else None,
            )
        )
        return 0
    except (ValueError, ArithmeticError) as exc:
        return fail(str(exc))

    if want_partition and block is not None:
        _write_partition(args.partition_out, value, block)
    if args.stats_out and round_stats is not None:
        _write_round_stats(args.stats_out, round_stats)
    _emit(
        _record(
            args.instance, algo, args.seed, config, started, OK,
            value=value, peak_memory_bytes=peak, round_stats=round_stats,
            stop_reason=stop_reason, residual=residual,
        )
    )
    return 0


# -- profiles -------------------------------------------------------------------

_METRICS = ("value", "runtime_ms", "peak_memory_bytes")


def profile_fractions(records, metric: str):
    """Per-algorithm fraction of instances within factor tau of the best.

    Returns (taus, {algorithm: [fraction at each tau]}).  Failed runs never
    enter a curve; the plateau of each curve is that algorithm's success
    rate.  A best value of zero admits only exact matches.
    """
    by_algo: dict = {}
    instances = set()
    for rec in records:
        by_algo.setdefault(rec["algorithm"], {})[rec["instance"]] = rec
        instances.add(rec["instance"])
    for algo, runs in by_algo.items():
        if set(runs) != instances:
            missing = sorted(instances - set(runs))
            raise ValueError(
                f"instance sets differ: algorithm {algo!r} lacks {missing[:3]}"
            )

    def quality(rec):
        if rec["status"] not in (OK, TIMEOUT):
            return None
        return rec[metric] if metric != "value" else rec["value"]

    best: dict = {}
    for inst in instances:
        vals = [
            q
            for runs in by_algo.values()
            if (q := quality(runs[inst])) is not None
        ]
        best[inst] = min(vals) if vals else None

    ratios: dict = {}
    for algo, runs in by_algo.items():
        rs = []
        for inst in instances:
            q = quality(runs[inst])
            b = best[inst]
            if q is None or b is None:
                rs.append(None)
            elif b == 0:
                rs.append(1.0 if q == 0 else None)
            else:
                rs.append(q / b)
        ratios[algo] = rs

    taus = sorted({r for rs in ratios.values() for r in rs if r is not None} | {1.0})
    total = len(instances)
    curves = {
        algo: [
            sum(1 for r in rs if r is not None and r <= tau + 1e-12) / total
            for tau in taus
        ]
        for algo, rs in ratios.items()
    }
    return taus, curves


def cmd_profile(args) -> int:
    records = []
    try:
        with open(args.records, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    print(f"line {lineno}: bad record: {exc}", file=sys.stderr)
                    return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not records:
        print("no records", file=sys.stderr)
        return 2

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["metric", "algorithm", "tau", "fraction"])
    try:
        for metric in _METRICS:
            taus, curves = profile_fractions(records, metric)
            for algo in sorted(curves):
                for tau, frac in zip(taus, curves[algo]):
                    writer.writerow([metric, algo, f"{tau:.6g}", f"{frac:.6g}"])
    except (ValueError, KeyError, TypeError) as exc:
        print(f"bad records: {exc!r}", file=sys.stderr)
        return 2

    text = out.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- generation -----------------------------------------------------------------


def _sidecar(path, payload: dict) -> None:
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen(args) -> int:
    modes = [bool(args.random), args.weights is not None, args.kcore is not None]
    if sum(modes) != 1:
        print("choose exactly one of --random, --weights, --kcore", file=sys.stderr)
        return 2
    try:
        if args.random:
            if args.out is None:
                print("--out is required with --random", file=sys.stderr)
                return 2
            spec = GenSpec(
                vertex_count=args.n,
                edge_count=args.m,
                size_range=tuple(args.sizes),
                weight_range=tuple(args.edge_weights),
                vertex_weight_range=tuple(args.vertex_weights),
                seed=args.seed,
                ensure_connected=args.connected,
            )
            h = random_hypergraph(spec)
            save_hypergraph(h, args.out)
            _sidecar(
                args.out,
                {
                    "kind": "random",
                    "spec": asdict(spec),
                    "n": h.vertex_count,
                    "m": h.edge_count,
                    "p": h.pin_count,
                },
            )
        elif args.weights is not None:
            if args.input is None or args.out is None:
                print("--weights needs an input file and --out", file=sys.stderr)
                return 2
            lo, hi = args.weights
            h = load_hypergraph(args.input)
            h = randomize_weights(h, lo, hi, seed=args.seed)
            save_hypergraph(h, args.out)
            _sidecar(
                args.out,
                {
                    "kind": "reweighted",
                    "source": args.input,
                    "weight_range": [lo, hi],
                    "seed": args.seed,
                },
            )
        else:
            if args.input is None or args.out is None:
                print("--kcore needs an input file and --out", file=sys.stderr)
                return 2
            h = load_hypergraph(args.input)
            found = find_benchmark_core(h)
            if found is None:
                print("no core with a cut below its smallest weighted degree", file=sys.stderr)
                return 1
            k, core = found
            save_hypergraph(core, args.out)
            _sidecar(
                args.out,
                {
                    "kind": "kcore",
                    "source": args.input,
                    "k": k,
                    "mincut": mincut_ordering(core).value,
                    "min_weighted_degree": core.min_weighted_degree(),
                    "n": core.vertex_count,
                    "m": core.edge_count,
                    "weights": "inherited from input; reweight after peeling if desired",
                },
            )
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


# -- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgcut",
        description="Near-optimal minimum cuts for weighted and unweighted hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance, print a JSON run record")
    solve.add_argument("instance", help="hMetis-format hypergraph file")
    solve.add_argument("--algo", choices=ALGORITHMS, default="heicut")
    solve.add_argument("--use-lp", action="store_true", help="enable label-propagation contraction")
    solve.add_argument("--solver", choices=("exact", "bip"), default="exact", help="residual solver")
    solve.add_argument("--mode", choices=("pairwise", "representative"), default="pairwise")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--time-limit", type=float, default=None, help="seconds")
    solve.add_argument("--partition-out", default=None, help="write the cut partition as JSON")
    solve.add_argument("--stats-out", default=None,
                       help="write per-rule reduction statistics as JSON lines")
    solve.add_argument("--max-enumeration", type=int, default=DEFAULT_MAX_VERTICES)
    solve.set_defaults(func=cmd_solve)

    profile = sub.add_parser("profile", help="aggregate JSONL run records into profile CSV")
    profile.add_argument("records", help="JSONL file of run records over a shared instance set")
    profile.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    profile.set_defaults(func=cmd_profile)

    gen = sub.add_parser("gen", help="generate benchmark instances")
    gen.add_argument("input", nargs="?", default=None, help="input file for --weights/--kcore")
    gen.add_argument("--random", action="store_true", help="draw a random hypergraph")
    gen.add_argument("-n", type=int, default=16, help="vertex count for --random")
    gen.add_argument("-m", type=int, default=24, help="hyperedge count for --random")
    gen.add_argument("--sizes", type=int, nargs=2, default=(2, 4), metavar=("MIN", "MAX"))
    gen.add_argument("--edge-weights", type=int, nargs=2, default=(1, 1), metavar=("LO", "HI"))
    gen.add_argument("--vertex-weights", type=int, nargs=2, default=(1, 1), metavar=("LO", "HI"))
    gen.add_argument("--connected", action="store_true")
    gen.add_argument("--weights", type=int, nargs=2, default=None, metavar=("LO", "HI"),
                     help="redraw all weights of an existing instance")
    gen.add_argument("--kcore", action="store_true", default=None,
                     help="extract the smallest peeled core with a nontrivial cut")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
