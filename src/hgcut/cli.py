"""Command-line entry point: solve instances, build profiles, generate data.

``solve`` runs one algorithm on one hMetis file and prints a single-line
JSON run record.  ``profile`` aggregates many such records into the
within-factor-tau fractions used to compare solvers.  ``gen`` produces
random instances, re-weighted copies, and peeled benchmark cores.

Each command imports the modules it needs when it runs: the ``bip`` and
``oracle`` algorithms load numpy, and the other commands never do.

Peak memory in run records is a deterministic estimate from an internal
size counter (see ``hgraph.storage_nbytes``), not OS-level RSS; exit
status is 0 exactly when a record reports ``ok`` or
``timeout-with-incumbent``.  A load or a solve that runs out of memory
ends as a ``failed`` record with a reason, not a traceback.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from dataclasses import asdict
from typing import Optional

from ._limits import DEFAULT_MAX_VERTICES, Deadline, SolveTimeout
from .hgraph import load_hypergraph, save_hypergraph, storage_nbytes
from .reduce import PipelineConfig, run_pipeline_detailed

ALGORITHMS = ("heicut", "heicut-lp", "trimmer", "bip", "exact", "oracle")

OK = "ok"
TIMEOUT = "timeout-with-incumbent"
FAILED = "failed"


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
        fh.write(json.dumps({"value": value, "block": sorted(block)}) + "\n")


def cmd_solve(args) -> int:
    started = time.perf_counter()
    algo = args.algo
    config = {"algo": algo, "solver": args.solver, "seed": args.seed, "time_limit": args.time_limit}

    def fail(reason: str) -> int:
        _emit(_record(args.instance, algo, args.seed, config, started, FAILED, reason=reason))
        return 1

    try:
        h = load_hypergraph(args.instance)
    except (OSError, ValueError) as exc:
        return fail(str(exc))
    except MemoryError:
        return fail("out of memory while loading the instance")

    want_partition = args.partition_out is not None
    status, state = OK, None
    peak = storage_nbytes(h)

    try:
        if algo in ("heicut", "heicut-lp"):
            pipeline = PipelineConfig(
                use_lp=(algo == "heicut-lp"),
                seed=args.seed,
                solver=args.solver,
                want_partition=want_partition,
                time_limit=args.time_limit,
            )
            res, state = run_pipeline_detailed(h, pipeline)
        elif algo == "trimmer":
            from .trimmer import trimmer_mincut

            peak = 2 * storage_nbytes(h)
            res = trimmer_mincut(h, seed=args.seed, deadline=Deadline(args.time_limit))
        elif algo == "bip":
            from .bip import build_model, solve_relaxed, tableau_bytes

            model = build_model(h)
            peak = storage_nbytes(h) + tableau_bytes(model)
            res = solve_relaxed(model, Deadline(args.time_limit))
        elif algo == "exact":
            from .osolve import mincut_ordering

            peak = 2 * storage_nbytes(h)
            res = mincut_ordering(h, Deadline(args.time_limit))
        elif algo == "oracle":
            from .oracle import brute_mincut

            peak = storage_nbytes(h) + 8 * (1 << max(0, h.vertex_count - 1))
            res = brute_mincut(h, max_vertices=args.max_enumeration)
        else:
            return fail(f"unknown algorithm: {algo}")
    except SolveTimeout as exc:
        if exc.best is None:
            return fail("time limit exceeded before any solution was found")
        # a pipeline timeout carries the run state up to that point
        res, state, status = exc.best, exc.state, TIMEOUT
    except (ValueError, ArithmeticError) as exc:
        return fail(str(exc))
    except MemoryError:
        return fail("out of memory while solving")

    round_stats = stop_reason = residual = None
    if state is not None:
        peak = state.peak_bytes
        round_stats = [dict(vars(s)) for s in state.round_stats]
        if status == TIMEOUT:
            stop_reason = "timeout"
        else:
            stop_reason = state.stop_reason
            residual = dict(vars(state.residual)) if state.residual is not None else None
    if want_partition and res.partition is not None:
        _write_partition(args.partition_out, res.value, res.partition)
    _emit(
        _record(
            args.instance, algo, args.seed, config, started, status,
            value=res.value, peak_memory_bytes=peak, round_stats=round_stats,
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
        return rec[metric]

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

    import csv

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
    from .synth import GenSpec, find_benchmark_core, random_hypergraph, randomize_weights

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
            k, core, value = found
            save_hypergraph(core, args.out)
            _sidecar(
                args.out,
                {
                    "kind": "kcore",
                    "source": args.input,
                    "k": k,
                    "mincut": value,
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
    solve.add_argument("--solver", choices=("exact", "bip"), default="exact", help="residual solver")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--time-limit", type=float, default=None, help="seconds")
    solve.add_argument("--partition-out", default=None, help="write the cut partition as JSON")
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
    gen.add_argument("--connected", action="store_true")
    gen.add_argument("--weights", type=int, nargs=2, default=None, metavar=("LO", "HI"),
                     help="redraw every hyperedge weight of an existing instance")
    gen.add_argument("--kcore", action="store_true", default=None,
                     help="extract the smallest peeled core with a nontrivial cut")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
