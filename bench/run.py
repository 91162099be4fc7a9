"""Benchmark of ``hgcut solve`` on three workloads; see README.md.

    python3 bench/run.py --workload {bulk,cores,bip} --seed N --seconds S --trace {0,1}

Generates the workload's 40 inputs from the seed, computes the referee's
answer for each, measures set-up time, then runs ``solver.py`` in a child
process for S seconds and checks every op it ran.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DEADLINE_S = 170.0
SETUP_SPAWNS = 7
# The tail is the highest percentile with at least ten ops beyond it.
TAIL_BEYOND = 10
EXTRA_ARGS = {"bulk": [], "cores": [], "bip": ["--solver", "bip"]}
EXPECTED_LAYERS = {
    "bulk": ("cli", "hgraph", "reduce", "osolve"),
    "cores": ("cli", "hgraph", "reduce", "osolve"),
    "bip": ("cli", "hgraph", "reduce", "bip"),
}

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import layers  # noqa: E402
import referee  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing ``hgcut.cli``."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import hgcut.cli"],
            env=_child_env(), cwd=ROOT, check=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _certificate_value(inst, path: Path):
    """Re-score a written certificate with the referee's own cut code.

    Returns the cut value, None when no certificate was written, or the
    reason the certificate cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            block = json.load(fh)["block"]
        return referee.cut_of(inst, block)
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError) as exc:
        return f"bad certificate: {exc!r}"


def check_ops(insts, expected, min_degrees, parts, result) -> tuple:
    """Returns (attempted, failed, {op name: reason}) over every round; each
    round is judged with the certificate it wrote itself."""
    attempted = failed = 0
    reasons = {}
    for inst, exp, min_degree, part, res in zip(insts, expected, min_degrees, parts, result["ops"]):
        for r, (status, value) in enumerate(zip(res["status"], res["value"])):
            attempted += 1
            score = _certificate_value(inst, Path(f"{part}.{r}"))
            if isinstance(score, str):
                reason = score
            else:
                reason = referee.judge(exp, min_degree, status, value, score)
            if reason:
                failed += 1
                reasons[inst.name] = reason
    return attempted, failed, reasons


def tail(values: list) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def end_to_end(result, setup_s: float) -> dict:
    """Each op counts with its median time over the run's rounds.  The
    best of k would fall as k grows, and k is larger in faster runs."""
    per_op = [statistics.median(op["times"]) for op in result["ops"]]
    return {
        "setup_s": (setup_s, "s"),
        "solve_s.p50": (statistics.median(per_op), "s"),
        "solve_s.tail": (tail(per_op), "s"),
        "batch_s": (sum(per_op), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(result) -> dict:
    rounds = len(result["round_seconds"])
    out = {}
    for name, unit in layers.METRICS:
        sums = [sum(op["layers"][r][name] for op in result["ops"]) for r in range(rounds)]
        out[name] = (statistics.median(sums), unit)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "hgcut" / "cli.py").is_file():
        print(f"no hgcut sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        insts = gen.generate(args.workload, args.seed)
        ops, parts = [], []
        for inst in insts:
            path = work / f"{inst.name}.hgr"
            part = work / f"{inst.name}.part"
            gen.write_hmetis(inst, path)
            parts.append(part)
            ops.append({
                "argv": ["solve", str(path), *EXTRA_ARGS[args.workload]],
                "partition": str(part),
            })
        expected = [referee.expected_value(inst) for inst in insts]
        min_degrees = [int(referee.weighted_degrees(inst).min()) for inst in insts]
        setup_s = setup_seconds()

        manifest = work / "manifest.json"
        result_path = work / "result.json"
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"src": str(SRC), "ops": ops}, fh)
        cmd = [sys.executable, str(HERE / "solver.py"), str(manifest), str(result_path),
               "--seconds", str(args.seconds)]
        if args.trace:
            cmd.append("--trace")
        budget = max(10.0, DEADLINE_S - (time.perf_counter() - started))
        try:
            proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"solver did not finish within {budget:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"solver exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)

        attempted, failed, reasons = check_ops(insts, expected, min_degrees, parts, result)
        faults = {inst.name: inst.fault for inst in insts}
        for name, reason in sorted(reasons.items()):
            known = f" (known fault: {faults[name]})" if faults[name] else ""
            print(f"FAILED {name}: {reason}{known}", file=sys.stderr)
        # A failure counts against correctness unless the op is one the
        # program is known to fail on every seed.
        correct = all(faults[name] for name in reasons)

        if args.trace:
            metrics = per_layer(result)
            for layer in EXPECTED_LAYERS[args.workload]:
                if layer not in result["layers_seen"]:
                    print(f"NO SPAN: layer {layer!r} recorded no span on workload "
                          f"{args.workload!r}", file=sys.stderr)
        else:
            metrics = end_to_end(result, setup_s)
        print(f"rounds {len(result['round_seconds'])}, batch_s per round "
              f"{[round(s, 3) for s in result['round_seconds']]}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
