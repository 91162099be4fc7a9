"""Solving process of the benchmark: runs ``hgcut solve`` ops, nothing else.

    python3 bench/solver.py MANIFEST RESULT --seconds S [--trace]

MANIFEST (JSON) names the ``src`` directory to import ``hgcut`` from and
the ops, each an argument list for ``hgcut.cli.main``.  One warm-up op
runs first, untimed.  Then whole rounds over every op run, one op at a
time, while the next round is expected to end within S seconds (at least
one round).  ``gc.collect()`` runs before each op, outside the timed
region.  Round ``r`` passes ``--partition-out <partition>.<r>``, so every
round leaves its own certificate.  RESULT (JSON) receives per-op times
and outputs for every round, the peak RSS of this process and, with
``--trace``, per-op layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    src = os.path.realpath(manifest["src"])
    sys.path.insert(0, src)
    import hgcut.cli

    if not os.path.realpath(hgcut.cli.__file__).startswith(src + os.sep):
        print(f"hgcut imported from {hgcut.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)

    ops = manifest["ops"]
    solve = hgcut.cli.main

    def run(op, tag) -> tuple:
        argv = [*op["argv"], "--partition-out", f"{op['partition']}.{tag}"]
        out = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            solve(argv)
            elapsed = time.perf_counter() - t0
        return elapsed, json.loads(out.getvalue().strip().splitlines()[-1])

    run(ops[0], "warmup")
    if tracer is not None:
        tracer.take_op()

    results = [{"times": [], "status": [], "value": [], "layers": []} for _ in ops]
    round_seconds = []
    started = time.perf_counter()
    while True:
        batch = 0.0
        for op, res in zip(ops, results):
            elapsed, record = run(op, len(round_seconds))
            batch += elapsed
            res["times"].append(elapsed)
            res["status"].append(record["status"])
            res["value"].append(record["value"])
            if tracer is not None:
                res["layers"].append(layers.op_metrics(tracer.take_op(), elapsed, record))
        round_seconds.append(batch)
        spent = time.perf_counter() - started
        if spent + spent / len(round_seconds) > args.seconds:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    seen = sorted(tracer.layers_seen) if tracer is not None else []
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "round_seconds": round_seconds,
                "peak_rss_kb": peak_kb,
                "layers_seen": seen,
                "ops": results,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
