"""Per-layer spans for the traced run, recorded from outside the program.

``install`` replaces public functions of the ``hgcut`` modules with timing
wrappers by rebinding module attributes; nothing under ``src/`` changes.
Every module attribute bound to a wrapped function is rebound, so calls
through ``from .hgraph import contract_groups`` copies are caught too.

A span's self time is its duration minus the time of the spans it
encloses.  Layers are the modules: ``cli``, ``hgraph``, ``reduce``,
``osolve`` and ``bip``.  ``Tracer.take_op`` returns the sums for one
operation and starts the next from zero.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

RULES = (
    "singleton",
    "heavy-edge",
    "heavy-overlap",
    "nested-substructure",
    "imbalanced-vertex",
    "imbalanced-triangle",
    "heavy-neighborhood",
)

# Every per-layer metric, in report order.
METRICS = (
    ("cli.self_s", "s"),
    ("hgraph.parse_s", "s"),
    ("hgraph.pins_parsed", "count"),
    ("hgraph.contract_s", "s"),
    ("hgraph.contract_calls", "count"),
    ("hgraph.compact_s", "s"),
    ("hgraph.components_s", "s"),
    ("hgraph.cut_value_s", "s"),
    *((f"reduce.{r}.self_s", "s") for r in RULES),
    *((f"reduce.{r}.contracted", "count") for r in RULES),
    ("reduce.rounds", "count"),
    ("reduce.bound_s", "s"),
    ("reduce.residual_n", "count"),
    ("reduce.residual_p", "count"),
    ("reduce.solved_by_rules", "count"),
    ("osolve.ordering_s", "s"),
    ("osolve.rebuild_s", "s"),
    ("osolve.phases", "count"),
    ("bip.build_s", "s"),
    ("bip.solve_s", "s"),
    ("bip.rows", "count"),
    ("bip.vars", "count"),
)


class Tracer:
    """Span stack plus per-operation sums of times and counts."""

    def __init__(self) -> None:
        self._stack: list = []  # [name, child seconds] per open span
        self.sums: dict = defaultdict(float)
        self.layers_seen: set = set()

    def wrap(self, name: str, fn, *, self_time: bool = False, on_result=None):
        """Time ``fn`` as span ``name``; ``<name>_s`` receives its total or,
        with ``self_time``, its duration minus enclosed spans."""
        stack, sums, seen = self._stack, self.sums, self.layers_seen
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                sums[name + "_s"] += dt - frame[1] if self_time else dt
                seen.add(layer)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def take_op(self) -> dict:
        out = dict(self.sums)
        self.sums.clear()
        return out


def _rebind(original, replacement) -> None:
    """Point every ``hgcut`` module attribute bound to ``original`` at
    ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "hgcut" and not modname.startswith("hgcut."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported ``hgcut``."""
    import hgcut.bip as bip
    import hgcut.cli as cli
    import hgcut.hgraph as hgraph
    import hgcut.osolve as osolve
    import hgcut.reduce as reduce

    sums = tracer.sums

    def parsed(h):
        sums["hgraph.pins_parsed"] += h.pin_count

    def contracted(_):
        sums["hgraph.contract_calls"] += 1

    def pipeline_done(result):
        _, state = result
        sums["reduce.rounds"] += state.round_index
        sums["reduce.residual_n"] += state.current.vertex_count
        sums["reduce.residual_p"] += state.current.pin_count
        if "osolve.ordering_s" not in sums and "bip.solve_s" not in sums:
            sums["reduce.solved_by_rules"] += 1

    def rebuilt(_):
        sums["osolve.phases"] += 1

    def model_built(model):
        sums["bip.rows"] += model.num_rows
        sums["bip.vars"] += model.num_vars

    def contract_set(h, vertices, log=None):
        # Only rebuilds under the ordering solver count as osolve work.
        if tracer.inside("osolve.ordering"):
            return traced_set(h, vertices, log)
        return original_set(h, vertices, log)

    original_set = hgraph.contract_set
    traced_set = tracer.wrap("osolve.rebuild", original_set, on_result=rebuilt)

    plain = (
        (cli.load_hypergraph, "hgraph.parse", parsed),
        (cli.run_pipeline_detailed, "cli.pipeline", pipeline_done),
        (hgraph.contract_groups, "hgraph.contract", contracted),
        (hgraph.compact, "hgraph.compact", None),
        (hgraph.connected_components, "hgraph.components", None),
        (hgraph.cut_value, "hgraph.cut_value", None),
        (reduce.update_upper_bound, "reduce.bound", None),
        (bip.build_model, "bip.build", model_built),
    )
    for fn, name, hook in plain:
        _rebind(fn, tracer.wrap(name, fn, on_result=hook))
    _rebind(original_set, contract_set)
    _rebind(osolve.mincut_ordering, tracer.wrap("osolve.ordering", osolve.mincut_ordering, self_time=True))
    _rebind(bip.solve_relaxed, tracer.wrap("bip.solve", bip.solve_relaxed, self_time=True))
    reduce.RULE_ORDER = tuple(
        (name, tracer.wrap(f"reduce.{name}.self", rule, self_time=True))
        for name, rule in reduce.RULE_ORDER
    )


def op_metrics(sums: dict, op_seconds: float, record: dict) -> dict:
    """Per-operation values of every metric in ``METRICS``."""
    out = {name: 0.0 for name, _ in METRICS}
    for name in out:
        if name in sums:
            out[name] = sums[name]
    out["cli.self_s"] = op_seconds - sums.get("hgraph.parse_s", 0.0) - sums.get("cli.pipeline_s", 0.0)
    for entry in record.get("round_stats") or ():
        key = f"reduce.{entry['rule']}.contracted"
        if key in out:
            out[key] += entry["contractions"]
    return out
