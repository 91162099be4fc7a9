"""Binary program for the minimum cut: model build, LP export, and solve.

The model has one binary variable per vertex (block membership) and one
per hyperedge (cut indicator); the objective is the total weight of cut
hyperedges.  Two rows keep both blocks non-empty.  Each hyperedge ``e``
compares its other pins with its first pin ``r``: for each other pin
``u``, ``y_e >= x_u - x_r`` and ``y_e >= x_r - x_u``, so ``2(|e| - 1)``
rows in all.  With integral ``x`` some pin differs from ``r`` exactly
when two pins land in different blocks, so the rows force ``y_e`` up
exactly when ``e`` is cut.

The pure LP relaxation of this model is degenerate: spreading 1/n over
every vertex variable satisfies all rows with every indicator at zero, so
"relaxation" here means branch-and-bound over the LP relaxation with an
integrality tolerance, plus rounding of fractional points to feasible
bipartitions.  The reported value is always the recomputed cut of the
rounded bipartition, never the raw objective, so it is a sound upper
bound; unless its deadline expires, the search is exact up to the
tolerance.

Only the vertex variables branch.  Once they are integral, the LP's
optimal edge variables are the cut indicators of the positive-weight edges,
so the LP value is the cut of that bipartition and the node is solved.
Node LPs carry two bound rows per vertex variable and none for the edge
variables (``y_e >= 0`` is the LP's own sign constraint, and ``y_e <= 1``
never binds under a non-negative objective), so fixing a vertex lowers one
right-hand side.  The non-negative objective also makes the all-slack
basis dual feasible: the dual simplex runs from it at the root, where
``x_0`` is fixed to 1, and from the parent's final tableau at every child.
The dense tableaux suit residual instances of modest size; bigger models
are meant to be exported and handed to an external solver.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._limits import Deadline, SolveTimeout
from .hgraph import PROVENANCE_BIP, CutResult, Hypergraph, Weight, cut_value

__all__ = [
    "BipModel", "RelaxedSolution", "build_model", "export_lp", "solve_relaxed", "tableau_bytes",
]


@dataclass(frozen=True)
class BipModel:
    """Objective and constraint rows over n vertex + m edge binaries."""

    hypergraph: Hypergraph
    objective: tuple  # length n + m; weight on edge variables only
    rows: tuple  # (terms, sense, rhs) with terms ((var, coef), ...), sense '<=' or '>='

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def var_name(self, j: int) -> str:
        n = self.hypergraph.vertex_count
        return f"x_v{j}" if j < n else f"y_e{j - n}"


def build_model(h: Hypergraph) -> BipModel:
    """Build the cut model: two balance rows, then two indicator rows for
    each pin of a hyperedge other than its first, so ``2(|e| - 1)`` per
    hyperedge ``e`` with a pin."""
    if h.vertex_count < 2:
        raise ValueError("model needs at least two vertices")
    n, m = h.vertex_count, h.edge_count

    objective = [0] * n + [h.weight(e) for e in range(m)]

    rows = [
        (tuple((v, 1) for v in range(n)), ">=", 1),
        (tuple((v, 1) for v in range(n)), "<=", n - 1),
    ]
    for eid in range(m):
        pins = h.pins(eid)
        ye = n + eid
        for u in pins[1:]:
            rows.append((((ye, 1), (u, -1), (pins[0], 1)), ">=", 0))
            rows.append((((ye, 1), (pins[0], -1), (u, 1)), ">=", 0))
    return BipModel(hypergraph=h, objective=tuple(objective), rows=tuple(rows))


def _coef_str(value: Weight) -> str:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return str(value)


def export_lp(model: BipModel, path) -> None:
    """Write the model in LP text format (minimize / subject to / binary)."""
    lines = ["Minimize"]
    terms = [
        f"{_coef_str(c)} {model.var_name(j)}"
        for j, c in enumerate(model.objective)
        if c != 0
    ]
    lines.append(" obj: " + (" + ".join(terms) if terms else "0"))
    lines.append("Subject To")
    for i, (row, sense, rhs) in enumerate(model.rows):
        parts = []
        for j, coef in row:
            name = model.var_name(j)
            if not parts:
                parts.append(f"{_coef_str(coef)} {name}" if coef >= 0 else f"- {_coef_str(-coef)} {name}")
            elif coef >= 0:
                parts.append(f"+ {_coef_str(coef)} {name}")
            else:
                parts.append(f"- {_coef_str(-coef)} {name}")
        lines.append(f" c{i}: " + " ".join(parts) + f" {sense} {_coef_str(rhs)}")
    lines.append("Binary")
    for j in range(model.num_vars):
        lines.append(f" {model.var_name(j)}")
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- dual simplex ---------------------------------------------------------------

# Open nodes that may carry their parent's tableau for a warm start; the
# others carry only the parent's basis and rebuild the tableau when popped.
_HELD_TABLEAUX = 32

# A vertex variable this close to 0 or 1 counts as integral.
_INTEGRALITY_TOL = 1e-7


def _dense_rows(model: BipModel) -> Tuple[np.ndarray, np.ndarray]:
    """Rows as A x <= b, then ``x_v <= 1`` and ``-x_v <= 0`` for the n
    vertex variables only.

    Edge variables need no bound rows: ``y_e >= 0`` is the LP's own
    ``x >= 0``, and with a non-negative objective ``y_e <= 1`` never binds.
    Fixing a vertex variable lowers one right-hand side by one: ``x_v = 0``
    the row ``num_rows + v``, ``x_v = 1`` the row ``num_rows + n + v``.
    """
    nv, nr, n = model.num_vars, model.num_rows, model.hypergraph.vertex_count
    a = np.zeros((nr + 2 * n, nv))
    b = np.zeros(nr + 2 * n)
    for i, (row, sense, rhs) in enumerate(model.rows):
        sign = 1.0 if sense == "<=" else -1.0
        for j, coef in row:
            a[i, j] = sign * coef
        b[i] = sign * rhs
    a[nr : nr + n, :n] = np.eye(n)
    a[nr + n :, :n] = -np.eye(n)
    b[nr : nr + n] = 1.0
    return a, b


def tableau_bytes(model: BipModel) -> int:
    """Bytes of LP storage ``solve_relaxed`` holds at once: the held parent
    tableaux, the one being solved, and one rebuild from a basis."""
    nv, rows = model.num_vars, model.num_rows + 2 * model.hypergraph.vertex_count
    rebuild = rows * (2 * rows + 3 * (nv + 1))  # [A I], basis, rhs, result
    return 8 * ((_HELD_TABLEAUX + 1) * (rows + 1) * (nv + 1) + rebuild)


class _Tableau:
    """Short tableau ``x_B + T x_N = rhs`` of ``min c@x, A x <= b, x >= 0``.

    Labels ``0..nv-1`` name the structural variables, ``nv + i`` the slack
    of row ``i``.  Row ``i`` belongs to ``basic[i]`` and column ``k`` to
    ``nonbasic[k]`` (at zero); the last row holds the reduced costs and
    ``-z``, the last column the right-hand side.
    """

    __slots__ = ("t", "basic", "nonbasic")

    def __init__(self, t: np.ndarray, basic: np.ndarray, nonbasic: np.ndarray) -> None:
        self.t, self.basic, self.nonbasic = t, basic, nonbasic

    @classmethod
    def slack(cls, c, a, b) -> "_Tableau":
        """The all-slack basis, dual feasible when ``c >= 0``."""
        rows, nv = a.shape
        t = np.zeros((rows + 1, nv + 1))
        t[:rows, :nv], t[:rows, nv], t[rows, :nv] = a, b, c
        return cls(t, nv + np.arange(rows), np.arange(nv))

    @classmethod
    def from_basis(cls, c, a, b, basic: np.ndarray) -> "_Tableau":
        """The tableau of ``basic``, by one solve against its columns."""
        rows, nv = a.shape
        full = np.hstack([a, np.eye(rows)])
        cost = np.concatenate([c, np.zeros(rows)])
        nonbasic = np.setdiff1d(np.arange(nv + rows), basic)
        t = np.zeros((rows + 1, nv + 1))
        t[:rows] = np.linalg.solve(full[:, basic], np.column_stack([full[:, nonbasic], b]))
        t[rows, :nv] = cost[nonbasic]
        t[rows] -= cost[basic] @ t[:rows]
        return cls(t, basic.copy(), nonbasic)

    def lower_rhs(self, row: int) -> None:
        """Lower ``b[row]`` by one, where the slack of ``row`` is basic: its
        value drops by one.  The search lowers only bound rows of the
        variable it branches on, which lies more than the integrality
        tolerance from 0 and from 1, so both bound slacks are positive,
        hence basic; the root lowers on the all-slack basis."""
        label = self.t.shape[1] - 1 + row
        self.t[np.flatnonzero(self.basic == label)[0], -1] -= 1.0

    def point(self) -> np.ndarray:
        """Values of the structural variables."""
        x = np.zeros(self.t.shape[1] - 1 + self.basic.size)
        x[self.basic] = self.t[:-1, -1]
        return x[: self.t.shape[1] - 1]

    def solve(self, deadline: Deadline) -> Tuple[bool, int]:
        """Dual simplex from a dual-feasible basis; returns (feasible, pivots).

        The most negative row leaves; the ratio test takes the largest pivot
        among ties.  Past ``switch`` pivots Bland's rule (smallest labels)
        guards against dual degeneracy, past 40 times that the solve gives
        up.  The deadline is checked between pivots.
        """
        t, basic, nonbasic = self.t, self.basic, self.nonbasic
        tol, switch = 1e-9, 50 * sum(t.shape) + 200
        rhs, cost = t[:-1, -1], t[-1, :-1]
        ratios = np.empty(t.shape[1] - 1)
        pivots = 0
        while True:
            r = rhs.argmin()
            if rhs[r] >= -tol:
                return True, pivots
            if pivots > 40 * switch:
                raise ArithmeticError("dual simplex did not converge")
            if deadline.expired():
                raise SolveTimeout()
            bland = pivots >= switch
            if bland:
                r = np.where(rhs < -tol, basic, basic.max() + 1).argmin()
            row = t[r, :-1]
            cols = row < -tol
            if not cols.any():
                return False, pivots  # row r cannot be met with x >= 0
            ratios.fill(np.inf)
            np.divide(np.maximum(cost, 0.0), -row, out=ratios, where=cols)
            ties = ratios <= ratios.min() + tol
            k = np.where(ties, nonbasic if bland else row, np.inf).argmin()
            p, col = t[r, k], t[:, k].copy()
            col[r] = 0.0
            t[r] /= p
            t -= col[:, None] * t[r]
            t[:, k], t[r, k] = -col / p, 1.0 / p
            basic[r], nonbasic[k] = nonbasic[k], basic[r]
            pivots += 1


# -- branch and bound -----------------------------------------------------------


@dataclass(frozen=True)
class RelaxedSolution(CutResult):
    """An optimal cut from branch-and-bound and the work it took."""

    nodes: int = 0  # LPs solved
    pivots: int = 0  # dual simplex pivots over all nodes


def solve_relaxed(model: BipModel, deadline: Optional[Deadline] = None) -> RelaxedSolution:
    """Best-bound branch-and-bound over the LP relaxation, with rounding.

    Every explored point is rounded at one half to a bipartition (moving
    the lightest vertex out if the block takes every vertex) and scored by
    its true cut weight, so an incumbent exists from the start.  Only the
    vertex variables branch: a node closes when each is within the
    integrality tolerance of a bit, since the LP value is then the cut of
    that bipartition; otherwise the most fractional vertex variable
    branches, ties toward the lowest index.

    The root fixes vertex 0 into the block, since a bipartition and its
    complement cut alike, and solves from the all-slack basis; a child
    starts from its parent's final tableau with one bound lowered.  The
    deadline is checked before each node and between pivots; when it
    expires, ``SolveTimeout`` carries the incumbent as a ``CutResult``.
    """
    h = model.hypergraph
    deadline = deadline if deadline is not None else Deadline()
    a, b = _dense_rows(model)
    c = np.array(model.objective, dtype=float)
    nr, n = model.num_rows, h.vertex_count

    wd = h.weighted_degrees()
    lightest = min(range(n), key=lambda v: (wd[v], v))
    best_block = frozenset({lightest})
    best_value: Weight = cut_value(h, best_block) if h.edge_count else 0

    # heap entries: (bound, tiebreak, row to lower, parent rhs, parent tableau or None, parent basis)
    root = _Tableau.slack(c, a, b)
    heap = [(0.0, 0, nr + n, b, root, root.basic)]  # the root fixes x_0 = 1
    held = 1
    nodes = pivots = 0
    try:
        while heap:
            if deadline.expired():
                raise SolveTimeout()
            bound, _, row, rhs, parent, basic = heapq.heappop(heap)
            if bound >= best_value - 1e-9:
                break  # best-bound order: nothing left can improve
            rhs = rhs.copy()
            rhs[row] -= 1.0
            if parent is None:
                tab = _Tableau.from_basis(c, a, rhs, basic)
            else:
                held -= 1
                tab = _Tableau(parent.t.copy(), basic.copy(), parent.nonbasic.copy())
                tab.lower_rhs(row)
            feasible, steps = tab.solve(deadline)
            nodes += 1
            pivots += steps
            if not feasible:
                continue
            obj = -float(tab.t[-1, -1])
            if obj >= best_value - 1e-9:
                continue
            x = tab.point()[:n]
            block = {v for v in range(n) if x[v] >= 0.5}  # holds vertex 0
            if len(block) == n:
                block.discard(lightest)
            value = cut_value(h, block)
            if value < best_value:
                best_value = value
                best_block = frozenset(block)
            distance = np.abs(x - np.round(x))
            j = int(np.argmax(distance))
            if distance[j] <= _INTEGRALITY_TOL:
                continue  # integral vertex bits: the LP value is their cut
            keep = held + 2 <= _HELD_TABLEAUX
            held += 2 * keep
            for bit, child_row in enumerate((nr + j, nr + n + j)):  # x_j = 0, then x_j = 1
                heapq.heappush(heap, (obj, 2 * nodes + bit, child_row, rhs, tab if keep else None, tab.basic))
    except SolveTimeout:
        raise SolveTimeout(CutResult(best_value, best_block, PROVENANCE_BIP)) from None
    return RelaxedSolution(best_value, best_block, PROVENANCE_BIP, nodes, pivots)
