import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgcut import (
    GenSpec,
    Hypergraph,
    PipelineConfig,
    brute_mincut,
    build_model,
    cut_value,
    export_lp,
    random_hypergraph,
    run_pipeline,
    solve_relaxed,
)
from hgcut._limits import Deadline, SolveTimeout
from hgcut.bip import _Tableau, _dense_rows, tableau_bytes
from conftest import ExpiresOnCheck, random_instance, unit_cycle


def _dual_lp(c, a, b):
    """min c@x s.t. a@x <= b, x >= 0 from the slack basis; (x, obj) or None."""
    tab = _Tableau.slack(np.asarray(c, float), np.asarray(a, float), np.asarray(b, float))
    feasible, _ = tab.solve(Deadline())
    return (tab.point(), -float(tab.t[-1, -1])) if feasible else None


def _linear_triples(rng, n):
    """3-regular 3-uniform edges on n vertices, no pair in two edges."""
    while True:
        slots = [v for v in range(n) for _ in range(3)]
        rng.shuffle(slots)
        edges = [sorted(slots[i : i + 3]) for i in range(0, len(slots), 3)]
        pairs = [(e[x], e[y]) for e in edges for x, y in ((0, 1), (0, 2), (1, 2))]
        if all(len(set(e)) == 3 for e in edges) and len(set(pairs)) == len(pairs):
            return edges


@st.composite
def raw_hypergraphs(draw):
    """Uncompacted inputs: one-pin, parallel and zero-weight edges, weights
    up to 1e6, possibly disconnected."""
    n = draw(st.integers(2, 12))
    pins = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(6, n), unique=True)
    edges = draw(st.lists(pins, max_size=2 * n))
    weight = st.one_of(st.just(0), st.integers(0, 10**6))
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return Hypergraph(n, edges, weights)


def wide_edge_on_cycle():
    """One 14-pin edge of weight 3 over a unit cycle on 16 vertices; the
    cheapest cuts (2) split off vertex 14, vertex 15 or both."""
    cycle = unit_cycle(16)
    pins = [cycle.pins(e) for e in range(cycle.edge_count)] + [list(range(14))]
    return Hypergraph(16, pins, [1] * cycle.edge_count + [3])


class TestBuildModel:
    def test_representative_counts(self, spanning_edge):
        model = build_model(spanning_edge)
        indicator_rows = model.num_rows - 2
        assert indicator_rows == 2 * (len(spanning_edge.pins(0)) - 1) == 6

    def test_rows_linear_in_edge_size(self):
        h = wide_edge_on_cycle()
        model = build_model(h)
        assert model.num_vars == h.vertex_count + h.edge_count
        assert model.num_rows == 2 + sum(2 * (len(pins) - 1) for pins, _ in h.edges()) == 60

    def test_two_vertex_objective(self):
        h = Hypergraph(2, [[0, 1]], [7])
        model = build_model(h)
        assert model.objective == (0, 0, 7)

    def test_coefficient_range(self):
        for seed in range(10):
            h = random_instance(seed)
            model = build_model(h)
            for row, sense, rhs in model.rows:
                assert all(c in (-1, 1) for _, c in row)

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_model(Hypergraph(1))


class TestExportLp:
    def test_objective_line(self, triangle, tmp_path):
        path = tmp_path / "tri.lp"
        export_lp(build_model(triangle), path)
        text = path.read_text()
        assert " obj: 1 y_e0 + 1 y_e1 + 1 y_e2" in text
        assert text.startswith("Minimize\n")
        assert "Binary" in text and text.rstrip().endswith("End")

    def test_reexport_byte_identical(self, tmp_path):
        h = random_instance(5)
        model = build_model(h)
        a, b = tmp_path / "a.lp", tmp_path / "b.lp"
        export_lp(model, a)
        export_lp(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, tmp_path, triangle):
        with pytest.raises(OSError):
            export_lp(build_model(triangle), tmp_path)  # a directory


class TestSimplex:
    def test_simple_lp(self):
        # min x + y st x + y >= 1, x,y >= 0
        res = _dual_lp(np.array([1.0, 1.0]), np.array([[-1.0, -1.0]]), np.array([-1.0]))
        assert res is not None
        assert res[1] == pytest.approx(1.0)
        assert res[0].sum() == pytest.approx(1.0)

    def test_infeasible(self):
        # x <= -1, x >= 0
        res = _dual_lp(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))
        assert res is None

    def test_negative_rhs_feasible(self):
        # x >= 2 encoded as -x <= -2, minimize x
        res = _dual_lp(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
        assert res is not None
        assert res[1] == pytest.approx(2.0)

    def test_against_scipy_on_random_lps(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(4)
        for _ in range(40):
            rows, cols = rng.integers(2, 7), rng.integers(2, 6)
            a = rng.integers(-3, 4, size=(rows, cols)).astype(float)
            b = rng.integers(0, 6, size=rows).astype(float)
            c = rng.integers(0, 5, size=cols).astype(float)  # c >= 0: slack basis dual feasible
            # bounded via box rows so both solvers see the same problem
            a_full = np.vstack([a, np.eye(cols)])
            b_full = np.concatenate([b, np.full(cols, 3.0)])
            ours = _dual_lp(c, a_full, b_full)
            ref = linprog(c, A_ub=a_full, b_ub=b_full, bounds=(0, None), method="highs")
            assert ours is not None and ref.status == 0
            assert ours[1] == pytest.approx(ref.fun, abs=1e-7)

    def test_model_relaxation_value_is_degenerate_zero(self, triangle):
        # spreading 1/n over the vertex variables satisfies every row with
        # all indicators at zero, hence branch-and-bound rather than one LP
        model = build_model(triangle)
        a, b = _dense_rows(model)
        res = _dual_lp(np.array(model.objective, dtype=float), a, b)
        assert res is not None
        assert res[1] == pytest.approx(0.0, abs=1e-9)

    def test_expired_deadline_stops_between_pivots(self):
        with pytest.raises(SolveTimeout):
            _Tableau.slack(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0])).solve(Deadline(0.0))

    def test_rebuilt_tableau_matches_pivoted_one(self):
        model = build_model(random_instance(3))
        a, b = _dense_rows(model)
        c = np.array(model.objective, dtype=float)
        tab = _Tableau.slack(c, a, b)
        assert tab.solve(Deadline())[0]
        again = _Tableau.from_basis(c, a, b, tab.basic)
        assert np.array_equal(again.nonbasic, np.sort(tab.nonbasic))
        order = np.argsort(tab.nonbasic)
        assert np.allclose(again.t[:, :-1], tab.t[:, order], atol=1e-9)
        assert np.allclose(again.t[:, -1], tab.t[:, -1], atol=1e-9)

    def test_tableau_bytes_covers_root_tableau(self):
        for seed in range(10):
            model = build_model(random_instance(seed))
            a, b = _dense_rows(model)
            root = _Tableau.slack(np.array(model.objective, dtype=float), a, b)
            assert tableau_bytes(model) >= root.t.nbytes


class TestSolveRelaxed:
    def test_triangle(self, triangle):
        sol = solve_relaxed(build_model(triangle))
        assert sol.value == 2
        assert cut_value(triangle, sol.partition) == 2

    def test_single_spanning_edge(self, spanning_edge):
        sol = solve_relaxed(build_model(spanning_edge))
        assert sol.value == 7
        assert len(sol.partition) in (1, 3)

    def test_two_components(self):
        h = Hypergraph(4, [[0, 1], [2, 3]], [3, 4])
        sol = solve_relaxed(build_model(h))
        assert sol.value == 0

    def test_oracle_equivalence_and_soundness(self):
        for seed in range(60):
            h = random_instance(seed)
            truth = brute_mincut(h).value
            sol = solve_relaxed(build_model(h))
            assert cut_value(h, sol.partition) == sol.value
            assert sol.value == truth

    def test_wide_edge_matches_brute_force(self):
        h = wide_edge_on_cycle()
        sol = solve_relaxed(build_model(h))
        assert sol.value == brute_mincut(h).value == 2
        assert cut_value(h, sol.partition) == sol.value

    def test_assignment_objective_matches_value(self):
        # the block and its cut indicators are a feasible point of the
        # model whose objective is the reported value
        for seed in range(20):
            h = random_instance(seed)
            model = build_model(h)
            sol = solve_relaxed(model)
            xs = [int(v in sol.partition) for v in range(h.vertex_count)]
            ys = [int(0 < sum(xs[v] for v in pins) < len(pins)) for pins, _ in h.edges()]
            point = np.array(xs + ys, dtype=float)
            a, b = _dense_rows(model)
            assert (a @ point <= b + 1e-9).all()
            assert np.dot(model.objective, point) == sol.value

    def test_node_limit_returns_incumbent(self):
        h = random_instance(2)
        with pytest.raises(SolveTimeout) as exc:  # stops before its first node
            solve_relaxed(build_model(h), Deadline(0))
        best = exc.value.best
        assert cut_value(h, best.partition) == best.value
        assert best.value >= brute_mincut(h).value

    def test_deadline_inside_lp_raises_incumbent(self):
        # the node loop's check passes, the root LP's first pivot check fails
        h = random_instance(2)
        deadline = ExpiresOnCheck(2)
        with pytest.raises(SolveTimeout) as exc:
            solve_relaxed(build_model(h), deadline)
        best = exc.value.best
        assert deadline.checks == 2
        assert cut_value(h, best.partition) == best.value >= brute_mincut(h).value

    @pytest.mark.parametrize("w_hi", [2, 100, 10**4, 10**6])
    def test_exact_across_weight_ranges_and_edge_sizes(self, w_hi):
        for seed in range(40):
            rng = random.Random(seed * 7 + w_hi)
            n = rng.randint(2, 14)
            h = random_hypergraph(
                GenSpec(
                    vertex_count=n,
                    edge_count=rng.randint(1, 24),
                    size_range=(2, min(6, n)),
                    weight_range=(1, w_hi),
                    seed=rng.randrange(2**30),
                    ensure_connected=True,
                )
            )
            truth = brute_mincut(h).value
            sol = solve_relaxed(build_model(h))
            assert sol.value == truth == cut_value(h, sol.partition)
            assert run_pipeline(h, PipelineConfig(solver="bip")).value == truth

    def test_work_counts_repeat(self):
        for seed in range(10):
            model = build_model(random_instance(seed))
            a, b = solve_relaxed(model), solve_relaxed(model)
            assert (a.nodes, a.pivots) == (b.nodes, b.pivots)
            assert a.nodes >= 1

    def test_children_warm_start_in_few_pivots(self):
        rng = random.Random(13)
        h = Hypergraph(13, _linear_triples(rng, 13), [rng.randint(80, 100) for _ in range(13)])
        model = build_model(h)
        a, b = _dense_rows(model)
        root = _Tableau.slack(np.array(model.objective, dtype=float), a, b)
        root.lower_rhs(model.num_rows + h.vertex_count)  # x_0 = 1, as the search's root
        _, root_pivots = root.solve(Deadline())
        sol = solve_relaxed(model)
        assert sol.value == brute_mincut(h).value
        assert (sol.nodes, sol.pivots) == (21, 140)  # branching on vertex variables only
        assert (sol.pivots - root_pivots) / (sol.nodes - 1) < 10

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(raw_hypergraphs())
    def test_differential_against_brute_force(self, h):
        truth = brute_mincut(h).value
        sol = solve_relaxed(build_model(h))
        assert sol.value == truth == cut_value(h, sol.partition)
        assert 0 < len(sol.partition) < h.vertex_count

    def test_children_rebuilt_from_basis_agree(self, monkeypatch):
        models = [build_model(random_instance(seed)) for seed in range(20)]
        warm = [solve_relaxed(m) for m in models]
        monkeypatch.setattr("hgcut.bip._HELD_TABLEAUX", 1)  # only the root is held
        for model, expected in zip(models, warm):
            sol = solve_relaxed(model)
            assert sol.value == expected.value
            assert cut_value(model.hypergraph, sol.partition) == sol.value

    def test_time_limit_checked_inside_lp(self):
        # the full search (33 nodes) takes about 0.2 s on a 2-core machine
        h = random_instance(0, n_range=(40, 40), m_range=(120, 120), w_hi=100)
        model = build_model(h)
        started = time.perf_counter()
        with pytest.raises(SolveTimeout) as exc:
            solve_relaxed(model, Deadline(0.05))
        assert time.perf_counter() - started < 1.5
        best = exc.value.best
        assert cut_value(h, best.partition) == best.value

    def test_model_objective_bounds_every_feasible_assignment(self):
        # for every feasible 0/1 assignment the objective dominates the cut
        # of the induced bipartition, with equality attainable at optimum
        h = Hypergraph(3, [[0, 1], [1, 2]], [2, 3])
        model = build_model(h)
        a, b = _dense_rows(model)
        best = None
        for bits in itertools.product((0, 1), repeat=model.num_vars):
            x = np.array(bits, dtype=float)
            if np.all(a @ x <= b + 1e-9):
                block = {v for v in range(3) if bits[v]}
                objective = sum(
                    h.weight(e) * bits[3 + e] for e in range(h.edge_count)
                )
                assert objective >= cut_value(h, block)
                best = objective if best is None else min(best, objective)
        assert best == brute_mincut(h).value
