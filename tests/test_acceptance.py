"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rA to see them)."""

import json
import time

import jsonschema

from hgcut import (
    GenSpec,
    Hypergraph,
    PipelineConfig,
    backward_lists,
    brute_mincut,
    brute_st_mincut,
    compute_head_ordering,
    construct_certificate,
    format_hmetis,
    mincut_ordering,
    parse_hmetis,
    random_hypergraph,
    randomize_weights,
    run_pipeline,
    run_pipeline_detailed,
    trimmer_mincut,
)
from hgcut.cli import main, profile_fractions
from hgcut.reduce import RULE_ORDER, initial_state, rule_imbalanced_vertex

from conftest import (
    RUN_RECORD_SCHEMA,
    equality_case_instance,
    loose_imbalanced_vertex,
    profile_fixture_records,
    random_instance,
)

SUITE_SIZE = 1000


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_exact_solver_oracle_equivalence():
    started = time.perf_counter()
    mismatches = 0
    for seed in range(SUITE_SIZE):
        h = random_instance(seed)
        if mincut_ordering(h).value != brute_mincut(h).value:
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        mismatches == 0 and elapsed < 30.0,
        f"ordering solver vs oracle on {SUITE_SIZE} instances: "
        f"{mismatches} mismatches in {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_per_rule_cut_preservation():
    failures = []
    for seed in range(SUITE_SIZE):
        h = random_instance(seed)
        truth = brute_mincut(h).value
        for name, rule in RULE_ORDER:
            state = initial_state(h, PipelineConfig())
            rule(state)
            if state.current.vertex_count >= 2:
                got = min(state.upper_bound, brute_mincut(state.current).value)
            else:
                got = state.upper_bound
            if got != truth:
                failures.append((name, seed))
    report(
        2,
        not failures,
        f"rules applied in isolation on {SUITE_SIZE} instances: "
        f"{len(failures)} violations {failures[:3]}",
    )


def test_criterion_3_pipeline_exactness_both_backends():
    bad_exact = bad_bip = 0
    for seed in range(SUITE_SIZE):
        h = random_instance(seed)
        truth = brute_mincut(h).value
        if run_pipeline(h, PipelineConfig(solver="exact")).value != truth:
            bad_exact += 1
        if run_pipeline(h, PipelineConfig(solver="bip")).value != truth:
            bad_bip += 1
    report(
        3,
        bad_exact == 0 and bad_bip == 0,
        f"pipeline vs oracle on {SUITE_SIZE} instances: "
        f"{bad_exact} exact-backend and {bad_bip} relaxation-backend mismatches",
    )


def test_criterion_4_strictness_regression():
    h = equality_case_instance()
    truth = brute_mincut(h).value
    nontrivial = truth < h.min_weighted_degree()

    strict_state = initial_state(h, PipelineConfig())
    strict_applied = rule_imbalanced_vertex(strict_state)
    intact = not strict_applied and strict_state.current == h
    pipeline_exact = run_pipeline(h).value == truth

    loose_state = initial_state(h, PipelineConfig())
    loose_imbalanced_vertex(loose_state)
    reduced = loose_state.current
    if reduced.vertex_count >= 2:
        loose_value = min(loose_state.upper_bound, brute_mincut(reduced).value)
    else:
        loose_value = loose_state.upper_bound
    overshoots = loose_value > truth

    report(
        4,
        nontrivial and intact and pipeline_exact and overshoots,
        f"equality case (cut {truth} < degree {h.min_weighted_degree()}): "
        f"strict rule intact={intact}, pipeline exact={pipeline_exact}, "
        f"non-strict variant returns {loose_value}",
    )


def test_criterion_5_trimmer():
    mismatches = 0
    for seed in range(500):
        h = random_instance(seed, unit=True)
        if trimmer_mincut(h, seed=seed).value != brute_mincut(h).value:
            mismatches += 1

    budget_violations = 0
    connectivity_violations = 0
    for seed in range(40):
        h = random_instance(seed, unit=True, n_range=(4, 8), m_range=(3, 10))
        ordering = compute_head_ordering(h, seed=seed)
        backward = backward_lists(h, ordering)
        for k in (1, 2, 3, 4):
            hk = construct_certificate(h, ordering, backward, k)
            if hk.edge_count > k * h.vertex_count:
                budget_violations += 1
            for s in range(h.vertex_count):
                for t in range(s + 1, h.vertex_count):
                    if brute_st_mincut(hk, s, t) < min(k, brute_st_mincut(h, s, t)):
                        connectivity_violations += 1
    report(
        5,
        mismatches == 0 and budget_violations == 0 and connectivity_violations == 0,
        f"trimmer vs oracle on 500 instances: {mismatches} mismatches; "
        f"{budget_violations} certificate-size violations; "
        f"{connectivity_violations} local-connectivity violations",
    )


def test_criterion_6_label_propagation_upper_bound():
    below = 0
    matches = 0
    for seed in range(SUITE_SIZE):
        h = random_instance(seed)
        truth = brute_mincut(h).value
        value = run_pipeline(h, PipelineConfig(use_lp=True, seed=seed)).value
        if value < truth:
            below += 1
        if value == truth:
            matches += 1
    report(
        6,
        below == 0,
        f"heuristic mode on {SUITE_SIZE} instances: {below} below the optimum; "
        f"match rate {matches / SUITE_SIZE:.1%} (reported, not asserted)",
    )


def test_criterion_7_full_reduction_statistic():
    fully_reduced = 0
    wrong_when_full = 0
    total = 200
    for seed in range(total):
        h = random_instance(seed, unit=(seed % 2 == 0))
        if seed % 2 == 1:
            h = randomize_weights(h, 1, 100, seed=seed)
        result, state = run_pipeline_detailed(h)
        if state.current.vertex_count == 1 or state.current.edge_count == 0:
            fully_reduced += 1
            if result.value != brute_mincut(h).value:
                wrong_when_full += 1
    fraction = fully_reduced / total
    report(
        7,
        fraction > 0 and wrong_when_full == 0,
        f"rules alone fully reduced {fraction:.1%} of {total} mixed instances; "
        f"{wrong_when_full} of those disagreed with the oracle",
    )


def test_criterion_8_near_linear_scaling():
    sizes = []
    times = []
    p_target = 10_000
    while p_target <= 1_300_000:
        m = p_target // 3
        n = max(4, p_target // 5)
        h = random_hypergraph(
            GenSpec(
                vertex_count=n,
                edge_count=m,
                size_range=(2, 4),
                seed=1234,
                ensure_connected=True,
            )
        )
        best = min(_timed_solve(_fresh_copy(h)) for _ in range(2))
        sizes.append(h.pin_count)
        times.append(best)
        p_target *= 2
    ratios = [t2 / max(t1, 1e-6) for t1, t2 in zip(times, times[1:])]
    detail = "; ".join(
        f"p={p}: {t * 1000:.0f}ms" for p, t in zip(sizes, times)
    )
    report(
        8,
        max(ratios) < 4.0,
        f"per-doubling ratios {['%.2f' % r for r in ratios]} (< 4.0 required); {detail}",
    )


def _fresh_copy(h):
    """The same hypergraph with nothing cached, so every run starts cold."""
    return Hypergraph(
        h.vertex_count,
        [h.pins(e) for e in range(h.edge_count)],
        h.edge_weights(),
        _normalized=True,
    )


def _timed_solve(h):
    t0 = time.perf_counter()
    run_pipeline(h, PipelineConfig())
    return time.perf_counter() - t0


def test_criterion_9_format_cli_profiles(tmp_path, capsys):
    stable = 0
    for seed in range(50):
        h = random_instance(seed)
        text = format_hmetis(h)
        stable += format_hmetis(parse_hmetis(text)) == text and parse_hmetis(text) == h

    instance = tmp_path / "tri.hgr"
    instance.write_text("3 3\n1 2\n2 3\n1 3\n")
    schema_ok = 0
    for algo in ("heicut", "trimmer", "bip", "exact", "oracle"):
        code = main(["solve", str(instance), "--algo", algo])
        record = json.loads(capsys.readouterr().out.strip())
        jsonschema.validate(record, RUN_RECORD_SCHEMA)
        schema_ok += code == 0 and record["value"] == 2

    taus, curves = profile_fractions(profile_fixture_records(), "value")
    profile_ok = (
        taus == [1.0, 2.0, 3.0]
        and curves["alpha"] == [1.0, 1.0, 1.0]
        and curves["beta"] == [0.8, 1.0, 1.0]
        and curves["gamma"] == [0.4, 0.4, 0.6]
    )
    report(
        9,
        stable == 50 and schema_ok == 5 and profile_ok,
        f"round-trip stable on {stable}/50 instances; "
        f"{schema_ok}/5 run records validate; "
        f"profile fractions match hand computation: {profile_ok}",
    )
