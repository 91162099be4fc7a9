import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from hgcut import Hypergraph, cut_value, load_hypergraph, save_hypergraph
from hgcut.hgraph import storage_nbytes
from hgcut.cli import build_parser, main, profile_fractions
from conftest import (
    RUN_RECORD_SCHEMA, ExpiresOnCheck, profile_fixture_records, two_cycle_union, unit_cycle,
)

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.hgr"
    path.write_text("3 3\n1 2\n2 3\n1 3\n")
    return str(path)


@pytest.fixture
def weighted_file(tmp_path):
    path = tmp_path / "triw.hgr"
    path.write_text("3 3 1\n5 1 2\n5 2 3\n5 1 3\n")
    return str(path)


def run_record(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    record = json.loads(out[0])
    jsonschema.validate(record, RUN_RECORD_SCHEMA)
    return code, record


class TestSolve:
    def test_every_algorithm_on_triangle(self, capsys, tri_file):
        for algo in ("heicut", "heicut-lp", "trimmer", "bip", "exact", "oracle"):
            code, record = run_record(capsys, ["solve", tri_file, "--algo", algo])
            assert code == 0
            assert record["status"] == "ok"
            assert record["value"] == 2

    def test_heicut_reports_round_stats(self, capsys, tri_file):
        _, record = run_record(capsys, ["solve", tri_file, "--algo", "heicut"])
        assert record["round_stats"]
        assert {"round", "rule", "edges_before", "edges_after", "upper_bound"} <= set(
            record["round_stats"][0]
        )

    def test_pipeline_record_explains_the_stop(self, capsys, tri_file, tmp_path):
        _, record = run_record(capsys, ["solve", tri_file])
        assert (record["stop_reason"], record["residual"]) == ("terminal", None)
        _, record = run_record(capsys, ["solve", tri_file, "--algo", "exact"])
        assert (record["stop_reason"], record["residual"]) == (None, None)
        for n, step, solver, work in ((16, 5, "exact", "phases"), (8, 3, "bip", "nodes")):
            path = tmp_path / f"cycles{n}.hgr"
            save_hypergraph(two_cycle_union(n, step), path)
            code, record = run_record(capsys, ["solve", str(path), "--solver", solver])
            assert code == 0 and record["value"] == 4
            assert record["stop_reason"] == "fixpoint"
            residual = record["residual"]
            assert (residual["solver"], residual["n"], residual["status"]) == (solver, n, "optimal")
            assert residual[work] >= 1

    def test_trimmer_rejects_weighted_file(self, capsys, weighted_file):
        code, record = run_record(capsys, ["solve", weighted_file, "--algo", "trimmer"])
        assert code == 1
        assert record["status"] == "failed"
        assert "unweighted" in record["reason"]
        assert record["value"] is None

    def test_trimmer_accepts_unit_weights_written_as_weighted(self, capsys, tmp_path):
        path = tmp_path / "triu.hgr"
        path.write_text("3 3 1\n1 1 2\n1 2 3\n1 1 3\n")
        code, record = run_record(capsys, ["solve", str(path), "--algo", "trimmer"])
        assert code == 0
        assert (record["status"], record["value"]) == ("ok", 2)

    def test_bip_time_limit_returns_incumbent(self, capsys, tmp_path):
        code = main(["gen", "--random", "-n", "30", "-m", "45", "--seed", "4",
                     "--connected", "--out", str(tmp_path / "big.hgr")])
        capsys.readouterr()
        assert code == 0
        code, record = run_record(
            capsys,
            ["solve", str(tmp_path / "big.hgr"), "--algo", "bip", "--time-limit", "0.0"],
        )
        assert code == 0
        assert record["status"] == "timeout-with-incumbent"
        assert record["value"] is not None

    def test_heicut_time_limit_keeps_bound(self, capsys, tri_file):
        code, record = run_record(
            capsys, ["solve", tri_file, "--algo", "heicut", "--time-limit", "0.0"]
        )
        assert code == 0
        assert record["status"] == "timeout-with-incumbent"
        assert record["value"] == 2  # the trivial bound on a triangle
        assert (record["stop_reason"], record["residual"]) == ("timeout", None)

    @pytest.mark.parametrize(
        "algo, status", [("heicut", "timeout-with-incumbent"), ("exact", "timeout-with-incumbent"),
                         ("trimmer", "failed")]
    )
    def test_time_limit_inside_the_ordering_solver(self, capsys, tmp_path, algo, status):
        # a 3,000-vertex cycle takes seconds to solve exactly; its first
        # ordering phase takes milliseconds
        h = unit_cycle(3000)
        path, out = tmp_path / "cycle.hgr", tmp_path / "part.json"
        save_hypergraph(h, path)
        code, record = run_record(
            capsys,
            ["solve", str(path), "--algo", algo, "--time-limit", "1", "--partition-out", str(out)],
        )
        assert record["status"] == status
        if status == "failed":
            assert code == 1 and not out.exists()
            return
        assert (code, record["value"]) == (0, 2)
        if algo == "exact":  # the estimate of a finished run
            assert record["peak_memory_bytes"] == 2 * storage_nbytes(h)
        certificate = json.loads(out.read_text())
        assert certificate["value"] == 2 == cut_value(h, certificate["block"])

    def test_pipeline_timeout_keeps_its_state(self, capsys, tmp_path, monkeypatch):
        # reduction makes five deadline checks on a cycle; the tenth lands
        # inside the binary program's root LP
        path = tmp_path / "cycle.hgr"
        save_hypergraph(unit_cycle(60), path)
        argv = ["solve", str(path), "--solver", "bip"]
        _, finished = run_record(capsys, argv)
        assert len(finished["round_stats"]) == 4
        monkeypatch.setattr("hgcut.reduce.Deadline", lambda seconds: ExpiresOnCheck(10))
        code, record = run_record(capsys, argv)
        assert (code, record["status"], record["value"]) == (0, "timeout-with-incumbent", 2)
        assert (record["stop_reason"], record["residual"]) == ("timeout", None)
        assert record["round_stats"] == finished["round_stats"]
        assert record["peak_memory_bytes"] == finished["peak_memory_bytes"]

    def test_missing_file_fails(self, capsys, tmp_path):
        code, record = run_record(capsys, ["solve", str(tmp_path / "nope.hgr")])
        assert code == 1
        assert record["status"] == "failed"

    def test_partition_out(self, capsys, tri_file, tmp_path):
        out = tmp_path / "part.json"
        code, record = run_record(
            capsys, ["solve", tri_file, "--algo", "exact", "--partition-out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == 2
        assert 1 <= len(payload["block"]) <= 2

    def test_config_echo_reproducibility(self, capsys, tri_file):
        _, first = run_record(capsys, ["solve", tri_file, "--seed", "11"])
        _, second = run_record(capsys, ["solve", tri_file, "--seed", "11"])
        assert first["config"] == second["config"]
        assert first["value"] == second["value"]


def solve_capped(path, cap, *args):
    """``hgcut solve`` in a child process that caps its own address space
    at ``cap`` bytes; returns the exit code, the stdout lines and stderr."""
    resource = pytest.importorskip("resource")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)

    def lower_own_limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-m", "hgcut.cli", "solve", str(path), *args],
        preexec_fn=lower_own_limit, env=env, capture_output=True, text=True, timeout=60,
    )
    return out.returncode, out.stdout.splitlines(), out.stderr


@pytest.mark.parametrize(
    "text, args, cap, reason",
    [
        # the file fits; 200 million vertices' weighted degrees take 1.6 GB
        ("1 200000000\n1 2\n", (), 1_500_000_000, "out of memory while solving"),
        # four million hyperedge lines do not fit in 300 MB as they are parsed
        ("4000000 2\n" + "1 2\n" * 4_000_000, (), 300_000_000,
         "out of memory while loading the instance"),
        # the dense model of a 3,000-vertex cycle does not fit in 300 MB
        (
            "3000 3000\n" + "".join(f"{i + 1} {(i + 1) % 3000 + 1}\n" for i in range(3000)),
            ("--algo", "bip"),
            300_000_000,
            "out of memory while solving",
        ),
    ],
    ids=["header", "load", "solve"],
)
def test_out_of_memory_ends_as_a_failed_record(tmp_path, text, args, cap, reason):
    path = tmp_path / "big.hgr"
    path.write_text(text)
    code, lines, stderr = solve_capped(path, cap, *args)
    assert code == 1 and stderr == ""
    assert len(lines) == 1
    record = json.loads(lines[0])
    jsonschema.validate(record, RUN_RECORD_SCHEMA)
    assert (record["status"], record["reason"]) == ("failed", reason)


def test_readme_names_every_solve_option():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = [
        s for a in commands.choices["solve"]._actions for s in a.option_strings
        if s.startswith("--") and s != "--help"
    ]
    text = README.read_text(encoding="utf-8")
    assert [o for o in options if f"`{o}" not in text] == []


class TestProfile:
    @staticmethod
    def fixture_records():
        return profile_fixture_records()

    def test_hand_computed_fractions(self):
        taus, curves = profile_fractions(self.fixture_records(), "value")
        assert taus == [1.0, 2.0, 3.0]
        assert curves["alpha"] == [1.0, 1.0, 1.0]
        assert curves["beta"] == [0.8, 1.0, 1.0]
        assert curves["gamma"] == [0.4, 0.4, 0.6]  # two failures cap it at 0.6

    def test_single_algorithm_all_ok(self):
        records = [r for r in self.fixture_records() if r["algorithm"] == "alpha"]
        taus, curves = profile_fractions(records, "value")
        assert curves["alpha"][0] == 1.0

    def test_identical_values_both_at_one(self):
        records = [
            r
            for r in self.fixture_records()
            if r["algorithm"] in ("alpha", "beta") and r["instance"] != "ib"
        ]
        taus, curves = profile_fractions(records, "value")
        assert curves["alpha"][0] == 1.0
        assert curves["beta"][0] == 1.0

    def test_mismatched_instance_sets_flagged(self):
        records = self.fixture_records()[:-1]  # gamma lacks one instance
        with pytest.raises(ValueError, match="instance sets differ"):
            profile_fractions(records, "value")

    def test_cli_csv_output(self, capsys, tmp_path):
        path = tmp_path / "runs.jsonl"
        with open(path, "w") as fh:
            for record in self.fixture_records():
                fh.write(json.dumps(record) + "\n")
        code = main(["profile", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "metric,algorithm,tau,fraction"
        assert "value,beta,2,1" in lines
        assert "value,gamma,3,0.6" in lines


class TestGen:
    def test_random_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.hgr", tmp_path / "b.hgr"
        for out in (a, b):
            assert main(["gen", "--random", "-n", "8", "-m", "12", "--seed", "1",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert json.loads((tmp_path / "a.hgr.json").read_text())["kind"] == "random"

    def test_reweight_produces_fmt_1(self, capsys, tmp_path):
        src = tmp_path / "src.hgr"
        assert main(["gen", "--random", "-n", "8", "-m", "12", "--seed", "2",
                     "--out", str(src)]) == 0
        out = tmp_path / "w.hgr"
        assert main(["gen", str(src), "--weights", "1", "100", "--seed", "3",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        header = out.read_text().splitlines()[0]
        assert header == "12 8 1"
        h = load_hypergraph(out)
        assert all(1 <= w <= 100 for w in h.edge_weights())

    def test_kcore_writes_core_and_metadata(self, capsys, tmp_path):
        src = tmp_path / "src.hgr"
        h = Hypergraph(6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]])
        save_hypergraph(h, src)
        out = tmp_path / "core.hgr"
        assert main(["gen", str(src), "--kcore", "--out", str(out)]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "core.hgr.json").read_text())
        assert meta["k"] == 2
        assert meta["mincut"] < meta["min_weighted_degree"]

    def test_kcore_without_core_fails(self, capsys, tmp_path):
        src = tmp_path / "star.hgr"
        save_hypergraph(Hypergraph(4, [[0, 1], [0, 2], [0, 3]]), src)
        assert main(["gen", str(src), "--kcore", "--out", str(tmp_path / "o.hgr")]) == 1
        capsys.readouterr()

    def test_infeasible_spec_fails(self, capsys, tmp_path):
        assert main(["gen", "--random", "-n", "3", "-m", "2", "--sizes", "4", "5",
                     "--out", str(tmp_path / "x.hgr")]) == 1
        capsys.readouterr()
