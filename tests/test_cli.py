import json

import jsonschema
import pytest

from hgcut import Hypergraph, load_hypergraph, save_hypergraph
from hgcut.cli import main, profile_fractions
from conftest import RUN_RECORD_SCHEMA, profile_fixture_records, two_cycle_union


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

    def test_stats_out_jsonl(self, capsys, tri_file, tmp_path):
        out = tmp_path / "stats.jsonl"
        code, record = run_record(
            capsys, ["solve", tri_file, "--algo", "heicut", "--stats-out", str(out)]
        )
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().strip().splitlines()]
        assert lines == record["round_stats"]
        assert {"round", "rule", "edges_before", "edges_after", "upper_bound"} <= set(lines[0])

    def test_config_echo_reproducibility(self, capsys, tri_file):
        _, first = run_record(capsys, ["solve", tri_file, "--seed", "11"])
        _, second = run_record(capsys, ["solve", tri_file, "--seed", "11"])
        assert first["config"] == second["config"]
        assert first["value"] == second["value"]


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

    def test_reweight_produces_fmt_11(self, capsys, tmp_path):
        src = tmp_path / "src.hgr"
        assert main(["gen", "--random", "-n", "8", "-m", "12", "--seed", "2",
                     "--out", str(src)]) == 0
        out = tmp_path / "w.hgr"
        assert main(["gen", str(src), "--weights", "1", "100", "--seed", "3",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        header = out.read_text().splitlines()[0]
        assert header.endswith(" 11")
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
