"""Command-line harness: subcommands, exit codes, output artifacts."""

import csv
import hashlib
import json

import pytest

from conftest import mild_params
from fuzzloc.cli import BENCH_HEADER, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main
from fuzzloc.instances import TABLE1_SHA256, generate_instance, load_instance, save_instance


@pytest.fixture()
def small_file(tmp_path):
    path = tmp_path / "small.json"
    save_instance(generate_instance(mild_params(6, 2, 0)), path)
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestGenerate:
    def test_writes_loadable_file(self, tmp_path):
        out = tmp_path / "inst.json"
        assert run(["generate", "--n", 8, "--m", 2, "--seed", 7, "--out", out]) == EXIT_OK
        inst = load_instance(out)
        assert (inst.n, inst.m_servers) == (8, 2)

    def test_table1_fixture_hash(self, tmp_path):
        out = tmp_path / "t1.json"
        assert run(["generate", "--table1", "--out", out]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == TABLE1_SHA256

    def test_m_at_least_n_rejected(self, tmp_path):
        out = tmp_path / "bad.json"
        assert run(["generate", "--n", 3, "--m", 5, "--out", out]) == EXIT_USAGE


class TestSolve:
    def test_brute_matches_enumeration(self, small_file, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert run(["solve", "--instance", small_file, "--algo", "brute", "--out", out]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["report"]["termination"] == "exhaustive"
        assert 0.0 <= doc["report"]["objective"] <= 1.0
        assert doc["bounds_id"] == doc["report"]["bounds_id"]

    def test_deterministic_repeat(self, small_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run([
                "solve", "--instance", small_file, "--algo", "ga", "--seed", 1, "--out", out,
            ]) == EXIT_OK
            doc = json.loads(out.read_text())
            doc["report"].pop("elapsed_s")
            outs.append(doc)
        assert outs[0] == outs[1]

    def test_bounds_replay(self, small_file, tmp_path):
        first = tmp_path / "first.json"
        run(["solve", "--instance", small_file, "--algo", "ga", "--seed", 0,
             "--exact-bounds", "--out", first])
        replay = tmp_path / "replay.json"
        assert run([
            "solve", "--instance", small_file, "--algo", "brute",
            "--bounds", first, "--out", replay,
        ]) == EXIT_OK
        a = json.loads(first.read_text())
        b = json.loads(replay.read_text())
        assert a["bounds"] == b["bounds"]
        assert b["report"]["objective"] >= a["report"]["objective"] - 1e-12

    def test_bounds_replay_brute_is_timed(self, small_file, tmp_path):
        first = tmp_path / "first.json"
        assert run(["solve", "--instance", small_file, "--algo", "brute", "--out", first]) == EXIT_OK
        replay = tmp_path / "replay.json"
        assert run([
            "solve", "--instance", small_file, "--algo", "brute",
            "--bounds", first, "--out", replay,
        ]) == EXIT_OK
        a = json.loads(first.read_text())["report"]
        b = json.loads(replay.read_text())["report"]
        assert b["elapsed_s"] > 0
        assert (b["best"], b["objective"], b["bounds_id"]) == (a["best"], a["objective"], a["bounds_id"])

    def test_missing_instance_is_runtime_error(self, tmp_path):
        assert run(["solve", "--instance", tmp_path / "nope.json"]) == EXIT_RUNTIME

    def test_gamma_override(self, small_file, tmp_path, capsys):
        assert run([
            "solve", "--instance", small_file, "--algo", "brute", "--gamma", "1.0",
        ]) == EXIT_OK


class TestBench:
    def test_csv_schema_and_row_count(self, small_file, tmp_path):
        out = tmp_path / "bench.csv"
        assert run([
            "bench", "--instance", small_file, "--replications", 2,
            "--exact-bounds", "--out", out,
        ]) == EXIT_OK
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == BENCH_HEADER
        assert len(rows) == 1 + 2 * 2  # header + algorithms x replications
        for row in rows[1:]:
            assert row[0] in ("ga", "aco")
            assert len(row[7].split(";")) == 2

    def test_plot_data_emitted(self, small_file, tmp_path):
        out = tmp_path / "bench.csv"
        run(["bench", "--instance", small_file, "--replications", 1,
             "--exact-bounds", "--out", out])
        assert (tmp_path / "bench_runtime_vs_n.csv").exists()
        assert (tmp_path / "bench_objective_vs_n.csv").exists()


class TestTune:
    def test_single_cell_grid(self, small_file, tmp_path):
        out = tmp_path / "tune.csv"
        assert run([
            "tune", "--instance", small_file, "--out", out, "--exact-bounds",
            "--evaporation", "0.97", "--max-pheromone", "200",
            "--coefficient", "2", "--alpha", "0.75", "--beta", "0.75",
        ]) == EXIT_OK
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert 0.0 <= float(rows[1][-1]) <= 1.0

    def test_default_grid_is_32_cells(self, small_file, tmp_path):
        out = tmp_path / "tune32.csv"
        assert run(["tune", "--instance", small_file, "--out", out, "--exact-bounds"]) == EXIT_OK
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 33


class TestValidate:
    def test_small_budget_warns_but_passes(self, capsys):
        assert run(["validate", "--events", 2000, "--skip-network"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "not enforceable" in captured.out

    def test_impossible_tolerance_fails(self):
        assert run([
            "validate", "--events", 20000, "--tolerance", "0.000001",
            "--rho", "0.5", "--skip-network",
        ]) == EXIT_VALIDATION


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert run(["solve"]) == EXIT_USAGE
