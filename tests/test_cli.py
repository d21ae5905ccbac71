"""Command-line harness: subcommands, exit codes, output artifacts."""

import csv
import hashlib
import json
import math

import numpy as np
import pytest

from conftest import mild_params
from fuzzloc import cli, evaluation, model, oracle
from fuzzloc.aco import ACOConfig
from fuzzloc.cli import BENCH_HEADER, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION, main
from fuzzloc.evaluation import COMPONENTS, MaximinContext
from fuzzloc.fuzzy import TriFuzzy
from fuzzloc.instances import (
    TABLE1_SHA256,
    GeneratorParams,
    generate_instance,
    load_instance,
    save_instance,
)
from fuzzloc.protocol import estimate_bounds, solve_protocol
from fuzzloc.reports import SolverReport


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

    @pytest.mark.parametrize("flags, named", [
        (["--m", 15, "--n", 7, "--seed", 3], "--m"),
        (["--n", 20], "--n"),
        (["--seed", 0], "--seed"),
        (["--demand-lo", 4, 30], "--demand-lo"),
        (["--logit", 0.8, "--mql", 10], "--logit"),
    ])
    def test_table1_refuses_generator_flags(self, tmp_path, capsys, flags, named):
        """The fixture is fixed: --table1 with a generator flag, even one at
        its default, stops with one line naming the first flag given, and
        writes no file."""
        out = tmp_path / "t.json"
        assert run(["generate", "--table1", *flags, "--out", out]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"usage error: --table1 takes no generator flag, got {named}\n"

    def test_m_at_least_n_rejected(self, tmp_path):
        out = tmp_path / "bad.json"
        assert run(["generate", "--n", 3, "--m", 5, "--out", out]) == EXIT_USAGE

    @pytest.mark.parametrize("flags", [["--idle-min", 1, 1, 1],
                                       ["--idle-min", 0.5, 1, 1, "--gamma", 1]])
    def test_zero_capacity_threshold_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "zero.json"
        argv = ["generate", "--n", 8, "--m", 2, "--seed", 1, *flags, "--out", out]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        assert line.startswith("usage error: idle_min and gamma give a capacity threshold of 0")

    def test_defaults_are_generator_params(self, tmp_path):
        out, expected = tmp_path / "cli.json", tmp_path / "api.json"
        assert run(["generate", "--n", 12, "--m", 3, "--seed", 4, "--out", out]) == EXIT_OK
        save_instance(generate_instance(GeneratorParams(n=12, m_servers=3, seed=4)), expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_given_flags_override_defaults(self, tmp_path):
        out, expected = tmp_path / "cli.json", tmp_path / "api.json"
        assert run([
            "generate", "--n", 9, "--m", 2, "--out", out, "--demand-lo", 4, 30,
            "--service-offsets", 10, 20, "--idle-min", 0.2, 0.25, 0.3, "--logit", 0.8,
        ]) == EXIT_OK
        params = GeneratorParams(
            n=9, m_servers=2, demand_lo_range=(4, 30), service_offsets=(10, 20),
            idle_min=TriFuzzy(0.2, 0.25, 0.3), logit_sensitivity=0.8,
        )
        save_instance(generate_instance(params), expected)
        assert out.read_bytes() == expected.read_bytes()


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

    @pytest.mark.parametrize("order", ["bounds-first", "exact-first"])
    def test_bounds_with_exact_bounds_is_usage_error(self, tmp_path, capsys, order):
        """--bounds and --exact-bounds together stop the solve with one line
        from the parser, before any file is read or written: neither the
        instance nor the bounds file exists, which a load would report as a
        runtime error."""
        flags = [["--bounds", tmp_path / "r.json"], ["--exact-bounds"]]
        if order == "exact-first":
            flags.reverse()
        out = tmp_path / "out.json"
        argv = ["solve", "--instance", tmp_path / "nope.json", *flags[0], *flags[1], "--out", out]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        assert line.startswith("usage error: argument --") and "not allowed with argument" in line

    def test_brute_exact_bounds_enumerates_once(self, tmp_path, monkeypatch):
        """--exact-bounds adds no second pass to a brute solve: one Scan, and
        the result file of a solve without the flag."""
        path = tmp_path / "g.json"
        save_instance(generate_instance(mild_params(10, 3, 2)), path)
        scans, init = [], oracle.Scan.__init__

        def counted(self, *args, **kwargs):
            scans.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(oracle.Scan, "__init__", counted)
        docs = []
        for flags in ([], ["--exact-bounds"]):
            out = tmp_path / f"b{len(docs)}.json"
            scans.clear()
            argv = ["solve", "--instance", path, "--algo", "brute", *flags, "--out", out]
            assert run(argv) == EXIT_OK
            assert len(scans) == 1, flags
            doc = json.loads(out.read_text())
            doc["report"].pop("elapsed_s")
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["bounds"]["provenance"] == "oracle-exact"

    @pytest.mark.parametrize("flags", [
        ["--algo", "brute"],
        ["--algo", "brute", "--exact-bounds"],
        ["--algo", "aco", "--exact-bounds"],
    ])
    def test_table1_has_no_feasible_subset(self, tmp_path, capsys, flags):
        path = tmp_path / "t.json"
        assert run(["generate", "--table1", "--out", path]) == EXIT_OK
        capsys.readouterr()
        assert run(["solve", "--instance", path, *flags]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "error: no feasible facility subset exists\n"

    def test_gamma_override(self, small_file, tmp_path, capsys):
        assert run([
            "solve", "--instance", small_file, "--algo", "brute", "--gamma", "1.0",
        ]) == EXIT_OK

    @pytest.mark.parametrize("text", [
        '{"report": {}}',
        "not json",
        "[1, 2]",
        '{"bounds": [0, 1]}',
        '{"bounds": {"z1_bounds": [1], "z2_bounds": [0, 1], "z3_bounds": [0, 1],'
        ' "provenance": "oracle-exact"}}',
        '{"bounds": {"z1_bounds": [0, 1], "z2_bounds": [0, "1"], "z3_bounds": [0, 1],'
        ' "provenance": "oracle-exact"}}',
        '{"bounds": {"z1_bounds": [0, 1], "z2_bounds": [0, 1], "z3_bounds": [true, 1],'
        ' "provenance": "oracle-exact"}}',
        '{"bounds": {"z1_bounds": [0, 1], "z2_bounds": [0, 1], "z3_bounds": [0, 1]}}',
    ])
    def test_malformed_bounds_file_is_usage_error(self, small_file, tmp_path, capsys, text):
        bounds = tmp_path / "bounds.json"
        bounds.write_text(text)
        assert run([
            "solve", "--instance", small_file, "--algo", "brute", "--bounds", bounds,
        ]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")
        assert str(bounds) in err

    @pytest.mark.parametrize("key, value, named", [
        ("z4_bounds", [0, 1], "unknown field 'z4_bounds'"),
        ("provenance", "made-up", "unknown provenance 'made-up'"),
    ], ids=["key", "provenance"])
    def test_unknown_bounds_key_or_provenance_is_usage_error(
        self, small_file, tmp_path, capsys, key, value, named
    ):
        """A written result file given a bounds key or a provenance that no
        solve writes stops the solve with one line naming it, before any
        output."""
        written = tmp_path / "b.json"
        assert run(["solve", "--instance", small_file, "--algo", "brute", "--out", written]) == EXIT_OK
        doc = json.loads(written.read_text())
        doc["bounds"][key] = value
        bounds = tmp_path / "bounds.json"
        bounds.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "out.json"
        argv = ["solve", "--instance", small_file, "--algo", "ga", "--bounds", bounds, "--out", out]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        assert line == f"usage error: {bounds} is not a result file: bounds has {named}"

    def test_edited_bounds_under_their_old_id_are_usage_error(self, small_file, tmp_path, capsys):
        """A written result file whose bounds were edited and whose bounds_id
        was left as it was stops the solve with one line naming the file and
        both ids, before any output; the same file with no bounds_id
        replays."""
        written = tmp_path / "b.json"
        assert run(["solve", "--instance", small_file, "--algo", "brute", "--out", written]) == EXIT_OK
        doc = json.loads(written.read_text())
        doc["bounds"]["z1_bounds"] = [0.0, 9.0]
        edited_id = MaximinContext.from_dict(doc["bounds"]).bounds_id
        assert edited_id != doc["bounds_id"]
        bounds, out = tmp_path / "bounds.json", tmp_path / "out.json"
        bounds.write_text(json.dumps(doc))
        capsys.readouterr()
        argv = ["solve", "--instance", small_file, "--algo", "ga", "--bounds", bounds, "--out", out]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        assert line == (f"usage error: {bounds} holds bounds_id {doc['bounds_id']!r}, "
                        f"but its bounds give {edited_id!r}")
        del doc["bounds_id"]
        bounds.write_text(json.dumps(doc))
        assert run(argv) == EXIT_OK
        assert json.loads(out.read_text())["bounds_id"] == edited_id

    @pytest.mark.parametrize("algo, feasible", [("brute", True), ("ga", True), ("aco", False)])
    def test_written_bounds_replay_to_their_context(self, tmp_path, algo, feasible):
        """The bounds of every written result file, NaN bounds included,
        replay to a context equal to the solve's own, with its bounds_id,
        and a replaying solve writes them back as they were."""
        params = mild_params(8, 2, 0) if feasible else GeneratorParams(n=10, m_servers=3, seed=0)
        instance, path = generate_instance(params), tmp_path / "g.json"
        save_instance(instance, path)
        written, replayed = tmp_path / "w.json", tmp_path / "r.json"
        assert run(["solve", "--instance", path, "--algo", algo, "--out", written]) == EXIT_OK
        assert run(["solve", "--instance", path, "--algo", "ga", "--bounds", written,
                    "--out", replayed]) == EXIT_OK
        _, ctx = solve_protocol(instance, algo)
        docs = [json.loads(p.read_text()) for p in (written, replayed)]
        for doc in docs:
            assert MaximinContext.from_dict(doc["bounds"]) == ctx
            assert doc["bounds_id"] == ctx.bounds_id
        assert json.dumps(docs[0]["bounds"]) == json.dumps(docs[1]["bounds"])
        assert feasible == all(map(math.isfinite, ctx.z1_bounds))

    def test_integer_bounds_replay_as_their_float_twin(self, small_file, tmp_path):
        """Copies of a written result file with [0, 1]-style integer bounds
        and with [0.0, 1.0]-style float bounds replay to the same result
        file: floats written back, and one bounds_id. The copies hold no
        bounds_id: the written one names the exact bounds they replace."""
        written = tmp_path / "b.json"
        assert run(["solve", "--instance", small_file, "--algo", "brute", "--out", written]) == EXIT_OK
        doc = json.loads(written.read_text())
        del doc["bounds_id"]
        replays = []
        for number in (int, float):
            doc["bounds"].update({f"{name}_bounds": [number(0), number(k + 1)]
                                  for k, name in enumerate(COMPONENTS)})
            copy, replay = tmp_path / f"{number.__name__}.json", tmp_path / "replay.json"
            copy.write_text(json.dumps(doc))
            assert run(["solve", "--instance", small_file, "--algo", "brute",
                        "--bounds", copy, "--out", replay]) == EXIT_OK
            replays.append(json.loads(replay.read_text()))
            replays[-1]["report"].pop("elapsed_s")
        assert json.dumps(replays[0]) == json.dumps(replays[1])
        assert json.dumps(replays[0]["bounds"]["z3_bounds"]) == "[0.0, 3.0]"


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

    def test_exact_bounds_built_once_per_instance(self, small_file, tmp_path, monkeypatch):
        calls, exact_bounds = [], cli.exact_bounds

        def counted(instance, **kwargs):
            calls.append(instance.n)
            return exact_bounds(instance, **kwargs)

        monkeypatch.setattr(cli, "exact_bounds", counted)
        out = tmp_path / "bench.csv"
        assert run([
            "bench", "--instance", small_file, "--replications", 3,
            "--exact-bounds", "--out", out,
        ]) == EXIT_OK
        assert calls == [6]

    def test_gap_is_negative_when_ga_is_worse(self, small_file, tmp_path, monkeypatch, capsys):
        """Both means negative, as on an infeasible instance: the GA's lower
        mean is the worse one, and the gap says so."""
        objectives = {"ga": -16.5, "aco": -16.3}

        def fixed(instance, algo, seed=0, **kwargs):
            report = SolverReport(
                algorithm=algo, n=instance.n, m=instance.m_servers, seed=seed, best=[1, 2],
                objective=objectives[algo], iterations=1, termination="stagnation",
            )
            return report, MaximinContext((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), "oracle-exact")

        monkeypatch.setattr(cli, "solve_protocol", fixed)
        out = tmp_path / "bench.csv"
        assert run(["bench", "--instance", small_file, "--replications", 2, "--out", out]) == EXIT_OK
        assert "gap -1.21%" in capsys.readouterr().out

    def test_plot_data_emitted(self, small_file, tmp_path):
        out = tmp_path / "bench.csv"
        run(["bench", "--instance", small_file, "--replications", 1,
             "--exact-bounds", "--out", out])
        assert (tmp_path / "bench_runtime_vs_n.csv").exists()
        assert (tmp_path / "bench_objective_vs_n.csv").exists()

    def test_same_stem_instances_stay_apart(self, tmp_path, capsys):
        """Instance files of one stem in two directories each get their own
        summary line, naming the path, and their own plot rows."""
        paths = []
        for folder, n in (("a", 8), ("b", 10)):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "g.json")
            save_instance(generate_instance(mild_params(n, 3, 0)), paths[-1])
        out = tmp_path / "bench.csv"
        assert run([
            "bench", "--instance", paths[0], "--instance", paths[1], "--replications", 1,
            "--exact-bounds", "--out", out,
        ]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": GA obj ")[0] for line in lines[:-1]] == [str(p) for p in paths]
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["instance"], row["n"], row["algorithm"]) for row in rows] == [
            ("g", "8", "ga"), ("g", "8", "aco"), ("g", "10", "ga"), ("g", "10", "aco")]
        # one replication: each mean is its instance's own objective
        objective = {(row["n"], row["algorithm"]): row["objective"] for row in rows}
        expected = [(n, algo) for n in ("8", "10") for algo in ("aco", "ga")]
        with (tmp_path / "bench_objective_vs_n.csv").open() as fh:
            plot = [(r["n"], r["algorithm"], r["mean_objective"]) for r in csv.DictReader(fh)]
        assert plot == [(*key, objective[key]) for key in expected]
        with (tmp_path / "bench_runtime_vs_n.csv").open() as fh:
            assert [(r["n"], r["algorithm"]) for r in csv.DictReader(fh)] == expected

    def test_bad_instance_file_stops_before_any_run(
        self, small_file, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "solve_protocol", _never)
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        out = tmp_path / "bench.csv"
        argv = ["bench", "--instance", small_file, "--instance", bad, "--out", out]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"usage error: {bad}: top-level JSON must be an object\n")
        assert not out.exists()


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

    def test_calibrated_grid(self, small_file, tmp_path):
        """Without --exact-bounds each seed's bounds come from the six ACO
        bound runs of that seed under the default ACOConfig."""
        out = tmp_path / "tune.csv"
        assert run([
            "tune", "--instance", small_file, "--out", out, "--seeds", 0, 1,
            "--evaporation", "0.95", "--max-pheromone", "150",
            "--coefficient", "1", "--alpha", "0.5", "--beta", "1",
        ]) == EXIT_OK
        instance = load_instance(small_file)
        cell = ACOConfig(
            evaporation_rate=0.95, max_pheromone=150, population_coefficient=1,
            alpha_exp=0.5, beta_exp=1,
        )
        objectives = [
            solve_protocol(
                instance, "aco", seed=s, aco_config=cell,
                ctx=estimate_bounds(instance, ACOConfig(), s),
            )[0].objective
            for s in (0, 1)
        ]
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["mean_objective"] for row in rows] == [cli._fmt(float(np.mean(objectives)))]

    def test_default_grid_is_32_cells(self, small_file, tmp_path):
        out = tmp_path / "tune32.csv"
        assert run(["tune", "--instance", small_file, "--out", out, "--exact-bounds"]) == EXIT_OK
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 33


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
@pytest.mark.parametrize("command", [
    ["solve", "--algo", "brute"],
    ["bench", "--replications", 1, "--exact-bounds"],
    ["tune", "--exact-bounds"],
])
def test_bad_enum_budget_is_usage_error(small_file, tmp_path, monkeypatch, capsys, value, command):
    """A FUZZLOC_ENUM_BUDGET that is not a positive integer stops the command
    with one line and no traceback, before any file is written."""
    monkeypatch.setenv("FUZZLOC_ENUM_BUDGET", value)
    out = tmp_path / "out"
    assert run([*command, "--instance", small_file, "--out", out]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"usage error: FUZZLOC_ENUM_BUDGET must be a positive integer, got {value!r}\n")
    assert not out.exists()


def _never(*args, **kwargs):
    raise AssertionError("ran before the usage error")


@pytest.mark.parametrize("value", [0, -5])
@pytest.mark.parametrize("flag", ["--events", "--network-events", "--replications"])
def test_count_below_one_is_usage_error(small_file, tmp_path, monkeypatch, capsys, flag, value):
    """A count below 1 stops the command with one line from the parser,
    before any simulation or solve runs and before any file is written."""
    for name in ("mm1_simulate", "simulate_objective_slice", "solve_protocol"):
        monkeypatch.setattr(cli, name, _never)
    out = tmp_path / "out.csv"
    command = {
        "--events": ["validate", "--skip-network"],
        "--network-events": ["validate"],
        "--replications": ["bench", "--instance", small_file, "--out", out],
    }[flag]
    assert run([*command, flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"usage error: argument {flag}: must be a positive integer, got '{value}'\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("algo", ["ga", "brute"])
def test_non_finite_logit_is_usage_error(small_file, capsys, value, algo):
    assert run(["solve", "--instance", small_file, "--algo", algo, "--logit", value]) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: logit_sensitivity must be finite\n"


@pytest.mark.parametrize("field, value", [
    ("demand", 5),
    ("distance", [1.0] * 6),
    ("idle_min", [0.1, 0.2]),
    ("n", "six"),
    ("demand", [["a", "b", "c"]] * 6),
    ("mql", None),
    ("benefit_weight", [[1.0] * 6] * 5 + [[1.0] * 5]),
    ("m_servers", 2.5),
    ("n", 6.7),
    ("n", 6.0),
    ("m_servers", True),
    ("n", True),
    ("mql", True),
    ("gamma", "0.5"),
], ids=["demand-number", "distance-flat", "idle_min-pair", "n-word", "demand-strings",
        "mql-null", "benefit_weight-ragged", "m_servers-fraction", "n-fraction", "n-float",
        "m_servers-bool", "n-bool", "mql-bool", "gamma-string"])
def test_malformed_field_type_is_usage_error(small_file, capsys, field, value):
    """An instance file field of the wrong type stops the solve with one
    usage-error line that names the field, and no traceback."""
    doc = json.loads(small_file.read_text())
    doc[field] = value
    small_file.write_text(json.dumps(doc))
    assert run(["solve", "--instance", small_file, "--algo", "brute"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith(f"usage error: {field} ")


@pytest.mark.parametrize("key", ["benefit_weights", "idle_mn"])
def test_unknown_instance_field_is_usage_error(small_file, tmp_path, capsys, key):
    """An instance file key that the loader does not know, a misspelt one
    say, stops the solve with one usage-error line that names it."""
    doc = json.loads(small_file.read_text())
    doc[key] = 0.1
    small_file.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert run(["solve", "--instance", small_file, "--algo", "brute", "--out", out]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"usage error: unknown field '{key}'\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["solve", "--algo", "brute"], ["bench"], ["tune"]],
                         ids=["solve", "bench", "tune"])
def test_non_utf8_instance_is_usage_error(tmp_path, monkeypatch, capsys, command):
    """An instance file that is not UTF-8 text stops each command that reads
    one with one usage-error line that names the file, before any run and
    before any file is written."""
    monkeypatch.setattr(cli, "solve_protocol", _never)
    bad = tmp_path / "bin.json"
    bad.write_bytes(b"\xff\xfe\x00bad")
    out = tmp_path / "out"
    assert run([*command, "--instance", bad, "--out", out]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"usage error: {bad}: not UTF-8 text at byte 0\n")
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("command", [
    ["generate", "--seed", -3],
    ["solve", "--algo", "ga", "--seed", -3],
    ["solve", "--algo", "aco", "--seed", -3],
    ["tune", "--seeds", 0, -3],
])
def test_negative_seed_is_usage_error(small_file, tmp_path, capsys, command):
    """A negative seed stops the command with one line, before any run and
    before any file is written; the solve names the seed it was given."""
    out = tmp_path / "out"
    if command[0] != "generate":
        command = [*command, "--instance", small_file]
    assert run([*command, "--out", out]) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: seed must be non-negative, got -3\n"
    assert not out.exists()


def test_bench_negative_seed_is_usage_error(small_file, tmp_path, monkeypatch, capsys):
    """A negative bench seed stops the command with one line, as a solve's
    does, before any solve and before any file is written. It used to exit 0
    with an error row for every replication on a negative seed."""
    monkeypatch.setattr(cli, "solve_protocol", _never)
    out = tmp_path / "bench.csv"
    assert run([
        "bench", "--instance", small_file, "--replications", 2, "--seed", -1, "--out", out,
    ]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "usage error: seed must be non-negative, got -1\n")
    assert list(tmp_path.iterdir()) == [small_file]  # no table and no plot file


class TestEnumBudget:
    """FUZZLOC_ENUM_BUDGET below C(6, 2) = 15 subsets makes every exhaustive
    enumeration of the small instance fail; at 15 it fits."""

    @pytest.fixture(autouse=True)
    def short_budget(self, monkeypatch):
        monkeypatch.setenv("FUZZLOC_ENUM_BUDGET", "14")

    @pytest.mark.parametrize("flags", [["--algo", "aco", "--exact-bounds"], ["--algo", "brute"]])
    def test_solve_exits_runtime(self, small_file, flags, capsys):
        assert run(["solve", "--instance", small_file, *flags]) == EXIT_RUNTIME
        assert "budget is 14" in capsys.readouterr().err

    def test_budget_that_fits(self, small_file, monkeypatch):
        monkeypatch.setenv("FUZZLOC_ENUM_BUDGET", "15")
        assert run(["solve", "--instance", small_file, "--algo", "brute"]) == EXIT_OK

    def test_tune_exits_runtime(self, small_file, tmp_path):
        out = tmp_path / "tune.csv"
        assert run([
            "tune", "--instance", small_file, "--out", out, "--exact-bounds",
            "--evaporation", "0.97", "--max-pheromone", "200",
            "--coefficient", "2", "--alpha", "0.75", "--beta", "0.75",
        ]) == EXIT_RUNTIME

    def test_bench_writes_error_rows(self, small_file, tmp_path):
        out = tmp_path / "bench.csv"
        assert run([
            "bench", "--instance", small_file, "--replications", 1,
            "--exact-bounds", "--out", out,
        ]) == EXIT_OK
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["algorithm"] for row in rows] == ["ga", "aco"]
        for row in rows:
            assert row["termination"].startswith("error:")
            assert "budget is 14" in row["termination"]
            assert (row["objective"], row["facilities"], row["evals"]) == ("nan", "", "0")


class TestValidate:
    def test_network_events_passed_as_given(self, monkeypatch):
        budgets = []

        def analytic(instance, solution, slc, event_budget, seed=0):
            budgets.append(event_budget)
            return model.crisp_objective_slice(instance, solution, slc)

        monkeypatch.setattr(cli, "simulate_objective_slice", analytic)
        argv = ["validate", "--events", 2000, "--rho", "0.3", "--network-events", 5000]
        assert run(argv) == EXIT_OK
        assert budgets == [5000]

    def test_network_optimum_makes_no_drive_call(self, monkeypatch, capsys):
        """The network check takes its optimum, {2,6}, from one Kernel of
        its instance's 15 subsets, not from a drive run."""
        drives, drive = [], evaluation.drive

        def counted(runs):
            drives.append(runs)
            return drive(runs)

        monkeypatch.setattr(oracle, "drive", counted)
        monkeypatch.setattr(evaluation, "drive", counted)
        monkeypatch.setattr(cli, "simulate_objective_slice",
                            lambda instance, solution, slc, events, seed=0:
                            model.crisp_objective_slice(instance, solution, slc))
        assert run(["validate", "--events", 2000, "--rho", "0.3"]) == EXIT_OK
        assert drives == []
        assert "(mid slice, facilities {2,6}): analytic 147.5968," in capsys.readouterr().out

    def test_negative_seed_is_usage_error(self, capsys):
        assert run(["validate", "--seed", -1, "--skip-network"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "usage error: seed must be non-negative, got -1\n")

    def test_small_budget_warns_but_passes(self, capsys):
        assert run(["validate", "--events", 2000, "--skip-network"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "not enforceable" in captured.out

    @pytest.mark.parametrize("rhos", [["1.2"], ["1.0"], ["1.0", "2.5"]])
    @pytest.mark.parametrize("network", [[], ["--skip-network"]])
    def test_every_rho_unstable_is_usage_error(self, monkeypatch, capsys, rhos, network):
        """With no stable rho there is no row to check: one usage-error line,
        before any simulation and with no "validation passed"."""
        for name in ("mm1_simulate", "simulate_objective_slice", "Kernel"):
            monkeypatch.setattr(cli, name, _never)
        assert run(["validate", "--rho", *rhos, *network]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("usage error: no --rho is below 1")

    @pytest.mark.parametrize("rhos, bad", [
        (["--rho", "nan"], "nan"),
        (["--rho", "inf"], "inf"),
        (["--rho=-inf"], "-inf"),  # a bare -inf reads as an option: see below
        (["--rho", "0"], "0"),
        (["--rho", "-0.0"], "-0.0"),
        (["--rho", "0.5", "-0.5"], "-0.5"),
        (["--rho", "0.5", "nan", "0.8"], "nan"),
        (["--rho", "1.2", "inf"], "inf"),
    ])
    @pytest.mark.parametrize("network", [[], ["--skip-network"]])
    def test_bad_rho_is_usage_error(self, monkeypatch, capsys, rhos, bad, network):
        """A --rho that is NaN, infinite or not above 0 is named in one
        usage-error line, before the header, any simulation or any other
        --rho: ``--rho 0.5 -0.5`` prints no row for 0.5."""
        for name in ("mm1_simulate", "simulate_objective_slice", "Kernel"):
            monkeypatch.setattr(cli, name, _never)
        assert run(["validate", *rhos, *network]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: argument --rho: must be a finite number above 0, got '{bad}'\n")

    def test_bare_minus_inf_rho_is_usage_error(self, monkeypatch, capsys):
        """argparse reads a bare ``-inf`` as an option, not a number, so
        ``--rho -inf`` names --rho as missing its value."""
        monkeypatch.setattr(cli, "mm1_simulate", _never)
        assert run(["validate", "--rho", "-inf", "--skip-network"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("usage error: ") and "--rho" in line

    @pytest.mark.parametrize("flag", ["--tolerance", "--network-tolerance"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-1", "-0.5", "1e400", "abc"])
    @pytest.mark.parametrize("network", [[], ["--skip-network"]])
    def test_bad_tolerance_is_usage_error(self, monkeypatch, capsys, flag, bad, network):
        """A tolerance that is NaN, infinite or below 0 is named in one
        usage-error line, before the header or any simulation."""
        for name in ("mm1_simulate", "simulate_objective_slice", "Kernel"):
            monkeypatch.setattr(cli, name, _never)
        assert run(["validate", f"{flag}={bad}", *network]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: argument {flag}: must be a finite number at least 0, got '{bad}'\n")

    def test_zero_tolerance_is_valid(self):
        args = cli.build_parser().parse_args(
            ["validate", "--tolerance", "0", "--network-tolerance", "-0.0"])
        assert (args.tolerance, args.network_tolerance) == (0.0, 0.0)

    def test_unstable_rho_skipped_and_heavy_rho_relaxed(self, capsys):
        argv = ["validate", "--events", 2000, "--rho", "1.0", "0.9", "--skip-network"]
        assert run(argv) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "1      skipped (unstable)"
        assert [line for line in out if "relaxed" in line] == [
            "       (tolerance relaxed x2.0 for rho=0.9)"]

    def test_impossible_tolerance_fails(self):
        assert run([
            "validate", "--events", 20000, "--tolerance", "0.000001",
            "--rho", "0.5", "--skip-network",
        ]) == EXIT_VALIDATION

    def test_default_budget_passes_at_seed_1(self):
        # One 10^6-event run at seed 1 puts Lq at rho = 0.8 4.2% off; the
        # mean of five replications is within 0.4%.
        assert run(["validate", "--seed", 1, "--skip-network"]) == EXIT_OK

    def test_default_budget_enforces_every_row(self, capsys):
        assert run(["validate", "--skip-network"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count(" pass\n") == 6
        assert "unchecked" not in out and "not enforceable" not in out

    @pytest.mark.parametrize("events,seed", [(20000, 0), (20000, 1), (20000, 2), (100000, 1)])
    def test_small_budget_checks_only_precise_rows(self, events, seed, capsys):
        # A fixed 10^4-event line enforced every row here: at 20 000 events
        # Lq at rho = 0.5 is 2.4%, 2.7% and 6.7% off at seeds 0, 1 and 2.
        argv = ["validate", "--events", events, "--seed", seed, "--skip-network"]
        assert run(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert "not enforceable" in out and " pass\n" in out


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag(self):
        assert run(["solve"]) == EXIT_USAGE
