"""tools/report_dump.py on two of its instances."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

from fuzzloc.model import TABLE_LIMIT
from fuzzloc.oracle import CHUNK_SIZE, mm1_simulate
from fuzzloc.protocol import solve_protocol

PATH = Path(__file__).resolve().parent.parent / "tools" / "report_dump.py"
RECORDED = Path(__file__).resolve().parent / "data" / "report_dump.txt"
spec = importlib.util.spec_from_file_location("report_dump", PATH)
report_dump = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_dump)


def test_dump_lines_are_hex_reports(capsys):
    """One JSON line per instance, solver and seed, in that order (the brute
    solve and the GA before and after the ACO, then the brute solve under
    the seed-0 ACO context), with no wall time and every float as hex; a
    brute solve of table1, which has no feasible subset, prints its error,
    and under the given NaN context takes the all-infeasible fallback. The
    GA's and the brute solve's lines after the ACO repeat their lines before
    it. The simulator's lines follow the solves'. A second run prints the
    same bytes."""
    argv = ["--instances", "table1", "weighted12"]
    assert report_dump.main(argv) == 0
    out = capsys.readouterr().out
    docs = [json.loads(line) for line in out.splitlines()]
    count = len(report_dump.SIMULATIONS)
    lines, simulations = docs[:-count], docs[-count:]
    assert all("simulation" not in d for d in lines)
    assert [(float.fromhex(d["lam"]), d["event_budget"], d["seed"]) for d in simulations] == \
        report_dump.SIMULATIONS
    assert [(d["instance"], d["algo"], d["seed"], d.get("ctx")) for d in lines] == [
        (name, algo, seed, ctx) for name in ("table1", "weighted12")
        for algo, ctx in (("brute", None), ("ga", None), ("aco", None), ("ga", None),
                          ("brute", None), ("brute", "aco-0"))
        for seed in (0, 1)
    ]
    for name in ("table1", "weighted12"):
        aco = next(d for d in lines if (d["instance"], d["algo"], d["seed"]) == (name, "aco", 0))
        given = [d for d in lines if d["instance"] == name and "ctx" in d]
        assert all(d["bounds"] == aco["bounds"] for d in given)
        assert all(d["report"]["termination"] == "exhaustive" for d in given)
    for doc in lines:
        if doc["instance"] == "table1" and doc["algo"] == "brute" and "ctx" not in doc:
            assert doc["error"] == "no feasible facility subset exists"
            continue
        report = doc["report"]
        assert "elapsed_s" not in report
        assert all(isinstance(float.fromhex(v), float) for v in report["trace"])
        assert all(isinstance(float.fromhex(v), float)
                   for name in ("z1_bounds", "z2_bounds", "z3_bounds") for v in doc["bounds"][name])
    weighted = report_dump.INSTANCES["weighted12"]()
    assert weighted.benefit_weight is not None
    report, _ = solve_protocol(weighted, "ga", seed=1, ga_config=report_dump.workloads.GA_CONFIG)
    cold, warm = [d for d in lines
                  if (d["instance"], d["algo"], d["seed"]) == ("weighted12", "ga", 1)]
    assert cold == warm and float.fromhex(cold["report"]["objective"]) == report.objective
    for seed in (0, 1):
        cold, warm = [d for d in lines if (d["instance"], d["algo"], d["seed"]) ==
                      ("weighted12", "brute", seed) and "ctx" not in d]
        assert cold == warm and "report" in cold
    assert report_dump.main(argv) == 0
    assert capsys.readouterr().out == out


def test_default_dump_is_the_recorded_one(capsys):
    """The default dump equals tests/data/report_dump.txt byte for byte, so
    every report and simulation of the dump stays bit-identical. Only a
    change that alters results on purpose records the file again:

        PYTHONPATH=src python3 tools/report_dump.py > tests/data/report_dump.txt
    """
    assert report_dump.main([]) == 0
    assert capsys.readouterr().out == RECORDED.read_text(encoding="utf-8")


def test_simulation_line_is_the_hexed_result():
    line = json.loads(report_dump.simulation_line(0.5, 999, 1))
    result = mm1_simulate(0.5, 1.0, 999, seed=1)
    assert line == {"simulation": "mm1", "lam": (0.5).hex(), "mu": (1.0).hex(),
                    "event_budget": 999, "seed": 1,
                    "result": {name: value.hex()
                               for name, value in dataclasses.asdict(result).items()}}


def test_simulations_span_several_chunks():
    """The largest dumped budget draws more than two chunks of customers:
    about one customer per two events."""
    assert max(events for _, events, _ in report_dump.SIMULATIONS) > 4 * CHUNK_SIZE


def test_hexed_keeps_structure():
    assert report_dump.hexed({"a": [1.5, -0.0, float("nan")], "b": (2, "x")}) == {
        "a": ["0x1.8000000000000p+0", "-0x0.0p+0", "nan"], "b": [2, "x"]}


def test_instances_lie_on_both_sides_of_the_table_limit():
    """Every dumped instance but mild24 keeps a figures table; mild24 is
    past model.TABLE_LIMIT, so the dump covers both paths of
    block_figures."""
    counts = {name: math.comb(build().n, build().m_servers)
              for name, build in report_dump.INSTANCES.items()}
    assert counts.pop("mild24") == 134_596 > TABLE_LIMIT
    assert all(count <= TABLE_LIMIT for count in counts.values())
