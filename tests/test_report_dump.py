"""tools/report_dump.py on two of its instances."""

import importlib.util
import json
import math
from pathlib import Path

from fuzzloc.model import TABLE_LIMIT
from fuzzloc.protocol import solve_protocol

PATH = Path(__file__).resolve().parent.parent / "tools" / "report_dump.py"
spec = importlib.util.spec_from_file_location("report_dump", PATH)
report_dump = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_dump)


def test_dump_lines_are_hex_reports(capsys):
    """One JSON line per instance, solver and seed, in that order, with no
    wall time and every float as hex; a brute solve of table1, which has no
    feasible subset, prints its error. A second run prints the same bytes."""
    argv = ["--instances", "table1", "weighted12"]
    assert report_dump.main(argv) == 0
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.splitlines()]
    assert [(d["instance"], d["algo"], d["seed"]) for d in lines] == [
        (name, algo, seed) for name in ("table1", "weighted12")
        for algo in ("ga", "aco", "brute") for seed in (0, 1)
    ]
    for doc in lines:
        if doc["instance"] == "table1" and doc["algo"] == "brute":
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
    [line] = [d for d in lines if (d["instance"], d["algo"], d["seed"]) == ("weighted12", "ga", 1)]
    assert float.fromhex(line["report"]["objective"]) == report.objective
    assert report_dump.main(argv) == 0
    assert capsys.readouterr().out == out


def test_hexed_keeps_structure():
    assert report_dump.hexed({"a": [1.5, -0.0, float("nan")], "b": (2, "x")}) == {
        "a": ["0x1.8000000000000p+0", "-0x0.0p+0", "nan"], "b": [2, "x"]}


def test_instances_lie_on_both_sides_of_the_table_limit():
    """Every dumped instance but mild24 keeps a figures table; mild24 is
    past model.TABLE_LIMIT, so the dump covers both paths of the ACO's
    block_figures."""
    counts = {name: math.comb(build().n, build().m_servers)
              for name, build in report_dump.INSTANCES.items()}
    assert counts.pop("mild24") == 134_596 > TABLE_LIMIT
    assert all(count <= TABLE_LIMIT for count in counts.values())
