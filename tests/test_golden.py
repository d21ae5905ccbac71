"""Solve reports checked against recorded ones.

``tests/data/golden_reports.json`` holds the reports of GA, ACO and brute
solves on three small instances. Regenerate it only for a change that is
meant to alter reports:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from conftest import mild_params
from fuzzloc.aco import ACOConfig
from fuzzloc.ga import GAConfig
from fuzzloc.instances import generate_instance
from fuzzloc.protocol import solve_protocol

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"

# The same instances as the small_instance and medium_instance fixtures,
# plus a mild 10-node one.
INSTANCES = {
    "small": mild_params(6, 2, 0),
    "medium": mild_params(8, 2, 1),
    "mild10": mild_params(10, 3, 2),
}
SOLVES = [(name, algo, seed) for name in INSTANCES for algo in ("ga", "aco") for seed in (0, 1)]
SOLVES += [(name, "brute", 0) for name in INSTANCES]
STAGNATION = 100

EXACT_FIELDS = ("best", "iterations", "termination", "evaluations", "bounds_id")


def solve(name: str, algo: str, seed: int) -> dict:
    report, ctx = solve_protocol(
        generate_instance(INSTANCES[name]),
        algo,
        seed=seed,
        ga_config=GAConfig(stagnation_limit=STAGNATION),
        aco_config=ACOConfig(stagnation_limit=STAGNATION),
    )
    doc = report.to_dict()
    del doc["elapsed_s"]
    return {"report": doc, "bounds": ctx.to_dict()}


def key(name: str, algo: str, seed: int) -> str:
    return f"{name}/{algo}/{seed}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def close(a: float, b: float) -> bool:
    # BLAS may round the last bit differently on another CPU, so floats get a
    # relative tolerance here; bit-identity on one machine is checked by
    # dumping reports and comparing the files byte for byte.
    return math.isclose(a, b, rel_tol=1e-12)


@pytest.mark.parametrize("name,algo,seed", SOLVES, ids=[key(*s) for s in SOLVES])
def test_report_matches_golden(golden, name, algo, seed):
    want = golden[key(name, algo, seed)]
    got = solve(name, algo, seed)
    for field in EXACT_FIELDS:
        assert got["report"][field] == want["report"][field], field
    assert close(got["report"]["objective"], want["report"]["objective"])
    assert len(got["report"]["trace"]) == len(want["report"]["trace"])
    assert all(map(close, got["report"]["trace"], want["report"]["trace"]))
    assert got["bounds"]["provenance"] == want["bounds"]["provenance"]
    for comp in ("z1_bounds", "z2_bounds", "z3_bounds"):
        assert all(map(close, got["bounds"][comp], want["bounds"][comp])), comp


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    docs = {key(*s): solve(*s) for s in SOLVES}
    GOLDEN.write_text(json.dumps(docs, sort_keys=True, indent=1) + "\n")
