"""Solve reports checked against recorded ones.

``tests/data/golden_reports.json`` holds the reports of GA, ACO and brute
solves on three small instances and on the mild 10-node one at logit
sensitivity 40, of GA and ACO solves on the two benchmark workloads, table1
and mild20, and of a brute solve on mild20 (table1 has no feasible subset,
so brute raises there). Regenerate it only for a change that is meant to
alter reports:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from conftest import mild_params
from fuzzloc.aco import ACOConfig
from fuzzloc.errors import InfeasibleInstanceError
from fuzzloc.ga import GAConfig
from fuzzloc.instances import generate_instance, load_table1
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
# a * max(distance) = 1400 here, past the limit under which the logit
# allocation reads the attraction matrix, so these solves run the shifted
# exponent path.
INSTANCES["mild10_logit40"] = dataclasses.replace(mild_params(10, 3, 2), logit_sensitivity=40.0)
SOLVES += [("mild10_logit40", algo, seed) for algo in ("ga", "aco") for seed in (0, 1)]
SOLVES += [("mild10_logit40", "brute", 0)]
# The benchmark's workloads at its stagnation window: table1, where every
# subset is infeasible and the bounds are NaN, and mild20.
INSTANCES["mild20"] = mild_params(20, 5, 0)
SOLVES += [
    (name, algo, seed)
    for name in ("table1", "mild20")
    for algo in ("ga", "aco")
    for seed in (0, 1)
]
SOLVES += [("mild20", "brute", 0)]
STAGNATION = 100

EXACT_FIELDS = ("best", "iterations", "termination", "evaluations", "bounds_id")


def solve(name: str, algo: str, seed: int) -> dict:
    instance = load_table1() if name == "table1" else generate_instance(INSTANCES[name])
    report, ctx = solve_protocol(
        instance,
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
    # dumping reports and comparing the files byte for byte. A failed bound
    # run records NaN, which must stay NaN.
    return math.isclose(a, b, rel_tol=1e-12) or (math.isnan(a) and math.isnan(b))


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


def test_table1_brute_raises():
    with pytest.raises(InfeasibleInstanceError):
        solve("table1", "brute", 0)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    docs = {key(*s): solve(*s) for s in SOLVES}
    GOLDEN.write_text(json.dumps(docs, sort_keys=True, indent=1) + "\n")
