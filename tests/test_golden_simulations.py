"""Simulator results checked bit for bit against recorded ones.

``tests/data/golden_simulations.json`` holds ``mm1_simulate`` results, as
float hex strings, at loads rho = lam / mu (mu = 1) from light to near
saturation, at event budgets from one event (a single batch) to 10^6 (many
chunks of oracle.CHUNK_SIZE customers), for seeds 0 and 1, and one
``simulate_objective_slice`` value. The simulator's scans add left to right,
so any change to their order of additions shows here. Regenerate the file
only for a change that is meant to alter simulator results:

    PYTHONPATH=src:tests python tests/test_golden_simulations.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from conftest import mild_params
from fuzzloc.instances import generate_instance
from fuzzloc.model import Solution
from fuzzloc.oracle import mm1_simulate, simulate_objective_slice

GOLDEN = Path(__file__).parent / "data" / "golden_simulations.json"

RHOS = (0.05, 0.3, 0.5, 0.8, 0.97)
BUDGETS = (1, 7, 999, 50_000, 10**6)
SEEDS = (0, 1)
CASES = [(rho, budget, seed) for rho in RHOS for budget in BUDGETS for seed in SEEDS]
# The small_instance fixture's two open facilities at the mid slice.
SLICE = {"params": mild_params(6, 2, 0), "solution": [1, 2], "slice": "mid",
         "event_budget": 100_000, "seed": 0}


def key(rho: float, budget: int, seed: int) -> str:
    return f"{rho}/{budget}/{seed}"


def simulate(rho: float, budget: int, seed: int) -> dict:
    result = mm1_simulate(rho, 1.0, budget, seed=seed)
    return {name: value.hex() for name, value in dataclasses.asdict(result).items()}


def simulate_slice() -> str:
    instance = generate_instance(SLICE["params"])
    return simulate_objective_slice(instance, Solution(SLICE["solution"]), SLICE["slice"],
                                    SLICE["event_budget"], seed=SLICE["seed"]).hex()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("rho, budget, seed", CASES)
def test_mm1_simulate_matches_golden(golden, rho, budget, seed):
    assert simulate(rho, budget, seed) == golden["mm1_simulate"][key(rho, budget, seed)]


def test_objective_slice_matches_golden(golden):
    assert simulate_slice() == golden["simulate_objective_slice"]


def test_golden_covers_every_case(golden):
    assert sorted(golden["mm1_simulate"]) == sorted(key(*case) for case in CASES)


if __name__ == "__main__":
    doc = {
        "mm1_simulate": {key(*case): simulate(*case) for case in CASES},
        "simulate_objective_slice": simulate_slice(),
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
