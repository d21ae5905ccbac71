"""Workload instances and solver settings for the benchmark.

Importing this module imports fuzzloc, so the set-up probe in run.py times
``import workloads`` plus ``build_instance`` as the user's set-up cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import fuzzloc
from fuzzloc import ACOConfig, GAConfig, GeneratorParams


@dataclass(frozen=True)
class Workload:
    round_s: float  # nominal wall time of one round on a 2-core Xeon
    sim_events: int  # events per timed mm1_simulate call; ~5 s per run in all


WORKLOADS = {
    # Infeasible instance the paper reports: every fitness call takes the
    # penalty branch, the six bound runs return NaN and brute exits early.
    "table1": Workload(round_s=2.5, sim_events=500_000),
    # Feasible use of the same kernel: slice objectives and memberships.
    "mild20": Workload(round_s=5.3, sim_events=1_000_000),
    # Tiny instance for the benchmark's own smoke test; not in BENCHMARK.json.
    "smoke": Workload(round_s=1.5, sim_events=100_000),
}

# The default stagnation window is limit**2 = 1936 iterations at n=20, M=5,
# which makes one seven-run solve take 6-20 s and leaves room for one or
# two solves per run. A window of 100 keeps every phase of the run (the
# improvement phase, the plateau with repeated subsets, the stagnation exit)
# at about a tenth of the cost.
STAGNATION_LIMIT = 100
# solve_protocol reseeds these per run and keeps the window.
GA_CONFIG = GAConfig(stagnation_limit=STAGNATION_LIMIT)
ACO_CONFIG = ACOConfig(stagnation_limit=STAGNATION_LIMIT)

# rho values of `fuzzloc validate`, against a service rate of 100.
SIM_RHOS = (0.3, 0.5, 0.8)
SIM_MU = 100.0
# Event budget per facility of `fuzzloc validate`'s network cross-check.
NETWORK_EVENTS = 200_000


def _mild(n: int, m: int, seed: int) -> GeneratorParams:
    """The generator ranges of tests/conftest.py::mild_params."""
    return GeneratorParams(
        n=n,
        m_servers=m,
        seed=seed,
        demand_lo_range=(4, 30),
        demand_offsets=(10, 20),
        service_offsets=(10, 20),
    )


def build_instance(name: str) -> fuzzloc.Instance:
    if name == "table1":
        return fuzzloc.load_table1()  # includes the checksum check
    if name == "mild20":
        return fuzzloc.generate_instance(_mild(20, 5, 0))
    if name == "smoke":
        return fuzzloc.generate_instance(_mild(8, 2, 1))
    raise KeyError(name)


def validation_instance() -> fuzzloc.Instance:
    """The 6-node instance of `fuzzloc validate`'s network cross-check."""
    return fuzzloc.generate_instance(GeneratorParams(
        n=6, m_servers=2, demand_lo_range=(4, 30), demand_offsets=(10, 20), seed=123,
    ))
