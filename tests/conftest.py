"""Shared fixtures and instance helpers for the test suite."""

import itertools
import random

import numpy as np
import pytest

from fuzzloc.aco import _colonies
from fuzzloc.evaluation import drive, fuzzy_capacity_feasible, fuzzy_objective
from fuzzloc.fuzzy import TriFuzzy
from fuzzloc.ga import _Memo, _mate, _population
from fuzzloc.instances import GeneratorParams, generate_instance, load_table1
from fuzzloc.model import Instance, Solution


def mild_params(n: int, m: int, seed: int) -> GeneratorParams:
    """Generator ranges that leave plenty of spare service capacity, so small
    instances reliably have several feasible subsets."""
    return GeneratorParams(
        n=n,
        m_servers=m,
        seed=seed,
        demand_lo_range=(4, 30),
        demand_offsets=(10, 20),
        service_offsets=(10, 20),
    )


def one_block(idx):
    """A run that asks for one block of 0-based subsets to be scored and
    returns their values."""
    return (yield idx)


def score_block(fitness, idx) -> list:
    """The values ``drive`` gives the rows of ``idx`` under ``fitness``."""
    return drive([(one_block(idx), fitness)])[0]


def populate(instance, config, fitness, rng=None) -> list:
    """The GA's first population under ``fitness``, as ga._population builds
    it in a run, with a fresh memo; ``rng`` defaults to the config's seed."""
    rng = rng if rng is not None else random.Random(config.seed)
    return drive([(_population(instance, config, rng, _Memo()), fitness)])[0]


def mate(p1, p2, fitness, rng):
    """One GA candidate of parents ``p1`` and ``p2`` under ``fitness``, as
    ga._mate builds it in a run, with a fresh memo."""
    return drive([(_mate(p1, p2, rng, _Memo()), fitness)])[0]


def aco_run(instance, config, sense):
    """One ACO run of either sense as a step generator: a stack of one run
    in aco._colonies, the way the bound phase steps its runs."""
    return (yield from _colonies(instance, [config], [sense]))[0]


def feasible_subsets(instance: Instance) -> list[Solution]:
    """All m-subsets passing the capacity check with stable queues."""
    out = []
    for combo in itertools.combinations(range(1, instance.n + 1), instance.m_servers):
        solution = Solution(combo)
        ok, _ = fuzzy_capacity_feasible(instance, solution)
        if ok and fuzzy_objective(instance, solution) is not None:
            out.append(solution)
    return out


def crispen(instance: Instance, idle: float = 0.15) -> Instance:
    """Copy of an instance with every fuzzy input pinned at its mid component."""
    return Instance(
        n=instance.n,
        m_servers=instance.m_servers,
        distance=instance.distance.copy(),
        demand=np.repeat(instance.demand[:, 1:2], 3, axis=1),
        service=np.repeat(instance.service[:, 1:2], 3, axis=1),
        idle_min=TriFuzzy(idle, idle, idle),
        mql=instance.mql,
        gamma=instance.gamma,
        logit_sensitivity=instance.logit_sensitivity,
    )


@pytest.fixture(scope="session")
def small_instance() -> Instance:
    """Mild 6-node, M=2 instance; all 15 subsets are feasible."""
    return generate_instance(mild_params(6, 2, 0))


@pytest.fixture(scope="session")
def medium_instance() -> Instance:
    """Mild 8-node, M=2 instance with a mix of feasible and infeasible subsets."""
    return generate_instance(mild_params(8, 2, 1))


@pytest.fixture(scope="session")
def table1() -> Instance:
    return load_table1()
