"""Randomized invariant checks across the model and solver layers."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mate, mild_params
from fuzzloc.aco import TAU_MIN, ACOConfig, _update
from fuzzloc.evaluation import MaximinContext
from fuzzloc.ga import Chromosome
from fuzzloc.instances import generate_instance
from fuzzloc.model import Kernel, Solution, balking_ramp, logit_allocation


@pytest.fixture(scope="module")
def pool():
    """A few small instances reused across the randomized checks."""
    return [
        generate_instance(mild_params(n, m, seed))
        for n, m, seed in [(6, 2, 0), (8, 2, 1), (8, 3, 2)]
    ]


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_logit_rows_sum_to_one(seed):
    rng = random.Random(seed)
    inst = generate_instance(mild_params(8, 3, rng.randrange(50)))
    solution = Solution(rng.sample(range(1, 9), 3))
    alloc = logit_allocation(inst, solution)
    assert np.allclose(alloc.sum(axis=1), 1.0, atol=1e-9)


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_aggregation_conserves_demand(seed):
    rng = random.Random(seed)
    inst = generate_instance(mild_params(8, 2, rng.randrange(50)))
    solution = Solution(rng.sample(range(1, 9), 2))
    totals = Kernel(inst, np.array(solution.sorted()) - 1).lam_bar.sum(axis=0)
    assert np.allclose(totals, inst.demand.sum(axis=0), rtol=1e-6)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_ga_candidate_invariants(pool, seed):
    rng = random.Random(seed)
    inst = pool[seed % len(pool)]
    m = inst.m_servers

    def fitness(solution):
        return sum((j * 37 + seed) % 101 for j in solution.open) / (10.0 * len(solution.open))

    g1 = frozenset(rng.sample(range(1, inst.n + 1), m))
    g2 = frozenset(rng.sample(range(1, inst.n + 1), m))
    if g1 == g2:
        return
    p1 = Chromosome(g1, fitness(Solution(g1)))
    p2 = Chromosome(g2, fitness(Solution(g2)))
    child = mate(p1, p2, fitness, rng)
    assert len(child.genes) == m
    assert (g1 & g2) <= child.genes
    assert child.genes <= g1 | g2


@given(st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_pheromone_stays_in_bounds(seed):
    rng = np.random.default_rng(seed)
    config = ACOConfig()
    tau = rng.uniform(TAU_MIN, config.max_pheromone, size=(1, 8))
    colony = [
        (rng.choice(8, size=2, replace=False), float(rng.uniform(-1.5, 1.0)))
        for _ in range(4)
    ]
    nodes, values = np.array([nodes for nodes, _ in colony]), [value for _, value in colony]
    out = _update(tau, nodes, values, config, np.ones(4), True)
    assert np.all(out >= TAU_MIN)
    assert np.all(out <= config.max_pheromone)


@given(
    st.floats(0, 100, allow_nan=False),
    st.floats(0.1, 100, allow_nan=False),
)
def test_join_probability_in_unit_interval(lq, mql):
    p = balking_ramp(lq, mql)
    assert 0.0 <= p <= 1.0


@given(st.floats(0, 50), st.floats(0, 50), st.floats(0.1, 100))
def test_join_probability_nonincreasing(a, b, mql):
    lo, hi = sorted((a, b))
    assert balking_ramp(lo, mql) >= balking_ramp(hi, mql)


@given(
    st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10),
    st.floats(-5, 5), st.floats(0.1, 5), st.floats(-5, 5), st.floats(0.1, 5),
)
def test_memberships_always_clamped(z1, z2, z3, lo1, w1, lo2, w2):
    ctx = MaximinContext(
        z1_bounds=(lo1, lo1 + w1),
        z2_bounds=(lo2, lo2 + w2),
        z3_bounds=(0.0, 1.0),
        provenance="oracle-exact",
    )
    mus = ctx.memberships(np.array([z1, z2, z3]))
    assert all(0.0 <= mu <= 1.0 for mu in mus)
