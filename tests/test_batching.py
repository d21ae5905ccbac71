"""Differential checks of the batched solvers: a colony drawn, scored and
deposited at once against the same steps one ant at a time, bound fitness
blocks against their per-subset calls, and solver reports from a
block-capable fitness against the same fitness as a plain callable. Every
comparison is exact."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzloc.aco import (
    TAU_MIN,
    ACOConfig,
    PheromoneState,
    _deposit,
    _sample_colony,
    ant_count,
    pheromone_update,
    run_aco,
    select_next,
)
from fuzzloc.errors import InfeasibleInstanceError
from fuzzloc.evaluation import make_maximin_eval, score_rows
from fuzzloc.ga import GAConfig, run_ga
from fuzzloc.model import Solution
from fuzzloc.oracle import exact_bounds
from fuzzloc.protocol import BOUND_RUNS, _bound_eval
from fuzzloc.termination import Windows
from test_kernel import PROBE_CTX, build, cases


def reference_sample(weights, m, state, eta, config, rng):
    """One ant's subset drawn on its own: n Gumbel keys, or stepwise
    selection when the weights are degenerate."""
    if np.all(np.isfinite(weights)) and np.all(weights > 0):
        keys = np.log(weights) + rng.gumbel(size=weights.size)
        picks = np.argpartition(-keys, m - 1)[:m]
        return Solution(int(j) + 1 for j in picks)
    chosen = set()
    for _ in range(m):
        chosen.add(select_next(state, eta, chosen, config, rng))
    return Solution(chosen)


def reference_update(state, colony, config, sense):
    """pheromone_update as a loop over the ants."""
    tau = state.tau * config.evaporation_rate
    for solution, fitness in colony:
        if not math.isfinite(fitness):
            continue
        if sense == "max":
            if fitness < 0:
                continue
            deposit = config.max_pheromone * fitness
        else:
            if fitness <= 0:
                continue
            deposit = config.max_pheromone / fitness
        tau[np.fromiter(solution.open, dtype=int) - 1] += deposit
    return np.clip(tau, TAU_MIN, config.max_pheromone)


taus = st.integers(2, 30).flatmap(
    lambda n: st.lists(
        st.one_of(st.floats(TAU_MIN, 200.0), st.sampled_from((TAU_MIN, 1.0, 200.0))),
        min_size=n,
        max_size=n,
    )
)


@given(
    tau=taus,
    data=st.data(),
    ants=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_colony_draw_matches_ant_by_ant(tau, data, ants, seed, degenerate):
    n = len(tau)
    m = data.draw(st.integers(1, n - 1))
    state = PheromoneState(tau=np.array(tau))
    if degenerate:  # a zero trail sends every ant to stepwise selection
        state.tau[data.draw(st.integers(0, n - 1))] = 0.0
    eta = np.random.default_rng(seed).uniform(0.01, 1.0, size=n)
    config = ACOConfig()
    weights = state.tau**config.alpha_exp * eta**config.beta_exp
    batched, single, reference = (np.random.default_rng(seed) for _ in range(3))
    colony = _sample_colony(weights, m, ants, state, eta, config, batched)
    assert colony.shape == (ants, m)
    for row in colony.tolist():
        one = _sample_colony(weights, m, 1, state, eta, config, single)
        ref = reference_sample(weights, m, state, eta, config, reference)
        assert row == one[0].tolist() == [j - 1 for j in ref.sorted()]
    assert batched.bit_generator.state == single.bit_generator.state
    assert batched.bit_generator.state == reference.bit_generator.state


values = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 1e12, -1e12, 3e12)),
)


@pytest.mark.parametrize("sense", ["max", "min"])
@given(
    n=st.integers(2, 8),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_deposit_matches_ant_loop(sense, n, data, seed):
    # few nodes and many ants, so most nodes take several deposits
    m = data.draw(st.integers(1, n - 1))
    ants = data.draw(st.integers(0, 10))
    rng = np.random.default_rng(seed)
    config = ACOConfig(
        evaporation_rate=data.draw(st.sampled_from((0.5, 0.97))),
        max_pheromone=data.draw(st.sampled_from((1.0, 200.0))),
    )
    state = PheromoneState(tau=rng.uniform(TAU_MIN, config.max_pheromone, size=n))
    idx = np.sort(np.array([rng.choice(n, size=m, replace=False) for _ in range(ants)],
                           dtype=np.intp).reshape(ants, m), axis=1)
    fitness = data.draw(st.lists(values, min_size=ants, max_size=ants))
    colony = [(Solution(row + 1), value) for row, value in zip(idx, fitness)]
    expected = reference_update(state, colony, config, sense)
    assert np.array_equal(_deposit(state, idx, fitness, config, sense).tau, expected)
    assert np.array_equal(pheromone_update(state, colony, config, sense).tau, expected)


@pytest.mark.parametrize("solver", ["ga", "aco"])
@given(case=cases(max_n=10))
@settings(max_examples=30, deadline=None)
def test_bound_block_matches_calls(solver, case):
    instance = build(*case)
    idx = np.array(list(itertools.combinations(range(instance.n), instance.m_servers)))
    for name, sense in BOUND_RUNS:
        fitness = _bound_eval(instance, name, sense, solver)
        expected = [fitness(Solution(row)) for row in (idx + 1).tolist()]
        assert fitness.block(idx).tolist() == expected
        assert score_rows(fitness, idx) == expected


@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_bound_block_covers_feasible_and_infeasible_rows(medium_instance, scale):
    instance = dataclasses.replace(medium_instance, demand=medium_instance.demand * scale)
    idx = np.array(list(itertools.combinations(range(instance.n), instance.m_servers)))
    for solver in ("ga", "aco"):
        for name, sense in BOUND_RUNS:
            fitness = _bound_eval(instance, name, sense, solver)
            got = fitness.block(idx).tolist()
            assert got == [fitness(Solution(row)) for row in (idx + 1).tolist()]
            penalized = [abs(v) >= 1e12 for v in got]
            if scale == 1.0:
                assert not all(penalized) and any(penalized)
            else:
                assert all(penalized)


def _plain(fitness):
    return lambda solution: fitness(solution)


def _report(report):
    data = report.to_dict()
    data.pop("elapsed_s")
    return data


def _runs(instance):
    """(solver, sense, fitness) of the final run and of the six bound runs."""
    try:
        ctx = exact_bounds(instance)
    except InfeasibleInstanceError:
        ctx = PROBE_CTX
    maximin = make_maximin_eval(instance, ctx)
    yield "ga", "max", maximin
    yield "aco", "max", maximin
    for name, sense in BOUND_RUNS:
        yield "ga", "max", _bound_eval(instance, name, sense, "ga")  # the GA only maximizes
        yield "aco", sense, _bound_eval(instance, name, sense, "aco")


@pytest.mark.parametrize("instance_name", ["medium_instance", "table1"])
def test_solver_reports_match_plain_callable(instance_name, request):
    instance = request.getfixturevalue(instance_name)
    # table1 runs use the benchmark's stagnation window of 100 to stay short
    window = {} if instance_name == "medium_instance" else {"stagnation_limit": 100}
    seeds = range(3) if instance_name == "medium_instance" else range(2)
    for solver, sense, fitness in _runs(instance):
        for seed in seeds:
            if solver == "ga":
                config = GAConfig(seed=seed, **window)
                block = run_ga(instance, fitness, config)
                plain = run_ga(instance, _plain(fitness), config)
            else:
                config = ACOConfig(seed=seed, **window)
                block = run_aco(instance, fitness, config, sense=sense)
                plain = run_aco(instance, _plain(fitness), config, sense=sense)
            assert _report(block) == _report(plain), (solver, sense, seed)


class RowCounter:
    """A block-capable fitness that counts the rows it scores and refuses
    per-subset calls."""

    def __init__(self, fitness):
        self.fitness = fitness
        self.rows = 0
        self.blocks = 0

    def __call__(self, solution):
        raise AssertionError("scored one subset outside a block")

    def block(self, idx):
        self.rows += len(idx)
        self.blocks += 1
        return self.fitness.block(idx)


def test_aco_scores_each_colony_in_one_block(small_instance):
    fitness = RowCounter(make_maximin_eval(small_instance, exact_bounds(small_instance)))
    config = ACOConfig(seed=2)
    report = run_aco(small_instance, fitness, config)
    ants = ant_count(small_instance.n, small_instance.m_servers, config.population_coefficient)
    assert fitness.rows == ants * report.iterations == report.evaluations
    assert fitness.blocks == report.iterations


def test_ga_scores_only_in_blocks(medium_instance):
    fitness = RowCounter(make_maximin_eval(medium_instance, exact_bounds(medium_instance)))
    report = run_ga(medium_instance, fitness, GAConfig(seed=1))
    assert 0 < fitness.rows < report.evaluations


class TestWindows:
    def test_defaults(self):
        windows = Windows(20, 5, None, None)
        assert (windows.limit, windows.cap) == (44, 44 * 44)
        custom = Windows(20, 5, 3, 7)
        assert (custom.limit, custom.cap) == (3, 7)

    def test_convergence_needs_consecutive_steps_at_best(self):
        windows = Windows(20, 5, 3, 100)
        steps = [(False, True), (False, True), (False, False), (False, True),
                 (False, True), (True, True), (False, True), (False, True), (False, True)]
        assert [windows.step(*s) for s in steps] == [None] * 8 + ["convergence"]

    def test_stagnation_counts_every_step_without_improvement(self):
        windows = Windows(20, 5, 100, 4)
        steps = [(False, True), (True, False), (False, False), (False, True),
                 (False, False), (False, False)]
        assert [windows.step(*s) for s in steps] == [None] * 5 + ["stagnation"]

    def test_convergence_checked_first(self):
        windows = Windows(20, 5, 2, 2)
        assert [windows.step(False, True) for _ in range(2)] == [None, "convergence"]
