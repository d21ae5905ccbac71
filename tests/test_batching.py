"""Differential checks of the batched solvers: the colonies of stacked
trail rows drawn and deposited at once against each run's steps one ant at
a time, stacked ACO runs against each run alone, ant by ant, bound fitness
blocks scored by drive against their per-subset calls, and solver reports
from a KernelFitness against the same fitness as a plain callable. Every
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
    _colonies,
    _log_weights,
    _sample_colonies,
    _update,
    ant_count,
    heuristic_index,
    run_aco,
)
from fuzzloc.errors import DomainError, InfeasibleInstanceError
from fuzzloc.evaluation import MaximinFitness, drive, make_maximin_eval
from fuzzloc.ga import GAConfig, run_ga
from fuzzloc.instances import GeneratorParams, generate_instance
from fuzzloc.model import Solution
from fuzzloc.oracle import exact_bounds
from fuzzloc.protocol import BOUND_RUNS, _BoundFitness
from fuzzloc.reports import Outcome, run_solver
from fuzzloc.termination import Windows
from conftest import aco_run, score_block
from test_kernel import PROBE_CTX, build, cases


def reference_sample(log_w, m, rng):
    """One ant's subset drawn on its own from n Gumbel keys."""
    keys = log_w + rng.gumbel(size=log_w.size)
    picks = np.argpartition(-keys, m - 1)[:m]
    return Solution(int(j) + 1 for j in picks)


def reference_update(tau, colony, config, sense):
    """One run's trail row after aco._update, as a loop over the ants."""
    tau = tau * config.evaporation_rate
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


def trail_rows(n):
    """Trail rows of n nodes, with the floor, 1 and the cap among them."""
    return st.lists(
        st.one_of(st.floats(TAU_MIN, 200.0), st.sampled_from((TAU_MIN, 1.0, 200.0))),
        min_size=n,
        max_size=n,
    )


@given(
    trails=st.integers(2, 30).flatmap(lambda n: st.lists(trail_rows(n), min_size=1, max_size=4)),
    data=st.data(),
    ants=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from((0.75, 150.0)),
)
@settings(max_examples=80, deadline=None)
def test_colony_draw_matches_ant_by_ant(trails, data, ants, seed, alpha):
    """R = 1-4 runs' colonies drawn by one _sample_colonies call, each from
    its own generator's noise, against each run's ants drawn one by one."""
    tau = np.array(trails)
    runs, n = tau.shape
    m = data.draw(st.integers(1, n - 1))
    eta = np.random.default_rng(seed).uniform(0.01, 1.0, size=n)
    config = ACOConfig(alpha_exp=alpha)
    log_w = _log_weights(tau, config.beta_exp * np.log(eta), config)
    batched = [np.random.default_rng(seed + r) for r in range(runs)]
    reference = [np.random.default_rng(seed + r) for r in range(runs)]
    noise = np.stack([rng.gumbel(size=(ants, n)) for rng in batched])
    colonies = _sample_colonies(log_w, m, noise)
    assert colonies.shape == (runs * ants, m)
    for r in range(runs):
        for row in colonies[r * ants:(r + 1) * ants].tolist():
            ref = reference_sample(log_w[r], m, reference[r])
            assert row == [j - 1 for j in ref.sorted()]
        assert batched[r].bit_generator.state == reference[r].bit_generator.state


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
    """One _update of R = 1-4 trail rows, run r's nodes offset by r * n,
    against each row's ant loop. Row 0 has the given sense, the other rows
    a drawn one."""
    # few nodes and many ants, so most nodes take several deposits
    runs = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, n - 1))
    ants = data.draw(st.integers(0, 10))
    senses = [sense] + data.draw(st.lists(st.sampled_from(("max", "min")),
                                          min_size=runs - 1, max_size=runs - 1))
    rng = np.random.default_rng(seed)
    config = ACOConfig(
        evaporation_rate=data.draw(st.sampled_from((0.5, 0.97))),
        max_pheromone=data.draw(st.sampled_from((1.0, 200.0))),
    )
    tau = rng.uniform(TAU_MIN, config.max_pheromone, size=(runs, n))
    idx = np.sort(np.array([rng.choice(n, size=m, replace=False) for _ in range(runs * ants)],
                           dtype=np.intp).reshape(runs * ants, m), axis=1)
    fitness = data.draw(st.lists(values, min_size=runs * ants, max_size=runs * ants))
    offsets = np.repeat(np.arange(runs) * n, ants)[:, None]
    maximize = np.repeat([s == "max" for s in senses], ants)
    expected = [
        reference_update(
            tau[r],
            [(Solution(row + 1), value) for row, value in
             zip(idx[r * ants:(r + 1) * ants], fitness[r * ants:(r + 1) * ants])],
            config,
            senses[r],
        )
        for r in range(runs)
    ]
    assert np.array_equal(_update(tau, idx + offsets, fitness, config, maximize), expected)


def reference_steps(instance, config, sense):
    """One ACO run ant by ant: each ant's subset drawn on its own, a walk
    that keeps the first ant strictly better than the best so far, and the
    deposit loop above. It yields and returns as aco_run does."""
    rng = np.random.default_rng(config.seed)
    better = (lambda a, b: a > b) if sense == "max" else (lambda a, b: a < b)
    worst = -math.inf if sense == "max" else math.inf
    n, m = instance.n, instance.m_servers
    windows = Windows(n, m, config.convergence_limit, config.stagnation_limit)
    ants = ant_count(n, m, config.population_coefficient)
    eta = heuristic_index(instance)
    tau = np.ones(n)
    best, best_value, trace = None, worst, []
    while True:
        log_w = _log_weights(tau, config.beta_exp * np.log(eta), config)
        colony = [reference_sample(log_w, m, rng) for _ in range(ants)]
        values = yield np.array([solution.sorted() for solution in colony], dtype=np.intp) - 1
        improved, colony_best = False, worst
        for solution, value in zip(colony, values):
            if better(value, colony_best):
                colony_best = value
            if best is None or better(value, best_value):
                best, best_value, improved = solution.sorted(), value, True
        tau = reference_update(tau, list(zip(colony, values)), config, sense)
        trace.append(best_value)
        termination = windows.step(improved, colony_best == best_value)
        if termination:
            return Outcome(best, best_value, termination, trace, ants * len(trace))


# The default generator ranges overload every facility of this instance.
INFEASIBLE = generate_instance(GeneratorParams(n=10, m_servers=3, seed=0))
ODD_VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 0.25, 2.0, -1.0, 1e12)


def _odd(solution):
    """A plain fitness with NaN, infinities, signed zeros and ties."""
    return ODD_VALUES[sum(j * j for j in solution.open) % len(ODD_VALUES)]


def _exact(outcome):
    return (outcome.best, outcome.objective.hex(), outcome.termination,
            [value.hex() for value in outcome.trace], outcome.evaluations)


@given(
    runs=st.lists(
        st.tuples(
            st.integers(0, 2**32 - 1),
            st.sampled_from(("max", "min")),
            st.one_of(st.none(), st.integers(1, 30)),
            st.integers(1, 30),
        ),
        min_size=1,
        max_size=6,
    ),
    infeasible=st.booleans(),
    scoring=st.sampled_from(("z1", "z2", "z3", "odd")),
    alpha=st.sampled_from((0.75, 3.0)),
    coefficient=st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_stacked_runs_match_each_run_alone(
    medium_instance, runs, infeasible, scoring, alpha, coefficient
):
    """R runs over one trail array end, bit for bit, as each run alone does
    in a stack of one and in the ant-by-ant reference. Random windows make the
    runs end in different rounds."""
    instance = INFEASIBLE if infeasible else medium_instance
    if scoring == "odd":
        fitness = _odd
    else:
        fitness = _BoundFitness(instance, scoring, "max", "aco")
    configs = [
        ACOConfig(seed=seed, convergence_limit=limit, stagnation_limit=cap,
                  alpha_exp=alpha, population_coefficient=coefficient)
        for seed, _, limit, cap in runs
    ]
    senses = [sense for _, sense, _, _ in runs]
    stacked = drive([(_colonies(instance, configs, senses), fitness)])[0]
    for outcome, config, sense in zip(stacked, configs, senses):
        alone = drive([(aco_run(instance, config, sense), fitness)])[0]
        reference = drive([(reference_steps(instance, config, sense), fitness)])[0]
        assert _exact(outcome) == _exact(alone) == _exact(reference)


def test_stacked_runs_share_trail_parameters(medium_instance):
    configs = [ACOConfig(seed=1), ACOConfig(seed=2, evaporation_rate=0.9)]
    with pytest.raises(DomainError, match="differ only in seed and windows"):
        next(_colonies(medium_instance, configs, ["max", "min"]))
    with pytest.raises(DomainError, match="sense"):
        next(_colonies(medium_instance, configs[:1], ["up"]))


@pytest.mark.parametrize("solver", ["ga", "aco"])
@given(case=cases(max_n=10))
@settings(max_examples=30, deadline=None)
def test_bound_block_matches_calls(solver, case):
    instance = build(*case)
    idx = np.array(list(itertools.combinations(range(instance.n), instance.m_servers)))
    for name, sense in BOUND_RUNS:
        fitness = _BoundFitness(instance, name, sense, solver)
        expected = [fitness(Solution(row)) for row in (idx + 1).tolist()]
        assert score_block(fitness, idx) == expected


@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_bound_block_covers_feasible_and_infeasible_rows(medium_instance, scale):
    instance = dataclasses.replace(medium_instance, demand=medium_instance.demand * scale)
    idx = np.array(list(itertools.combinations(range(instance.n), instance.m_servers)))
    for solver in ("ga", "aco"):
        for name, sense in BOUND_RUNS:
            fitness = _BoundFitness(instance, name, sense, solver)
            got = score_block(fitness, idx)
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
        yield "ga", "max", _BoundFitness(instance, name, sense, "ga")  # the GA only maximizes
        yield "aco", sense, _BoundFitness(instance, name, sense, "aco")


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
                block = run_solver("aco", instance, seed, aco_run(instance, config, sense), fitness)
                plain = run_solver(
                    "aco", instance, seed, aco_run(instance, config, sense), _plain(fitness)
                )
            assert _report(block) == _report(plain), (solver, sense, seed)


class RowCounter(MaximinFitness):
    """A maximin fitness that counts the rows and the calls of its formula
    and refuses per-subset calls."""

    def __init__(self, instance, ctx):
        super().__init__(instance, ctx)
        self.rows = 0
        self.blocks = 0

    def __call__(self, solution):
        raise AssertionError("scored one subset outside a block")

    def formula(self, feasible, spreads, violation):
        self.rows += len(feasible)
        self.blocks += 1
        return super().formula(feasible, spreads, violation)


def test_aco_scores_each_colony_in_one_block(small_instance):
    fitness = RowCounter(small_instance, exact_bounds(small_instance))
    config = ACOConfig(seed=2)
    report = run_aco(small_instance, fitness, config)
    ants = ant_count(small_instance.n, small_instance.m_servers, config.population_coefficient)
    assert fitness.rows == ants * report.iterations == report.evaluations
    assert fitness.blocks == report.iterations


def test_ga_scores_only_in_blocks(medium_instance):
    fitness = RowCounter(medium_instance, exact_bounds(medium_instance))
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
