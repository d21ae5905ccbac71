"""Differential checks of the batched solvers: the colonies of stacked
trail rows drawn and deposited at once against each run's steps one ant at
a time, stacked ACO runs against each run alone, ant by ant, bound fitness
blocks scored by drive against their per-subset calls, and solver reports
from a KernelFitness against the same fitness as a plain callable. Every
comparison is exact."""

import dataclasses
import itertools
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzloc.aco import (
    TAU_MIN,
    ACOConfig,
    _colonies,
    _deposit_rule,
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
from fuzzloc.termination import Run
from conftest import aco_run, bound_fitness, mild_params, record, score_block
from test_kernel import PROBE_CTX, build, cases


def reference_sample(log_w, m, rng):
    """One ant's subset drawn on its own from n Gumbel keys."""
    keys = log_w + rng.gumbel(size=log_w.size)
    picks = np.argpartition(-keys, m - 1)[:m]
    return Solution(int(j) + 1 for j in picks)


def reference_update(tau, colony, config, sense):
    """One run's trail row after aco._update, as a loop over the ants; each
    ant comes with its F, the objective of its run's sense."""
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
        # Two deposits near the float maximum may add up to inf; the clip
        # caps it, as in aco._update.
        with np.errstate(over="ignore"):
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


@pytest.mark.parametrize("sense", ["max", "min", "mixed"])
@given(
    n=st.integers(2, 8),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_deposit_matches_ant_loop(sense, n, data, seed):
    """One _update of R = 1-4 trail rows, run r's nodes offset by r * n,
    against each row's ant loop. Every row has the given sense, or for
    "mixed" R >= 2 rows take both senses in a drawn order, so _deposit_rule
    serves each of its rules. _update takes the values that the runs
    maximize, so a min row's ant is handed -F."""
    # few nodes and many ants, so most nodes take several deposits
    runs = data.draw(st.integers(2 if sense == "mixed" else 1, 4))
    m = data.draw(st.integers(1, n - 1))
    ants = data.draw(st.integers(0, 10))
    if sense == "mixed":
        rest = data.draw(st.lists(st.sampled_from(("max", "min")),
                                  min_size=runs - 2, max_size=runs - 2))
        senses = data.draw(st.permutations(["max", "min", *rest]))
    else:
        senses = [sense] * runs
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
    sent = [f if keep else -f for f, keep in zip(fitness, maximize)]
    rule = _deposit_rule(maximize)
    # one bool flag for a live set of one sense, else a flag per ant
    assert isinstance(rule[2], bool) == (ants == 0 or sense != "mixed")
    assert np.array_equal(_update(tau, idx + offsets, sent, config, rule), expected)


def test_overflowing_deposits_reach_the_cap_without_warning():
    """Two min-sense ants on one node with a subnormal F each deposit
    theta/F, about 1.02e308; their sum overflows to inf and is clipped to
    the cap, with no RuntimeWarning."""
    config = ACOConfig(max_pheromone=1.0)
    tau = np.full((1, 3), 0.5)
    fitness = 9.77e-309
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trails = _update(tau, np.array([[0], [0]]), [-fitness, -fitness], config,
                         _deposit_rule(np.array([False, False])))
        expected = reference_update(tau[0], [(Solution([1]), fitness)] * 2, config, "min")
    assert trails[0, 0] == config.max_pheromone
    assert np.array_equal(trails, [expected])


def reference_steps(instance, config, sense):
    """One ACO run ant by ant: each ant's subset drawn on its own, a walk
    that keeps the first ant whose score is strictly above the best so far,
    where a NaN value scores -inf, and the deposit loop above, with F =
    -value in a min run. It yields and returns as aco_run does, with no wall
    time."""
    rng = np.random.default_rng(config.seed)
    sign = 1.0 if sense == "max" else -1.0
    n, m = instance.n, instance.m_servers
    run = Run("aco", instance, config, config.seed)
    ants = ant_count(n, m, config.population_coefficient)
    eta = heuristic_index(instance)
    tau = np.ones(n)
    while True:
        log_w = _log_weights(tau, config.beta_exp * np.log(eta), config)
        colony = [reference_sample(log_w, m, rng) for _ in range(ants)]
        values = yield np.array([solution.sorted() for solution in colony], dtype=np.intp) - 1
        improved, colony_best = False, -math.inf
        for solution, value in zip(colony, values):
            score = -math.inf if math.isnan(value) else value
            if score > colony_best:
                colony_best = score
            if run.report.best is None or score > run.report.objective:
                run.report.best, run.report.objective, improved = solution.sorted(), score, True
        deposits = [(solution, sign * value) for solution, value in zip(colony, values)]
        tau = reference_update(tau, deposits, config, sense)
        if run.step(improved, colony_best == run.report.objective):
            run.report.evaluations = ants * run.report.iterations
            return run.report


# The default generator ranges overload every facility of this instance.
INFEASIBLE = generate_instance(GeneratorParams(n=10, m_servers=3, seed=0))
ODD_VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 0.25, 2.0, -1.0, 1e12)


def _odd(solution):
    """A plain fitness with NaN, infinities, signed zeros and ties."""
    return ODD_VALUES[sum(j * j for j in solution.open) % len(ODD_VALUES)]


@given(
    runs=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(("max", "min"))),
        min_size=1,
        max_size=6,
    ),
    limit=st.one_of(st.none(), st.integers(1, 30)),
    cap=st.integers(1, 30),
    infeasible=st.booleans(),
    scoring=st.sampled_from(("z1", "z2", "z3", "odd")),
    alpha=st.sampled_from((0.75, 3.0)),
    coefficient=st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_stacked_runs_match_each_run_alone(
    medium_instance, runs, limit, cap, infeasible, scoring, alpha, coefficient
):
    """R runs over one trail array, sharing one config and its random
    windows, end, bit for bit, as each run alone does in a stack of one and
    in the ant-by-ant reference. Their seeds make them end in different
    rounds."""
    instance = INFEASIBLE if infeasible else medium_instance
    if scoring == "odd":
        fitness = _odd
    else:
        fitness = bound_fitness(instance, scoring, "max")
    shared = ACOConfig(convergence_limit=limit, stagnation_limit=cap,
                       alpha_exp=alpha, population_coefficient=coefficient)
    seeds = [seed for seed, _ in runs]
    senses = [sense for _, sense in runs]
    stacked = drive([(_colonies(instance, shared, seeds, senses), fitness)])[0]
    for report, seed, sense in zip(stacked, seeds, senses):
        config = dataclasses.replace(shared, seed=seed)
        alone = drive([(aco_run(instance, config, sense), fitness)])[0]
        reference = drive([(reference_steps(instance, config, sense), fitness)])[0]
        assert record(report) == record(alone) == record(reference)


def test_stacked_runs_time_themselves(medium_instance):
    """Each of three stacked runs times itself from the first step to the
    round it ends in, so a run that ends later took at least as long."""
    seeds = [0, 1, 3]  # under one window of 8 these end in rounds 9, 13 and 11
    fitness = bound_fitness(medium_instance, "z2", "max")
    config = ACOConfig(stagnation_limit=8)
    stack = _colonies(medium_instance, config, seeds, ["max", "min", "max"])
    reports = drive([(stack, fitness)])[0]
    assert len({report.iterations for report in reports}) == len(seeds)
    assert all(report.elapsed_s > 0 for report in reports)
    by_round = sorted(reports, key=lambda report: report.iterations)
    assert [r.elapsed_s for r in by_round] == sorted(r.elapsed_s for r in by_round)


def test_stacked_runs_share_trail_parameters(medium_instance):
    """Stacked runs share one config by construction; beside its seed, a
    run's only own setting is its sense, and a bad one is rejected."""
    with pytest.raises(DomainError, match="sense"):
        next(_colonies(medium_instance, ACOConfig(), [1], ["up"]))


@pytest.mark.parametrize("solver", ["ga", "aco"])
@given(case=cases(max_n=10))
@settings(max_examples=30, deadline=None)
def test_bound_block_matches_calls(solver, case):
    """A GA bound run has a fitness of its own; the ACO's six runs share one
    whose select gives each row its run, here a different one per row."""
    instance = build(*case)
    idx = np.array(list(itertools.combinations(range(instance.n), instance.m_servers)))
    for r in range(len(BOUND_RUNS)):
        runs = np.full(len(idx), r)
        fitness = _BoundFitness(instance, r)
        if solver == "aco":
            runs = (np.arange(len(idx)) + r) % len(BOUND_RUNS)
            fitness.select(runs)
        expected = [
            _BoundFitness(instance, run)(Solution(row))
            for run, row in zip(runs.tolist(), (idx + 1).tolist())
        ]
        assert score_block(fitness, idx) == expected


@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_bound_block_covers_feasible_and_infeasible_rows(medium_instance, scale):
    instance = dataclasses.replace(medium_instance, demand=medium_instance.demand * scale)
    idx = np.array(list(itertools.combinations(range(instance.n), instance.m_servers)))
    for r in range(len(BOUND_RUNS)):
        fitness = _BoundFitness(instance, r)
        got = score_block(fitness, idx)
        assert got == [fitness(Solution(row)) for row in (idx + 1).tolist()]
        penalized = [v <= -1e12 for v in got]
        if scale == 1.0:
            assert not all(penalized) and any(penalized)
        else:
            assert all(penalized)


class _FirstNaN:
    """A plain fitness that returns NaN on its first call and the given
    fitness's value after."""

    def __init__(self, fitness):
        self.fitness = fitness
        self.calls = 0

    def __call__(self, solution):
        self.calls += 1
        return math.nan if self.calls == 1 else self.fitness(solution)


@pytest.mark.parametrize("solver", ["ga", "aco"])
def test_nan_value_ranks_last(solver):
    """A NaN from a run's first scored subset ranks below every other value,
    as -inf, so the run goes on to a feasible best; a run of NaN values
    only reports -inf."""
    instance = generate_instance(mild_params(8, 2, 0))
    maximin = make_maximin_eval(instance, exact_bounds(instance))
    if solver == "ga":
        run, config = run_ga, GAConfig(seed=0, stagnation_limit=30)
    else:
        run, config = run_aco, ACOConfig(seed=0, stagnation_limit=30)
    report = run(instance, _FirstNaN(maximin), config)
    assert report.objective > 0
    assert report.objective == maximin(Solution(report.best))
    assert not any(math.isnan(value) for value in report.trace)
    if solver == "aco":
        assert report.objective == run(instance, maximin, config).objective
    nan_only = run(instance, lambda solution: math.nan, config)
    assert nan_only.objective == -math.inf
    assert set(nan_only.trace) == {-math.inf}
    assert len(nan_only.best) == instance.m_servers


def _plain(fitness):
    return lambda solution: fitness(solution)


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
        yield "ga", "max", bound_fitness(instance, name, sense)  # the GA has no sense
        yield "aco", sense, bound_fitness(instance, name, sense)


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
                block = drive([(aco_run(instance, config, sense), fitness)])[0]
                plain = drive([(aco_run(instance, config, sense), _plain(fitness))])[0]
            assert record(block) == record(plain), (solver, sense, seed)


class RowCounter(MaximinFitness):
    """A maximin fitness that counts the rows and the calls of its score
    and refuses per-subset calls."""

    def __init__(self, instance, ctx):
        super().__init__(instance, ctx)
        self.rows = 0
        self.blocks = 0

    def __call__(self, solution):
        raise AssertionError("scored one subset outside a block")

    def score(self, feasible, spreads, violation):
        self.rows += len(feasible)
        self.blocks += 1
        return super().score(feasible, spreads, violation)


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
    """The convergence and stagnation windows of termination.Run."""

    N20_M5 = types.SimpleNamespace(n=20, m_servers=5)

    def run(self, limit, cap):
        config = GAConfig(convergence_limit=limit, stagnation_limit=cap)
        return Run("ga", self.N20_M5, config, config.seed)

    def test_defaults(self):
        windows = self.run(None, None)
        assert (windows.limit, windows.cap) == (44, 44 * 44)
        custom = self.run(3, 7)
        assert (custom.limit, custom.cap) == (3, 7)

    def test_convergence_needs_consecutive_steps_at_best(self):
        windows = self.run(3, 100)
        steps = [(False, True), (False, True), (False, False), (False, True),
                 (False, True), (True, True), (False, True), (False, True), (False, True)]
        assert [windows.step(*s) for s in steps] == [None] * 8 + ["convergence"]

    def test_stagnation_counts_every_step_without_improvement(self):
        windows = self.run(100, 4)
        steps = [(False, True), (True, False), (False, False), (False, True),
                 (False, False), (False, False)]
        assert [windows.step(*s) for s in steps] == [None] * 5 + ["stagnation"]

    def test_convergence_checked_first(self):
        windows = self.run(2, 2)
        assert [windows.step(False, True) for _ in range(2)] == [None, "convergence"]

    def test_new_run_has_an_empty_record(self):
        report = self.run(None, None).report
        assert (report.algorithm, report.n, report.m, report.seed) == ("ga", 20, 5, 0)
        assert report.best is None and math.isnan(report.objective)
        assert (report.iterations, report.trace, report.termination) == (0, [], None)
        assert (report.elapsed_s, report.evaluations) == (0.0, 0)

    def test_steps_fill_the_record(self):
        """Each step traces the objective and counts one iteration; the
        clock is read only when a window closes."""
        windows = self.run(3, 100)
        report = windows.report
        steps = [(1.0, True, True), (2.0, True, True), (2.0, False, True),
                 (2.0, False, True), (2.0, False, True)]
        for k, (objective, improved, at_best) in enumerate(steps, start=1):
            report.objective = objective
            ended = windows.step(improved, at_best)
            assert report.iterations == len(report.trace) == k
            assert report.trace[-1] == objective
            assert ended == report.termination
            if k < len(steps):
                assert ended is None and report.elapsed_s == 0.0
        assert report.termination == "convergence" and report.elapsed_s > 0
        assert report.trace == [1.0, 2.0, 2.0, 2.0, 2.0]

    @pytest.mark.parametrize("solver", ["ga", "aco", "stack"])
    def test_solvers_return_the_runs_own_reports(self, medium_instance, monkeypatch, solver):
        """run_ga, run_aco and a stacked _colonies return the SolverReport
        objects that their runs filled, one per run, in order."""
        runs, init = [], Run.__init__

        def recorded(run, *args):
            init(run, *args)
            runs.append(run)

        monkeypatch.setattr(Run, "__init__", recorded)
        fitness = bound_fitness(medium_instance, "z2", "max")
        if solver == "ga":
            reports = [run_ga(medium_instance, fitness, GAConfig(seed=1, stagnation_limit=8))]
        elif solver == "aco":
            reports = [run_aco(medium_instance, fitness, ACOConfig(seed=1, stagnation_limit=8))]
        else:
            stack = _colonies(medium_instance, ACOConfig(stagnation_limit=8), [0, 1, 3],
                              ["max", "min", "max"])
            reports = drive([(stack, fitness)])[0]
        assert len(runs) == len(reports) == (3 if solver == "stack" else 1)
        for run, report in zip(runs, reports):
            assert report is run.report
            assert report.iterations == len(report.trace) > 0 and report.elapsed_s > 0
