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

from fuzzloc import aco, evaluation, model
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
from fuzzloc.errors import InfeasibleInstanceError
from fuzzloc.evaluation import MaximinFitness, drive, make_maximin_eval
from fuzzloc.ga import GAConfig, run_ga
from fuzzloc.instances import GeneratorParams, generate_instance
from fuzzloc.model import Solution, no_feasible_subset
from fuzzloc.oracle import exact_bounds
from fuzzloc.protocol import _SIGN, BOUND_RUNS, _BoundFitness, solve_protocol
from fuzzloc.reports import Run
from conftest import aco_run, bound_fitness, mild_params, record, score_block
from test_kernel import PROBE_CTX, build, cases


def reference_sample(log_w, m, rng):
    """One ant's subset drawn on its own from n Gumbel keys."""
    keys = log_w + rng.gumbel(size=log_w.size)
    picks = np.argpartition(-keys, m - 1)[:m]
    return Solution(int(j) + 1 for j in picks)


def reference_update(tau, colony, config, sign):
    """One run's trail row after aco._update, as a loop over the ants; each
    ant comes with its F, the objective that its run maximizes (sign 1.0)
    or minimizes (sign -1.0)."""
    tau = tau * config.evaporation_rate
    for solution, fitness in colony:
        if not math.isfinite(fitness):
            continue
        if sign > 0:
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
    against each row's ant loop. Every row has the given sense's sign, or
    for "mixed" R >= 2 rows take both signs in a drawn order. _update takes
    the values that the runs maximize, so a min row's ant is handed -F, and
    a flag per ant or, as _colonies passes it for rows of one sign, one
    bool; both flags give the same trails."""
    # few nodes and many ants, so most nodes take several deposits
    runs = data.draw(st.integers(2 if sense == "mixed" else 1, 4))
    m = data.draw(st.integers(1, n - 1))
    ants = data.draw(st.integers(0, 10))
    if sense == "mixed":
        rest = data.draw(st.lists(st.sampled_from((1.0, -1.0)),
                                  min_size=runs - 2, max_size=runs - 2))
        signs = data.draw(st.permutations([1.0, -1.0, *rest]))
    else:
        signs = [1.0 if sense == "max" else -1.0] * runs
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
    ant_signs = np.repeat(signs, ants)
    expected = [
        reference_update(
            tau[r],
            [(Solution(row + 1), value) for row, value in
             zip(idx[r * ants:(r + 1) * ants], fitness[r * ants:(r + 1) * ants])],
            config,
            signs[r],
        )
        for r in range(runs)
    ]
    sent = [f if sign > 0 else -f for f, sign in zip(fitness, ant_signs)]
    flags = [ant_signs > 0, *([signs[0] > 0] if sense != "mixed" else [])]
    for maximize in flags:
        trails = _update(tau, idx + offsets, sent, config, ant_signs, maximize)
        assert np.array_equal(trails, expected)


# the values that a max ant and a min ant send with no deposit
NO_DEPOSIT = {
    1.0: st.one_of(st.floats(max_value=0.0), st.sampled_from((-0.0, -math.inf, math.nan))),
    -1.0: st.one_of(st.floats(min_value=0.0), st.sampled_from((math.inf, math.nan))),
}


@given(
    n=st.integers(2, 8),
    runs=st.integers(1, 3),
    rate=st.one_of(st.sampled_from((0.001, 0.5, 0.97)), st.floats(0.001, 0.999)),
    cap=st.sampled_from((TAU_MIN, 0.5, 200.0)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_zero_deposits_only_evaporate(n, runs, rate, cap, seed, data):
    """_update of colonies in which no ant deposits gives the bytes of
    _evaporate: each ant adds +0.0, which leaves every trail as it is, so
    a one-round pass takes _update whether or not its ants deposit. Each
    run's sign is drawn, and ``maximize`` is a flag per ant and, for runs
    that share a sign, one bool."""
    tau = np.array(data.draw(st.lists(trail_rows(n), min_size=runs, max_size=runs)))
    signs = data.draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=runs, max_size=runs))
    m, ants = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, 6))
    ant_signs = np.repeat(signs, ants)
    sent = [data.draw(NO_DEPOSIT[sign]) for sign in ant_signs]
    rng = np.random.default_rng(seed)
    idx = np.sort([rng.choice(n, size=m, replace=False) for _ in range(runs * ants)], axis=1)
    nodes = idx + np.repeat(np.arange(runs) * n, ants)[:, None]
    config = ACOConfig(evaporation_rate=rate, max_pheromone=cap)
    expected = aco._evaporate(tau, config).view(np.uint64)
    flags = [ant_signs > 0, *([signs[0] > 0] if len(set(signs)) == 1 else [])]
    for maximize in flags:
        trails = _update(tau, nodes, sent, config, ant_signs, maximize)
        assert np.array_equal(trails.view(np.uint64), expected)


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
                         np.array([-1.0, -1.0]), False)
        expected = reference_update(tau[0], [(Solution([1]), fitness)] * 2, config, -1.0)
    assert trails[0, 0] == config.max_pheromone
    assert np.array_equal(trails, [expected])


@given(
    n=st.integers(2, 20),
    runs=st.integers(1, 3),
    ants=st.integers(1, 32),
    rate=st.one_of(st.sampled_from((0.001, 0.5, 0.97)), st.floats(0.001, 0.999)),
    cap=st.sampled_from((TAU_MIN, 0.5, 1.0, 200.0)),
    ones=st.booleans(),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_evaporations_match_the_chain(n, runs, ants, rate, cap, ones, data):
    """The rows of one aco._evaporations call equal, bit for bit, the
    chain of _evaporate steps that a quiet pass of ``span`` - 1 rounds would
    take one by one: its rounds' trails, then the trails after them. They
    start from drawn trails, and from the initial trails of 1.0 above a cap
    of 0.5. A rate of 0.001 drives the products below TAU_MIN and, over long
    spans, to 0."""
    span = data.draw(st.integers(2, model.BLOCK_SIZE // ants + 1))
    if ones:
        tau, cap = np.ones((runs, n)), 0.5
    else:
        tau = np.array(data.draw(st.lists(trail_rows(n), min_size=runs, max_size=runs)))
    config = ACOConfig(evaporation_rate=rate, max_pheromone=cap)
    chain = [tau]
    for _ in range(span - 1):
        chain.append(aco._evaporate(chain[-1], config))
    rows = aco._evaporations(tau, span, config)
    assert rows.shape == (span, runs, n)
    assert np.array_equal(rows.reshape(-1, n).view(np.uint64),
                          np.concatenate(chain).view(np.uint64))


def reference_steps(instance, config, sign, seed):
    """One ACO run of ``seed``, ant by ant: each ant's subset drawn on its own, a walk
    that keeps the first ant whose score is strictly above the best so far,
    where a NaN value scores -inf, and the deposit loop above, with F =
    -value in a run of sign -1.0. It keeps its own best and the count of
    its requests, and asserts that Run.step, which it hands each colony's
    best, agrees on them and on which colonies improve the run. It yields
    and returns as aco_run does, with no wall time."""
    rng = np.random.default_rng(seed)
    n, m = instance.n, instance.m_servers
    run = Run("aco", instance, seed, config.stagnation_limit)
    ants = ant_count(n, m, config.population_coefficient)
    eta = heuristic_index(instance)
    tau = np.ones(n)
    best, objective, requests = None, math.nan, 0
    while True:
        log_w = _log_weights(tau, config.beta_exp * np.log(eta), config)
        colony = [reference_sample(log_w, m, rng) for _ in range(ants)]
        values = yield np.array([solution.sorted() for solution in colony], dtype=np.intp) - 1
        improved, colony_best = False, -math.inf
        for solution, value in zip(colony, values):
            score = -math.inf if math.isnan(value) else value
            if score > colony_best:
                colony_best = score
            if best is None or score > objective:
                best, objective, improved = solution.sorted(), score, True
        requests += ants
        deposits = [(solution, sign * value) for solution, value in zip(colony, values)]
        tau = reference_update(tau, deposits, config, sign)
        assert run.step(colony_best, ants) == improved
        if improved:
            run.report.best = best
        assert run.report.objective.hex() == objective.hex()
        assert run.report.evaluations == requests
        if run.report.termination:
            return run.report


# The default generator ranges overload every facility of this instance.
INFEASIBLE = generate_instance(GeneratorParams(n=10, m_servers=3, seed=0))
ODD_VALUES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 0.25, 2.0, -1.0, 1e12)


def _odd(solution):
    """A plain fitness with NaN, infinities, signed zeros and ties."""
    return ODD_VALUES[sum(j * j for j in solution.open) % len(ODD_VALUES)]


@given(
    runs=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.sampled_from((1.0, -1.0))),
        min_size=1,
        max_size=6,
    ),
    cap=st.integers(1, 30),
    infeasible=st.booleans(),
    scoring=st.sampled_from(("z1", "z2", "z3", "odd")),
    alpha=st.sampled_from((0.75, 3.0)),
    coefficient=st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_stacked_runs_match_each_run_alone(
    medium_instance, runs, cap, infeasible, scoring, alpha, coefficient
):
    """R runs over one trail array, sharing one config and its random
    stagnation window, end, bit for bit, as each run alone does in a stack
    of one and in the ant-by-ant reference. Their seeds make them end in
    different rounds."""
    instance = INFEASIBLE if infeasible else medium_instance
    if scoring == "odd":
        fitness = _odd
    else:
        fitness = bound_fitness(instance, scoring, "max")
    shared = ACOConfig(stagnation_limit=cap, alpha_exp=alpha, population_coefficient=coefficient)
    seeds = [seed for seed, _ in runs]
    signs = [sign for _, sign in runs]
    stacked = drive([(_colonies(instance, shared, seeds, np.array(signs)), fitness)])[0]
    for report, seed, sign in zip(stacked, seeds, signs):
        alone = drive([(aco_run(instance, shared, sign, seed), fitness)])[0]
        reference = drive([(reference_steps(instance, shared, sign, seed), fitness)])[0]
        assert record(report) == record(alone) == record(reference)


def test_stacked_runs_time_themselves(medium_instance):
    """Each of three stacked runs times itself from the first step to the
    round it ends in, so a run that ends later took at least as long."""
    seeds = [0, 1, 3]  # under one window of 8 these end in rounds 9, 13 and 11
    fitness = bound_fitness(medium_instance, "z2", "max")
    config = ACOConfig(stagnation_limit=8)
    stack = _colonies(medium_instance, config, seeds, np.array([1.0, -1.0, 1.0]))
    reports = drive([(stack, fitness)])[0]
    assert len({report.iterations for report in reports}) == len(seeds)
    assert all(report.elapsed_s > 0 for report in reports)
    by_round = sorted(reports, key=lambda report: report.iterations)
    assert [r.elapsed_s for r in by_round] == sorted(r.elapsed_s for r in by_round)


def test_stacked_runs_share_trail_parameters(medium_instance):
    """Stacked runs share one config by construction; beside its seed, a
    run's only own setting is its sign, so two runs of one seed and sign end
    alike, whatever run is stacked between them."""
    fitness = bound_fitness(medium_instance, "z2", "max")
    stack = _colonies(medium_instance, ACOConfig(stagnation_limit=8), [1, 0, 1],
                      np.array([-1.0, 1.0, -1.0]))
    first, _, third = drive([(stack, fitness)])[0]
    assert record(first) == record(third)


class StepSpy:
    """Counts the trail steps of the ACO runs made while it is installed:
    ``full`` _update calls, and ``only`` colonies that only evaporate, the
    colonies of quiet passes: the span - 1 steps of each aco._evaporations
    call, and any aco._evaporate call with no deposits, which _colonies
    does not make."""

    def __init__(self, monkeypatch):
        self.full = self.only = 0
        update, evaporate, evaporations = aco._update, aco._evaporate, aco._evaporations

        def counted_update(*args):
            self.full += 1
            return update(*args)

        def counted_evaporate(tau, config, nodes=None, deposits=None):
            self.only += deposits is None
            return evaporate(tau, config, nodes, deposits)

        def counted_evaporations(tau, span, config):
            only = self.only  # the _evaporate calls made inside count as none
            rows = evaporations(tau, span, config)
            self.only = only + span - 1
            return rows

        monkeypatch.setattr(aco, "_update", counted_update)
        monkeypatch.setattr(aco, "_evaporate", counted_evaporate)
        monkeypatch.setattr(aco, "_evaporations", counted_evaporations)


def _evaporation_cases(instance, seeds, monkeypatch):
    """run_aco under the maximin fitness of the exact bounds (of PROBE_CTX
    on a certified instance, where exact_bounds raises) against the
    ant-by-ant reference, whose deposit loop runs for every colony; returns
    the spy of the run_aco calls and their number of colonies."""
    ctx = PROBE_CTX if no_feasible_subset(instance) else exact_bounds(instance)
    fitness = make_maximin_eval(instance, ctx)
    config = ACOConfig(stagnation_limit=100)
    spy, reports = StepSpy(monkeypatch), []
    for seed in seeds:
        reports.append(run_aco(instance, fitness, config, seed))
    for report, seed in zip(reports, seeds):
        reference = drive([(reference_steps(instance, config, 1.0, seed), fitness)])[0]
        assert record(report) == record(reference)
    return spy, sum(report.iterations for report in reports)


def test_evaporation_only_colonies_match_reference(table1, monkeypatch):
    """On table1 no subset is feasible, so every value is a penalty below 0
    and every colony of a maximizing run only evaporates; the runs end, bit
    for bit, as the reference that adds each ant's zero deposit."""
    spy, colonies = _evaporation_cases(table1, [0, 1], monkeypatch)
    assert spy.full == 0 and spy.only == colonies


def test_every_one_round_colony_takes_update(monkeypatch):
    """On a mild instance most colonies hold a feasible subset and deposit,
    and a few hold none; each is a one-round pass that ends with _update,
    also when no ant deposits, and the runs match the reference."""
    instance = generate_instance(mild_params(20, 5, 0))
    update, empty = aco._update, []

    def counted(tau, nodes, values, *args):
        empty.append(not any(0.0 < value < math.inf for value in values))
        return update(tau, nodes, values, *args)

    monkeypatch.setattr(aco, "_update", counted)
    spy, colonies = _evaporation_cases(instance, [0, 1, 2], monkeypatch)
    assert spy.only == 0 and spy.full == colonies
    assert 0 < sum(empty) < colonies


def test_final_run_only_evaporates_and_bound_runs_never(table1, monkeypatch):
    """table1's certified ACO solve makes no bound run, and its final run
    only evaporates in every round. A stack of the six bound runs on table1
    is never quiet, so every round takes _update, although every value is a
    penalty: a penalized ant of a min run still deposits theta / F, and once
    only max runs are live, no ant deposits."""
    spy = StepSpy(monkeypatch)
    report, _ = solve_protocol(table1, "aco", 3, aco_config=ACOConfig(stagnation_limit=100))
    assert spy.full == 0 and spy.only == report.iterations > 0
    spy.only = 0
    fitness = _BoundFitness(table1, 0)
    stack = _colonies(table1, ACOConfig(stagnation_limit=20), [1, 2, 3, 4, 5, 6], _SIGN,
                      fitness.select)
    rounds = [run.iterations for run in drive([(stack, fitness)])[0]]
    min_rounds = max(count for count, sign in zip(rounds, _SIGN) if sign < 0)
    assert spy.full == max(rounds) > min_rounds > 0
    assert spy.only == 0


@pytest.mark.parametrize("rounds", [1, 2, 44, 128])
@pytest.mark.parametrize("ants, n", [(8, 20), (3, 7)])
def test_block_noise_is_the_per_round_noise(rounds, ants, n):
    """One (rounds, ants, n) Gumbel draw gives, bit for bit, the values of
    ``rounds`` draws of (ants, n) and leaves the generator in the same
    state: the stream contract that lets _colonies draw a block at once."""
    block, per_round = np.random.default_rng(7), np.random.default_rng(7)
    drawn = block.gumbel(size=(rounds, ants, n))
    expected = np.stack([per_round.gumbel(size=(ants, n)) for _ in range(rounds)])
    assert np.array_equal(drawn, expected)
    assert block.bit_generator.state == per_round.bit_generator.state


def _constant(solution):
    return -1.0


def recorded(steps, sizes, note=len):
    """``steps`` as a step generator that appends ``note`` of each block it
    yields, by default its rows, to ``sizes``."""
    idx = next(steps)
    while True:
        sizes.append(note(idx))
        values = yield idx
        try:
            idx = steps.send(values)
        except StopIteration as stop:
            return stop.value


class DrawSpy:
    """Records the size of every Gumbel draw of the generators that aco
    makes while it is installed."""

    def __init__(self, monkeypatch):
        self.sizes = []
        make = np.random.default_rng
        spy = self

        class Generator:
            def __init__(self, seed):
                self.rng = make(seed)

            def gumbel(self, size):
                spy.sizes.append(size)
                return self.rng.gumbel(size=size)

        monkeypatch.setattr(aco.np.random, "default_rng", Generator)


def recorded_runs(monkeypatch, sizes):
    """Has run_aco record the rows of each block it yields in ``sizes``."""
    drive_ = aco.drive
    monkeypatch.setattr(aco, "drive", lambda runs: drive_(
        [(recorded(steps, sizes), fitness) for steps, fitness in runs]))


@pytest.mark.parametrize("case", ["mild20", "table1 stack", "table1 quiet"])
def test_blocks_stay_within_block_size(table1, monkeypatch, case):
    """With a stagnation window of 10**9, the convergence window alone
    bounds a block: 44 rounds at n = 20, m = 5. A constant fitness closes
    it in round 45 (a maximin run at this window does not end in thousands
    of rounds). No noise draw and no block that drive sees holds more than
    BLOCK_SIZE rows, and the runs end as the reference. Three stacked max
    runs on table1 take one round per pass, as every stack does. The quiet
    maximin run on table1, at a stagnation window of 100 and 32 ants, would
    need 44 * 32 = 1408 rows for a full window in one pass, so its first
    block is capped at 32 rounds, 1024 rows."""
    config = ACOConfig(stagnation_limit=10**9)
    fitness = _constant
    if case == "mild20":
        instance, seeds = generate_instance(mild_params(20, 5, 0)), [0]
    elif case == "table1 stack":
        instance, seeds = table1, [0, 1, 2]
    else:
        instance, seeds = table1, [0]
        config = ACOConfig(stagnation_limit=100, population_coefficient=8)
        fitness = make_maximin_eval(table1, PROBE_CTX)
    ants = ant_count(20, 5, config.population_coefficient)
    draws, sizes = DrawSpy(monkeypatch), []
    if case == "table1 quiet":
        recorded_runs(monkeypatch, sizes)
        reports = [run_aco(instance, fitness, config, seeds[0])]
    else:
        stack = _colonies(instance, config, seeds, np.ones(len(seeds)))
        reports = drive([(recorded(stack, sizes), fitness)])[0]
    monkeypatch.undo()
    assert max(sizes) <= model.BLOCK_SIZE
    assert max(rounds * ants for rounds, ants, _ in draws.sizes) <= model.BLOCK_SIZE
    if case == "table1 stack":
        assert sizes == [3 * ants] * 45
    for report, seed in zip(reports, seeds):
        reference = drive([(reference_steps(instance, config, 1.0, seed), fitness)])[0]
        assert record(report) == record(reference)
        if case == "table1 quiet":
            assert sizes[0] == 32 * ants == model.BLOCK_SIZE and len(sizes) < report.iterations
        else:
            assert (report.iterations, report.termination) == (45, "convergence")


class BlockSpy:
    """Counts the calls of evaluation.block_figures made while it is
    installed."""

    def __init__(self, monkeypatch):
        self.blocks = 0
        figures = evaluation.block_figures

        def counted(instance, idx):
            self.blocks += 1
            return figures(instance, idx)

        monkeypatch.setattr(evaluation, "block_figures", counted)


@pytest.mark.parametrize("settings", [
    {},
    {"max_pheromone": 0.5},  # the initial trail of 1.0 lies above the cap
    {"evaporation_rate": 0.5},
    {"alpha_exp": 3.0},
    {"population_coefficient": 1},
])
def test_certified_colonies_are_scored_in_blocks(table1, monkeypatch, settings):
    """table1 has no feasible subset, so a maximizing run's colonies are
    sampled and scored a block of rounds at a time: fewer blocks than a
    tenth of the run's colonies. The run ends as the reference does."""
    config = ACOConfig(stagnation_limit=100, **settings)
    fitness = make_maximin_eval(table1, PROBE_CTX)
    spy = BlockSpy(monkeypatch)
    report = run_aco(table1, fitness, config, seed=0)
    assert 0 < spy.blocks < report.iterations / 10
    reference = drive([(reference_steps(table1, config, 1.0, 0), fitness)])[0]
    assert record(report) == record(reference)


def _three_firsts(solution):
    """A plain fitness of many values: above 0 on the infeasible table1
    subsets that open facilities 1, 2 and 3, and below 0 on every other."""
    value = sum(j * j for j in solution.open) / 1000
    return value if {1, 2, 3} <= solution.open else -value


def test_depositing_round_leaves_the_block(table1, monkeypatch):
    """A fitness above 0 on some of table1's subsets makes those colonies
    deposit, so run_aco takes one round per pass and a depositing round is
    the last of its pass: every block that drive sees holds one colony,
    8 rows, and every row scored is used. Every round takes _update, and
    the run ends as the reference."""
    config = ACOConfig(stagnation_limit=100)
    ants = ant_count(table1.n, table1.m_servers, config.population_coefficient)
    spy, sizes = StepSpy(monkeypatch), []
    recorded_runs(monkeypatch, sizes)
    report = run_aco(table1, _three_firsts, config, seed=0)
    monkeypatch.undo()
    assert ants == 8 and sizes == [ants] * report.iterations
    assert spy.full == report.iterations
    reference = drive([(reference_steps(table1, config, 1.0, 0), _three_firsts)])[0]
    assert record(report) == record(reference)


def test_rounds_after_a_deposit_share_a_block(table1, monkeypatch):
    """After a depositing round, the block's later rounds are sampled from
    the noise it drew at its start: some pass that drive scores right after
    an _update has no noise drawn in between. Every pass is one round, and
    the run ends as the reference."""
    config = ACOConfig(stagnation_limit=100)
    ants = ant_count(table1.n, table1.m_servers, config.population_coefficient)
    spy, draws, blocks = StepSpy(monkeypatch), DrawSpy(monkeypatch), []
    steps = recorded(aco_run(table1, config, 1.0), blocks,
                     lambda idx: (spy.full, len(draws.sizes), len(idx)))
    report = drive([(steps, _three_firsts)])[0]
    monkeypatch.undo()
    assert all(rows == ants for _, _, rows in blocks)
    assert any(full > before and drawn == drawn_before
               for (before, drawn_before, _), (full, drawn, _) in zip(blocks, blocks[1:]))
    reference = drive([(reference_steps(table1, config, 1.0, 0), _three_firsts)])[0]
    assert record(report) == record(reference)


class _Subclassed(MaximinFitness):
    """A MaximinFitness subclass that changes no score; run_aco cannot know
    that it keeps infeasible_value."""


def test_only_the_maximin_fitness_runs_quiet(table1, monkeypatch):
    """On table1 the maximin fitness itself makes a quiet run, whose passes
    hold several rounds. A MaximinFitness subclass, which may score an
    infeasible subset above 0, and the maximin fitness wrapped in a plain
    function each take one round per pass, and all three give one report."""
    config = ACOConfig(stagnation_limit=100)
    ants = ant_count(table1.n, table1.m_servers, config.population_coefficient)
    maximin = make_maximin_eval(table1, PROBE_CTX)
    reports = []
    for fitness in (maximin, _Subclassed(table1, PROBE_CTX), _plain(maximin)):
        sizes = []
        recorded_runs(monkeypatch, sizes)
        reports.append(record(run_aco(table1, fitness, config, seed=0)))
        monkeypatch.undo()
        if fitness is maximin:
            assert max(sizes) > ants
        else:
            assert sizes == [ants] * reports[-1]["iterations"]
    assert reports[0] == reports[1] == reports[2]


def test_select_learns_the_rows_of_each_block(table1):
    """The six bound runs stacked on table1, which has no feasible subset:
    before each block that drive scores, select has learned the run of each
    of its rows, one round of the live runs' colonies, also for the blocks
    that the max runs take once the min runs end."""
    fitness = _BoundFitness(table1, 0)
    ants = ant_count(table1.n, table1.m_servers, ACOConfig().population_coefficient)
    learned, rounds = [], []

    def select(runs):
        learned.append(np.asarray(runs).tolist())
        fitness.select(runs)

    def checked(stack):
        idx = next(stack)
        while True:
            live = sorted(set(learned[-1]))
            rounds.append(len(idx) // (len(live) * ants))
            assert learned[-1] == np.repeat(live, ants).tolist() * rounds[-1]
            try:
                idx = stack.send((yield idx))
            except StopIteration as stop:
                return stop.value

    config = ACOConfig(stagnation_limit=20)
    drive([(checked(_colonies(table1, config, [1, 2, 3, 4, 5, 6], _SIGN, select)), fitness)])
    assert len(learned) > 1 and set(rounds) == {1}


def test_select_learns_each_live_set_once():
    """The six bound runs stacked on mild20, which has feasible subsets:
    every pass of a stack is one round, so select learns the rows' runs
    once per set of live runs, before its first block, and never again
    until a run ends. Each block that drive scores is one round of the
    live runs' colonies."""
    instance = generate_instance(mild_params(20, 5, 0))
    fitness = _BoundFitness(instance, 0)
    ants = ant_count(instance.n, instance.m_servers, ACOConfig().population_coefficient)
    learned, sizes = [], []

    def select(runs):
        learned.append(np.asarray(runs).tolist())
        fitness.select(runs)

    stack = _colonies(instance, ACOConfig(stagnation_limit=20), [1, 2, 3, 4, 5, 6], _SIGN, select)
    reports = drive([(recorded(stack, sizes, lambda idx: (len(learned[-1]), len(idx))),
                      fitness)])[0]
    ends = sorted({report.iterations for report in reports})
    live = [[r for r, report in enumerate(reports) if report.iterations > end]
            for end in [0] + ends[:-1]]
    assert learned == [np.repeat(runs, ants).tolist() for runs in live]
    assert all(rows == learned_rows for learned_rows, rows in sizes)


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
        run, config = run_ga, GAConfig(stagnation_limit=30)
    else:
        run, config = run_aco, ACOConfig(stagnation_limit=30)
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
    """(solver, sign, fitness) of the final run and of the six bound runs."""
    try:
        ctx = exact_bounds(instance)
    except InfeasibleInstanceError:
        ctx = PROBE_CTX
    maximin = make_maximin_eval(instance, ctx)
    yield "ga", 1.0, maximin
    yield "aco", 1.0, maximin
    for sign, (name, sense) in zip(_SIGN.tolist(), BOUND_RUNS):
        yield "ga", 1.0, bound_fitness(instance, name, sense)  # the GA has no sign
        yield "aco", sign, bound_fitness(instance, name, sense)


@pytest.mark.parametrize("instance_name", ["medium_instance", "table1"])
def test_solver_reports_match_plain_callable(instance_name, request):
    instance = request.getfixturevalue(instance_name)
    # table1 runs use the benchmark's stagnation window of 100 to stay short
    window = {} if instance_name == "medium_instance" else {"stagnation_limit": 100}
    seeds = range(3) if instance_name == "medium_instance" else range(2)
    for solver, sign, fitness in _runs(instance):
        for seed in seeds:
            if solver == "ga":
                config = GAConfig(**window)
                block = run_ga(instance, fitness, config, seed)
                plain = run_ga(instance, _plain(fitness), config, seed)
            else:
                config = ACOConfig(**window)
                block = drive([(aco_run(instance, config, sign, seed), fitness)])[0]
                plain = drive([(aco_run(instance, config, sign, seed), _plain(fitness))])[0]
            assert record(block) == record(plain), (solver, sign, seed)


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
    config = ACOConfig()
    report = run_aco(small_instance, fitness, config, seed=2)
    ants = ant_count(small_instance.n, small_instance.m_servers, config.population_coefficient)
    assert fitness.rows == ants * report.iterations == report.evaluations
    assert fitness.blocks == report.iterations


def test_ga_scores_only_in_blocks(medium_instance):
    fitness = RowCounter(medium_instance, exact_bounds(medium_instance))
    report = run_ga(medium_instance, fitness, GAConfig(), seed=1)
    assert 0 < fitness.rows < report.evaluations


class TestWindows:
    """The convergence and stagnation windows of reports.Run."""

    N20_M5 = types.SimpleNamespace(n=20, m_servers=5)

    def run(self, limit, cap):
        """A Run with convergence window ``limit``, on n = limit and m = 1,
        as floor(n * sqrt(1)) = n, or on n = 20 and m = 5 for None."""
        instance = self.N20_M5 if limit is None else types.SimpleNamespace(n=limit, m_servers=1)
        return Run("ga", instance, 0, cap)

    @staticmethod
    def ends(windows, values):
        """The termination after each step of a run whose best is 1.0, as a
        GA run's first population sets it, at the given values."""
        windows.report.objective, ended = 1.0, []
        for value in values:
            windows.step(value, 1)
            ended.append(windows.report.termination)
        return ended

    def test_defaults(self):
        windows = self.run(None, None)
        assert (windows.limit, windows.cap) == (44, 44 * 44)
        custom = self.run(3, 7)
        assert (custom.limit, custom.cap) == (3, 7)

    def test_convergence_needs_consecutive_steps_at_best(self):
        windows = self.run(3, 100)
        steps = [1.0, 1.0, 0.5, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
        assert self.ends(windows, steps) == [None] * 8 + ["convergence"]

    def test_stagnation_counts_every_step_without_improvement(self):
        windows = self.run(100, 4)
        steps = [1.0, 2.0, 0.5, 2.0, 0.5, 0.5]
        assert self.ends(windows, steps) == [None] * 5 + ["stagnation"]

    def test_convergence_checked_first(self):
        windows = self.run(2, 2)
        assert self.ends(windows, [1.0, 1.0]) == [None, "convergence"]

    def test_new_run_has_an_empty_record(self):
        report = self.run(None, None).report
        assert (report.algorithm, report.n, report.m, report.seed) == ("ga", 20, 5, 0)
        assert report.best is None and math.isnan(report.objective)
        assert (report.iterations, report.trace, report.termination) == (0, [], None)
        assert (report.elapsed_s, report.evaluations) == (0.0, 0)

    def test_steps_fill_the_record(self):
        """Each step traces the objective, counts one iteration and adds its
        requests; the clock is read only when a window closes. A new run's
        first step improves it, whatever its value or eligibility."""
        windows = self.run(3, 100)
        report = windows.report
        steps = [(1.0, True, False), (2.0, True, True), (2.0, False, True),
                 (2.0, False, True), (2.0, False, True)]
        for k, (objective, improved, eligible) in enumerate(steps, start=1):
            assert windows.step(objective, k, eligible) == improved
            assert report.iterations == len(report.trace) == k
            assert report.trace[-1] == report.objective == objective
            assert report.evaluations == k * (k + 1) // 2
            if k < len(steps):
                assert report.termination is None and report.elapsed_s == 0.0
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
            reports = [run_ga(medium_instance, fitness, GAConfig(stagnation_limit=8), seed=1)]
        elif solver == "aco":
            reports = [run_aco(medium_instance, fitness, ACOConfig(stagnation_limit=8), seed=1)]
        else:
            stack = _colonies(medium_instance, ACOConfig(stagnation_limit=8), [0, 1, 3],
                              np.array([1.0, -1.0, 1.0]))
            reports = drive([(stack, fitness)])[0]
        assert len(runs) == len(reports) == (3 if solver == "stack" else 1)
        for run, report in zip(runs, reports):
            assert report is run.report
            assert report.iterations == len(report.trace) > 0 and report.elapsed_s > 0


def reference_rounds(limit, cap, objective, rounds):
    """The improvement rule the solvers applied before Run.step held it, as
    a loop over (value, requests, eligible) rounds of a run whose best is
    ``objective`` (NaN for none yet): a round improves the run when the run
    has no best yet, or when its value is eligible and strictly above the
    best. Returns each round's improvement, the trace, the request count
    and the termination, once a window closes or the rounds run out."""
    improvements, trace, evaluations, termination = [], [], 0, None
    converged = stagnant = 0
    for value, requests, eligible in rounds:
        at_best = value == objective
        improved = math.isnan(objective) or (eligible and value > objective)
        if improved:
            objective, converged, stagnant = value, 0, 0
        else:
            stagnant += 1
            converged = converged + 1 if at_best else 0
        improvements.append(improved)
        trace.append(objective)
        evaluations += requests
        if converged >= limit:
            termination = "convergence"
        elif stagnant >= cap:
            termination = "stagnation"
        if termination:
            break
    return improvements, trace, evaluations, termination


@given(
    limit=st.integers(2, 6),
    cap=st.integers(1, 12),
    start=st.sampled_from((math.nan, -math.inf, 0.0, 1.0)),
    rounds=st.lists(
        st.tuples(
            st.one_of(st.sampled_from((-math.inf, -1.0, -0.0, 0.0, 1.0, 2.0)),
                      st.floats(-3.0, 3.0)),
            st.integers(0, 40),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=200, deadline=None)
def test_run_step_matches_reference_rule(limit, cap, start, rounds):
    """Run.step over random rounds, with ties, values equal to the best,
    ineligible values above it and first rounds at -inf, against the
    reference loop: the same improvements, objective, trace, iteration and
    request counts and termination, bit for bit. ``start`` is the best a GA
    run's first population sets, or NaN for a run with none."""
    run = Run("aco", types.SimpleNamespace(n=limit, m_servers=1), 0, cap)
    report = run.report
    report.objective = start
    improvements = []
    for value, requests, eligible in rounds:
        improvements.append(run.step(value, requests, eligible))
        if report.termination:
            break
    improved, trace, evaluations, termination = reference_rounds(limit, cap, start, rounds)
    assert improvements == improved
    assert [value.hex() for value in report.trace] == [value.hex() for value in trace]
    assert report.objective.hex() == trace[-1].hex()
    assert (report.iterations, report.evaluations) == (len(trace), evaluations)
    assert report.termination == termination
    assert (report.elapsed_s > 0) == (termination is not None)


@given(
    limit=st.integers(1, 6),
    cap=st.integers(1, 12),
    start=st.sampled_from((math.nan, -math.inf, 0.0, 1.0)),
    rounds=st.lists(
        st.tuples(
            st.one_of(st.sampled_from((-math.inf, -1.0, -0.0, 0.0, 1.0, 2.0)),
                      st.floats(-3.0, 3.0)),
            st.integers(0, 40),
            st.booleans(),
        ),
        max_size=40,
    ),
    eligible=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_sure_rounds_bound_the_run(limit, cap, start, rounds, eligible):
    """Run.sure_rounds over random rounds, with ties and values equal to the
    best: at least 1 while the run is live, and the run never ends in fewer
    rounds than it said. Once the random rounds run out, rounds at the best
    end a run that has a best in exactly sure_rounds() rounds."""
    run = Run("aco", types.SimpleNamespace(n=limit, m_servers=1), 0, cap)
    report = run.report
    report.objective = start
    deadlines = []  # per round taken, the fewest rounds the run could end in
    for value, requests, eligible_round in rounds:
        sure = run.sure_rounds()
        assert sure >= 1
        deadlines.append(report.iterations + sure)
        run.step(value, requests, eligible_round)
        if report.termination:
            break
    assert report.iterations >= max(deadlines, default=0) or not report.termination
    if report.termination or math.isnan(report.objective):
        return
    sure = run.sure_rounds()
    ends = report.iterations + sure
    while not report.termination:
        assert run.sure_rounds() >= 1
        run.step(report.objective, 1, eligible)
    assert report.iterations == ends
