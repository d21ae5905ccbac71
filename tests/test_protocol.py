"""Seven-run solve protocol: bound calibration plus the final maximin run."""

import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    aco_run,
    bound_fitness,
    crispen,
    mild_params,
    one_block,
    record,
    score_block,
)
from fuzzloc import aco, evaluation, protocol
from fuzzloc.aco import ACOConfig, run_aco
from fuzzloc.errors import DomainError
from fuzzloc.fuzzy import TriFuzzy
from fuzzloc.evaluation import MaximinContext, component_value, drive, make_maximin_eval
from fuzzloc.ga import GAConfig, run_ga, _steps as _ga_steps
from fuzzloc.instances import GeneratorParams, generate_instance
from fuzzloc.model import Instance, Kernel, Solution, no_feasible_subset
from fuzzloc.oracle import enumerate_optimum, exact_bounds
from fuzzloc.protocol import (
    BOUND_RUNS,
    _BoundFitness,
    estimate_bounds,
    solve_protocol,
)
from fuzzloc.reports import SolverReport


def _sequential_runs(instance, config, seed=0):
    """The six bound runs of ``config`` one after another, run r seeded
    seed + r + 1: run_ga calls, or one aco._colonies stack of one run each,
    of the run's sign."""
    reports = []
    for r, sign in enumerate(protocol._SIGN):
        fitness = _BoundFitness(instance, r)
        if isinstance(config, GAConfig):
            reports.append(run_ga(instance, fitness, config, seed + r + 1))
        else:
            reports.append(drive([(aco_run(instance, config, sign, seed + r + 1), fitness)])[0])
    return reports


def _record_kernels(monkeypatch) -> list:
    """Record the shape of each block that drive scores, once, at its entry
    point model.block_figures (a table lookup or a Kernel of its own), and
    of each Kernel built outside drive (a one-subset kernel of a plain
    callable, say)."""
    shapes = []
    init = Kernel.__init__
    serving = []  # nonempty while block_figures serves a block

    def counted(self, instance, idx):
        if not serving:
            shapes.append(np.shape(idx))
        init(self, instance, idx)

    def served(instance, idx, _figures=evaluation.block_figures):
        shapes.append(np.shape(idx))
        serving.append(idx)
        try:
            return _figures(instance, idx)
        finally:
            serving.pop()

    monkeypatch.setattr(Kernel, "__init__", counted)
    monkeypatch.setattr(evaluation, "block_figures", served)
    return shapes


# Three nodes, one server: a facility captures all demand, 3 at every slice,
# so the lo slice has lam_bar == mu == 3 exactly and the mid occupancy is
# 3 / 30, under the threshold 0.85. Every subset then has violation 0.0 but
# is infeasible, and every bound run scores it exactly -1e12.
AT_PENALTY = Instance(
    n=3,
    m_servers=1,
    distance=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
    demand=np.ones((3, 3)),
    service=np.tile([3.0, 30.0, 40.0], (3, 1)),
    idle_min=TriFuzzy(0.15, 0.15, 0.15),
    mql=25.0,
)


class TestEstimateBounds:
    @pytest.mark.parametrize("algo", ["ga", "aco"])
    @pytest.mark.parametrize("seeds", [[0, 1, 2, 3, 4, 5], [-5, -4, -3, -2, -1, 0]])
    def test_negative_seed_rejected_before_any_run(self, small_instance, algo, seeds,
                                                   monkeypatch):
        """``seeds`` are the bound seeds, seed + k + 1, of a negative solve
        seed: that seed fails whether they are all non-negative or not."""
        seed = seeds[0] - 1
        assert seeds == [seed + k + 1 for k in range(len(BOUND_RUNS))]

        def no_run(runs):
            raise AssertionError("a bound run started")

        monkeypatch.setattr(protocol, "drive", no_run)
        with pytest.raises(DomainError, match="seed must be non-negative"):
            solve_protocol(small_instance, algo, seed=seed)

    @pytest.mark.parametrize("config", [GAConfig(), ACOConfig()], ids=["ga", "aco"])
    def test_estimated_bounds_within_exact_range(self, small_instance, config):
        exact = exact_bounds(small_instance)
        est = estimate_bounds(small_instance, config)
        assert est.provenance == "metaheuristic-estimated"
        for name in ("z1", "z2", "z3"):
            lo_exact, hi_exact = exact.bounds(name)
            lo_est, hi_est = est.bounds(name)
            assert lo_exact - 1e-9 <= lo_est <= hi_exact + 1e-9
            assert lo_exact - 1e-9 <= hi_est <= hi_exact + 1e-9

    def test_crisp_instance_spread_bounds_zero(self, medium_instance):
        est = estimate_bounds(crispen(medium_instance), GAConfig())
        assert est.z1_bounds == (0.0, 0.0)
        assert est.z3_bounds == (0.0, 0.0)

    def test_same_seeds_reproduce(self, small_instance):
        a = estimate_bounds(small_instance, GAConfig(), 2)
        b = estimate_bounds(small_instance, GAConfig(), 2)
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(5, 12),
        m=st.integers(2, 3),
        instance_seed=st.integers(0, 2**16),
        mild=st.booleans(),
        window=st.integers(1, 12),
        seed=st.integers(0, 100),
    )
    def test_lockstep_matches_sequential_runs(self, n, m, instance_seed, mild, window, seed):
        """Lockstep bounds, read from the runs' objectives, equal, bit for
        bit, the component values of the bests of six separate runs.
        Default generator ranges give infeasible instances whose bounds are
        NaN, most of them certified by model.no_feasible_subset, so that
        estimate_bounds makes no run on them."""
        params = mild_params(n, m, instance_seed) if mild else GeneratorParams(
            n=n, m_servers=m, seed=instance_seed)
        instance = generate_instance(params)
        for config in (GAConfig(stagnation_limit=window), ACOConfig(stagnation_limit=window)):
            ctx = estimate_bounds(instance, config, seed)
            runs = _sequential_runs(instance, config, seed)
            for (name, sense), report in zip(BOUND_RUNS, runs):
                value = component_value(instance, Solution(report.best), name)
                expected = math.nan if value is None else value
                got = ctx.bounds(name)[0 if sense == "min" else 1]
                assert got.hex() == expected.hex(), (config, name, sense)

    @pytest.mark.parametrize("config", [GAConfig(), ACOConfig()], ids=["ga", "aco"])
    def test_penalty_boundary_gives_nan_bounds(self, config, monkeypatch):
        """A bound run whose best is exactly the penalty -1e12 found no
        feasible subset: its bound is NaN. The bounds are read from the runs'
        own objectives, with no one-subset kernel."""
        idx = np.arange(AT_PENALTY.n)[:, None]
        kernel = Kernel(AT_PENALTY, idx)
        assert (kernel.lam_bar[..., 0] == kernel.mu[..., 0]).all()
        feasible, spreads, violation = kernel.figures()
        assert not feasible.any() and spreads is None
        assert violation.tolist() == [0.0] * AT_PENALTY.n
        for r in range(len(BOUND_RUNS)):
            assert score_block(_BoundFitness(AT_PENALTY, r), idx) == [-1e12] * AT_PENALTY.n
        shapes = _record_kernels(monkeypatch)
        ctx = estimate_bounds(AT_PENALTY, config)
        for name, sense in BOUND_RUNS:
            assert math.isnan(ctx.bounds(name)[sense == "max"]), (name, sense)
        assert shapes and all(len(shape) == 2 for shape in shapes)

    def test_aco_bound_runs_share_kernel_calls(self, medium_instance, monkeypatch):
        """One figures call per round scores every live colony, so the six
        ACO bound runs make as many block calls as the longest run has
        iterations."""
        config = ACOConfig(stagnation_limit=20)
        runs = _sequential_runs(medium_instance, config)
        blocks = []

        def counted(instance, idx, _figures=evaluation.block_figures):
            if np.ndim(idx) == 2:
                blocks.append(len(idx))
            return _figures(instance, idx)

        monkeypatch.setattr(evaluation, "block_figures", counted)
        estimate_bounds(medium_instance, config)
        iterations = [report.iterations for report in runs]
        assert len(set(iterations)) > 1
        assert len(blocks) == max(iterations)
        assert sum(blocks) == sum(report.evaluations for report in runs)

    def test_aco_bound_runs_share_trail_updates(self, medium_instance, monkeypatch):
        """The six ACO bound runs keep their trails in one array: each round
        makes one sampling pass and one trail update for every live run, so
        there are as many of each as the longest run has iterations, not as
        many as all runs together."""
        config = ACOConfig(stagnation_limit=20)
        runs = _sequential_runs(medium_instance, config)
        live = {"_sample_colonies": [], "_update": []}
        for name, calls in live.items():

            def counted(tau, *args, _calls=calls, _original=getattr(aco, name)):
                _calls.append(len(tau))
                return _original(tau, *args)

            monkeypatch.setattr(aco, name, counted)
        estimate_bounds(medium_instance, config)
        iterations = sorted(report.iterations for report in runs)
        assert len(live["_update"]) == max(iterations) < sum(iterations)
        assert live["_sample_colonies"] == live["_update"]
        # Live runs per round: six, then one fewer as each run ends.
        assert live["_update"] == sorted(live["_update"], reverse=True)
        rounds_above = [sum(1 for rows in live["_update"] if rows > k) for k in range(6)]
        assert rounds_above == iterations[::-1]

    def test_ga_bound_runs_share_kernel_calls(self, monkeypatch):
        """GA shrink steps ask for sizes that differ between the lockstep
        runs; drive serves one size per round, so the six GA bound runs build
        at most 40% of the kernels that they build alone."""
        instance = generate_instance(mild_params(20, 5, 0))
        config = GAConfig(stagnation_limit=100)
        shapes = _record_kernels(monkeypatch)
        _sequential_runs(instance, config)
        alone = len(shapes)
        shapes.clear()
        estimate_bounds(instance, config)
        assert len(shapes) <= 0.4 * alone

    def test_bound_runs_cover_all_components(self):
        assert BOUND_RUNS == (
            ("z1", "min"), ("z1", "max"),
            ("z2", "min"), ("z2", "max"),
            ("z3", "min"), ("z3", "max"),
        )


def _stepped_bounds(instance, config, seed):
    """The context of the six bound runs stepped together through drive,
    with no certificate, run r seeded seed + r + 1: six GA step generators,
    or one ACO stack, each run's bound read from its objective, NaN at or
    below the penalty."""
    seeds = [seed + r + 1 for r in range(len(BOUND_RUNS))]
    if isinstance(config, GAConfig):
        reports = drive([
            (_ga_steps(instance, config, bound_seed), _BoundFitness(instance, r))
            for r, bound_seed in enumerate(seeds)
        ])
    else:
        fitness = _BoundFitness(instance, 0)
        stack = aco._colonies(instance, config, seeds, protocol._SIGN, fitness.select)
        reports = drive([(stack, fitness)])[0]
    found = [
        sign * report.objective if report.objective > -1e12 else math.nan
        for sign, report in zip(protocol._SIGN.tolist(), reports)
    ]
    return MaximinContext(*zip(found[::2], found[1::2]), provenance="metaheuristic-estimated")


class TestCertifiedBounds:
    """On an instance that model.no_feasible_subset certifies, estimate_bounds
    makes no run and returns the context the six runs give."""

    @pytest.mark.parametrize("config", [
        GAConfig(stagnation_limit=100), ACOConfig(stagnation_limit=100),
    ], ids=["ga", "aco"])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_stepped_bound_runs(self, certified, config, seed, monkeypatch):
        assert no_feasible_subset(certified)
        expected = _stepped_bounds(certified, config, seed)
        shapes = _record_kernels(monkeypatch)
        ctx = estimate_bounds(certified, config, seed)
        assert shapes == []
        hexes = [[bound.hex() for bound in c.bounds(name)] for c in (ctx, expected)
                 for name in ("z1", "z2", "z3")]
        assert hexes[:3] == hexes[3:] == [["nan", "nan"]] * 3
        assert ctx.provenance == expected.provenance
        assert ctx.bounds_id == expected.bounds_id

    @pytest.mark.parametrize("config", [GAConfig(), ACOConfig()], ids=["ga", "aco"])
    def test_bad_seeds_raise_first(self, certified, config):
        with pytest.raises(DomainError, match="seed must be non-negative"):
            solve_protocol(certified, "ga" if isinstance(config, GAConfig) else "aco", seed=-1)


@pytest.mark.parametrize("value", [1.5, True])
@pytest.mark.parametrize("config, name", [
    (GAConfig, "seed"), (GAConfig, "stagnation_limit"), (GAConfig, "population_floor"),
    (ACOConfig, "seed"), (ACOConfig, "stagnation_limit"), (ACOConfig, "population_coefficient"),
])
def test_config_counts_are_integers(small_instance, config, name, value):
    """A count that is not a Python int, or is a bool, is a DomainError that
    names it: a config's field when the config is built, and a run's seed,
    which no config holds, at every entry point that takes one."""
    if name != "seed":
        with pytest.raises(DomainError, match=name):
            config(**{name: value})
        return
    algo, run = ("ga", run_ga) if config is GAConfig else ("aco", run_aco)
    for call in (
        lambda: run(small_instance, lambda solution: 0.0, config(), seed=value),
        lambda: estimate_bounds(small_instance, config(), value),
        lambda: solve_protocol(small_instance, algo, seed=value),
    ):
        with pytest.raises(DomainError, match=f"^seed must be an integer, got {value!r}$"):
            call()


@pytest.mark.parametrize("config, fields", [(GAConfig, 2), (ACOConfig, 6)], ids=["ga", "aco"])
def test_configs_hold_no_seed(config, fields):
    """A run's seed is an argument of its entry point, not a config field."""
    assert len(dataclasses.fields(config)) == fields
    with pytest.raises(TypeError, match="seed"):
        config(seed=0)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("algo", ["ga", "aco"])
def test_entry_points_replay_a_solve(medium_instance, algo, seed):
    """estimate_bounds at a solve's seed gives that solve's context, and
    run_ga or run_aco at that seed, under that context, its final report."""
    config = (GAConfig if algo == "ga" else ACOConfig)(stagnation_limit=30)
    options = {"ga_config" if algo == "ga" else "aco_config": config}
    report, ctx = solve_protocol(medium_instance, algo, seed=seed, **options)
    bounds = estimate_bounds(medium_instance, config, seed)
    assert bounds == ctx and bounds.bounds_id == ctx.bounds_id
    run = (run_ga if algo == "ga" else run_aco)(
        medium_instance, make_maximin_eval(medium_instance, ctx), config, seed=seed)
    run.bounds_id = ctx.bounds_id
    assert record(run) == record(report)


class _Counted:
    """A plain callable fitness that counts its calls."""

    def __init__(self, fitness):
        self.fitness = fitness
        self.calls = 0

    def __call__(self, solution):
        self.calls += 1
        return self.fitness(solution)


def _blocks_run(blocks):
    """A run that asks for each block of 0-based subsets in turn and returns
    the values of all of them."""
    values = []
    for idx in blocks:
        values.append((yield idx))
    return values


# A block of one to four 0-based, ascending subsets of the medium instance's
# eight nodes, all of one size from 2 to 6.
_BLOCK = st.integers(2, 6).flatmap(
    lambda k: st.lists(
        st.sets(st.integers(0, 7), min_size=k, max_size=k).map(sorted), min_size=1, max_size=4
    )
)


class TestDrive:
    @staticmethod
    def _runs(instance, seed):
        """Fresh GA and ACO runs of KernelFitnesses and of plain callables.
        The last run stops at its first iteration without improvement, long
        before the others."""
        maximin = make_maximin_eval(instance, exact_bounds(instance))

        def plain(solution):
            return maximin(solution)

        ga, aco = GAConfig(stagnation_limit=30), ACOConfig(stagnation_limit=30)
        return [
            (_ga_steps(instance, ga, seed), bound_fitness(instance, "z2", "min")),
            (aco_run(instance, aco, -1.0, seed), bound_fitness(instance, "z1", "min")),
            (_ga_steps(instance, ga, seed + 1), _Counted(maximin)),
            (aco_run(instance, aco, 1.0, seed + 1), plain),
            (aco_run(instance, ACOConfig(stagnation_limit=1), 1.0, seed), maximin),
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_runs_match_each_run_alone(self, medium_instance, seed, monkeypatch):
        alone_runs = self._runs(medium_instance, seed)
        alone = [drive([run])[0] for run in alone_runs]
        together_runs = self._runs(medium_instance, seed)
        shapes = _record_kernels(monkeypatch)
        together = drive(together_runs)
        sizes = [shape[-1] for shape in shapes]
        assert list(map(record, together)) == list(map(record, alone))
        assert together_runs[2][1].calls == alone_runs[2][1].calls > 0
        m = medium_instance.m_servers
        assert m in sizes and max(sizes) > m  # GA shrink steps next to ACO colonies
        iterations = [report.iterations for report in together]
        assert iterations[-1] < min(iterations[:-1])

    def test_one_kernel_for_a_round_of_one_size(self, medium_instance, monkeypatch):
        blocks = [np.array([[0, 1], [2, 3]]), np.array([[4, 5], [1, 7], [0, 6]])]
        fitnesses = [
            make_maximin_eval(medium_instance, exact_bounds(medium_instance)),
            bound_fitness(medium_instance, "z3", "max"),
        ]
        expected = [
            [fitness(Solution(row)) for row in (idx + 1).tolist()]
            for fitness, idx in zip(fitnesses, blocks)
        ]
        shapes = _record_kernels(monkeypatch)
        got = drive([(one_block(idx), fitness) for idx, fitness in zip(blocks, fitnesses)])
        assert shapes == [(5, 2)]
        assert got == expected

    def test_waiting_block_joins_a_later_round(self, medium_instance, monkeypatch):
        """Round one serves A's size-3 block, the larger size on a tie, and
        B's size-2 block waits to share a kernel with A's next block."""
        a_blocks = [np.array([[0, 1, 2], [3, 4, 5]]), np.array([[0, 7], [2, 5]])]
        b_blocks = [np.array([[1, 6], [3, 4], [5, 6]])]
        fitnesses = [
            make_maximin_eval(medium_instance, exact_bounds(medium_instance)),
            bound_fitness(medium_instance, "z1", "min"),
        ]
        expected = [
            [[fitness(Solution(row)) for row in (idx + 1).tolist()] for idx in blocks]
            for fitness, blocks in zip(fitnesses, (a_blocks, b_blocks))
        ]
        shapes = _record_kernels(monkeypatch)
        got = drive([(_blocks_run(a_blocks), fitnesses[0]), (_blocks_run(b_blocks), fitnesses[1])])
        assert shapes == [(2, 3), (5, 2)]
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.lists(_BLOCK, min_size=1, max_size=5),
                st.sampled_from(["maximin", "z1-min", "z3-max", "plain"]),
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_together_matches_each_run_alone(self, medium_instance, specs):
        """Runs of random block sizes end, bit for bit, as they do alone, and
        every block of a KernelFitness run is scored once, in a round of its
        own size."""
        maximin = make_maximin_eval(medium_instance, exact_bounds(medium_instance))

        def plain(solution):
            return maximin(solution)

        fitnesses = {
            "maximin": maximin,
            "z1-min": bound_fitness(medium_instance, "z1", "min"),
            "z3-max": bound_fitness(medium_instance, "z3", "max"),
            "plain": plain,
        }
        runs = [
            ([np.array(rows, dtype=np.intp) for rows in spec], fitnesses[name])
            for spec, name in specs
        ]
        alone = [drive([(_blocks_run(blocks), fitness)])[0] for blocks, fitness in runs]
        with pytest.MonkeyPatch.context() as monkeypatch:
            shapes = _record_kernels(monkeypatch)
            together = drive([(_blocks_run(blocks), fitness) for blocks, fitness in runs])
        def as_hex(values):
            return [[v.hex() for v in block] for block in values]

        assert [as_hex(v) for v in together] == [as_hex(v) for v in alone]
        scored = [idx for blocks, fitness in runs if fitness is not plain for idx in blocks]
        # The plain callable builds one-subset kernels; drive serves blocks.
        kernels = [shape for shape in shapes if len(shape) == 2]
        rows, served = Counter(), Counter()
        for idx in scored:
            rows[idx.shape[1]] += len(idx)
        for count, size in kernels:
            served[size] += count
        assert served == rows
        assert len(kernels) <= len(scored)


class TestSolveProtocol:
    def test_brute_matches_enumeration(self, small_instance):
        report, ctx = solve_protocol(small_instance, "brute")
        fitness = make_maximin_eval(small_instance, ctx)
        optimum = enumerate_optimum(small_instance, fitness)
        assert report.objective == optimum.best_value
        assert report.best == optimum.best.sorted()
        assert report.termination == "exhaustive"
        assert report.bounds_id == ctx.bounds_id
        assert ctx.provenance == "oracle-exact"

    @pytest.mark.parametrize("path", ["scan", "fallback"])
    def test_brute_report_is_its_runs_record(self, medium_instance, table1, path):
        """Both brute paths, a scan of the mild n = 8 instance and table1's
        all-infeasible fallback under a replayed NaN context, return the
        record of a finished, timed Run that requested no fitness calls."""
        if path == "scan":
            instance, ctx = medium_instance, None
        else:
            instance = table1
            nan_ctx = estimate_bounds(table1, ACOConfig())
            ctx = MaximinContext.from_dict(json.loads(json.dumps(nan_ctx.to_dict())))
            assert math.isnan(ctx.z1_bounds[0])
        report, _ = solve_protocol(instance, "brute", ctx=ctx)
        assert report.termination == "exhaustive" and report.trace == [report.objective]
        assert report.iterations == math.comb(instance.n, instance.m_servers)
        assert report.evaluations == 0 and report.elapsed_s > 0

    @pytest.mark.parametrize("seed", [1.5, -3, True])
    @pytest.mark.parametrize("algo", ["brute", "ga", "aco"])
    def test_every_algorithm_rejects_a_bad_seed(self, medium_instance, monkeypatch, algo, seed):
        """A seed that no config takes is a DomainError naming the seed for
        all three algorithms, raised before a brute solve scans anything."""

        def refuse(*args, **kwargs):
            raise AssertionError("scanned")

        monkeypatch.setattr(protocol, "Scan", refuse)
        with pytest.raises(DomainError, match="^seed must be"):
            solve_protocol(medium_instance, algo, seed=seed)

    @pytest.mark.parametrize("case", [
        ("small", "solve", "ga", ACOConfig(stagnation_limit=5)),
        ("small", "solve", "aco", GAConfig(stagnation_limit=5)),
        ("small", "bounds", None, "ga"),
        ("table1", "bounds", None, "ga"),
    ], ids=["ga given ACOConfig", "aco given GAConfig", "bounds given str",
            "certified bounds given str"])
    def test_config_of_another_class_rejected(self, small_instance, table1, monkeypatch, case):
        """A solve's config of the other solver's class, or a bound config
        of neither class, is a DomainError before any block is scored, also
        on table1, where estimate_bounds makes no run."""
        name, call, algo, config = case
        instance = small_instance if name == "small" else table1

        def refuse(*args):
            raise AssertionError("scored a block")

        monkeypatch.setattr(evaluation, "block_figures", refuse)
        with pytest.raises(DomainError, match="Config"):
            if call == "solve":
                solve_protocol(instance, algo, **{f"{algo}_config": config})
            else:
                estimate_bounds(instance, config)

    def test_unknown_algorithm_rejected(self, small_instance):
        with pytest.raises(DomainError, match="unknown algorithm"):
            solve_protocol(small_instance, "anneal")

    @pytest.mark.parametrize("algo", ["ga", "aco"])
    def test_deterministic_given_seed(self, small_instance, algo):
        a_report, a_ctx = solve_protocol(small_instance, algo, seed=2)
        b_report, b_ctx = solve_protocol(small_instance, algo, seed=2)
        assert a_report.best == b_report.best
        assert a_report.objective == b_report.objective
        assert a_ctx == b_ctx

    def test_exact_bounds_flag(self, small_instance):
        report, ctx = solve_protocol(small_instance, "ga", seed=0, ctx=exact_bounds(small_instance))
        assert ctx.provenance == "oracle-exact"
        assert 0.0 <= report.objective <= 1.0

    def test_options_after_seed_are_keyword_only(self, small_instance):
        # A stale positional use_exact_bounds=True must not land in enum_budget.
        with pytest.raises(TypeError):
            solve_protocol(small_instance, "ga", 0, True)

    def test_objective_consistent_with_context(self, small_instance):
        report, ctx = solve_protocol(small_instance, "ga", seed=1)
        fitness = make_maximin_eval(small_instance, ctx)
        assert fitness(Solution(report.best)) == pytest.approx(report.objective)

    def test_custom_ga_config_threads_through(self, small_instance):
        report, _ = solve_protocol(
            small_instance,
            "ga",
            seed=0,
            ctx=exact_bounds(small_instance),
            ga_config=GAConfig(population_floor=4),
        )
        assert len(report.best) == small_instance.m_servers


class TestComponentValue:
    def test_matches_spread_decomposition(self, small_instance):
        from fuzzloc.evaluation import fuzzy_objective

        solution = Solution([1, 2])
        z = fuzzy_objective(small_instance, solution)
        comps = {"z1": z.mid - z.lo, "z2": z.mid, "z3": z.hi - z.mid}
        for name in ("z1", "z2", "z3"):
            assert component_value(small_instance, solution, name) == pytest.approx(
                comps[name]
            )

    def test_infeasible_is_none(self, small_instance):
        import dataclasses

        overloaded = dataclasses.replace(
            small_instance, demand=small_instance.demand * 100.0
        )
        assert component_value(overloaded, Solution([1, 2]), "z2") is None


class TestSolverReport:
    def test_json_round_trip(self, small_instance):
        report, _ = solve_protocol(small_instance, "ga", seed=0, ctx=exact_bounds(small_instance))
        assert report.evaluations > 0
        assert SolverReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report

    def test_to_dict_copies_lists_in_field_order(self):
        report = SolverReport("ga", 6, 2, 0, [1, 2], 0.5, 3, "stagnation", trace=[0.5])
        doc = report.to_dict()
        assert list(doc) == [field.name for field in dataclasses.fields(SolverReport)]
        doc["best"].append(6)
        doc["trace"].append(1.0)
        assert (report.best, report.trace) == ([1, 2], [0.5])

    def test_result_without_evaluations_loads(self, small_instance):
        report, _ = solve_protocol(small_instance, "aco", seed=0, ctx=exact_bounds(small_instance))
        doc = report.to_dict()
        del doc["evaluations"]
        assert SolverReport.from_dict(doc).evaluations == 0
