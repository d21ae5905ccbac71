"""Enumeration oracle, exact bounds, and the M/M/1 queue simulator."""

import dataclasses
import itertools
import math
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import crispen, feasible_subsets, mild_params
from fuzzloc import model, oracle
from fuzzloc.errors import BudgetExceededError, DomainError, InfeasibleInstanceError
from fuzzloc.evaluation import MaximinContext, make_maximin_eval, violation_total
from fuzzloc.fuzzy import TriFuzzy
from fuzzloc.instances import GeneratorParams, generate_instance
from fuzzloc.model import (
    Instance, Kernel, Solution, crisp_objective_slice, mm1_metrics, no_feasible_subset,
)
from fuzzloc.oracle import (
    enumerate_optimum,
    exact_bounds,
    mm1_simulate,
    simulate_objective_slice,
)
from fuzzloc.protocol import solve_protocol


class TestEnumeration:
    def test_count_when_m_is_n_minus_one(self, small_instance):
        inst = dataclasses.replace(small_instance, m_servers=5)
        result = enumerate_optimum(inst, lambda s: 0.0)
        assert result.evaluated_count == 6

    def test_lexicographic_tie_break(self, small_instance):
        result = enumerate_optimum(small_instance, lambda s: 1.0)
        assert result.best.sorted() == [1, 2]

    def test_order_independence(self, small_instance):
        def fitness(solution):
            return sum(j * j for j in solution.open) % 7

        result = enumerate_optimum(small_instance, fitness)
        values = {
            combo: fitness(Solution(combo))
            for combo in itertools.combinations(range(1, 7), 2)
        }
        top = max(values.values())
        assert result.best_value == top
        assert tuple(result.best.sorted()) == min(
            combo for combo, value in values.items() if value == top
        )

    def test_budget_refusal(self, small_instance):
        with pytest.raises(BudgetExceededError, match="15"):
            enumerate_optimum(small_instance, lambda s: 0.0, budget=10)

    @pytest.mark.parametrize("value", [-math.inf, math.nan])
    def test_nothing_beats_minus_inf(self, small_instance, value):
        result = enumerate_optimum(small_instance, lambda s: value)
        assert result.best.sorted() == [1, 2]
        assert str(result.best_value) == str(value)

    def test_kernel_fitness_one_kernel_per_block(self, monkeypatch):
        # C(20, 5) = 15504 subsets in blocks of 1024: one kernel per block.
        instance = generate_instance(mild_params(20, 5, 0))
        built = []
        init = Kernel.__init__

        def counted(self, *args):
            built.append(len(args[1]))
            init(self, *args)

        monkeypatch.setattr(Kernel, "__init__", counted)
        enumerate_optimum(instance, make_maximin_eval(instance, HAND_CTX))
        assert len(built) == math.ceil(math.comb(20, 5) / model.BLOCK_SIZE) == 16
        assert sum(built) == math.comb(20, 5)

    def test_table_contains_every_subset(self, small_instance):
        result = enumerate_optimum(small_instance, lambda s: len(s.open), keep_table=True)
        assert len(result.table) == 15
        assert all(result.best_value >= v for v in result.table.values())


class TestExactBounds:
    def test_crisp_spreads_are_zero(self, medium_instance):
        ctx = exact_bounds(crispen(medium_instance))
        assert ctx.z1_bounds == (0.0, 0.0)
        assert ctx.z3_bounds == (0.0, 0.0)
        assert ctx.provenance == "oracle-exact"

    def test_single_feasible_subset_degenerate(self):
        # scaling demand by 1.65 leaves exactly one subset under the threshold
        from conftest import feasible_subsets

        inst = generate_instance(mild_params(6, 2, 0))
        scaled = dataclasses.replace(inst, demand=inst.demand * 1.65)
        assert len(feasible_subsets(scaled)) == 1
        ctx = exact_bounds(scaled)
        assert ctx.is_degenerate("z1")
        assert ctx.is_degenerate("z2")
        assert ctx.is_degenerate("z3")

    def test_infeasible_instance_rejected(self, small_instance):
        overloaded = dataclasses.replace(
            small_instance, demand=small_instance.demand * 100.0
        )
        with pytest.raises(InfeasibleInstanceError):
            exact_bounds(overloaded)


class TestStreaming:
    def test_peak_memory_does_not_grow_with_subsets(self):
        # n = 24: C(24, 3) = 2024 subsets against C(24, 6) = 134596, while a
        # block of the larger subsets holds twice the facilities.
        peaks = {}
        for m in (3, 6):
            instance = generate_instance(mild_params(24, m, 0))
            fitness = make_maximin_eval(instance, MaximinContext((0, 1), (0, 1), (0, 1), "probe"))
            tracemalloc.start()
            try:
                enumerate_optimum(instance, fitness)
                try:
                    exact_bounds(instance)
                except InfeasibleInstanceError:
                    pass
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6] < 4 * peaks[3]

    def test_brute_peak_memory_does_not_grow_with_subsets(self):
        # The same sizes through a brute solve, which also keeps 24 + m bytes
        # per feasible subset: 6280 of the 134596 at M = 6. At M = 3 no
        # subset is feasible, and model.no_feasible_subset certifies it, so
        # that brute solve raises without a scan; the M = 3 baseline is the
        # scan of enumerate_optimum over its 2024 subsets, and the certified
        # solve peaks far below it.
        def peak(solve):
            tracemalloc.start()
            try:
                try:
                    solve()
                except InfeasibleInstanceError:
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = (generate_instance(mild_params(24, m, 0)) for m in (3, 6))
        assert no_feasible_subset(small) and not no_feasible_subset(large)
        fitness = make_maximin_eval(small, MaximinContext((0, 1), (0, 1), (0, 1), "probe"))
        scan = peak(lambda: enumerate_optimum(small, fitness))
        assert peak(lambda: solve_protocol(large, "brute")) < 4 * scan
        assert peak(lambda: solve_protocol(small, "brute")) < scan / 50


HAND_CTX = MaximinContext((0.0, 60.0), (100.0, 250.0), (0.0, 60.0), "hand")
# Every component degenerate: equal bounds, a NaN bound, low above high.
DEGENERATE_CTX = MaximinContext((1.0, 1.0), (math.nan, 2.0), (5.0, 3.0), "degenerate")
CTXS = {"exact": None, "hand": HAND_CTX, "degenerate": DEGENERATE_CTX}


def two_pass(instance, ctx):
    """Reference: a brute solve as two passes over the subsets, exact bounds
    (unless ctx is given) and then enumerate_optimum of the maximin fitness."""
    if ctx is None:
        ctx = exact_bounds(instance)
    return enumerate_optimum(instance, make_maximin_eval(instance, ctx)), ctx


def enumeration(n, m):
    """Every m-subset of 1..n as the rows of model._blocks, concatenated."""
    return np.concatenate(list(model._blocks(types.SimpleNamespace(n=n, m_servers=m))))


def brute_instance(n, m, seed, demand_scale, crisp):
    instance = generate_instance(mild_params(n, m, seed))
    instance = dataclasses.replace(instance, demand=instance.demand * demand_scale)
    return crispen(instance) if crisp else instance


class TestOnePassBrute:
    """The brute solve builds each subset's kernel once (oracle.Scan) and must
    report what the two-pass reference reports, bit for bit."""

    @given(
        case=st.integers(5, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, min(n - 1, 6)),
                st.integers(0, 2**32 - 1),
                st.sampled_from((1.0, 1.6, 100.0)),
                st.booleans(),
            )
        ),
        ctx_name=st.sampled_from(sorted(CTXS)),
        block_size=st.sampled_from((1, 7, 1024)),
    )
    # An infeasible instance with a given ctx, an all-degenerate ctx, and a
    # crisp instance.
    @example(case=(8, 2, 1, 100.0, False), ctx_name="hand", block_size=7)
    @example(case=(8, 2, 1, 1.0, False), ctx_name="degenerate", block_size=7)
    @example(case=(8, 2, 1, 1.0, True), ctx_name="exact", block_size=7)
    @settings(max_examples=60, deadline=None)
    def test_matches_two_pass_reference(self, case, ctx_name, block_size):
        instance = brute_instance(*case)
        ctx = CTXS[ctx_name]
        with mock.patch.object(model, "BLOCK_SIZE", block_size):
            try:
                expected, expected_ctx = two_pass(instance, ctx)
            except InfeasibleInstanceError:
                with pytest.raises(InfeasibleInstanceError):
                    solve_protocol(instance, "brute", ctx=ctx)
                return
            report, got_ctx = solve_protocol(instance, "brute", ctx=ctx)
        assert got_ctx == expected_ctx
        assert report.best == expected.best.sorted()
        assert report.objective == expected.best_value
        assert report.trace == [expected.best_value]
        assert report.iterations == expected.evaluated_count == math.comb(*case[:2])
        assert report.bounds_id == expected_ctx.bounds_id

    def test_infeasible_instance_takes_first_least_violation(self):
        instance = brute_instance(8, 2, 1, 100.0, False)
        combos = list(itertools.combinations(range(1, 9), 2))
        penalties = [-(1.0 + violation_total(instance, Solution(c))) for c in combos]
        report, _ = solve_protocol(instance, "brute", ctx=HAND_CTX)
        assert report.objective == max(penalties)
        assert tuple(report.best) == combos[penalties.index(max(penalties))]

    @pytest.mark.parametrize("block_size", [1, 4, 1024])
    @pytest.mark.parametrize("demand", [2.0, 20.0])
    def test_exact_tie_goes_to_first_subset(self, block_size, demand):
        # Six identical nodes at equal distances: all 15 subsets score the
        # same bits, feasible at demand 2 and infeasible at demand 20.
        instance = Instance(
            n=6,
            m_servers=2,
            distance=np.ones((6, 6)) - np.eye(6),
            demand=np.tile([demand, 1.5 * demand, 2 * demand], (6, 1)),
            service=np.tile([30.0, 40.0, 50.0], (6, 1)),
            idle_min=TriFuzzy(0.1, 0.2, 0.3),
            mql=5.0,
        )
        table = enumerate_optimum(
            instance, make_maximin_eval(instance, HAND_CTX), keep_table=True
        ).table
        assert len(set(table.values())) == 1
        with mock.patch.object(model, "BLOCK_SIZE", block_size):
            report, _ = solve_protocol(instance, "brute", ctx=HAND_CTX)
        assert report.best == [1, 2]
        assert (report.objective >= 0) == (demand == 2.0)

    def test_degenerate_ctx_takes_first_feasible(self, medium_instance):
        report, _ = solve_protocol(medium_instance, "brute", ctx=DEGENERATE_CTX)
        assert report.objective == 1.0
        assert report.best == feasible_subsets(medium_instance)[0].sorted()

    def test_one_kernel_per_block(self, monkeypatch):
        # C(20, 5) = 15504 subsets in blocks of 1024: 16 kernels, where
        # bounds and optimum from separate passes would build 32.
        built = []
        init = Kernel.__init__

        def counted(self, *args):
            built.append(len(args[1]))
            init(self, *args)

        monkeypatch.setattr(Kernel, "__init__", counted)
        solve_protocol(generate_instance(mild_params(20, 5, 0)), "brute")
        assert len(built) == math.ceil(math.comb(20, 5) / model.BLOCK_SIZE) == 16
        assert sum(built) == math.comb(20, 5)

    @pytest.mark.parametrize("n, m", [(20, 5), (24, 6)])
    def test_optimum_enumerates_nothing(self, n, m):
        """Scan.optimum reads its winner from the kept subsets, with no
        _blocks call, and finds the subset and value that
        enumerate_optimum finds."""
        instance = generate_instance(mild_params(n, m, 0))
        scan = oracle.Scan(instance)
        fitness = make_maximin_eval(instance, exact_bounds(instance, scan=scan))
        with mock.patch.object(oracle, "_blocks", side_effect=AssertionError("enumerated")):
            got = scan.optimum(fitness)
        expected = enumerate_optimum(instance, fitness)
        assert got.best == expected.best and got.best_value == expected.best_value

    def test_scan_keeps_feasible_subsets(self):
        """Scan.subsets holds the rows of mild20's 1 746 feasible subsets in
        lexicographic order, in a dtype narrower than intp (one byte per
        index at n = 20), beside their spreads."""
        instance = generate_instance(mild_params(20, 5, 0))
        scan = oracle.Scan(instance)
        expected = [solution.sorted() for solution in feasible_subsets(instance)]
        assert len(expected) == 1746
        assert scan.subsets.tolist() == expected
        assert scan.subsets.dtype == np.uint8
        assert scan.subsets.itemsize < np.dtype(np.intp).itemsize
        assert scan.spreads.shape == (1746, 3)
        assert scan.subsets.nbytes + scan.spreads.nbytes == 1746 * (24 + 5)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_unrank_matches_combinations_at_every_rank(self, n):
        """For every m <= n, every rank 0..comb(n, m) - 1 unranked by _blocks
        holds the row of itertools.combinations, byte for byte."""
        for m in range(1, n + 1):
            rows = enumeration(n, m)
            expected = np.array(list(itertools.combinations(range(1, n + 1), m)), dtype=np.intp)
            assert rows.dtype == np.intp and rows.shape == expected.shape == (math.comb(n, m), m)
            assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, m", [(9, 4), (20, 5), (24, 6), (70, 67)])
    def test_unrank_matches_blocks(self, n, m):
        """Each rank unranks to the same row whatever block it falls in: the
        enumerations in blocks of 7 and 1000 rows hold the rows of the one in
        blocks of BLOCK_SIZE, which are those of itertools.combinations. At
        n = 70, m = 67 comb(70, 35) does not fit in int64, but no row needs
        it."""
        rows = enumeration(n, m)
        expected = np.array(list(itertools.combinations(range(1, n + 1), m)), dtype=np.intp)
        assert rows.shape == (math.comb(n, m), m)
        assert rows.tobytes() == expected.tobytes()
        for block_size in (7, 1000):
            with mock.patch.object(model, "BLOCK_SIZE", block_size):
                assert enumeration(n, m).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("n, m", [(20, 5), (24, 6)])
    def test_unrank_matches_combinations_at_first_middle_last(self, n, m):
        rows = enumeration(n, m)
        count = math.comb(n, m)
        for rank in (0, count // 2, count - 1):
            combos = itertools.combinations(range(1, n + 1), m)
            assert rows[rank].tolist() == list(next(itertools.islice(combos, rank, None)))

    @pytest.mark.parametrize("block_size", [1, 7, model.BLOCK_SIZE])
    def test_blocks_match_combinations(self, block_size):
        """Every block of every n <= 12, 1 <= m < n holds the rows that
        itertools.combinations yields, byte for byte, in blocks of
        block_size rows but the last."""
        for n in range(2, 13):
            for m in range(1, n):
                instance = types.SimpleNamespace(n=n, m_servers=m)
                combos = itertools.combinations(range(1, n + 1), m)
                with mock.patch.object(model, "BLOCK_SIZE", block_size):
                    blocks = list(model._blocks(instance))
                assert [len(block) for block in blocks[:-1]] == [block_size] * (len(blocks) - 1)
                assert 0 < len(blocks[-1]) <= block_size
                for block in blocks:
                    expected = np.array(list(itertools.islice(combos, len(block))), dtype=np.intp)
                    assert block.dtype == np.intp and block.tobytes() == expected.tobytes()
                assert next(combos, None) is None


class TestCertifiedScan:
    """On an instance that model.no_feasible_subset certifies, a Scan keeps
    no rows and builds no kernel, and the brute errors and results stay."""

    def test_scan_keeps_no_rows_and_builds_no_kernel(self, certified, monkeypatch):
        assert no_feasible_subset(certified)
        monkeypatch.setattr(Kernel, "__init__", mock.Mock(side_effect=AssertionError("kernel")))
        scan = oracle.Scan(certified)
        assert scan.count == math.comb(certified.n, certified.m_servers)
        assert scan.spreads.shape == (0, 3)
        assert scan.subsets.shape == (0, certified.m_servers)

    def test_budget_and_error_text_unchanged(self, certified):
        with pytest.raises(BudgetExceededError):
            oracle.Scan(certified, budget=10)
        with pytest.raises(InfeasibleInstanceError, match="^no feasible facility subset exists$"):
            exact_bounds(certified)
        with pytest.raises(InfeasibleInstanceError, match="^no feasible facility subset exists$"):
            solve_protocol(certified, "brute")

    @pytest.mark.parametrize("ctx", [HAND_CTX, DEGENERATE_CTX], ids=["hand", "degenerate"])
    def test_brute_with_bounds_matches_two_pass(self, certified, ctx):
        report, _ = solve_protocol(certified, "brute", ctx=ctx)
        expected, _ = two_pass(certified, ctx)
        assert report.best == expected.best.sorted()
        assert report.objective.hex() == expected.best_value.hex()


class TestSimulator:
    def test_half_load(self):
        result = mm1_simulate(50, 100, 200_000, seed=0)
        assert result.p0 == pytest.approx(0.5, abs=0.02)
        assert result.lq == pytest.approx(0.5, abs=0.05)

    def test_heavy_load(self):
        result = mm1_simulate(80, 100, 400_000, seed=0)
        assert result.lq == pytest.approx(3.2, abs=0.15)

    def test_light_load_mostly_idle(self):
        result = mm1_simulate(1, 100, 50_000, seed=0)
        assert result.p0 == pytest.approx(0.99, abs=0.01)

    def test_standard_errors_reported(self):
        result = mm1_simulate(50, 100, 100_000, seed=1)
        assert result.p0_se > 0
        assert result.lq_se > 0

    def test_unstable_rejected(self):
        with pytest.raises(DomainError):
            mm1_simulate(100, 100, 1000)
        with pytest.raises(DomainError):
            mm1_simulate(120, 100, 1000)

    @pytest.mark.parametrize("lam, mu", [(0, 100), (0.0, 100.0), (50, 0), (0, 0)])
    def test_zero_rate_rejected(self, lam, mu):
        with pytest.raises(DomainError, match="rates must be positive"):
            mm1_simulate(lam, mu, 1000)

    def test_bad_budget_rejected(self):
        with pytest.raises(DomainError):
            mm1_simulate(50, 100, 0)

    @pytest.mark.parametrize(
        "lam, mu",
        [(math.nan, 100), (50, math.nan), (50, math.inf), (math.inf, math.inf), (-math.inf, 100)],
    )
    def test_non_finite_rates_rejected(self, lam, mu):
        with pytest.raises(DomainError, match="finite"):
            mm1_simulate(lam, mu, 1000)

    @pytest.mark.parametrize("lam, mu", [(10**400, 10**401), (50, 10**401)])
    def test_rates_beyond_a_double_rejected(self, lam, mu):
        """An integer rate too large for a double is not finite as a rate."""
        with pytest.raises(DomainError, match="finite"):
            mm1_simulate(lam, mu, 100)

    @pytest.mark.parametrize(
        "lam, mu", [("0.5", 1.0), (0.5, None), (None, 1.0), (0.5 + 0j, 1.0), (0.5, 1j)]
    )
    def test_non_real_rates_rejected(self, lam, mu):
        with mock.patch.object(oracle, "_draws", side_effect=AssertionError("drew")):
            with pytest.raises(DomainError, match="real"):
                mm1_simulate(lam, mu, 100)

    def test_narrow_numpy_rates_draw_as_floats(self):
        """Rates are drawn as Python floats, so an int32 or float32 rate
        gives the bits of the same float64 rate."""
        expected = mm1_simulate(50.0, 100.0, 1000, seed=4)
        assert expected.p0.hex() == "0x1.f85564bb51010p-2"
        assert mm1_simulate(np.int32(50), np.float32(100), 1000, seed=4) == expected
        assert mm1_simulate(np.float32(50), np.int32(100), 1000, seed=4) == expected

    def test_numpy_rates_accepted(self):
        expected = mm1_simulate(50.0, 100.0, 1000, seed=4)
        assert mm1_simulate(np.float64(50), np.int64(100), 1000, seed=4) == expected
        assert math.isfinite(mm1_simulate(np.int32(50), np.float32(100), 1000, seed=4).lq)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            mm1_simulate(50, 100, 1000, seed=-1)

    @pytest.mark.parametrize("event_budget", [1000.5, 1e3, "1000", None])
    def test_non_integer_budget_rejected(self, event_budget):
        with pytest.raises(DomainError, match="event_budget"):
            mm1_simulate(50, 100, event_budget)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            mm1_simulate(50, 100, 1000, seed=seed)

    def test_numpy_integers_accepted(self):
        expected = mm1_simulate(50, 100, 1000, seed=4)
        assert mm1_simulate(50, 100, np.int64(1000), seed=np.uint32(4)) == expected

    def test_seed_determinism(self):
        a = mm1_simulate(50, 100, 50_000, seed=9)
        b = mm1_simulate(50, 100, 50_000, seed=9)
        assert (a.p0, a.lq) == (b.p0, b.lq)


def event_loop(gaps, services, event_budget, batches):
    """Reference: the event-driven M/M/1 loop that the array simulator
    replaced, reading its interarrival and service times from arrays.

    Returns the departure instants it scheduled, the (3, k) per-batch idle,
    area and span sums, and the instant of its last event.
    """
    gaps, services = iter(gaps.tolist()), iter(services.tolist())
    now = 0.0
    in_system = 0
    next_arrival = next(gaps)
    next_departure = math.inf
    departures = []
    batch_size = max(1, event_budget // batches)
    sums = []
    idle = area = span = 0.0
    events_in_batch = 0
    for _ in range(event_budget):
        t_next = min(next_arrival, next_departure)
        dt = t_next - now
        span += dt
        if in_system == 0:
            idle += dt
        else:
            area += (in_system - 1) * dt
        now = t_next
        if next_arrival <= next_departure:
            in_system += 1
            if in_system == 1:
                next_departure = now + next(services)
                departures.append(next_departure)
            next_arrival = now + next(gaps)
        else:
            in_system -= 1
            if in_system:
                next_departure = now + next(services)
                departures.append(next_departure)
            else:
                next_departure = math.inf
        events_in_batch += 1
        if events_in_batch >= batch_size:
            sums.append((idle, area, span))
            idle = area = span = 0.0
            events_in_batch = 0
    if span > 0:
        sums.append((idle, area, span))
    return np.array(departures), np.array(sums).T, now


def reference_batch_sums(customers, event_budget, batches):
    """Reference: the per-batch sums of oracle._batch_sums as first written.
    Each chunk's departures are placed among its arrivals by searchsorted and
    scattered into the event stream with boolean masks, and each batch's
    sums come from weighted bincounts over an event-index // size batch
    index. bincount adds each batch's weights in event order, so the
    simulator must match it bit for bit."""
    size = max(1, event_budget // batches)
    sums = np.zeros((3, -(-event_budget // size)))
    now, in_system, done = 0.0, 0, 0
    waiting = np.empty(0)
    for arrivals, departures in customers:
        departures = np.concatenate((waiting, departures))
        cut = np.searchsorted(departures, arrivals[-1])
        leaving, waiting = departures[:cut], departures[cut:]
        is_departure = np.zeros(len(arrivals) + cut, dtype=bool)
        is_departure[np.searchsorted(arrivals, leaving, side="right") + np.arange(cut)] = True
        times = np.empty(len(is_departure))
        times[is_departure] = leaving
        times[~is_departure] = arrivals
        take = min(len(times), event_budget - done)
        times, step = times[:take], 1 - 2 * is_departure[:take].astype(np.intp)
        after = in_system + np.cumsum(step)
        before = after - step
        dt = np.diff(times, prepend=now)
        batch = np.arange(done, done + take) // size
        first, last = batch[0], batch[-1] + 1
        batch -= first
        sums[0, first:last] += np.bincount(batch, dt * (before == 0))
        sums[1, first:last] += np.bincount(batch, dt * np.maximum(before - 1, 0))
        sums[2, first:last] += np.bincount(batch, dt)
        done += take
        if done == event_budget:
            break
        now, in_system = times[-1], after[-1]
    if event_budget % size and not sums[2, -1] > 0:
        sums = sums[:, :-1]
    return sums


def _first_departures(draws, count):
    """The first ``count`` departure instants of ``oracle._customers``."""
    chunks, total = [], 0
    for _, departures in oracle._customers(draws):
        chunks.append(departures)
        total += len(departures)
        if total >= count:
            return np.concatenate(chunks)[:count]


class TestEventLoopReference:
    @settings(max_examples=40, deadline=None)
    @given(
        rho=st.floats(0.05, 0.97),
        event_budget=st.integers(1, 50_000),
        batches=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.integers(1, 7),
    )
    def test_matches_event_loop(self, rho, event_budget, batches, seed, chunk):
        lam, mu = rho, 1.0
        # One chunk holds every draw the loop can use: at most one more
        # arrival than events, and a service per departure scheduled.
        with mock.patch.object(oracle, "CHUNK_SIZE", event_budget + 1):
            gaps, services = next(oracle._draws(lam, mu, seed))
        departures, sums, horizon = event_loop(gaps, services, event_budget, batches)
        expected = oracle._estimate(*sums)

        with mock.patch.object(oracle, "BATCHES", batches):
            with mock.patch.object(oracle, "CHUNK_SIZE", chunk):
                chunked_departures = _first_departures(
                    oracle._draws(lam, mu, seed), len(departures)
                )
                chunked = oracle._batch_sums(
                    oracle._customers(oracle._draws(lam, mu, seed)), event_budget, batches
                )
                chunked_result = mm1_simulate(lam, mu, event_budget, seed=seed)
            result = mm1_simulate(lam, mu, event_budget, seed=seed)

        np.testing.assert_allclose(chunked_departures, departures, rtol=1e-10, atol=0)
        # A sum that missed or added one event would be off by about
        # horizon / event_budget, far above this tolerance.
        assert chunked.shape == sums.shape
        np.testing.assert_allclose(chunked, sums, rtol=1e-9, atol=1e-9 * horizon)
        assert chunked[2].sum() == pytest.approx(horizon, rel=1e-9)
        for got in (result, chunked_result):
            assert dataclasses.astuple(got) == pytest.approx(
                dataclasses.astuple(expected), rel=1e-9, abs=1e-12, nan_ok=True
            )

    @pytest.mark.parametrize("chunk", [1, 2, 3, 64])
    def test_tied_instants_match_event_loop_exactly(self, chunk):
        # Whole-number draws make every departure tie with an arrival, and
        # keep every sum exact.
        gaps = np.ones(41)
        services = np.tile([1.0, 2.0, 1.0, 3.0, 1.0], 9)[:41]
        draws = ((gaps[i:i + chunk], services[i:i + chunk]) for i in range(0, 41, chunk))
        customers = list(oracle._customers(draws))
        chunked_departures = np.concatenate([d for _, d in customers])
        # Budgets that end on either instant of a tie, with batch sizes that
        # leave a trailing partial batch of zero span.
        for event_budget in range(1, 41):
            for batches in (1, 3, 6, event_budget):
                departures, sums, _ = event_loop(gaps, services, event_budget, batches)
                assert chunked_departures[: len(departures)].tolist() == departures.tolist()
                chunked = oracle._batch_sums(iter(customers), event_budget, batches)
                assert chunked.tolist() == sums.tolist()
                reference = reference_batch_sums(iter(customers), event_budget, batches)
                assert chunked.tolist() == reference.tolist()


class TestBatchSumsReference:
    @settings(max_examples=10, deadline=None)
    @given(
        rho=st.floats(0.05, 0.97),
        event_budget=st.integers(1, 50_000),
        batches=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.one_of(st.integers(1, 7), st.just(oracle.CHUNK_SIZE)),
    )
    # budgets that span several batches and several full chunks
    @example(rho=0.97, event_budget=50_000, batches=20, seed=3, chunk=oracle.CHUNK_SIZE)
    @example(rho=0.3, event_budget=20_000, batches=60, seed=1, chunk=7)
    def test_matches_reference_bit_for_bit(self, rho, event_budget, batches, seed, chunk):
        lam, mu = rho, 1.0
        with mock.patch.object(oracle, "BATCHES", batches):
            with mock.patch.object(oracle, "CHUNK_SIZE", chunk):
                sums = oracle._batch_sums(
                    oracle._customers(oracle._draws(lam, mu, seed)), event_budget, batches
                )
                expected = reference_batch_sums(
                    oracle._customers(oracle._draws(lam, mu, seed)), event_budget, batches
                )
                result = mm1_simulate(lam, mu, event_budget, seed=seed)
        assert sums.tolist() == expected.tolist()
        assert dataclasses.astuple(result) == dataclasses.astuple(oracle._estimate(*expected))


class TestSimulatorMemory:
    def test_peak_memory_does_not_grow_with_events(self):
        peaks = {}
        for events in (10**6, 4 * 10**6):
            tracemalloc.start()
            try:
                mm1_simulate(80, 100, events, seed=0)
                peaks[events] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4 * 10**6] < 1.5 * peaks[10**6]


class TestNetworkSimulation:
    def test_objective_cross_check(self, small_instance):
        solution = Solution([1, 2])
        analytic = crisp_objective_slice(small_instance, solution, "mid")
        simulated = simulate_objective_slice(
            small_instance, solution, "mid", 100_000, seed=0
        )
        assert simulated == pytest.approx(analytic, rel=0.05)

    def test_idle_facilities_are_not_simulated(self):
        """With every lo demand 0, both open facilities of `fuzzloc validate`'s
        instance capture nothing at the lo slice: idle queues, P0 = 1 and
        Lq = 0 exactly, so the simulated objective is the analytic 0.0 and no
        queue is simulated."""
        params = GeneratorParams(n=6, m_servers=2, demand_lo_range=(4, 30),
                                 demand_offsets=(10, 20), seed=123)
        base = generate_instance(params)
        demand = base.demand.copy()
        demand[:, 0] = 0.0
        instance = dataclasses.replace(base, demand=demand)
        solution = Solution([1, 2])
        assert crisp_objective_slice(instance, solution, "lo") == 0.0
        with mock.patch.object(oracle, "mm1_simulate", side_effect=AssertionError) as spy:
            assert simulate_objective_slice(instance, solution, "lo", 10_000, seed=0) == 0.0
        assert spy.call_count == 0
        busy = simulate_objective_slice(instance, solution, "mid", 100_000, seed=0)
        assert busy == pytest.approx(crisp_objective_slice(instance, solution, "mid"), rel=0.05)

    def test_idle_facility_keeps_the_others_seeds(self):
        """Past ATTRACTION_LIMIT, facility 6 captures none of node 1's demand,
        the only demand there is, so only facility 1 is simulated, with the
        seed it has as the first open facility."""
        distance = np.abs(np.subtract.outer(np.arange(6), np.arange(6))) * 10.0
        demand = np.zeros((6, 3))
        demand[0] = (40.0, 50.0, 60.0)
        instance = Instance(n=6, m_servers=2, distance=distance, demand=demand,
                            service=np.tile([100.0, 110.0, 120.0], (6, 1)),
                            idle_min=TriFuzzy(0.1, 0.15, 0.2), mql=25.0,
                            logit_sensitivity=40.0)
        assert instance.attraction is None
        kernel = Kernel(instance, np.array([0, 5]))
        assert kernel.lam_bar[1].tolist() == [0.0, 0.0, 0.0]
        calls = []

        def simulate(lam, mu, event_budget, seed=0):
            calls.append((lam, mu, seed))
            return mm1_simulate(lam, mu, event_budget, seed=seed)

        with mock.patch.object(oracle, "mm1_simulate", simulate):
            value = simulate_objective_slice(instance, Solution([1, 6]), "mid", 50_000, seed=7)
        assert calls == [(50.0, 110.0, 7)]
        result = mm1_simulate(50.0, 110.0, 50_000, seed=7)
        assert value == 50.0 * model.served_share(1.0 - result.p0, result.lq, 25.0)

    def test_unstable_facility_still_raises(self, small_instance):
        overloaded = dataclasses.replace(small_instance, demand=small_instance.demand * 100)
        assert crisp_objective_slice(overloaded, Solution([1, 2]), "mid") is None
        with pytest.raises(DomainError, match="unstable"):
            simulate_objective_slice(overloaded, Solution([1, 2]), "mid", 1000, seed=0)
