"""Enumeration oracle, exact bounds, and the discrete-event queue simulator."""

import dataclasses
import itertools
import math
import tracemalloc

import pytest

from conftest import crispen, mild_params
from fuzzloc.errors import BudgetExceededError, DomainError, InfeasibleInstanceError
from fuzzloc.evaluation import MaximinContext, make_maximin_eval
from fuzzloc.instances import generate_instance
from fuzzloc.model import Solution, crisp_objective_slice, mm1_metrics
from fuzzloc.oracle import (
    enumerate_optimum,
    exact_bounds,
    mm1_simulate,
    simulate_objective_slice,
)


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

    def test_bad_budget_rejected(self):
        with pytest.raises(DomainError):
            mm1_simulate(50, 100, 0)

    def test_seed_determinism(self):
        a = mm1_simulate(50, 100, 50_000, seed=9)
        b = mm1_simulate(50, 100, 50_000, seed=9)
        assert (a.p0, a.lq) == (b.p0, b.lq)


class TestNetworkSimulation:
    def test_objective_cross_check(self, small_instance):
        solution = Solution([1, 2])
        analytic = crisp_objective_slice(small_instance, solution, "mid")
        simulated = simulate_objective_slice(
            small_instance, solution, "mid", 100_000, seed=0
        )
        assert simulated == pytest.approx(analytic, rel=0.05)
