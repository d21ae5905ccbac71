"""Fuzzification, membership functions, maximin fitness, capacity transform."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import crispen, feasible_subsets
from fuzzloc.evaluation import (
    MaximinContext,
    SpreadComponents,
    capacity_threshold,
    evaluate,
    fuzzy_capacity_feasible,
    fuzzy_objective,
    make_maximin_eval,
    membership_values,
    spread_components,
    violation_total,
)
from fuzzloc.fuzzy import TriFuzzy
from fuzzloc.model import Solution, crisp_objective_slice
from fuzzloc.oracle import enumerate_optimum, exact_bounds


def make_ctx(z1=(0.0, 1.0), z2=(0.0, 1.0), z3=(0.0, 1.0)):
    return MaximinContext(
        z1_bounds=z1, z2_bounds=z2, z3_bounds=z3, provenance="oracle-exact"
    )


class TestSpreadComponents:
    def test_example(self):
        c = spread_components(TriFuzzy(0.4, 0.6, 0.9))
        assert (c.z1, c.z2, c.z3) == (
            pytest.approx(0.2),
            pytest.approx(0.6),
            pytest.approx(0.3),
        )

    def test_crisp(self):
        c = spread_components(TriFuzzy(5.0, 5.0, 5.0))
        assert (c.z1, c.z2, c.z3) == (0.0, 5.0, 0.0)

    def test_symmetric(self):
        c = spread_components(TriFuzzy(0, 1, 2))
        assert (c.z1, c.z2, c.z3) == (1.0, 1.0, 1.0)

    def test_value_accessor(self):
        c = SpreadComponents(z1=1.0, z2=2.0, z3=3.0)
        assert [c.value(k) for k in ("z1", "z2", "z3")] == [1.0, 2.0, 3.0]


class TestMembership:
    def test_endpoints(self):
        ctx = make_ctx(z2=(2.0, 6.0))
        top = membership_values(SpreadComponents(0.0, 6.0, 1.0), ctx)
        bottom = membership_values(SpreadComponents(0.0, 2.0, 1.0), ctx)
        assert top[1] == 1.0
        assert bottom[1] == 0.0

    def test_midpoint_linear(self):
        ctx = make_ctx(z2=(2.0, 6.0))
        mid = membership_values(SpreadComponents(0.0, 4.0, 1.0), ctx)
        assert mid[1] == pytest.approx(0.5)

    def test_z1_decreasing(self):
        ctx = make_ctx(z1=(1.0, 3.0))
        low = membership_values(SpreadComponents(1.0, 1.0, 1.0), ctx)
        high = membership_values(SpreadComponents(3.0, 1.0, 1.0), ctx)
        assert low[0] == 1.0
        assert high[0] == 0.0

    def test_clamping_out_of_range(self):
        ctx = make_ctx(z1=(1.0, 3.0), z2=(2.0, 6.0))
        mus = membership_values(SpreadComponents(0.5, 8.0, 2.0), ctx)
        assert mus[0] == 1.0  # below the z1 minimum clamps up
        assert mus[1] == 1.0  # above the z2 maximum clamps down to 1

    def test_degenerate_bounds_give_one(self):
        ctx = make_ctx(z1=(0.0, 0.0), z3=(2.0, 2.0))
        mus = membership_values(SpreadComponents(0.0, 0.5, 2.0), ctx)
        assert mus[0] == 1.0 and mus[2] == 1.0

    def test_nan_bounds_treated_degenerate(self):
        ctx = make_ctx(z1=(math.nan, math.nan))
        mus = membership_values(SpreadComponents(0.3, 0.5, 0.1), ctx)
        assert mus[0] == 1.0


class TestMaximinLevel:
    def test_examples(self, small_instance):
        # under unit bounds the memberships of (z1, z2, z3) are (1 - z1, z2, z3)
        formula = make_maximin_eval(small_instance, make_ctx()).formula
        spreads = np.array([[0.6, 0.7, 0.9], [0.0, 1.0, 1.0], [1.0, 0.5, 0.9]])
        level = formula(np.ones(3, dtype=bool), spreads, np.zeros(3))
        assert level.tolist() == [0.4, 1.0, 0.0]


class TestCapacityTransform:
    def test_threshold_at_gamma_one(self, small_instance):
        inst = dataclasses.replace(small_instance, gamma=1.0)
        assert capacity_threshold(inst) == pytest.approx(0.85)

    def test_threshold_at_gamma_half(self, small_instance):
        assert capacity_threshold(small_instance) == pytest.approx(0.875)

    def test_threshold_at_gamma_zero(self, small_instance):
        inst = dataclasses.replace(small_instance, gamma=0.0)
        assert capacity_threshold(inst) == pytest.approx(0.9)

    def test_margins_reported_per_facility(self, small_instance):
        feasible, margins = fuzzy_capacity_feasible(small_instance, Solution([1, 2]))
        assert feasible
        assert set(margins) == {1, 2}
        assert all(m >= 0 for m in margins.values())

    def test_violation_total_zero_when_feasible(self, small_instance):
        assert violation_total(small_instance, Solution([1, 2])) == 0.0


class TestFuzzyObjective:
    def test_crisp_reduction(self, medium_instance):
        inst = crispen(medium_instance)
        z = fuzzy_objective(inst, Solution([1, 2]))
        assert z.lo == z.mid == z.hi
        assert z.mid == pytest.approx(crisp_objective_slice(inst, Solution([1, 2]), "mid"))

    def test_matches_slices(self, small_instance):
        solution = Solution([1, 2])
        z = fuzzy_objective(small_instance, solution)
        slices = sorted(
            crisp_objective_slice(small_instance, solution, s) for s in ("lo", "mid", "hi")
        )
        assert z.as_tuple() == pytest.approx(tuple(slices))

    def test_unstable_returns_none(self, small_instance):
        overloaded = dataclasses.replace(
            small_instance, demand=small_instance.demand * 100.0
        )
        assert fuzzy_objective(overloaded, Solution([1, 2])) is None


class TestEvaluate:
    def test_feasible_in_unit_interval(self, small_instance):
        ctx = exact_bounds(small_instance)
        for solution in feasible_subsets(small_instance):
            value = evaluate(small_instance, solution, ctx)
            assert 0.0 <= value <= 1.0

    def test_infeasible_negative_and_ordered(self, small_instance):
        ctx = exact_bounds(small_instance)
        overloaded = dataclasses.replace(
            small_instance, demand=small_instance.demand * 50.0
        )
        value = evaluate(overloaded, Solution([1, 2]), ctx)
        assert value < -1.0 + 1e-12

    def test_optimum_dominates(self, small_instance):
        ctx = exact_bounds(small_instance)
        fitness = make_maximin_eval(small_instance, ctx)
        result = enumerate_optimum(small_instance, fitness, keep_table=True)
        assert all(result.best_value >= v for v in result.table.values())


class TestMaximinContext:
    def test_round_trip(self):
        ctx = make_ctx(z1=(0.1, 0.4), z2=(1.0, 2.0), z3=(0.0, 0.3))
        again = MaximinContext.from_dict(ctx.to_dict())
        assert again == ctx
        assert again.bounds_id == ctx.bounds_id

    def test_bounds_id_changes_with_bounds(self):
        a = make_ctx(z2=(0.0, 1.0))
        b = make_ctx(z2=(0.0, 2.0))
        assert a.bounds_id != b.bounds_id

    def test_degeneracy_flag(self):
        ctx = make_ctx(z1=(0.5, 0.5))
        assert ctx.is_degenerate("z1")
        assert not ctx.is_degenerate("z2")
