"""Fuzzification, membership functions, maximin fitness, capacity transform."""

import dataclasses
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import crispen, feasible_subsets
from fuzzloc.evaluation import (
    COMPONENTS,
    PROVENANCES,
    MaximinContext,
    capacity_threshold,
    evaluate,
    fuzzy_capacity_feasible,
    fuzzy_objective,
    make_maximin_eval,
    violation_total,
)
from fuzzloc.errors import DomainError
from fuzzloc.fuzzy import TriFuzzy
from fuzzloc.model import Kernel, Solution, crisp_objective_slice
from fuzzloc.oracle import enumerate_optimum, exact_bounds


def make_ctx(z1=(0.0, 1.0), z2=(0.0, 1.0), z3=(0.0, 1.0)):
    return MaximinContext(
        z1_bounds=z1, z2_bounds=z2, z3_bounds=z3, provenance="oracle-exact"
    )


def spreads_of(z: TriFuzzy) -> list:
    """Kernel.spreads of a subset whose sorted slice objectives are z."""
    kernel = types.SimpleNamespace(objective=lambda rows: np.array(z.as_tuple()))
    return Kernel.spreads(kernel).tolist()


def memberships(ctx, z1, z2, z3) -> list:
    return ctx.memberships(np.array([z1, z2, z3])).tolist()


def reference_membership(z, bounds, name):
    """One component's linear membership degree, one value at a time:
    (high - z) / (high - low) for z1, which is minimized, and (z - low) /
    (high - low) for z2 and z3, which are maximized, clamped to [0, 1]; 1
    for degenerate bounds (a non-finite bound, or high - low <= 1e-12)."""
    low, high = bounds
    if not (math.isfinite(low) and math.isfinite(high)) or high - low <= 1e-12:
        return 1.0
    raw = (high - z) / (high - low) if name == "z1" else (z - low) / (high - low)
    return float(np.minimum(np.maximum(raw, 0.0), 1.0))


class TestSpreadComponents:
    def test_example(self):
        assert spreads_of(TriFuzzy(0.4, 0.6, 0.9)) == [
            pytest.approx(0.2),
            pytest.approx(0.6),
            pytest.approx(0.3),
        ]

    def test_crisp(self):
        assert spreads_of(TriFuzzy(5.0, 5.0, 5.0)) == [0.0, 5.0, 0.0]

    def test_symmetric(self):
        assert spreads_of(TriFuzzy(0, 1, 2)) == [1.0, 1.0, 1.0]


class TestMembership:
    def test_endpoints(self):
        ctx = make_ctx(z2=(2.0, 6.0))
        top = memberships(ctx, 0.0, 6.0, 1.0)
        bottom = memberships(ctx, 0.0, 2.0, 1.0)
        assert top[1] == 1.0
        assert bottom[1] == 0.0

    def test_midpoint_linear(self):
        ctx = make_ctx(z2=(2.0, 6.0))
        mid = memberships(ctx, 0.0, 4.0, 1.0)
        assert mid[1] == pytest.approx(0.5)

    def test_z1_decreasing(self):
        ctx = make_ctx(z1=(1.0, 3.0))
        low = memberships(ctx, 1.0, 1.0, 1.0)
        high = memberships(ctx, 3.0, 1.0, 1.0)
        assert low[0] == 1.0
        assert high[0] == 0.0

    def test_clamping_out_of_range(self):
        ctx = make_ctx(z1=(1.0, 3.0), z2=(2.0, 6.0))
        mus = memberships(ctx, 0.5, 8.0, 2.0)
        assert mus[0] == 1.0  # below the z1 minimum clamps up
        assert mus[1] == 1.0  # above the z2 maximum clamps down to 1

    def test_degenerate_bounds_give_one(self):
        ctx = make_ctx(z1=(0.0, 0.0), z3=(2.0, 2.0))
        mus = memberships(ctx, 0.0, 0.5, 2.0)
        assert mus[0] == 1.0 and mus[2] == 1.0

    def test_nan_bounds_treated_degenerate(self):
        ctx = make_ctx(z1=(math.nan, math.nan))
        mus = memberships(ctx, 0.3, 0.5, 0.1)
        assert mus[0] == 1.0

    _VALUE = st.floats(-1e6, 1e6)
    _BOUND = st.one_of(
        _VALUE, st.integers(-10**6, 10**6), st.sampled_from((math.nan, math.inf, -math.inf))
    )

    @given(
        spreads=st.lists(st.tuples(_VALUE, _VALUE, _VALUE), min_size=1, max_size=6),
        bounds=st.lists(
            st.one_of(st.tuples(_BOUND, _BOUND), _BOUND.map(lambda v: (v, v))),
            min_size=3,
            max_size=3,
        ),
    )
    def test_matches_scalar_reference(self, spreads, bounds):
        """Every degree of a block, bit for bit, is the scalar formula's,
        for any bounds: NaN, infinite, equal, reversed or integer."""
        ctx = MaximinContext(*bounds, provenance="probe")
        got = ctx.memberships(np.array(spreads)).tolist()
        expected = [
            [reference_membership(z, pair, name) for z, pair, name in zip(row, bounds, COMPONENTS)]
            for row in spreads
        ]
        assert [[v.hex() for v in row] for row in got] == [
            [v.hex() for v in row] for row in expected
        ]


class TestMaximinLevel:
    def test_examples(self, small_instance):
        # under unit bounds the memberships of (z1, z2, z3) are (1 - z1, z2, z3)
        fitness = make_maximin_eval(small_instance, make_ctx())
        spreads = np.array([[0.6, 0.7, 0.9], [0.0, 1.0, 1.0], [1.0, 0.5, 0.9]])
        level = fitness.score(np.ones(3, dtype=bool), spreads, None)
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

    def test_int_and_float_bounds_are_one_context(self):
        """Bounds are stored as floats, so [0, 1] and [0.0, 1.0] give equal
        contexts with one bounds_id, and to_dict writes floats back."""
        as_ints = {"z1_bounds": [0, 1], "z2_bounds": [2, 5], "z3_bounds": [-1, 0],
                   "provenance": "oracle-exact"}
        as_floats = {"z1_bounds": [0.0, 1.0], "z2_bounds": [2.0, 5.0], "z3_bounds": [-1.0, 0.0],
                     "provenance": "oracle-exact"}
        contexts = [MaximinContext.from_dict(doc) for doc in (as_ints, as_floats)]
        contexts.append(make_ctx(z1=(0, 1), z2=(2, 5), z3=(-1, 0)))
        assert contexts[0] == contexts[1] == contexts[2]
        assert len({ctx.bounds_id for ctx in contexts}) == 1
        assert contexts[0].to_dict() == as_floats
        assert all(type(v) is float for ctx in contexts for name in COMPONENTS
                   for v in ctx.bounds(name))

    @pytest.mark.parametrize("provenance", PROVENANCES)
    def test_written_provenances_round_trip(self, provenance):
        ctx = dataclasses.replace(make_ctx(z2=(0.5, 2.0)), provenance=provenance)
        again = MaximinContext.from_dict(ctx.to_dict())
        assert again == ctx and again.provenance == provenance
        assert again.bounds_id == ctx.bounds_id

    def test_nan_bounds_round_trip_through_json(self):
        """JSON loads NaN as its own float object; the replayed context
        still equals the one written, with the same bounds_id."""
        ctx = MaximinContext(*[(math.nan, math.nan)] * 3, provenance="metaheuristic-estimated")
        again = MaximinContext.from_dict(json.loads(json.dumps(ctx.to_dict())))
        assert again == ctx and again.bounds_id == ctx.bounds_id

    @pytest.mark.parametrize("extra, named", [
        ({"zz": 1, "z4_bounds": [0, 1]}, "unknown field 'z4_bounds'"),
        ({"provenance": "made-up"}, "unknown provenance 'made-up'"),
    ], ids=["key", "provenance"])
    def test_from_dict_rejects_what_no_solve_writes(self, extra, named):
        """An unknown key, the first in sorted order, or a provenance that
        neither estimate_bounds nor exact_bounds writes is named."""
        with pytest.raises(DomainError, match=f"^bounds has {named}$"):
            MaximinContext.from_dict({**make_ctx().to_dict(), **extra})

    def test_bounds_id_changes_with_bounds(self):
        a = make_ctx(z2=(0.0, 1.0))
        b = make_ctx(z2=(0.0, 2.0))
        assert a.bounds_id != b.bounds_id

    def test_degeneracy_flag(self):
        ctx = make_ctx(z1=(0.5, 0.5))
        assert ctx.is_degenerate("z1")
        assert not ctx.is_degenerate("z2")
