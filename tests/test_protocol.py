"""Seven-run solve protocol: bound calibration plus the final maximin run."""

import dataclasses
import math

import pytest

from conftest import crispen
from fuzzloc.errors import DomainError
from fuzzloc.evaluation import component_value, make_maximin_eval
from fuzzloc.ga import GAConfig
from fuzzloc.model import Solution
from fuzzloc.oracle import enumerate_optimum, exact_bounds
from fuzzloc.protocol import BOUND_RUNS, estimate_bounds, solve_protocol
from fuzzloc.reports import SolverReport


class TestEstimateBounds:
    def test_unknown_solver_rejected(self, small_instance):
        with pytest.raises(DomainError, match="solver handle"):
            estimate_bounds(small_instance, "greedy", [1, 2, 3, 4, 5, 6])

    def test_seed_count_enforced(self, small_instance):
        with pytest.raises(DomainError, match="seeds"):
            estimate_bounds(small_instance, "ga", [1, 2, 3])

    @pytest.mark.parametrize("solver", ["ga", "aco"])
    def test_estimated_bounds_within_exact_range(self, small_instance, solver):
        exact = exact_bounds(small_instance)
        est = estimate_bounds(small_instance, solver, list(range(1, 7)))
        assert est.provenance == "metaheuristic-estimated"
        for name in ("z1", "z2", "z3"):
            lo_exact, hi_exact = exact.bounds(name)
            lo_est, hi_est = est.bounds(name)
            assert lo_exact - 1e-9 <= lo_est <= hi_exact + 1e-9
            assert lo_exact - 1e-9 <= hi_est <= hi_exact + 1e-9

    def test_crisp_instance_spread_bounds_zero(self, medium_instance):
        est = estimate_bounds(crispen(medium_instance), "ga", list(range(1, 7)))
        assert est.z1_bounds == (0.0, 0.0)
        assert est.z3_bounds == (0.0, 0.0)

    def test_same_seeds_reproduce(self, small_instance):
        a = estimate_bounds(small_instance, "ga", [3, 4, 5, 6, 7, 8])
        b = estimate_bounds(small_instance, "ga", [3, 4, 5, 6, 7, 8])
        assert a == b

    def test_bound_runs_cover_all_components(self):
        assert BOUND_RUNS == (
            ("z1", "min"), ("z1", "max"),
            ("z2", "min"), ("z2", "max"),
            ("z3", "min"), ("z3", "max"),
        )


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
        from fuzzloc.evaluation import fuzzy_objective, spread_components

        solution = Solution([1, 2])
        comps = spread_components(fuzzy_objective(small_instance, solution))
        for name in ("z1", "z2", "z3"):
            assert component_value(small_instance, solution, name) == pytest.approx(
                comps.value(name)
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
        assert SolverReport.from_json(report.to_json()) == report

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
