"""Problem data types and the crisp queuing/allocation/objective formulas."""

import dataclasses
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mild_params
from fuzzloc import model
from fuzzloc.cli import EXIT_VALIDATION, main
from fuzzloc.errors import DomainError
from fuzzloc.evaluation import fuzzy_capacity_feasible
from fuzzloc.fuzzy import TriFuzzy
from fuzzloc.instances import GeneratorParams, generate_instance, instance_to_dict
from fuzzloc.model import (
    Instance,
    Kernel,
    Solution,
    balking_ramp,
    capacity_threshold,
    crisp_objective_slice,
    logit_allocation,
    mm1_metrics,
    no_feasible_subset,
)


def build_instance(
    distance,
    demand,
    service,
    m=1,
    idle=TriFuzzy(0.1, 0.15, 0.2),
    mql=25.0,
    gamma=0.5,
    logit=0.5,
):
    n = len(demand)
    return Instance(
        n=n,
        m_servers=m,
        distance=np.asarray(distance, dtype=float),
        demand=np.asarray(demand, dtype=float),
        service=np.asarray(service, dtype=float),
        idle_min=idle,
        mql=mql,
        gamma=gamma,
        logit_sensitivity=logit,
    )


def crisp_rows(values):
    return [[v, v, v] for v in values]


class TestInstanceValidation:
    def test_asymmetric_distance_rejected(self):
        with pytest.raises(DomainError, match="symmetric"):
            build_instance(
                [[0, 1], [2, 0]], crisp_rows([1, 1]), crisp_rows([10, 10])
            )

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(DomainError, match="diagonal"):
            build_instance(
                [[1, 2], [2, 0]], crisp_rows([1, 1]), crisp_rows([10, 10])
            )

    def test_unordered_triple_rejected(self):
        with pytest.raises(DomainError, match="not ordered"):
            build_instance(
                [[0, 2], [2, 0]], [[3, 2, 4], [1, 2, 3]], crisp_rows([10, 10])
            )

    def test_m_out_of_range(self):
        with pytest.raises(DomainError, match="m_servers"):
            build_instance(
                [[0, 2], [2, 0]], crisp_rows([1, 1]), crisp_rows([10, 10]), m=2
            )

    def test_negative_demand_rejected(self):
        with pytest.raises(DomainError):
            build_instance(
                [[0, 2], [2, 0]], [[-1, 0, 1], [1, 2, 3]], crisp_rows([10, 10])
            )

    def test_idle_min_bounds(self):
        with pytest.raises(DomainError, match="idle_min"):
            build_instance(
                [[0, 2], [2, 0]],
                crisp_rows([1, 1]),
                crisp_rows([10, 10]),
                idle=TriFuzzy(0.5, 0.8, 1.2),
            )

    @pytest.mark.parametrize("idle, gamma", [
        (TriFuzzy(1.0, 1.0, 1.0), 0.5),
        (TriFuzzy(1.0, 1.0, 1.0), 0.0),
        (TriFuzzy(0.5, 1.0, 1.0), 1.0),
        (TriFuzzy(0.0, 1.0, 1.0), 1.0),
    ])
    def test_zero_capacity_threshold_rejected(self, idle, gamma):
        """The violation divides by the capacity threshold: idle_min.lo = 1,
        or idle_min.mid = 1 at gamma = 1, would make it 0."""
        with pytest.raises(DomainError, match="idle_min and gamma give a capacity threshold of 0"):
            build_instance([[0, 2], [2, 0]], crisp_rows([1, 1]), crisp_rows([10, 10]),
                           idle=idle, gamma=gamma)

    @pytest.mark.parametrize("idle, gamma", [
        (TriFuzzy(0.5, 1.0, 1.0), 0.5),
        (TriFuzzy(0.99, 0.99, 1.0), 1.0),
    ])
    def test_positive_capacity_threshold_accepted(self, idle, gamma):
        instance = build_instance([[0, 2], [2, 0]], crisp_rows([1, 1]), crisp_rows([10, 10]),
                                  idle=idle, gamma=gamma)
        assert capacity_threshold(instance) > 0

    @pytest.mark.parametrize("field, value, match", [
        ("n", 1, "at least two nodes"),
        ("distance", np.zeros((3, 3)), "distance must be 2x2"),
        ("distance", [[0.0, 0.0], [0.0, 0.0]], "off-diagonal distances must be positive"),
        ("distance", [[0.0, -2.0], [-2.0, 0.0]], "off-diagonal distances must be positive"),
        ("mql", 0.0, "mql must be positive"),
        ("mql", -1.0, "mql must be positive"),
        ("gamma", -0.1, "gamma must lie in"),
        ("gamma", 1.5, "gamma must lie in"),
        ("logit_sensitivity", 0.0, "logit_sensitivity must be positive"),
        ("logit_sensitivity", -0.5, "logit_sensitivity must be positive"),
        ("benefit_weight", np.ones((3, 3)), "benefit_weight must be 2x2"),
        ("demand", crisp_rows([1, 1, 1]), "demand must be 2 fuzzy triples"),
        ("service", [[10.0, 10.0], [10.0, 10.0]], "service must be 2 fuzzy triples"),
    ])
    def test_field_rule_rejected(self, field, value, match):
        valid = build_instance([[0, 2], [2, 0]], crisp_rows([1, 1]), crisp_rows([10, 10]))
        with pytest.raises(DomainError, match=match):
            dataclasses.replace(valid, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n", 2.0), ("n", np.int64(2)), ("m_servers", 1.0), ("m_servers", True),
        ("m_servers", "3"), ("m_servers", None),
    ])
    def test_counts_are_integers(self, field, value):
        """n and m_servers follow the count rule of instance files, so that
        every instance that save_instance writes loads again."""
        valid = build_instance([[0, 2], [2, 0]], crisp_rows([1, 1]), crisp_rows([10, 10]))
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(DomainError, match=f"^{message}$"):
            dataclasses.replace(valid, **{field: value})


class TestSolution:
    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Solution([])

    def test_sorted_and_str(self):
        s = Solution([3, 1, 2])
        assert s.sorted() == [1, 2, 3]
        assert str(s) == "{1,2,3}"

    def test_indices_out_of_range_rejected(self, small_instance):
        with pytest.raises(DomainError, match="out of range"):
            logit_allocation(small_instance, Solution([1, 99]))


class TestLogitAllocation:
    def test_two_facility_shares(self):
        # customer at node 1, facilities at 2 (distance 2) and 3 (distance 4)
        inst = build_instance(
            [[0, 2, 4], [2, 0, 3], [4, 3, 0]],
            crisp_rows([1, 1, 1]),
            crisp_rows([10, 10, 10]),
            m=2,
        )
        alloc = logit_allocation(inst, Solution([2, 3]))
        assert alloc[0, 1] == pytest.approx(0.7311, abs=1e-4)
        assert alloc[0, 2] == pytest.approx(0.2689, abs=1e-4)
        assert alloc[0, 0] == 0.0

    def test_rows_sum_to_one(self, medium_instance):
        alloc = logit_allocation(medium_instance, Solution([1, 4]))
        assert np.allclose(alloc.sum(axis=1), 1.0, atol=1e-9)

    def test_closed_columns_zero(self, medium_instance):
        alloc = logit_allocation(medium_instance, Solution([1, 4]))
        closed = [j for j in range(8) if j not in (0, 3)]
        assert np.all(alloc[:, closed] == 0.0)

    def test_shift_invariance_for_customer_rows(self, medium_instance):
        inst = medium_instance
        shifted = Instance(
            n=inst.n,
            m_servers=inst.m_servers,
            distance=inst.distance + 7.0 * (1 - np.eye(inst.n)),
            demand=inst.demand.copy(),
            service=inst.service.copy(),
            idle_min=inst.idle_min,
            mql=inst.mql,
            gamma=inst.gamma,
            logit_sensitivity=inst.logit_sensitivity,
        )
        solution = Solution([2, 5])
        a = logit_allocation(inst, solution)
        b = logit_allocation(shifted, solution)
        customers = [i for i in range(inst.n) if (i + 1) not in solution.open]
        assert np.allclose(a[customers], b[customers], atol=1e-9)


class TestAggregateDemand:
    def test_conserves_per_slice(self, medium_instance):
        alloc = logit_allocation(medium_instance, Solution([3, 7]))
        lam_bar = Kernel(medium_instance, np.array([2, 6])).lam_bar
        # row k is open facility k's arrival rate: facilities 3 and 7
        assert np.allclose(lam_bar, alloc[:, [2, 6]].T @ medium_instance.demand, rtol=1e-9)
        assert np.count_nonzero(alloc.any(axis=0)) == len(lam_bar) == 2
        totals = lam_bar.sum(axis=0)
        expected = medium_instance.demand.sum(axis=0)
        assert np.allclose(totals, expected, rtol=1e-9)


class TestQueueFormulas:
    def test_mm1_half_load(self):
        assert mm1_metrics(50, 100) == pytest.approx((0.5, 0.5))

    def test_mm1_heavy_load(self):
        p0, lq = mm1_metrics(80, 100)
        assert p0 == pytest.approx(0.2)
        assert lq == pytest.approx(3.2)

    def test_mm1_empty(self):
        assert mm1_metrics(0, 100) == pytest.approx((1.0, 0.0))

    def test_mm1_unstable(self):
        assert mm1_metrics(100, 100) is None
        assert mm1_metrics(120, 100) is None

    def test_mm1_invalid(self):
        with pytest.raises(DomainError):
            mm1_metrics(10, 0)
        with pytest.raises(DomainError):
            mm1_metrics(-1, 10)

    @given(st.floats(0.01, 0.99))
    def test_lq_identity(self, rho):
        _, lq = mm1_metrics(rho * 100, 100)
        assert lq == pytest.approx(rho * rho / (1 - rho), rel=1e-12)

    def test_join_probability(self):
        assert balking_ramp(10, 25) == pytest.approx(0.6)
        assert balking_ramp(0, 25) == 1.0
        assert balking_ramp(25, 25) == 0.0
        assert balking_ramp(40, 25) == 0.0


class TestObjectiveAndCapacity:
    def test_zero_demand_objective(self):
        inst = build_instance(
            [[0, 2], [2, 0]], crisp_rows([0, 0]), crisp_rows([10, 10])
        )
        assert crisp_objective_slice(inst, Solution([1]), "mid") == 0.0

    def test_unstable_slice_is_none(self):
        inst = build_instance(
            [[0, 2], [2, 0]], crisp_rows([20, 20]), crisp_rows([10, 10])
        )
        assert crisp_objective_slice(inst, Solution([1]), "mid") is None

    def test_capacity_excess(self):
        # occupancy 90 / 100 against the crisp threshold 1 - 0.15 = 0.85
        inst = build_instance(
            [[0, 2], [2, 0]],
            crisp_rows([45, 45]),
            crisp_rows([100, 100]),
            idle=TriFuzzy(0.15, 0.15, 0.15),
        )
        feasible, margins = fuzzy_capacity_feasible(inst, Solution([1]))
        assert not feasible
        assert margins == {1: pytest.approx(-0.05)}

    def test_capacity_boundary_inclusive(self):
        inst = build_instance(
            [[0, 2], [2, 0]],
            crisp_rows([42.5, 42.5]),
            crisp_rows([100, 100]),
            idle=TriFuzzy(0.15, 0.15, 0.15),
        )
        feasible, margins = fuzzy_capacity_feasible(inst, Solution([1]))
        assert feasible
        assert margins == {1: 0.0}

    def test_objective_with_live_balking(self):
        # lam_bar = 80, rho = 0.8, Lq = 3.2 and join = 1 - 3.2 / 25 = 0.872:
        # 80 * (0.2 + 0.872 * 0.8). Lq = lam / (mu - lam) gives 69.76, no
        # balking 80.
        inst = build_instance(
            [[0, 2], [2, 0]], crisp_rows([40, 40]), crisp_rows([100, 100])
        )
        value = crisp_objective_slice(inst, Solution([1]), "mid")
        assert value == pytest.approx(71.808, rel=1e-12)

    def test_validate_checks_the_kernel_lq(self, monkeypatch, capsys):
        # validate's analytic rows come from the Lq the kernel evaluates, so a
        # wrong Lq there moves the objective and fails validate.
        inst = build_instance(
            [[0, 2], [2, 0]], crisp_rows([40, 40]), crisp_rows([100, 100])
        )
        kernel = Kernel(inst, np.array([0]))
        assert kernel.slices() == pytest.approx([71.808] * 3, rel=1e-12)
        monkeypatch.setattr(model, "queue_state", lambda lam, mu: (lam / mu, lam / (mu - lam)))
        assert kernel.slices() == pytest.approx([69.76] * 3, rel=1e-12)
        assert main(["validate", "--skip-network", "--events", "200000"]) == EXIT_VALIDATION
        assert "validation FAILED" in capsys.readouterr().out

    def test_occupancy_is_stated_once(self, monkeypatch):
        # The capacity check and the scalar queue figures both take rho from
        # model.occupancy: scaling it by 1.25 moves rho = 0.8 past the 0.875
        # threshold, and P0 at lam = 40, mu = 100 from 0.6 to 0.5.
        inst = build_instance(
            [[0, 2], [2, 0]], crisp_rows([40, 40]), crisp_rows([100, 100])
        )
        assert fuzzy_capacity_feasible(inst, Solution([1])) == (True, {1: pytest.approx(0.075)})
        assert model.mm1_metrics(40.0, 100.0)[0] == pytest.approx(0.6)
        occupancy = model.occupancy
        monkeypatch.setattr(model, "occupancy", lambda lam, mu: 1.25 * occupancy(lam, mu))
        assert fuzzy_capacity_feasible(inst, Solution([1])) == (False, {1: pytest.approx(-0.125)})
        assert model.mm1_metrics(40.0, 100.0)[0] == pytest.approx(0.5)

    def test_oversized_subsets_evaluate(self, small_instance):
        # the genetic algorithm's greedy drop probes subsets larger than M
        value = crisp_objective_slice(small_instance, Solution([1, 2, 3]), "mid")
        assert value is not None and value > 0


def feasible_count(instance) -> int:
    """The m-subsets that a full Kernel.feasible() pass finds feasible."""
    idx = np.array(list(itertools.combinations(range(instance.n), instance.m_servers)))
    return int(Kernel(instance, idx).feasible().sum())


def near_capacity(instance, ratio):
    """``instance`` with its service rates rescaled so that the total mid
    demand is ``ratio`` times the capacity threshold of the m largest mid
    service rates (up to rounding)."""
    demand = instance.demand[:, 1].sum()
    top = np.sort(instance.service[:, 1])[-instance.m_servers:].sum()
    scale = demand / (capacity_threshold(instance) * top * ratio)
    return dataclasses.replace(instance, service=instance.service * scale)


class TestNoFeasibleSubset:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 10),
        data=st.data(),
        instance_seed=st.integers(0, 2**16),
        mild=st.booleans(),
        near=st.one_of(st.none(), st.floats(-1e-6, 1e-6)),
    )
    def test_certified_instances_have_no_feasible_subset(
        self, n, data, instance_seed, mild, near
    ):
        """Whenever the certificate holds, no m-subset is feasible. ``near``
        rescales the service rates to within 1e-6 of the mid capacity bound,
        on either side."""
        m = data.draw(st.integers(1, n - 1), label="m")
        params = mild_params(n, m, instance_seed) if mild else GeneratorParams(
            n=n, m_servers=m, seed=instance_seed)
        instance = generate_instance(params)
        if near is not None:
            instance = near_capacity(instance, 1.0 + near)
        if no_feasible_subset(instance):
            assert feasible_count(instance) == 0

    @pytest.mark.parametrize("side", [-1, 1])
    def test_tight_at_one_facility(self, side):
        """With one server, a facility captures all demand, so the mid
        capacity bound decides feasibility: 1e-6 below it the best facility
        is feasible, and 1e-6 above it the certificate holds."""
        base = build_instance(
            [[0, 2, 3], [2, 0, 2], [3, 2, 0]],
            crisp_rows([20, 30, 40]),
            [[100, 110, 120], [150, 160, 170], [90, 100, 110]],
        )
        instance = near_capacity(base, 1.0 + side * 1e-6)
        assert no_feasible_subset(instance) == (side > 0)
        assert feasible_count(instance) == (1 if side < 0 else 0)

    def test_holds_on_table1(self, table1):
        assert no_feasible_subset(table1)

    @pytest.mark.parametrize("n, m", [(8, 2), (20, 5), (40, 10), (60, 15)])
    def test_holds_on_default_ranges(self, n, m):
        for seed in range(5):
            params = GeneratorParams(n=n, m_servers=m, seed=seed)
            assert no_feasible_subset(generate_instance(params))

    @pytest.mark.parametrize("n, m", [(8, 2), (20, 5), (40, 10), (60, 15)])
    def test_fails_on_mild_ranges(self, n, m):
        for seed in range(5):
            assert not no_feasible_subset(generate_instance(mild_params(n, m, seed)))


def reference_certificate(instance) -> bool:
    """no_feasible_subset as first written: the m largest rates of each
    slice summed in ascending order, against the total demand with the same
    1e-9 margin."""
    demand = instance.demand.sum(axis=0)
    top = np.sort(instance.service, axis=0)[-instance.m_servers:].sum(axis=0) * (1.0 + 1e-9)
    return bool(demand[1] > capacity_threshold(instance) * top[1] or (demand >= top).any())


def check_certified_figures(instance, idx):
    """Kernel.figures() of a (B, k) block of a certified size, computed
    without the feasibility mask: the mask that feasible() computes (all
    False), no spreads and violation(), byte for byte, for the block and
    for its first subset alone, whose mask is a scalar."""
    for one in (Kernel(instance, idx), Kernel(instance, idx[0])):
        with mock.patch.object(Kernel, "feasible", side_effect=AssertionError("built the mask")):
            feasible, spreads, violation = one.figures()
        expected = one.feasible()
        assert not expected.any()
        assert type(feasible) is type(expected) and feasible.shape == expected.shape
        assert feasible.dtype == expected.dtype and feasible.tobytes() == expected.tobytes()
        assert spreads is None
        assert violation.tobytes() == one.violation().tobytes()


class TestCertifiedSizes:
    """Instance.certified: entry k certifies that no k-subset is feasible,
    entry m is no_feasible_subset, and Kernel.figures() reads the entry of
    its block's size."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 9),
        data=st.data(),
        instance_seed=st.integers(0, 2**16),
        mild=st.booleans(),
        ratio=st.sampled_from((None, 0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0)),
    )
    def test_certified_sizes_have_no_feasible_subset(self, n, data, instance_seed, mild, ratio):
        """Every subset of every size, scanned, on instances of either
        range, some rescaled to near the mid capacity bound of size m."""
        m = data.draw(st.integers(1, n - 1), label="m")
        params = mild_params(n, m, instance_seed) if mild else GeneratorParams(
            n=n, m_servers=m, seed=instance_seed)
        instance = generate_instance(params)
        if ratio is not None:
            instance = near_capacity(instance, ratio)
        certified = instance.certified
        assert len(certified) == n + 1 and all(type(entry) is bool for entry in certified)
        assert certified[m] == no_feasible_subset(instance) == reference_certificate(instance)
        # the k largest rates grow with k: a certified size certifies every smaller one
        assert list(certified) == sorted(certified, reverse=True)
        for k in range(1, n + 1):
            idx = np.array(list(itertools.combinations(range(n), k)))
            if certified[k]:
                check_certified_figures(instance, idx)
            else:  # the mask is computed
                kernel = Kernel(instance, idx)
                assert kernel.figures()[0].tobytes() == kernel.feasible().tobytes()

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 10), sample_seed=st.integers(0, 2**32 - 1))
    def test_table1_certifies_sizes_up_to_ten(self, table1, k, sample_seed):
        """table1's sizes 1-10 are certified, 11-20 not; random blocks of a
        certified size hold no feasible subset."""
        assert table1.certified == (True,) * 11 + (False,) * 10
        assert table1.certified[table1.m_servers] == reference_certificate(table1)
        rng = np.random.default_rng(sample_seed)
        idx = np.sort(np.array([rng.choice(table1.n, k, replace=False) for _ in range(64)]), axis=1)
        check_certified_figures(table1, idx)

    def test_certified_is_derived(self, table1):
        """Like attraction, certified is no instance datum: it is neither
        compared, shown nor saved, and dataclasses.replace recomputes it."""
        field = {f.name: f for f in dataclasses.fields(Instance)}["certified"]
        assert not (field.init or field.compare or field.repr)
        assert "certified" not in instance_to_dict(table1)
        roomy = dataclasses.replace(table1, service=table1.service * 4)
        assert roomy.certified == (True,) * 3 + (False,) * 18
        restored = dataclasses.replace(roomy, service=table1.service)
        assert restored == table1 and restored.certified == table1.certified
