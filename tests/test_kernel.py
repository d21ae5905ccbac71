"""Differential checks of the fitness kernel: a block of subsets against the
subsets one at a time, and the streamed oracle against plain reference loops.
Every comparison is exact."""

import dataclasses
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fuzzloc.oracle
from conftest import bound_fitness, crispen, feasible_subsets, mild_params, score_block
from fuzzloc.errors import InfeasibleInstanceError
from fuzzloc.evaluation import (
    MaximinContext,
    component_value,
    evaluate,
    fuzzy_capacity_feasible,
    fuzzy_objective,
    make_maximin_eval,
    violation_total,
)
from fuzzloc.instances import GeneratorParams, generate_instance
from fuzzloc.model import Kernel, Solution, _allocation
from fuzzloc.oracle import enumerate_optimum, exact_bounds
from fuzzloc.protocol import _PENALTY_SCALE, BOUND_RUNS

PROBE_CTX = MaximinContext((0.0, 1.0), (0.0, 1.0), (0.0, 1.0), "probe")


def build(n: int, m: int, seed: int, mild: bool, weighted: bool, logit: float):
    """Mild ranges leave spare capacity, the default ranges usually do not,
    so the drawn instances mix feasible and infeasible subsets."""
    params = mild_params(n, m, seed) if mild else GeneratorParams(n=n, m_servers=m, seed=seed)
    instance = dataclasses.replace(generate_instance(params), logit_sensitivity=logit)
    if weighted:
        weight = np.random.default_rng(seed).uniform(0.0, 2.0, size=(n, n))
        instance = dataclasses.replace(instance, benefit_weight=weight)
    return instance


def cases(max_n: int):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, n - 1),
            st.integers(0, 2**32 - 1),
            st.booleans(),
            st.booleans(),
            st.sampled_from((0.1, 0.5, 2.0)),
        )
    )


def ctx_from(result: Kernel) -> MaximinContext:
    """Bounds spanning the feasible rows of a block, so memberships fall
    inside (0, 1) as well as at the clamps."""
    objective = result.objective()[result.feasible()]
    if not len(objective):
        return PROBE_CTX
    lo, mid, hi = objective.T
    bounds = [(float(c.min()), float(c.max())) for c in (mid - lo, mid, hi - mid)]
    return MaximinContext(*bounds, provenance="test")


def reference_bounds(instance):
    """exact_bounds as a plain loop over the scalar views."""
    lows = [math.inf] * 3
    highs = [-math.inf] * 3
    any_feasible = False
    for combo in itertools.combinations(range(1, instance.n + 1), instance.m_servers):
        solution = Solution(combo)
        if not fuzzy_capacity_feasible(instance, solution)[0]:
            continue
        z = fuzzy_objective(instance, solution)
        if z is None:
            continue
        any_feasible = True
        for k, v in enumerate((z.mid - z.lo, z.mid, z.hi - z.mid)):
            lows[k] = min(lows[k], v)
            highs[k] = max(highs[k], v)
    if not any_feasible:
        return None
    return MaximinContext(*zip(lows, highs), provenance="oracle-exact")


@given(case=cases(max_n=14), sample_seed=st.integers(0, 2**32 - 1))
@example(case=(14, 8, 0, True, False, 0.5), sample_seed=0)
@example(case=(14, 12, 1, True, True, 0.5), sample_seed=1)
@example(case=(13, 9, 2, False, True, 0.1), sample_seed=2)
@settings(max_examples=60, deadline=None)
def test_block_matches_subsets(case, sample_seed):
    instance = build(*case)
    combos = list(itertools.combinations(range(instance.n), instance.m_servers))
    rows = sorted(random.Random(sample_seed).sample(combos, min(len(combos), 40)))
    block = Kernel(instance, np.array(rows))
    ctx = ctx_from(block)
    values = score_block(make_maximin_eval(instance, ctx), np.array(rows))
    derived = {name: getattr(block, name)() for name in
               ("stable", "slices", "objective", "spreads", "feasible", "violation")}
    for b, row in enumerate(rows):
        one = Kernel(instance, np.array(row))
        for name in ("lam_bar", "mu", "benefit", "occupancy"):
            assert np.array_equal(getattr(block, name)[b], getattr(one, name))
        for name, array in derived.items():
            assert np.array_equal(array[b], getattr(one, name)())
        solution = Solution(np.array(row) + 1)
        assert values[b] == evaluate(instance, solution, ctx)
        assert derived["violation"][b] == violation_total(instance, solution)
        z = fuzzy_objective(instance, solution)
        if z is not None:
            assert tuple(derived["objective"][b]) == z.as_tuple()
            assert derived["spreads"][b].tolist() == [z.mid - z.lo, z.mid, z.hi - z.mid]
        if derived["feasible"][b]:
            assert derived["objective"][b][1] == component_value(instance, solution, "z2")


def allocation_reference(instance, idx):
    """The logit shares as computed before _allocation worked in place."""
    scores = -instance.logit_sensitivity * instance.distance[idx]
    scores = scores - scores.max(axis=-2, keepdims=True)
    weights = np.exp(scores)
    return weights / weights.sum(axis=-2, keepdims=True)


@given(
    k=st.integers(1, 11),
    extra=st.integers(0, 20),
    rows=st.one_of(st.none(), st.integers(1, 2 * fuzzloc.oracle.BLOCK_SIZE)),
    seed=st.integers(0, 2**32 - 1),
    logit=st.sampled_from((0.1, 0.5, 2.0, 7.3)),
)
@example(k=5, extra=15, rows=None, seed=0, logit=0.5)
@example(k=5, extra=15, rows=fuzzloc.oracle.BLOCK_SIZE, seed=0, logit=0.5)
@settings(max_examples=60, deadline=None)
def test_allocation_matches_reference(k, extra, rows, seed, logit):
    """rows=None draws a 1-D idx, one subset, as the scalar views pass it;
    the row counts reach past a full enumeration block. The shape is
    idx.shape + (n,) for both."""
    n = max(k + extra, 2)
    instance = dataclasses.replace(
        generate_instance(mild_params(n, 1, seed % 1000)), logit_sensitivity=logit
    )
    rng = np.random.default_rng(seed)
    draws = rng.random((1 if rows is None else rows, n))
    idx = np.sort(np.argsort(draws, axis=1)[:, :k], axis=1)
    if rows is None:
        idx = idx[0]
    got = _allocation(instance, idx)
    assert got.shape == idx.shape + (n,)
    assert np.array_equal(got, allocation_reference(instance, idx))


@pytest.mark.parametrize("weighted", [False, True])
def test_full_enumeration_block_matches_rows(weighted):
    """The first enumeration block, BLOCK_SIZE rows, gives each subset the
    bits of its own kernel: mild20 with k = 5, and a weighted instance with
    k = 9, where numpy sums the contiguous facility axes in pairs. Both
    blocks mix feasible and infeasible subsets."""
    instance = build(14, 9, 3, False, True, 0.5) if weighted else build(20, 5, 0, True, False, 0.5)
    rows = next(fuzzloc.oracle._blocks(instance)) - 1
    assert len(rows) == fuzzloc.oracle.BLOCK_SIZE
    block = Kernel(instance, rows)
    derived = {name: getattr(block, name)() for name in
               ("stable", "slices", "objective", "spreads", "feasible", "violation")}
    assert derived["feasible"].any() and not derived["feasible"].all()
    for b, row in enumerate(rows):
        one = Kernel(instance, row)
        for name in ("lam_bar", "mu", "benefit", "occupancy"):
            assert np.array_equal(getattr(block, name)[b], getattr(one, name))
        for name, array in derived.items():
            assert np.array_equal(array[b], getattr(one, name)())


def test_crisp_z1_is_positive_zero(medium_instance):
    """On crisp data lo == mid, so z1 = mid - lo is +0.0; -(lo - mid) would
    give -0.0, which changes the bounds JSON and bounds_id."""
    instance = crispen(medium_instance)
    feasible = feasible_subsets(instance)
    assert feasible
    for solution in feasible:
        assert math.copysign(1.0, component_value(instance, solution, "z1")) == 1.0
    ctx = exact_bounds(instance)
    assert [math.copysign(1.0, b) for b in ctx.z1_bounds] == [1.0, 1.0]


@given(case=cases(max_n=11), block_size=st.integers(1, 50))
@settings(max_examples=40, deadline=None)
def test_exact_bounds_matches_reference_loop(case, block_size):
    instance = build(*case)
    expected = reference_bounds(instance)
    with mock.patch.object(fuzzloc.oracle, "BLOCK_SIZE", block_size):
        if expected is None:
            with pytest.raises(InfeasibleInstanceError):
                exact_bounds(instance)
        else:
            assert exact_bounds(instance) == expected


@given(
    case=cases(max_n=11),
    block_size=st.integers(1, 50),
    which=st.sampled_from(("maximin",) + BOUND_RUNS),
)
@settings(max_examples=60, deadline=None)
def test_enumeration_block_path_matches_plain_callable(case, block_size, which):
    """A KernelFitness scored in blocks gives every subset the bits of its
    per-subset call."""
    instance = build(*case)
    if which == "maximin":
        try:
            ctx = exact_bounds(instance)
        except InfeasibleInstanceError:
            ctx = PROBE_CTX
        fitness = make_maximin_eval(instance, ctx)
    else:
        fitness = bound_fitness(instance, *which)
    with mock.patch.object(fuzzloc.oracle, "BLOCK_SIZE", block_size):
        streamed = enumerate_optimum(instance, fitness, keep_table=True)
        plain = enumerate_optimum(instance, lambda s: fitness(s), keep_table=True)
    assert streamed.best == plain.best
    assert streamed.best_value == plain.best_value
    assert {k: v.hex() for k, v in streamed.table.items()} == {
        k: v.hex() for k, v in plain.table.items()}


class RankFitness:
    """Fitness by lexicographic rank of the subset: 1.0 at the tied ranks,
    below that and distinct everywhere else."""

    def __init__(self, n: int, m: int, tied: set):
        combos = itertools.combinations(range(1, n + 1), m)
        self.values = {
            combo: 1.0 if rank in tied else -float(rank)
            for rank, combo in enumerate(combos)
        }

    def __call__(self, solution):
        return self.values[tuple(solution.sorted())]


@pytest.mark.parametrize("ties", ["last|first", "first|second", "first|end", "start|first"])
def test_tie_across_block_boundary(ties):
    # C(14, 5) = 2002 subsets: one full block and a partial one.
    n, m = 14, 5
    size = fuzzloc.oracle.BLOCK_SIZE
    count = math.comb(n, m)
    assert count > size and count % size
    rank = {"start": 0, "last": size - 1, "first": size, "second": size + 1, "end": count - 1}
    tied = {rank[name] for name in ties.split("|")}
    instance = generate_instance(mild_params(n, m, 0))
    fitness = RankFitness(n, m, tied)
    streamed = enumerate_optimum(instance, fitness, keep_table=True)
    plain = enumerate_optimum(instance, lambda s: fitness(s), keep_table=True)
    first = list(itertools.combinations(range(1, n + 1), m))[min(tied)]
    assert streamed.best.sorted() == list(first)
    assert streamed.best_value == 1.0
    assert (streamed.best, streamed.best_value, streamed.table) == (
        plain.best, plain.best_value, plain.table)


@pytest.mark.parametrize("scale", [1.0, 40.0])
def test_bound_eval_is_one_kernel_call(medium_instance, scale):
    instance = dataclasses.replace(medium_instance, demand=medium_instance.demand * scale)
    subsets = [Solution(c) for c in itertools.combinations(range(1, 9), 2)]
    for name, sense in BOUND_RUNS:
        expected = []
        for solution in subsets:
            value = component_value(instance, solution, name)
            if value is None:
                value = -_PENALTY_SCALE * (1.0 + violation_total(instance, solution))
            elif sense == "min":
                value = -value  # every bound run maximizes
            expected.append(value)
        with mock.patch("fuzzloc.evaluation.solution_kernel",
                        wraps=fuzzloc.evaluation.solution_kernel) as spy:
            got = [bound_fitness(instance, name, sense)(s) for s in subsets]
        assert spy.call_count == len(subsets)
        assert got == expected
