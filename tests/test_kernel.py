"""Differential checks of the fitness kernel: a block of subsets against the
subsets one at a time, the fused Kernel.figures() against the eager figures
it replaced, and the streamed oracle against plain reference loops. Every
comparison is exact, except that the attraction-matrix logit shares are
only close to the shifted ones."""

import dataclasses
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fuzzloc.model
import fuzzloc.oracle
from conftest import (
    bound_fitness, crispen, feasible_subsets, mild_params, one_block, score_block,
)
from fuzzloc.aco import ACOConfig
from fuzzloc.errors import InfeasibleInstanceError
from fuzzloc.evaluation import (
    COMPONENTS,
    MaximinContext,
    MaximinFitness,
    component_value,
    drive,
    evaluate,
    fuzzy_capacity_feasible,
    fuzzy_objective,
    make_maximin_eval,
    violation_total,
)
from fuzzloc.fuzzy import TriFuzzy
from fuzzloc.ga import GAConfig
from fuzzloc.instances import GeneratorParams, generate_instance, instance_to_dict
from fuzzloc.model import (
    ATTRACTION_LIMIT, Instance, Kernel, Solution, _allocation, block_figures, capacity_threshold,
    no_feasible_subset,
)
from fuzzloc.oracle import Scan, enumerate_optimum, exact_bounds
from fuzzloc.protocol import _PENALTY_SCALE, BOUND_RUNS, _BoundFitness, solve_protocol

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
            st.sampled_from((0.1, 0.5, 2.0, 40.0)),  # 40 passes ATTRACTION_LIMIT
        )
    )


def eager_feasible(kernel: Kernel) -> np.ndarray:
    """Reference: the feasibility mask as an eager kernel method computed
    it, for every block."""
    capacity = (kernel.occupancy <= capacity_threshold(kernel.instance)).all(axis=-1)
    return capacity & (kernel.lam_bar < kernel.mu).all(axis=(-2, -1))


def eager_slices(kernel: Kernel) -> np.ndarray:
    """Reference: the slice objectives of every row, from the M/M/1 formulas
    written out as plain expressions, Lq = lam^2 / (mu (mu - lam)) (+inf at
    lam == mu)."""
    lam, mu = kernel.lam_bar, kernel.mu
    rho = lam / mu
    with np.errstate(divide="ignore"):
        lq = lam * lam / (mu * (mu - lam))
    join = np.minimum(np.maximum(1.0 - lq / kernel.instance.mql, 0.0), 1.0)
    terms = kernel.benefit * ((1.0 - rho) + join * rho)
    return terms.swapaxes(-1, -2).copy().sum(axis=-1)


def eager_spreads(kernel: Kernel) -> np.ndarray:
    """Reference: the spreads (mid - lo, mid, hi - mid) of every row."""
    z = np.sort(eager_slices(kernel), axis=-1)
    z[..., 0] = z[..., 1] - z[..., 0]
    z[..., 2] -= z[..., 1]
    return z


def eager_violation(kernel: Kernel) -> np.ndarray:
    """Reference: the violation of every row, feasible ones included."""
    threshold = capacity_threshold(kernel.instance)
    excess = np.maximum(kernel.occupancy - threshold, 0.0).sum(axis=-1) / threshold
    overload = np.maximum(kernel.lam_bar - kernel.mu, 0.0) / kernel.mu
    return excess + overload.reshape(overload.shape[:-2] + (-1,)).sum(axis=-1)


EAGER = {"feasible": eager_feasible, "spreads": eager_spreads, "violation": eager_violation}


def eager_memberships(ctx: MaximinContext, spreads: np.ndarray) -> np.ndarray:
    """Reference: the membership degrees of every row, component by
    component: (high - z1) / width and (z - low) / width clamped to [0, 1],
    and 1 where the bounds are degenerate."""
    columns = []
    for c, name in enumerate(COMPONENTS):
        low, high = ctx.bounds(name)
        z = spreads[..., c]
        if ctx.is_degenerate(name):
            columns.append(np.ones_like(z))
        else:
            raw = (high - z if name == "z1" else z - low) / (high - low)
            columns.append(np.minimum(np.maximum(raw, 0.0), 1.0))
    return np.stack(columns, axis=-1)


def eager_values(fitness, kernel: Kernel) -> np.ndarray:
    """Reference: a maximin or bound fitness as one np.where over the eager
    figures of every row."""
    spreads = eager_spreads(kernel)
    if isinstance(fitness, _BoundFitness):
        level = fitness.sign * spreads[fitness.pick]
        low = _PENALTY_SCALE * -(1.0 + eager_violation(kernel))
    else:
        degrees = eager_memberships(fitness.ctx, spreads)
        level = np.minimum(np.minimum(degrees[..., 0], degrees[..., 1]), degrees[..., 2])
        low = -(1.0 + eager_violation(kernel))
    return np.where(eager_feasible(kernel), level, low)


def edge_contexts(ctx: MaximinContext) -> list:
    """Contexts that a lean membership pass can get wrong: z1's bounds NaN
    (degenerate, so z1 imposes nothing), and -0.0 bounds, as z1's high
    (every z1 degree is then -z1 / width <= 0) and as the lows of z2 and z3."""
    return [
        dataclasses.replace(ctx, z1_bounds=(math.nan, math.nan)),
        MaximinContext((-1.0, -0.0), (-0.0, ctx.z2_bounds[1]), (-0.0, ctx.z3_bounds[1]), "test"),
    ]


def derived(kernel: Kernel) -> dict:
    """Every derived figure of a kernel, the eager trio included."""
    figures = {name: getattr(kernel, name)() for name in ("stable", "slices", "objective")}
    return {**figures, **{name: f(kernel) for name, f in EAGER.items()}}


def ctx_from(result: Kernel) -> MaximinContext:
    """Bounds spanning the feasible rows of a block, so memberships fall
    inside (0, 1) as well as at the clamps."""
    objective = result.objective()[eager_feasible(result)]
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
    figures = derived(block)
    for b, row in enumerate(rows):
        one = Kernel(instance, np.array(row))
        for name in ("lam_bar", "mu", "benefit", "occupancy"):
            assert np.array_equal(getattr(block, name)[b], getattr(one, name))
        for name, array in derived(one).items():
            assert np.array_equal(figures[name][b], array)
        solution = Solution(np.array(row) + 1)
        assert values[b] == evaluate(instance, solution, ctx)
        assert figures["violation"][b] == violation_total(instance, solution)
        z = fuzzy_objective(instance, solution)
        if z is not None:
            assert tuple(figures["objective"][b]) == z.as_tuple()
            assert figures["spreads"][b].tolist() == [z.mid - z.lo, z.mid, z.hi - z.mid]
        if figures["feasible"][b]:
            assert figures["objective"][b][1] == component_value(instance, solution, "z2")


def shifted_reference(instance, idx):
    """The logit shares with the exponents shifted by their maximum over the
    open facilities, as computed before _allocation worked in place."""
    scores = -instance.logit_sensitivity * instance.distance[idx]
    scores = scores - scores.max(axis=-2, keepdims=True)
    weights = np.exp(scores)
    return weights / weights.sum(axis=-2, keepdims=True)


def attraction_reference(instance, idx):
    """The logit shares from the unshifted exponentials exp(-a * d)."""
    weights = np.exp(-instance.logit_sensitivity * instance.distance[idx])
    return weights / weights.sum(axis=-2, keepdims=True)


@given(
    k=st.integers(1, 11),
    extra=st.integers(0, 20),
    rows=st.one_of(st.none(), st.integers(1, 2 * fuzzloc.model.BLOCK_SIZE)),
    seed=st.integers(0, 2**32 - 1),
    logit=st.sampled_from((0.1, 0.5, 2.0, 7.3, 20.0, 40.0)),
)
@example(k=5, extra=15, rows=None, seed=0, logit=0.5)
@example(k=5, extra=15, rows=fuzzloc.model.BLOCK_SIZE, seed=0, logit=0.5)
@example(k=5, extra=15, rows=fuzzloc.model.BLOCK_SIZE, seed=0, logit=20.0)
@example(k=5, extra=15, rows=fuzzloc.model.BLOCK_SIZE, seed=0, logit=40.0)
@settings(max_examples=60, deadline=None)
def test_allocation_matches_reference(k, extra, rows, seed, logit):
    """rows=None draws a 1-D idx, one subset, as the scalar views pass it;
    the row counts reach past a full enumeration block. The shape is
    idx.shape + (n,) for both. Distances lie in 1..35, so a = 20 reaches
    ATTRACTION_LIMIT on the larger instances, and a = 40 passes it. Within
    the limit the shares are the attraction reference's bits and close to
    the shifted ones; past it they are the shifted reference's bits."""
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
    if instance.attraction is None:
        assert np.array_equal(got, shifted_reference(instance, idx))
    else:
        assert np.array_equal(got, attraction_reference(instance, idx))
        np.testing.assert_allclose(got, shifted_reference(instance, idx), rtol=1e-12, atol=0)


@pytest.mark.parametrize("logit", [0.5, 20.0, float(np.nextafter(20.0, 21.0)), 40.0])
def test_attraction_kept_within_limit(logit):
    """An instance keeps exp(d * -a), read-only, exactly when a * max(d) is
    at most ATTRACTION_LIMIT; replace() recomputes it, and the instance
    file does not hold it. This instance has max(d) = 35, so a = 20 sits on
    the limit."""
    base = generate_instance(mild_params(20, 5, 0))
    assert base.distance.max() == 35.0 and ATTRACTION_LIMIT == 700.0
    instance = dataclasses.replace(base, logit_sensitivity=logit)
    assert (instance.attraction is None) == (logit * instance.distance.max() > ATTRACTION_LIMIT)
    assert (instance.attraction is None) == (logit > 20.0)
    if instance.attraction is not None:
        assert np.array_equal(instance.attraction, np.exp(instance.distance * -logit))
        assert not instance.attraction.flags.writeable
    assert "attraction" not in instance_to_dict(instance)


@pytest.mark.parametrize("weighted", [False, True])
def test_full_enumeration_block_matches_rows(weighted):
    """The first enumeration block, BLOCK_SIZE rows, gives each subset the
    bits of its own kernel: mild20 with k = 5, and a weighted instance with
    k = 9, where numpy sums the contiguous facility axes in pairs. Both
    blocks mix feasible and infeasible subsets."""
    instance = build(14, 9, 3, False, True, 0.5) if weighted else build(20, 5, 0, True, False, 0.5)
    rows = next(fuzzloc.model._blocks(instance)) - 1
    assert len(rows) == fuzzloc.model.BLOCK_SIZE
    block = Kernel(instance, rows)
    figures = derived(block)
    assert figures["feasible"].any() and not figures["feasible"].all()
    for b, row in enumerate(rows):
        one = Kernel(instance, row)
        for name in ("lam_bar", "mu", "benefit", "occupancy"):
            assert np.array_equal(getattr(block, name)[b], getattr(one, name))
        for name, array in derived(one).items():
            assert np.array_equal(figures[name][b], array)


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
    with mock.patch.object(fuzzloc.model, "BLOCK_SIZE", block_size):
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
    with mock.patch.object(fuzzloc.model, "BLOCK_SIZE", block_size):
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
    size = fuzzloc.model.BLOCK_SIZE
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


# One server on five nodes: the facility captures the whole demand, 5 at
# every slice, and the capacity threshold is 0.5. Node 1's lo service rate
# is 5, so its lo queue has lam_bar == mu exactly: unstable, but with 0
# overload, and a mid occupancy of 5 / 40 under the threshold. Node 5's mid
# occupancy 5 / 10 is the threshold itself, which is feasible. Nodes 2 and
# 4 are feasible too; node 3 is overloaded at every slice and over capacity.
LAMBDA_AT_MU = Instance(
    n=5,
    m_servers=1,
    distance=np.ones((5, 5)) - np.eye(5),
    demand=np.ones((5, 3)),
    service=np.array([[5.0, 40.0, 50.0], [6.0, 50.0, 60.0], [1.0, 2.0, 3.0],
                      [7.0, 60.0, 70.0], [6.0, 10.0, 12.0]]),
    idle_min=TriFuzzy(0.5, 0.5, 0.5),
    mql=25.0,
)


def check_fused(instance, rows, ctx, runs, cut):
    """The fused path against the eager reference on the block ``rows``:
    figures(), of the block and of each row's one-subset kernel, whose
    figures are 0-d; a maximin fitness under ``ctx`` and under
    edge_contexts(ctx), and every bound run, through drive and one subset at
    a time; a bound fitness that scores row i as run ``runs[i]``; and, for
    0 < cut < len(rows), a drive whose kernel is split at ``cut`` between a
    maximin and a bound member. Values compare as bytes."""
    kernel = Kernel(instance, rows)
    feasible, spreads, violation = kernel.figures()
    assert feasible.tobytes() == eager_feasible(kernel).tobytes()
    assert (spreads is None) == (not feasible.any())
    assert (violation is None) == feasible.all()
    if spreads is not None:
        assert spreads.tobytes() == eager_spreads(kernel).tobytes()
    if violation is not None:
        assert violation.tobytes() == eager_violation(kernel).tobytes()
    for b, row in enumerate(rows):
        one, one_spreads, one_violation = Kernel(instance, row).figures()
        assert np.ndim(one) == 0 and one == feasible[b]
        if one:
            assert one_spreads.tobytes() == eager_spreads(kernel)[b].tobytes()
            assert one_violation is None
        else:
            assert one_spreads is None and np.ndim(one_violation) == 0
            assert np.float64(one_violation).tobytes() == eager_violation(kernel)[b].tobytes()
    fitnesses = [make_maximin_eval(instance, ctx)] + [
        _BoundFitness(instance, r) for r in range(len(BOUND_RUNS))] + [
        make_maximin_eval(instance, edge) for edge in edge_contexts(ctx)]
    for fitness in fitnesses:
        expected = eager_values(fitness, kernel)
        assert np.array(score_block(fitness, rows)).tobytes() == expected.tobytes()
        for row, value in zip(rows, expected.tolist()):
            assert fitness(Solution(row + 1)).hex() == value.hex()
    stacked = _BoundFitness(instance, 0)
    stacked.select(runs)
    assert np.array(score_block(stacked, rows)).tobytes() == eager_values(stacked, kernel).tobytes()
    if not 0 < cut < len(rows):
        return
    members = [(rows[:cut], fitnesses[0]), (rows[cut:], fitnesses[1 + runs[0]])]
    got = drive([(one_block(part), fitness) for part, fitness in members])
    for values, (part, fitness) in zip(got, members):
        assert np.array(values).tobytes() == eager_values(fitness, Kernel(instance, part)).tobytes()


def check_rows(kernel, selections):
    """The slices and spreads of each row selection against the eager
    figures of every row, selected afterwards. Values compare as bytes."""
    for rows in selections:
        assert kernel.slices(rows).tobytes() == kernel.slices()[rows].tobytes()
        assert kernel.spreads(rows).tobytes() == eager_spreads(kernel)[rows].tobytes()


def kinds(rows, mask):
    """The block itself, its feasible rows and its infeasible rows, each
    when it has any."""
    return [block for block in (rows, rows[mask], rows[~mask]) if len(block)]


@given(case=cases(max_n=12), sample_seed=st.integers(0, 2**32 - 1))
@example(case=(14, 8, 0, True, False, 0.5), sample_seed=0)
@example(case=(13, 9, 2, False, True, 0.1), sample_seed=2)
@settings(max_examples=40, deadline=None)
def test_fused_path_matches_eager_reference(case, sample_seed):
    """Blocks that mix feasible and infeasible rows, blocks of feasible rows
    only and blocks of infeasible rows only."""
    instance = build(*case)
    combos = list(itertools.combinations(range(instance.n), instance.m_servers))
    draw = random.Random(sample_seed)
    rows = np.array(sorted(draw.sample(combos, min(len(combos), 24))))
    kernel = Kernel(instance, rows)
    mask = eager_feasible(kernel)
    ctx = ctx_from(kernel)
    for block in kinds(rows, mask):
        runs = [draw.randrange(len(BOUND_RUNS)) for _ in block]
        check_fused(instance, block, ctx, runs, draw.randrange(len(block)))
    mixed = np.array(sorted(draw.sample(range(len(rows)), draw.randint(1, len(rows)))))
    check_rows(kernel, [mask, ~mask, mixed, np.ones_like(mask)])


@pytest.mark.parametrize("which", ["lambda_at_mu", "lambda_at_mu_inside", "crisp", "mild20"])
def test_fused_path_covers_every_kind_of_block(which):
    """A block with a lam_bar == mu row (infeasible, violation 0), first
    and between two feasible rows, whose lo Lq is +inf, so its lo slice
    objective is 0 (at -inf it would be the captured demand, 5); every
    subset of a crisp instance, whose z1 spreads are +0.0, so that under a
    -0.0 high z1 bound each z1 degree is -0.0; and the first mild20
    enumeration block; each mixed, and split into its feasible and its
    infeasible rows."""
    if which == "lambda_at_mu":
        instance, rows = LAMBDA_AT_MU, np.arange(5)[:, None]
        kernel = Kernel(instance, rows)
        assert eager_feasible(kernel).tolist() == [False, True, False, True, True]
        assert kernel.occupancy[4] == capacity_threshold(instance)
        assert eager_violation(kernel)[0] == 0.0
    elif which == "lambda_at_mu_inside":
        instance, rows = LAMBDA_AT_MU, np.array([[1], [0], [3]])
        kernel = Kernel(instance, rows)
        assert eager_feasible(kernel).tolist() == [True, False, True]
        assert kernel.slices()[1, 0] == eager_slices(kernel)[1, 0] == 0.0
    elif which == "crisp":
        instance = crispen(build(8, 2, 1, True, False, 0.5))
        rows = np.array(list(itertools.combinations(range(8), 2)))
        spreads = eager_spreads(Kernel(instance, rows))
        assert not np.signbit(spreads[:, 0]).any() and not spreads[:, 0].any()
    else:
        instance = build(20, 5, 0, True, False, 0.5)
        rows = next(fuzzloc.model._blocks(instance))[:200] - 1
    mask = eager_feasible(Kernel(instance, rows))
    assert mask.any() and not mask.all()
    ctx = ctx_from(Kernel(instance, rows))
    for block in kinds(rows, mask):
        runs = [b % len(BOUND_RUNS) for b in range(len(block))]
        check_fused(instance, block, ctx, runs, len(block) // 2)


def test_all_feasible_block_computes_no_violation():
    rows = np.array([[1], [3], [4]])
    feasible, spreads, violation = Kernel(LAMBDA_AT_MU, rows).figures()
    assert feasible.all() and spreads is not None and violation is None

    class NoPenalty(MaximinFitness):
        def infeasible_value(self, violation):
            raise AssertionError("scored an infeasible row")

    fitness = NoPenalty(LAMBDA_AT_MU, PROBE_CTX)
    expected = eager_values(fitness, Kernel(LAMBDA_AT_MU, rows)).tolist()
    assert score_block(fitness, rows) == expected


def test_no_slice_objective_without_a_feasible_row(table1, monkeypatch):
    """table1 has no feasible subset, so neither solve nor the scan computes
    a slice objective: the served share, which only the slice objectives
    use, is never reached."""

    def refuse(*args):
        raise AssertionError("computed a slice objective")

    monkeypatch.setattr(fuzzloc.model, "served_share", refuse)
    with pytest.raises(AssertionError, match="slice objective"):
        Kernel(LAMBDA_AT_MU, np.array([[1]])).figures()
    window = {"convergence_limit": 10, "stagnation_limit": 20}
    solve_protocol(table1, "ga", ga_config=GAConfig(**window))
    solve_protocol(table1, "aco", aco_config=ACOConfig(**window))
    scan = Scan(table1)
    assert not len(scan.subsets) and scan.count == math.comb(20, 5)


def test_scan_computes_objectives_of_feasible_rows_only(monkeypatch):
    """Scan reaches the served share, which only the slice objectives use,
    with the 1 746 feasible rows of mild20's 15 504 subsets and no others."""
    rows = []
    served_share = fuzzloc.model.served_share

    def counted(rho, lq, mql):
        rows.append(len(rho))
        return served_share(rho, lq, mql)

    monkeypatch.setattr(fuzzloc.model, "served_share", counted)
    scan = Scan(build(20, 5, 0, True, False, 0.5))
    assert sum(rows) == len(scan.subsets) == 1746


def test_feasible_brute_solve_computes_no_violation(monkeypatch):
    """On mild20 some subset is feasible, so a brute solve, with exact or
    with given bounds, never computes a violation."""

    def refuse(*args):
        raise AssertionError("computed a violation")

    monkeypatch.setattr(Kernel, "violation", refuse)
    with pytest.raises(AssertionError, match="violation"):
        Kernel(LAMBDA_AT_MU, np.array([[2]])).figures()
    instance = build(20, 5, 0, True, False, 0.5)
    report, ctx = solve_protocol(instance, "brute")
    assert report.objective >= 0
    solve_protocol(instance, "brute", ctx=PROBE_CTX)


def check_block_figures(instance, idx, tabled: bool):
    """model.block_figures of the block ``idx`` against its own
    Kernel.figures(): the feasibility mask and the None pattern, the spreads
    of feasible rows (of every row on the Kernel path) and the violation,
    byte for byte. ``tabled`` says which path must serve the block: the
    instance's figures table, with no kernel, or a Kernel of its own, with
    no table lookup."""
    expected = Kernel(instance, idx).figures()
    if tabled:
        block_figures(instance, idx)  # the first block of m-subsets builds the table
        with mock.patch.object(fuzzloc.model, "Kernel", side_effect=AssertionError("kernel")):
            got = block_figures(instance, idx)
        assert instance._table is not None
    else:
        table = mock.patch.object(
            fuzzloc.model._FiguresTable, "__init__", side_effect=AssertionError("table"))
        with table:
            got = block_figures(instance, idx)
    assert [part is None for part in got] == [part is None for part in expected]
    feasible = expected[0]
    assert got[0].dtype == feasible.dtype and got[0].tobytes() == feasible.tobytes()
    if expected[1] is not None:
        rows = feasible if tabled else slice(None)
        assert got[1].shape == expected[1].shape
        assert got[1][rows].tobytes() == expected[1][rows].tobytes()
    if expected[2] is not None:
        assert got[2].tobytes() == expected[2].tobytes()


@given(
    case=cases(max_n=12),
    sample_seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    extra=st.integers(0, 3),
    past=st.booleans(),
)
@example(case=(12, 3, 5, True, False, 40.0), sample_seed=0, rows=40, extra=0, past=False)
@example(case=(12, 4, 6, True, True, 0.5), sample_seed=1, rows=40, extra=0, past=False)
@example(case=(12, 3, 0, False, False, 0.5), sample_seed=2, rows=40, extra=0, past=False)
@example(case=(10, 3, 7, True, False, 0.5), sample_seed=3, rows=30, extra=2, past=False)
@example(case=(10, 3, 7, True, False, 0.5), sample_seed=4, rows=30, extra=0, past=True)
@settings(max_examples=120, deadline=None)
def test_block_figures_match_kernel(case, sample_seed, rows, extra, past):
    """Random (B, k) blocks of sorted rows on mild, default-range
    (mostly certified), weighted and logit-40 instances: a block of
    m-subsets is looked up in the instance's table, and an oversized block
    (k > m) or any block of an instance past TABLE_LIMIT gets its own
    Kernel, with the figures of the block's own Kernel in every case."""
    instance = build(*case)
    n, m = instance.n, instance.m_servers
    k = min(m + extra, n)
    rng = np.random.default_rng(sample_seed)
    idx = np.sort(np.array([rng.choice(n, k, replace=False) for _ in range(rows)]), axis=1)
    if past:
        with mock.patch.object(fuzzloc.model, "TABLE_LIMIT", math.comb(n, m) - 1):
            check_block_figures(instance, idx, tabled=False)
        assert instance._table is None
    else:
        check_block_figures(instance, idx, tabled=k == m)
        assert (instance._table is None) == (k > m)


def check_table(instance):
    """The instance's table is read-only and takes 33 bytes a subset."""
    table = instance._table
    assert not any(array.flags.writeable for array in vars(table).values())
    assert table.feasible.nbytes + table.spreads.nbytes + table.violation.nbytes == (
        33 * math.comb(instance.n, instance.m_servers))


@pytest.mark.parametrize("which", ["lambda-at-mu", "every-subset"])
def test_block_figures_match_kernel_on_fixed_blocks(which):
    """The λ = μ rows of LAMBDA_AT_MU (unstable with 0 overload, and at the
    capacity threshold itself), and every m-subset of a mild instance at
    once, in reverse order, so that no row sits at its own rank."""
    if which == "lambda-at-mu":
        instance = dataclasses.replace(LAMBDA_AT_MU)
        blocks = [np.array([[0], [4]]), np.array([[0], [1], [2], [3], [4]]), np.array([[2]])]
    else:
        instance = build(9, 4, 1, True, False, 0.5)
        blocks = [np.array(list(itertools.combinations(range(9), 4)))[::-1]]
    for idx in blocks:
        check_block_figures(instance, idx, tabled=True)
    check_table(instance)


def test_block_figures_match_kernel_on_certified_instance(certified):
    """A certified instance's blocks hold no feasible row: no spreads."""
    instance = dataclasses.replace(certified)
    combos = np.array(list(itertools.combinations(range(instance.n), instance.m_servers)))
    for idx in (combos[:50], combos[-7:], combos[::97]):
        check_block_figures(instance, idx, tabled=True)
    assert no_feasible_subset(instance) and not instance._table.feasible.any()
    check_table(instance)


def test_figures_table_is_not_instance_data():
    """The table is built on first use only, never compared, written or
    copied: an equal instance without one compares equal, instance files do
    not hold it, and dataclasses.replace drops it."""
    instance = build(8, 3, 2, True, False, 0.5)
    assert instance._table is None and "_table" not in repr(instance)
    block_figures(instance, np.array([[0, 1, 2]]))
    assert instance._table is not None
    fresh = dataclasses.replace(instance)
    assert fresh._table is None and fresh == instance
    assert "_table" not in instance_to_dict(instance)


def test_only_aco_drives_build_the_table():
    """The ACO's drives read their rounds from the figures table; a GA solve
    and an enumeration keep one kernel per block and build none."""
    instance = build(8, 3, 2, True, False, 0.5)
    enumerate_optimum(instance, make_maximin_eval(instance, PROBE_CTX))
    solve_protocol(instance, "ga", seed=0, ga_config=GAConfig(stagnation_limit=5))
    assert instance._table is None
    solve_protocol(instance, "aco", seed=0, aco_config=ACOConfig(stagnation_limit=5))
    assert instance._table is not None
