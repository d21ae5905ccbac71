"""Ground-truth machinery: exhaustive enumeration, exact membership bounds,
and a discrete-event single-server queue simulator."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, DomainError, InfeasibleInstanceError
from .evaluation import Fitness, MaximinContext, score_rows
from .model import Instance, Kernel, Solution, solution_kernel

DEFAULT_ENUM_BUDGET = 10**6
# Subsets per kernel call of the oracle. Peak memory grows with this, not
# with the number of subsets: a (B, k, n) intermediate takes 0.8 MB at
# n = 20, k = 5, and a brute solve of such an instance peaks near 3 MB.
BLOCK_SIZE = 1024


@dataclass
class EnumerationResult:
    best: Solution
    best_value: float
    evaluated_count: int
    table: Optional[dict[frozenset, float]] = None


def _check_budget(instance: Instance, budget: int) -> int:
    count = math.comb(instance.n, instance.m_servers)
    if count > budget:
        raise BudgetExceededError(
            f"enumeration needs {count} subsets, budget is {budget}"
        )
    return count


def _blocks(instance: Instance):
    """Every m-subset as rows of 1-based indices, in lexicographic order, in
    (B, m) arrays of at most BLOCK_SIZE rows."""
    m = instance.m_servers
    combos = itertools.combinations(range(1, instance.n + 1), m)
    while True:
        block = np.fromiter(itertools.islice(combos, BLOCK_SIZE), dtype=(np.intp, m))
        if not len(block):
            return
        yield block


def enumerate_optimum(
    instance: Instance,
    eval_fn: Fitness,
    budget: int = DEFAULT_ENUM_BUDGET,
    keep_table: bool = False,
) -> EnumerationResult:
    """Evaluate every m-subset; ties break to the lexicographically smallest
    sorted index set (combinations are visited in that order).

    Each block of subsets goes through ``score_rows``: one call for a
    fitness with a ``block`` method (see ``make_maximin_eval``), one call
    per subset for any other callable.
    """
    count = _check_budget(instance, budget)
    best_subset = None
    best_value = -math.inf
    table = {} if keep_table else None
    for block in _blocks(instance):
        rows = block.tolist()
        values = score_rows(eval_fn, block - 1)
        if table is not None:
            table.update(zip(map(frozenset, rows), values))
        for row, value in zip(rows, values):
            if value > best_value:
                best_subset, best_value = row, value
    return EnumerationResult(
        best=Solution(best_subset),
        best_value=best_value,
        evaluated_count=count,
        table=table,
    )


def exact_bounds(instance: Instance, budget: int = DEFAULT_ENUM_BUDGET) -> MaximinContext:
    """Exact (min, max) of each spread component over all feasible subsets."""
    _check_budget(instance, budget)
    lows = np.full(3, math.inf)
    highs = np.full(3, -math.inf)
    any_feasible = False
    for block in _blocks(instance):
        result = Kernel(instance, block - 1)
        spreads = result.spreads()[result.feasible()]
        if not len(spreads):
            continue
        any_feasible = True
        lows = np.minimum(lows, spreads.min(axis=0))
        highs = np.maximum(highs, spreads.max(axis=0))
    if not any_feasible:
        raise InfeasibleInstanceError("no feasible facility subset exists")
    lows, highs = lows.tolist(), highs.tolist()
    return MaximinContext(
        z1_bounds=(lows[0], highs[0]),
        z2_bounds=(lows[1], highs[1]),
        z3_bounds=(lows[2], highs[2]),
        provenance="oracle-exact",
    )


@dataclass
class SimulationResult:
    p0: float  # time-averaged empty-system fraction
    lq: float  # time-averaged waiting-line length (excludes in-service customer)
    p0_se: float
    lq_se: float


def mm1_simulate(
    lam: float, mu: float, event_budget: int, seed: int = 0, batches: int = 20
) -> SimulationResult:
    """Event-driven M/M/1 simulation; standard errors come from batch means."""
    if mu <= 0 or lam <= 0:
        raise DomainError("rates must be positive")
    if lam >= mu:
        raise DomainError(f"unstable parameters: lam={lam} >= mu={mu}")
    if event_budget < 1:
        raise DomainError("event_budget must be positive")
    rng = random.Random(seed)
    now = 0.0
    in_system = 0
    next_arrival = rng.expovariate(lam)
    next_departure = math.inf
    batch_size = max(1, event_budget // batches)
    batch_idle: list[float] = []
    batch_area: list[float] = []
    batch_time: list[float] = []
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
                next_departure = now + rng.expovariate(mu)
            next_arrival = now + rng.expovariate(lam)
        else:
            in_system -= 1
            next_departure = now + rng.expovariate(mu) if in_system else math.inf
        events_in_batch += 1
        if events_in_batch >= batch_size:
            batch_idle.append(idle)
            batch_area.append(area)
            batch_time.append(span)
            idle = area = span = 0.0
            events_in_batch = 0
    if span > 0:
        batch_idle.append(idle)
        batch_area.append(area)
        batch_time.append(span)
    times = np.asarray(batch_time)
    p0s = np.asarray(batch_idle) / times
    lqs = np.asarray(batch_area) / times
    weights = times / times.sum()
    p0_hat = float(p0s @ weights)
    lq_hat = float(lqs @ weights)
    k = len(times)
    p0_se = float(p0s.std(ddof=1) / math.sqrt(k)) if k > 1 else math.nan
    lq_se = float(lqs.std(ddof=1) / math.sqrt(k)) if k > 1 else math.nan
    return SimulationResult(p0=p0_hat, lq=lq_hat, p0_se=p0_se, lq_se=lq_se)


def simulate_objective_slice(
    instance: Instance,
    solution: Solution,
    slc: str,
    event_budget: int,
    seed: int = 0,
) -> float:
    """Objective recomputed from per-facility simulated queue figures.

    Each open facility is simulated as an independent M/M/1 queue fed by its
    aggregated arrival rate; the analytic idle probability, occupancy and
    joining probability in the objective are replaced by their estimates.
    """
    from .fuzzy import SLICE_INDEX
    from .model import join_probability

    s = SLICE_INDEX[slc]
    facilities = solution_kernel(instance, solution)
    lam_bar, mu, benefit = facilities.lam_bar, facilities.mu, facilities.benefit
    total = 0.0
    for k in range(len(lam_bar)):
        result = mm1_simulate(lam_bar[k, s], mu[k, s], event_budget, seed=seed + k)
        rho_hat = 1.0 - result.p0
        join_hat = join_probability(result.lq, instance.mql)
        total += benefit[k, s] * ((1.0 - rho_hat) + join_hat * rho_hat)
    return total
