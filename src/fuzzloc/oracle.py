"""Ground-truth machinery: exhaustive enumeration, exact membership bounds,
and a single-server queue simulator."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, DomainError, InfeasibleInstanceError
from .evaluation import Fitness, MaximinContext, score_rows
from .fuzzy import SLICE_INDEX
from .model import Instance, Kernel, Solution, join_probability, solution_kernel

DEFAULT_ENUM_BUDGET = 10**6
# Subsets per kernel call of the oracle. Peak memory grows with this, not
# with the number of subsets: a (B, k, n) intermediate takes 0.8 MB at
# n = 20, k = 5, and a brute solve of such an instance peaks near 3 MB.
BLOCK_SIZE = 1024
# Customers per chunk of the simulator's draws. Peak memory grows with this,
# not with the event budget; the draws and the estimates do not depend on it.
CHUNK_SIZE = 1 << 14


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
    return MaximinContext(*zip(lows.tolist(), highs.tolist()), provenance="oracle-exact")


@dataclass
class SimulationResult:
    p0: float  # time-averaged empty-system fraction
    lq: float  # time-averaged waiting-line length (excludes in-service customer)
    p0_se: float
    lq_se: float


def _draws(lam: float, mu: float, seed: int):
    """Interarrival and service times, CHUNK_SIZE customers at a time.

    They come from two child streams of ``SeedSequence(seed)``, the first for
    arrivals and the second for services, so the values do not depend on the
    chunk size.
    """
    arrival_seq, service_seq = np.random.SeedSequence(seed).spawn(2)
    arrivals = np.random.default_rng(arrival_seq)
    services = np.random.default_rng(service_seq)
    while True:
        yield (
            arrivals.exponential(1.0 / lam, CHUNK_SIZE),
            services.exponential(1.0 / mu, CHUNK_SIZE),
        )


def _customers(draws):
    """Arrival and departure instants of successive FIFO customers, one chunk
    of ``(interarrival, service)`` arrays at a time.

    Departures follow Lindley's recursion D_i = max(A_i, D_{i-1}) + S_i in
    closed form: with C the running sum of the chunk's service times and
    D_last the previous chunk's last departure,
    D_i = C_i + max(D_last, max_{j <= i} (A_j - C_{j-1})).
    """
    last_arrival = last_departure = 0.0
    for gaps, services in draws:
        arrivals = np.cumsum(np.concatenate(([last_arrival], gaps)))[1:]
        work = np.cumsum(np.concatenate(([0.0], services)))
        departures = np.maximum.accumulate(arrivals - work[:-1])
        np.maximum(departures, last_departure, out=departures)
        departures += work[1:]
        last_arrival, last_departure = arrivals[-1], departures[-1]
        yield arrivals, departures


def _batch_sums(customers, event_budget: int, batches: int):
    """Idle time, area under (N - 1)+ and span of each batch of the first
    ``event_budget`` events, as the rows of a (3, number of batches) array.

    A batch holds ``event_budget // batches`` events (at least one); a
    trailing partial batch is kept when its span is positive.
    """
    size = max(1, event_budget // batches)
    sums = np.zeros((3, -(-event_budget // size)))
    now, in_system, done = 0.0, 0, 0
    waiting = np.empty(0)
    for arrivals, departures in customers:
        # Every later arrival comes after this chunk's last one, so the
        # departures before that instant are final; the rest carry over.
        departures = np.concatenate((waiting, departures))
        cut = np.searchsorted(departures, arrivals[-1])
        leaving, waiting = departures[:cut], departures[cut:]
        # On a tie the arrival comes first, as in an event loop that
        # serves ``next_arrival <= next_departure`` first.
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


def _estimate(idle, area, span) -> SimulationResult:
    """Span-weighted means of the per-batch figures, and their batch-means
    standard errors."""
    p0s = idle / span
    lqs = area / span
    weights = span / span.sum()
    p0_hat = float(p0s @ weights)
    lq_hat = float(lqs @ weights)
    k = len(span)
    p0_se = float(p0s.std(ddof=1) / math.sqrt(k)) if k > 1 else math.nan
    lq_se = float(lqs.std(ddof=1) / math.sqrt(k)) if k > 1 else math.nan
    return SimulationResult(p0=p0_hat, lq=lq_hat, p0_se=p0_se, lq_se=lq_se)


def mm1_simulate(
    lam: float, mu: float, event_budget: int, seed: int = 0, batches: int = 20
) -> SimulationResult:
    """FIFO M/M/1 simulation over exactly ``event_budget`` arrival and
    departure events, starting empty at time 0; standard errors come from
    batch means by event count.

    Customers are drawn and their departures computed in chunks of
    CHUNK_SIZE, so memory does not grow with the event budget.
    """
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise DomainError(f"rates must be finite: lam={lam}, mu={mu}")
    if mu <= 0 or lam <= 0:
        raise DomainError("rates must be positive")
    if lam >= mu:
        raise DomainError(f"unstable parameters: lam={lam} >= mu={mu}")
    if event_budget < 1:
        raise DomainError("event_budget must be positive")
    if batches < 1:
        raise DomainError(f"batches must be positive, got {batches}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    customers = _customers(_draws(lam, mu, seed))
    return _estimate(*_batch_sums(customers, event_budget, batches))


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
