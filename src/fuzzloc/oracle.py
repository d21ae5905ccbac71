"""Ground-truth machinery: exhaustive enumeration, exact membership bounds,
and a single-server queue simulator."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, DomainError, InfeasibleInstanceError
from .evaluation import Fitness, MaximinContext, MaximinFitness, Steps, drive, penalty
from .fuzzy import SLICE_INDEX
from .model import Instance, Kernel, Solution, served_share, solution_kernel

DEFAULT_ENUM_BUDGET = 10**6
# Subsets per kernel call of the oracle. The kernel's intermediates grow with
# this, not with the number of subsets: the facility-major (k, B, n) logit
# shares take 0.8 MB at n = 20, k = 5. A Scan (exact bounds, a brute solve)
# also keeps 32 bytes per feasible subset, at most 32 MB at the default
# budget.
BLOCK_SIZE = 1024
# Customers per chunk of the simulator's draws. Peak memory grows with this,
# not with the event budget; the draws and the estimates do not depend on it.
CHUNK_SIZE = 1 << 14
# Number of batches behind the simulator's batch-means standard errors.
BATCHES = 20


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
        flat = itertools.chain.from_iterable(itertools.islice(combos, BLOCK_SIZE))
        block = np.fromiter(flat, dtype=np.intp).reshape(-1, m)
        if not len(block):
            return
        yield block


def _unrank(n: int, m: int, rank: int) -> list[int]:
    """The m-subset of 1..n at position ``rank`` of the lexicographic order,
    as itertools.combinations yields it, without walking to it.

    Past the entries already fixed, the subsets whose next entry is c number
    comb(n - c, slots - 1), where slots counts the entries left; the rank
    skips whole groups of them. That is at most n calls to math.comb.
    """
    subset, c = [], 1
    for slots in range(m, 0, -1):
        while rank >= (group := math.comb(n - c, slots - 1)):
            rank -= group
            c += 1
        subset.append(c)
        c += 1
    return subset


def _walk(instance: Instance, table: Optional[dict]) -> Steps[tuple[list, float]]:
    """enumerate_optimum's run: yields each block of subsets (0-based), fills
    ``table`` when given, and returns the best row and its value."""
    first = None
    best, best_value = None, -math.inf
    for block in _blocks(instance):
        values = yield block - 1
        rows = block.tolist()
        if table is not None:
            table.update(zip(map(frozenset, rows), values))
        if first is None:
            first = (rows[0], values[0])
        for row, value in zip(rows, values):
            if value > best_value:
                best, best_value = row, value
    return first if best is None else (best, best_value)


def enumerate_optimum(
    instance: Instance,
    eval_fn: Fitness,
    budget: int = DEFAULT_ENUM_BUDGET,
    keep_table: bool = False,
) -> EnumerationResult:
    """Evaluate every m-subset; the best is the first subset, in
    lexicographic order of the sorted index sets, with the largest value
    above -inf, and a NaN never wins. When no value is above -inf (every
    value is -inf or NaN), the best is the first subset, with its own value.

    The subsets are scored in blocks of BLOCK_SIZE by one ``drive`` run: a
    KernelFitness on one kernel per block, any other callable once per
    subset.
    """
    count = _check_budget(instance, budget)
    table = {} if keep_table else None
    [(best, best_value)] = drive([(_walk(instance, table), eval_fn)])
    return EnumerationResult(Solution(best), best_value, count, table)


class Scan:
    """One kernel pass over every m-subset, in lexicographic order, keeping
    what exact bounds and a maximin optimum need. Each subset's kernel is
    built once.

    ``spreads`` (F, 3) and ``ranks`` (F,) hold the spread components of the
    F feasible subsets and their positions in that order. ``fallback`` is
    the (rank, penalty) of the first infeasible subset with the largest
    penalty, or None when every subset is feasible.
    """

    def __init__(self, instance: Instance, budget: int = DEFAULT_ENUM_BUDGET):
        self.instance = instance
        self.count = _check_budget(instance, budget)
        spreads, ranks = [], []
        self.fallback = None
        start = 0
        for block in _blocks(instance):
            kernel = Kernel(instance, block - 1)
            feasible = kernel.feasible()
            spreads.append(kernel.spreads()[feasible])
            ranks.append(start + np.flatnonzero(feasible))
            infeasible = np.flatnonzero(~feasible)
            if len(infeasible):
                values = penalty(kernel.violation()[infeasible])
                i = int(np.argmax(values))
                if self.fallback is None or values[i] > self.fallback[1]:
                    self.fallback = (start + int(infeasible[i]), float(values[i]))
            start += len(block)
        self.spreads = np.concatenate(spreads)
        self.ranks = np.concatenate(ranks)

    def optimum(self, fitness: MaximinFitness) -> EnumerationResult:
        """``enumerate_optimum(instance, fitness)`` from the kept rows: the
        maximin formula applied once to the feasible spreads, and the first
        argmax, so ties still go to the lexicographically smallest subset.
        With no feasible subset, the fallback."""
        if len(self.ranks):
            values = fitness.formula(True, self.spreads, 0.0)  # every kept row is feasible
            i = int(np.argmax(values))
            rank, value = int(self.ranks[i]), float(values[i])
        else:
            rank, value = self.fallback
        best = _unrank(self.instance.n, self.instance.m_servers, rank)
        return EnumerationResult(best=Solution(best), best_value=value, evaluated_count=self.count)


def exact_bounds(
    instance: Instance, budget: int = DEFAULT_ENUM_BUDGET, *, scan: Optional[Scan] = None
) -> MaximinContext:
    """Exact (min, max) of each spread component over all feasible subsets,
    from ``scan`` when given (a Scan of the same instance), else from a new
    one."""
    if scan is None:
        scan = Scan(instance, budget)
    if not len(scan.ranks):
        raise InfeasibleInstanceError("no feasible facility subset exists")
    lows, highs = scan.spreads.min(axis=0), scan.spreads.max(axis=0)
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


def mm1_simulate(lam: float, mu: float, event_budget: int, seed: int = 0) -> SimulationResult:
    """FIFO M/M/1 simulation over exactly ``event_budget`` arrival and
    departure events, starting empty at time 0; standard errors come from
    batch means by event count, over BATCHES batches.

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
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    customers = _customers(_draws(lam, mu, seed))
    return _estimate(*_batch_sums(customers, event_budget, BATCHES))


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
    queues = solution_kernel(instance, solution)
    total = 0.0
    for k, (lam, mu) in enumerate(zip(queues.lam_bar[:, s], queues.mu[:, s])):
        result = mm1_simulate(lam, mu, event_budget, seed=seed + k)
        total += queues.benefit[k, s] * served_share(1.0 - result.p0, result.lq, instance.mql)
    return total
