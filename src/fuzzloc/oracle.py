"""Ground-truth machinery: exhaustive enumeration, exact membership bounds,
and a single-server queue simulator."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceededError, DomainError, InfeasibleInstanceError
from .evaluation import Fitness, MaximinContext, MaximinFitness, Steps, drive
from .fuzzy import SLICE_INDEX
from .model import Instance, Solution, _blocks, feasible_rows, served_share, solution_kernel

# The oracle scans the subsets in blocks of model.BLOCK_SIZE. A Scan (exact
# bounds, a brute solve) also keeps 24 + m bytes per feasible subset for
# n < 256 (three doubles and m one-byte indices), at most (24 + m) MB at the
# default budget.
DEFAULT_ENUM_BUDGET = 10**6
# Customers per chunk of the simulator's draws. Peak memory grows with this,
# not with the event budget. The draws do not depend on it, and the estimates
# only up to rounding: each chunk restarts the running work sum, and a batch
# that spans two chunks adds its two chunk partials. For a given CHUNK_SIZE
# the estimates are fixed bit for bit.
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

    The subsets are scored in blocks of model.BLOCK_SIZE by one ``drive``
    run: a KernelFitness on one kernel per block, any other callable once
    per subset.
    """
    count = _check_budget(instance, budget)
    table = {} if keep_table else None
    [(best, best_value)] = drive([(_walk(instance, table), eval_fn)])
    return EnumerationResult(Solution(best), best_value, count, table)


class Scan:
    """What exact bounds and a maximin optimum need of every m-subset:
    ``spreads`` (F, 3) and ``subsets`` (F, m), the spread components and rows
    of the F feasible subsets, in lexicographic order (model.feasible_rows,
    which holds the spreads column by column)."""

    def __init__(self, instance: Instance, budget: int = DEFAULT_ENUM_BUDGET):
        self.instance = instance
        self.count = _check_budget(instance, budget)
        self.spreads, self.subsets = feasible_rows(instance)

    def optimum(self, fitness: MaximinFitness) -> EnumerationResult:
        """``enumerate_optimum(instance, fitness)`` from the kept rows: the
        fitness's score of the feasible spreads, all in one call, and the kept
        subset at the first argmax, so ties go to the lexicographically first.
        With no feasible subset, a second pass, enumerate_optimum itself,
        computes the violations that the penalties read."""
        if not len(self.subsets):
            return enumerate_optimum(self.instance, fitness, self.count)
        values = fitness.score(True, self.spreads, None)  # every kept row is feasible
        i = int(np.argmax(values))
        return EnumerationResult(Solution(self.subsets[i]), float(values[i]), self.count)


def exact_bounds(
    instance: Instance, budget: int = DEFAULT_ENUM_BUDGET, *, scan: Optional[Scan] = None
) -> MaximinContext:
    """Exact (min, max) of each spread component over all feasible subsets,
    from ``scan`` when given (a Scan of the same instance), else from a new
    one."""
    if scan is None:
        scan = Scan(instance, budget)
    if not len(scan.subsets):
        raise InfeasibleInstanceError("no feasible facility subset exists")
    # Each extremum reduces one contiguous row of the (3, F) transpose, which
    # feasible_rows keeps contiguous; over axis 0 of a row-ordered (F, 3) it
    # would step 3 doubles at a time.
    columns = np.ascontiguousarray(scan.spreads.T)
    lows, highs = columns.min(axis=1), columns.max(axis=1)
    return MaximinContext(*zip(lows.tolist(), highs.tolist()), provenance="oracle-exact")


@dataclass
class SimulationResult:
    p0: float  # time-averaged empty-system fraction
    lq: float  # time-averaged waiting-line length (excludes in-service customer)
    p0_se: float
    lq_se: float


def _draws(lam: float, mu: float, seed: int, size: Optional[int] = None):
    """Interarrival and service times, ``size`` customers at a time
    (CHUNK_SIZE, read at the call, when None).

    They come from two child streams of ``SeedSequence(seed)``, the first for
    arrivals and the second for services, so the values do not depend on the
    chunk size: the first values of a draw do not depend on its length.
    """
    size = CHUNK_SIZE if size is None else size
    arrival_seq, service_seq = np.random.SeedSequence(seed).spawn(2)
    arrivals = np.random.default_rng(arrival_seq)
    services = np.random.default_rng(service_seq)
    while True:
        yield (
            arrivals.exponential(1.0 / lam, size),
            services.exponential(1.0 / mu, size),
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
        # One scan sums two lanes: complex addition adds the real parts (the
        # arrival instants) and the imaginary parts (the work sum C) each
        # left to right, with the bits of a real cumsum of each lane.
        lanes = np.empty(len(gaps) + 1, dtype=complex)
        lanes[0] = last_arrival
        lanes.real[1:], lanes.imag[1:] = gaps, services
        np.cumsum(lanes, out=lanes)
        arrivals, work = lanes.real[1:], lanes.imag
        departures = np.maximum.accumulate(arrivals - work[:-1])
        np.maximum(departures, last_departure, out=departures)
        departures += work[1:]
        last_arrival, last_departure = arrivals[-1], departures[-1]
        yield arrivals, departures


def _batch_sums(customers, event_budget: int, batches: int):
    """Idle time, area under (N - 1)+ and span of each batch of the first
    ``event_budget`` events, as the rows of a (3, number of batches) array.

    A batch holds ``event_budget // batches`` events (at least one); a
    trailing partial batch is kept when its span is positive. Each chunk's
    arrivals and departures are merged by one stable sort, and each batch's
    run of events within a chunk is summed left to right in event order, the
    order in which an event loop would add them; a batch that spans two
    chunks adds its two chunk partials.
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
        # On a tie the stable sort keeps the arrival first, as in an event
        # loop that serves ``next_arrival <= next_departure`` first.
        times = np.concatenate((arrivals, leaving))
        order = np.argsort(times, kind="stable")[:event_budget - done]
        times, take = times[order], len(order)
        step = (order < len(arrivals)).view(np.int8) * 2 - 1
        before = np.empty(take, dtype=np.intp)  # customers just before each event
        before[0] = 0
        np.cumsum(step[:-1], out=before[1:])
        before += in_system
        dt = np.empty(take)  # span of each event
        dt[0] = times[0] - now
        np.subtract(times[1:], times[:-1], out=dt[1:])
        lanes = np.empty(take, dtype=complex)  # idle time + i * area of each event
        np.multiply(dt, before == 0, out=lanes.real)
        np.maximum(before - 1, 0, out=lanes.imag)
        lanes.imag *= dt
        # cumsum adds left to right, as bincount and an event loop do, and a
        # complex cumsum adds each lane so; sum() adds pairwise and would
        # change the bits.
        for batch in range(done // size, (done + take - 1) // size + 1):
            run = slice(max(batch * size - done, 0), (batch + 1) * size - done)
            pair = np.cumsum(lanes[run])[-1]
            sums[:, batch] += pair.real, pair.imag, np.cumsum(dt[run])[-1]
        done += take
        if done == event_budget:
            break
        now, in_system = times[-1], before[-1] + step[-1]
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
    CHUNK_SIZE, so memory does not grow with the event budget. A budget of
    at most CHUNK_SIZE events draws only ``event_budget`` customers, in one
    chunk: their arrivals alone are that many events, and the events up to
    the last of them are the first events of a full chunk, so the results
    keep their bits.
    """
    for name, rate in (("lam", lam), ("mu", mu)):
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real):
            raise DomainError(f"rates must be real numbers, not {type(rate).__name__}: "
                              f"{name}={rate!r}")
    try:
        lam, mu = float(lam), float(mu)  # a float32 rate would draw at float32 scale
    except OverflowError:  # an integer too large for a double
        raise DomainError("rates must be finite: a rate overflows a double") from None
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise DomainError(f"rates must be finite: lam={lam}, mu={mu}")
    if mu <= 0 or lam <= 0:
        raise DomainError("rates must be positive")
    if lam >= mu:
        raise DomainError(f"unstable parameters: lam={lam} >= mu={mu}")
    # A numpy integer is a count here, unlike in instance files; a bool is not.
    if (isinstance(event_budget, bool) or not isinstance(event_budget, numbers.Integral)
            or event_budget < 1):
        raise DomainError(f"event_budget must be a positive integer, got {event_budget!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    customers = _customers(_draws(lam, mu, seed, min(event_budget, CHUNK_SIZE)))
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
    A facility that captures no demand is not simulated: its queue is always
    empty, so P0 = 1 and Lq = 0 exactly.
    """
    s = SLICE_INDEX[slc]
    queues = solution_kernel(instance, solution)
    total = 0.0
    for k, (lam, mu) in enumerate(zip(queues.lam_bar[:, s], queues.mu[:, s])):
        if lam == 0.0:
            p0, lq = 1.0, 0.0
        else:
            result = mm1_simulate(lam, mu, event_budget, seed=seed + k)
            p0, lq = result.p0, result.lq
        total += queues.benefit[k, s] * served_share(1.0 - p0, lq, instance.mql)
    return total
