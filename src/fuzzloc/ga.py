"""Genetic algorithm with index-set encoding and union-and-greedy-drop mating.

This is the mutation-free genetic algorithm of Alp, Erkut & Drezner ("An
efficient genetic algorithm for the p-median problem", Annals of OR 122,
2003). The initial population holds every gene 1..n, and replacement never
lets a gene leave it: a candidate displaces the weakest member it is at least
as fit as whose removal keeps the number of distinct genes in the population.
Every candidate is a subset of the pool, so the full gene pool lasts the whole
run and recombination alone can reach every subset.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .evaluation import Fitness, Steps, drive
from .fuzzy import check_count
from .model import Instance
from .reports import Run, SolverReport


def _mask(genes) -> int:
    """A gene set's identity: bit g is set for gene g."""
    return sum(1 << gene for gene in genes)


@dataclass(frozen=True)
class Chromosome:
    genes: frozenset[int]
    fitness: float
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mask", _mask(self.genes))


@dataclass
class GAConfig:
    population_floor: int = 10
    stagnation_limit: Optional[int] = None  # None: reports.Run's default

    def __post_init__(self) -> None:
        check_count("population_floor", self.population_floor, 2)
        if self.stagnation_limit is not None:
            check_count("stagnation_limit", self.stagnation_limit, 1)


def population_size(n: int, m: int, floor: int) -> int:
    """Smallest population that can jointly contain every gene, at least floor."""
    if not (1 <= m < n):
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    return max(math.ceil(n / m), floor)


def _population(
    instance: Instance, config: GAConfig, rng: random.Random, memo: _Memo
) -> Steps[list[Chromosome]]:
    """The first population: deal genes 1..n round-robin so every node
    appears, then fill each member at random; a step generator that yields
    the rows of the distinct members in order, valued by ``memo.score``."""
    n, m = instance.n, instance.m_servers
    size = population_size(n, m, config.population_floor)
    members: list[set[int]] = [set() for _ in range(size)]
    for gene in range(1, n + 1):
        members[(gene - 1) % size].add(gene)
    for member in members:
        missing = m - len(member)
        if missing > 0:
            pool = [g for g in range(1, n + 1) if g not in member]
            member.update(rng.sample(pool, missing))
    masks = [_mask(member) for member in members]
    distinct = {mask: sorted(member) for mask, member in zip(masks, members)}
    rows = np.array(list(distinct.values()), dtype=np.intp) - 1
    values = {mask: memo.score(mask, value) for mask, value in zip(distinct, (yield rows))}
    return [Chromosome(frozenset(member), values[mask]) for member, mask in zip(members, masks)]


def _mate(p1: Chromosome, p2: Chromosome, rng: random.Random, memo: _Memo) -> Steps[Chromosome]:
    """Union the parents, then greedily drop unshared genes back to size m;
    a step generator that yields the rows of each shrink step that
    ``memo.values`` does not hold yet.

    At each shrink step every droppable gene is trial-removed and the removal
    with the best remaining fitness wins; genes present in both parents are
    never dropped. Clamped memberships make large fitness plateaus common, so
    exact ties are broken at random to avoid a systematic bias toward
    dropping low indices. The missing trial rows of a shrink step are one
    block of evaluation.drive: one kernel call for a KernelFitness. The
    parents must differ and be of one size, so at least one shrink step runs
    and scores the candidate. Parents that differ in d genes each make d
    shrink steps of 2d, 2d - 1, ..., d + 1 trial requests: d(3d + 1)/2.

    The result depends only on the union and the unshared genes, on memo
    values that never change once stored, and on the rng when a step ties.
    So a mating that drew no tie keeps its child in ``memo.matings`` under
    those two masks, and a later mating of the same masks returns it.
    """
    if len(p1.genes) != len(p2.genes):
        raise DomainError("parents must be of one size")
    if p1.mask == p2.mask:
        raise DomainError("parents must have different gene sets")
    draft = p1.mask | p2.mask
    mating = (draft, p1.mask ^ p2.mask)
    child = memo.matings.get(mating)
    if child is not None:
        return child
    tie_free = True
    union = sorted(p1.genes | p2.genes)
    row = np.array(union, dtype=np.intp) - 1  # gene g at popcount(draft & (1 << g) - 1)
    bits = [1 << gene for gene in sorted(p1.genes ^ p2.genes)]
    lookup = memo.values.get
    # Both parents hold m genes, so half the unshared genes are dropped.
    for _ in range(len(bits) // 2):
        without = _leave_one_out(len(row))
        trials = [lookup(draft ^ bit) for bit in bits]
        if None in trials:
            missing = [b for b, trial in enumerate(trials) if trial is None]
            places = [(draft & (bits[b] - 1)).bit_count() for b in missing]
            values = yield row.take(without.take(places, axis=0))
            for b, value in zip(missing, values):
                trials[b] = memo.score(draft ^ bits[b], value)
        best_value = max(trials)
        b = trials.index(best_value)
        if trials.count(best_value) > 1:
            b, tie_free = rng.choice([i for i, t in enumerate(trials) if t == best_value]), False
        bit = bits.pop(b)
        place = (draft & (bit - 1)).bit_count()
        draft ^= bit
        del union[place]
        row = row.take(without[place])
    child = Chromosome(frozenset(union), best_value)
    if tie_free:
        memo.matings[mating] = child
    return child


@functools.cache
def _leave_one_out(size: int) -> np.ndarray:
    """The shared, read-only (size, size - 1) positions: row p is 0..size - 1 but p."""
    table = np.arange(size - 1) + (np.arange(size - 1) >= np.arange(size)[:, None])
    table.setflags(write=False)
    return table


def replace(population: list[Chromosome], candidate: Chromosome) -> bool:
    """Gene-preserving elitist replacement, in place; True if the candidate entered.

    A candidate that duplicates a member's gene set is rejected. Otherwise it
    takes the place of the lowest-fitness member (first in population order
    among ties) that it is at least as fit as and whose removal loses no more
    genes from the pool than the candidate brings in, or else it is rejected.
    Folding the member masks gives ``union``, the genes held by any member,
    and ``singles``, those held by exactly one: the candidate brings in
    ``new & ~union``, and removing ``member`` loses ``member & ~new & singles``.
    """
    new = candidate.mask
    union = twice = 0
    for member in population:
        if member.mask == new:
            return False
        twice |= union & member.mask
        union |= member.mask
    singles = union & ~twice
    gained = (new & ~union).bit_count()
    fitness = [member.fitness for member in population]
    for i in sorted(range(len(fitness)), key=fitness.__getitem__):
        if candidate.fitness < fitness[i]:
            return False
        if (population[i].mask & ~new & singles).bit_count() <= gained:
            population[i] = candidate
            return True
    return False


def run_ga(instance: Instance, eval_fn: Fitness, config: GAConfig, seed: int = 0) -> SolverReport:
    """Evolve from ``seed``, one mating per iteration, until a window of
    reports.Run closes; Run checks the seed, and Run.step decides which
    matings improve the run (a child that ``replace`` keeps out does not).

    ``eval_fn`` must depend only on the solution's gene set: each distinct set
    is evaluated once and its value reused, and a repeated mating that drew
    no random tie-break returns its first child without a shrink step. The
    report's ``evaluations`` counts every fitness request, reused values and
    repeated matings included. A NaN value ranks below every other value, as
    -inf.
    """
    return drive([(_steps(instance, config, seed), eval_fn)])[0]


def _steps(instance: Instance, config: GAConfig, seed: int) -> Steps[SolverReport]:
    """run_ga of ``config`` at ``seed`` as a step generator over one
    reports.Run, which times the run from its first step and holds its
    report. It yields only the rows its memo has not scored yet, in request
    order, and counts every request, hits included: the population's, then
    each mating's from its parents, which it hands to Run.step with the
    child's fitness and whether ``replace`` let the child in."""
    run = Run("ga", instance, seed, config.stagnation_limit)
    report = run.report
    rng = random.Random(seed)
    memo = _Memo()
    population = yield from _population(instance, config, rng, memo)
    report.evaluations = len(population)
    current = max(population, key=lambda c: c.fitness)
    report.best, report.objective = sorted(current.genes), current.fitness
    # A member leaves only for a candidate at least as fit, so no member beats
    # the run's best, and only an entering candidate can raise it.
    while True:
        p1, p2 = _distinct_parents(population, rng)
        candidate = yield from _mate(p1, p2, rng, memo)
        d = (p1.mask ^ p2.mask).bit_count() // 2
        if run.step(candidate.fitness, d * (3 * d + 1) // 2, replace(population, candidate)):
            report.best = sorted(candidate.genes)
        if report.termination:
            return report


class _Memo:
    """A run's cache: fitness values by gene bitmask, and the children of
    tie-free matings by (union, unshared genes) mask pair.

    ``score(key, value)`` stores the value of a key not scored yet and
    returns it as stored. A NaN value is stored as -inf, so that it ranks
    below every other value, as np.fmax ranks it within an ACO colony.
    """

    def __init__(self) -> None:
        self.values: dict[int, float] = {}
        self.matings: dict[tuple[int, int], Chromosome] = {}

    def score(self, key: int, value: float) -> float:
        self.values[key] = value = value if value == value else -math.inf
        return value


def _distinct_parents(
    population: Sequence[Chromosome], rng: random.Random
) -> tuple[Chromosome, Chromosome]:
    """Two members with different gene sets: up to 32 random draws, then the
    first member that differs from the first one.

    Such a pair always exists. ``_population`` deals every gene 1..n,
    ``replace`` never lowers the number of distinct genes, and every member
    holds m < n genes, so no member carries the whole pool and not all
    members can be equal.
    """
    for _ in range(32):
        p1, p2 = rng.sample(population, 2)
        if p1.mask != p2.mask:
            return (p1, p2)
    first = population[0]
    return next((first, other) for other in population[1:] if other.mask != first.mask)
