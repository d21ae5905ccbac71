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

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .evaluation import Fitness, Steps
from .model import Instance
from .reports import Outcome, SolverReport, run_solver
from .termination import Windows, check_run


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
    seed: int = 0
    convergence_limit: Optional[int] = None  # default floor(n * sqrt(m))
    stagnation_limit: Optional[int] = None  # default convergence_limit ** 2

    def __post_init__(self) -> None:
        if self.population_floor < 2:
            raise DomainError("population_floor must be at least 2")
        check_run(self.seed, self.convergence_limit, self.stagnation_limit)


def population_size(n: int, m: int, floor: int) -> int:
    """Smallest population that can jointly contain every gene, at least floor."""
    if not (1 <= m < n):
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    return max(math.ceil(n / m), floor)


def _population(
    instance: Instance, config: GAConfig, rng: random.Random, memo: _Memo
) -> Steps[list[Chromosome]]:
    """The first population: deal genes 1..n round-robin so every node
    appears, then fill each member at random; a step generator that scores
    the members through ``memo``."""
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
    rows = [[gene - 1 for gene in sorted(member)] for member in members]
    values = yield from memo.block([_mask(member) for member in members], rows.__getitem__)
    return [Chromosome(frozenset(member), value) for member, value in zip(members, values)]


def _mate(p1: Chromosome, p2: Chromosome, rng: random.Random, memo: _Memo) -> Steps[Chromosome]:
    """Union the parents, then greedily drop unshared genes back to size m;
    a step generator that scores each shrink step through ``memo``.

    At each shrink step every droppable gene is trial-removed and the removal
    with the best remaining fitness wins; genes present in both parents are
    never dropped. Clamped memberships make large fitness plateaus common, so
    exact ties are broken at random to avoid a systematic bias toward
    dropping low indices. The trial subsets of each shrink step are one block
    of evaluation.drive: one kernel call for a KernelFitness. The parents
    must differ and be of one size, so at least one shrink step runs and
    scores the candidate.
    """
    if len(p1.genes) != len(p2.genes):
        raise DomainError("parents must be of one size")
    if p1.mask == p2.mask:
        raise DomainError("parents must have different gene sets")
    draft = p1.mask | p2.mask
    genes = sorted(p1.genes | p2.genes)
    droppable = sorted(p1.genes ^ p2.genes)
    # Both parents hold m genes, so half the unshared genes are dropped.
    for _ in range(len(droppable) // 2):
        trials = yield from memo.block(
            [draft ^ (1 << gene) for gene in droppable],
            lambda b: [gene - 1 for gene in genes if gene != droppable[b]],
        )
        tied, best_value = [], None
        for gene, trial in zip(droppable, trials):
            if best_value is None or trial > best_value:
                tied, best_value = [gene], trial
            elif trial == best_value:
                tied.append(gene)
        dropped = tied[0] if len(tied) == 1 else rng.choice(tied)
        draft ^= 1 << dropped
        genes.remove(dropped)
        droppable.remove(dropped)
    return Chromosome(frozenset(genes), best_value)


def replace(population: list[Chromosome], candidate: Chromosome) -> list[Chromosome]:
    """Gene-preserving elitist replacement, in place.

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
            return population
        twice |= union & member.mask
        union |= member.mask
    singles = union & ~twice
    gained = (new & ~union).bit_count()
    for i in sorted(range(len(population)), key=lambda k: population[k].fitness):
        member = population[i]
        if candidate.fitness < member.fitness:
            break
        if (member.mask & ~new & singles).bit_count() <= gained:
            population[i] = candidate
            break
    return population


def run_ga(instance: Instance, eval_fn: Fitness, config: GAConfig) -> SolverReport:
    """Evolve until the population converges on its best or improvement stops.

    Two windows, terminating on whichever closes first: candidates equal the
    incumbent best fitness for floor(n * sqrt(m)) consecutive iterations
    (convergence), or the best fitness goes unimproved for the square of that
    many iterations (stagnation). One iteration is one mating.

    ``eval_fn`` must depend only on the solution's gene set: each distinct set
    is evaluated once and its value reused. The report's ``evaluations``
    counts every fitness request, reused values included.
    """
    return run_solver("ga", instance, config.seed, _steps(instance, config), eval_fn)


def _steps(instance: Instance, config: GAConfig) -> Steps[Outcome]:
    """run_ga as a step generator. It yields only the rows its memo has not
    scored yet, in request order."""
    rng = random.Random(config.seed)
    windows = Windows(
        instance.n, instance.m_servers, config.convergence_limit, config.stagnation_limit
    )
    memo = _Memo()
    population = yield from _population(instance, config, rng, memo)
    best = max(population, key=lambda c: c.fitness)
    trace: list[float] = []
    while True:
        p1, p2 = _distinct_parents(population, rng)
        candidate = yield from _mate(p1, p2, rng, memo)
        replace(population, candidate)
        at_best = candidate.fitness == best.fitness
        current = max(population, key=lambda c: c.fitness)
        improved = current.fitness > best.fitness
        if improved:
            best = current
        trace.append(best.fitness)
        termination = windows.step(improved, at_best)
        if termination:
            return Outcome(sorted(best.genes), best.fitness, termination, trace, memo.calls)


class _Memo:
    """Fitness values cached by gene bitmask; ``calls`` counts requests, hits
    included. ``yield from block(keys, row)`` scores gene bitmasks, where
    row(b) lists key b's 0-based indices: it yields the (B, k) rows of the
    keys not cached yet, first occurrences only, in request order, and
    returns the values of all requests. A block of hits yields nothing."""

    def __init__(self) -> None:
        self.calls = 0
        self.values: dict[int, float] = {}

    def block(self, keys: list[int], row: Callable[[int], list[int]]) -> Steps[list[float]]:
        self.calls += len(keys)
        misses = {key: b for b, key in enumerate(keys) if key not in self.values}
        if misses:
            rows = np.array([row(b) for b in misses.values()], dtype=np.intp)
            self.values.update(zip(misses, (yield rows)))
        return [self.values[key] for key in keys]


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
