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
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .evaluation import Fitness, score_rows
from .model import Instance, Solution
from .reports import SolverReport
from .termination import Windows, convergence_limit  # noqa: F401 (public name)


@dataclass(frozen=True)
class Chromosome:
    genes: frozenset[int]
    fitness: float


@dataclass
class GAConfig:
    population_floor: int = 10
    seed: int = 0
    convergence_limit: Optional[int] = None  # default floor(n * sqrt(m))
    stagnation_limit: Optional[int] = None  # default convergence_limit ** 2

    def __post_init__(self) -> None:
        if self.population_floor < 2:
            raise DomainError("population_floor must be at least 2")


def population_size(n: int, m: int, floor: int) -> int:
    """Smallest population that can jointly contain every gene, at least floor."""
    if not (1 <= m < n):
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    return max(math.ceil(n / m), floor)


def init_population(
    instance: Instance,
    config: GAConfig,
    eval_fn: Fitness,
    rng: Optional[random.Random] = None,
) -> list[Chromosome]:
    """Deal genes 1..n round-robin so every node appears, then fill randomly."""
    rng = rng if rng is not None else random.Random(config.seed)
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
    values = score_rows(eval_fn, _rows(members))
    return [Chromosome(frozenset(member), value) for member, value in zip(members, values)]


def generate_candidate(
    p1: Chromosome, p2: Chromosome, eval_fn: Fitness, rng: random.Random
) -> Chromosome:
    """Union the parents, then greedily drop unshared genes back to size m.

    At each shrink step every droppable gene is trial-removed and the removal
    with the best remaining fitness wins; genes present in both parents are
    never dropped. Clamped memberships make large fitness plateaus common, so
    exact ties are broken at random to avoid a systematic bias toward
    dropping low indices. The trial subsets of each shrink step are scored in
    one score_rows call. The parents must differ and be of one size, so at
    least one shrink step runs and scores the candidate.
    """
    if len(p1.genes) != len(p2.genes):
        raise DomainError("parents must be of one size")
    if p1.genes == p2.genes:
        raise DomainError("parents must have different gene sets")
    m = len(p1.genes)
    draft = set(p1.genes | p2.genes)
    shared = p1.genes & p2.genes
    while len(draft) > m:
        droppable = sorted(draft - shared)
        trials = score_rows(eval_fn, _rows([draft - {gene} for gene in droppable]))
        tied, best_value = [], None
        for gene, trial in zip(droppable, trials):
            if best_value is None or trial > best_value:
                tied, best_value = [gene], trial
            elif trial == best_value:
                tied.append(gene)
        draft.remove(tied[0] if len(tied) == 1 else rng.choice(tied))
    return Chromosome(frozenset(draft), best_value)


def replace(population: list[Chromosome], candidate: Chromosome) -> list[Chromosome]:
    """Gene-preserving elitist replacement, in place.

    The candidate takes the place of the lowest-fitness member (first in
    population order among ties) that it is at least as fit as and whose
    removal, with the candidate added, does not lower the number of distinct
    genes in the population. A candidate that duplicates an existing gene set,
    or finds no such member, is rejected.
    """
    if any(candidate.genes == member.genes for member in population):
        return population
    carriers = Counter(gene for member in population for gene in member.genes)
    gained = sum(1 for gene in candidate.genes if gene not in carriers)
    for i in sorted(range(len(population)), key=lambda k: population[k].fitness):
        member = population[i]
        if candidate.fitness < member.fitness:
            break
        lost = sum(1 for gene in member.genes - candidate.genes if carriers[gene] == 1)
        if lost <= gained:
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
    start = time.perf_counter()
    rng = random.Random(config.seed)
    windows = Windows(
        instance.n, instance.m_servers, config.convergence_limit, config.stagnation_limit
    )
    fitness = _MemoFitness(eval_fn)
    population = init_population(instance, config, fitness, rng)
    best = max(population, key=lambda c: c.fitness)
    trace: list[float] = []
    iterations = 0
    while True:
        p1, p2 = _distinct_parents(population, rng)
        candidate = generate_candidate(p1, p2, fitness, rng)
        replace(population, candidate)
        iterations += 1
        at_best = candidate.fitness == best.fitness
        current = max(population, key=lambda c: c.fitness)
        improved = current.fitness > best.fitness
        if improved:
            best = current
        trace.append(best.fitness)
        termination = windows.step(improved, at_best)
        if termination:
            break
    return SolverReport(
        algorithm="ga",
        n=instance.n,
        m=instance.m_servers,
        seed=config.seed,
        best=sorted(best.genes),
        objective=best.fitness,
        iterations=iterations,
        termination=termination,
        trace=trace,
        elapsed_s=time.perf_counter() - start,
        evaluations=fitness.calls,
    )


class _MemoFitness:
    """Fitness cached by gene set; ``calls`` counts requests, hits included.
    ``block`` answers a (B, k) array of 0-based subsets and scores its misses
    in one score_rows call."""

    def __init__(self, eval_fn: Fitness):
        self.eval_fn = eval_fn
        self.calls = 0
        self.values: dict[frozenset[int], float] = {}

    def block(self, idx: np.ndarray) -> np.ndarray:
        self.calls += len(idx)
        keys = [frozenset(row) for row in (idx + 1).tolist()]
        misses = {key: b for b, key in enumerate(keys) if key not in self.values}
        if misses:
            values = score_rows(self.eval_fn, idx[list(misses.values())])
            self.values.update(zip(misses, values))
        return np.array([self.values[key] for key in keys], dtype=float)


def _rows(gene_sets) -> np.ndarray:
    """Gene sets of one size as a (B, k) array of 0-based, ascending indices."""
    return np.array([sorted(genes) for genes in gene_sets], dtype=np.intp) - 1


def _distinct_parents(
    population: Sequence[Chromosome], rng: random.Random
) -> tuple[Chromosome, Chromosome]:
    """Two members with different gene sets: up to 32 random draws, then the
    first member that differs from the first one.

    Such a pair always exists. ``init_population`` deals every gene 1..n,
    ``replace`` never lowers the number of distinct genes, and every member
    holds m < n genes, so no member carries the whole pool and not all
    members can be equal.
    """
    for _ in range(32):
        p1, p2 = rng.sample(population, 2)
        if p1.genes != p2.genes:
            return (p1, p2)
    first = population[0]
    return next((first, other) for other in population[1:] if other.genes != first.genes)
