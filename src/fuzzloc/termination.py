"""One solver run's record, shared by the genetic algorithm and the ant
colony: its clock, stopping windows, trace and best; and the check of a
run's seed and window lengths."""

from __future__ import annotations

import math
import time
from typing import Optional

from .errors import DomainError
from .model import Instance
from .reports import SolverReport


def convergence_limit(n: int, m: int) -> int:
    return int(n * math.sqrt(m))


def check_run(seed: int, limit: Optional[int], cap: Optional[int]) -> None:
    """A config's seed, at least 0 (numpy's generators reject a negative
    seed, and random.Random(-s) replays seed s), and its window lengths:
    None for the default, else at least 1."""
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    if any(window is not None and window < 1 for window in (limit, cap)):
        raise DomainError("convergence_limit and stagnation_limit must be at least 1")


class Run:
    """One GA or ACO run: its clock, started when the run is made at its
    first step; its convergence and stagnation counters; its trace, one best
    value per iteration; and ``best``, its best facilities so far (ascending
    1-based indices, None before the first), and their value ``best_value``,
    which the solver sets.

    The run converges after ``limit`` consecutive non-improving iterations
    that end at the incumbent best, and stagnates after ``cap`` consecutive
    non-improving iterations. They come from ``config``'s convergence_limit
    and stagnation_limit; defaults: limit floor(n * sqrt(m)), cap limit².
    """

    def __init__(self, algorithm: str, instance: Instance, config, seed: int):
        self.start = time.perf_counter()
        self.algorithm, self.n, self.m, self.seed = algorithm, instance.n, instance.m_servers, seed
        limit, cap = config.convergence_limit, config.stagnation_limit
        self.limit = convergence_limit(self.n, self.m) if limit is None else limit
        self.cap = self.limit * self.limit if cap is None else cap
        self.converged = self.stagnant = 0
        self.trace: list[float] = []
        self.best: Optional[list[int]] = None
        self.best_value = math.nan
        self.termination: Optional[str] = None
        self.elapsed_s = 0.0

    def step(self, improved: bool, at_best: bool) -> Optional[str]:
        """Count one iteration and trace the best value; once a window
        closes, stop the clock and return the termination reason, else
        None. An improvement resets both windows."""
        self.trace.append(self.best_value)
        if improved:
            self.converged = self.stagnant = 0
        else:
            self.stagnant += 1
            self.converged = self.converged + 1 if at_best else 0
        if self.converged >= self.limit:
            self.termination = "convergence"
        elif self.stagnant >= self.cap:
            self.termination = "stagnation"
        if self.termination:
            self.elapsed_s = time.perf_counter() - self.start
        return self.termination

    def report(self, evaluations: int) -> SolverReport:
        """The ended run's SolverReport; ``evaluations`` counts the fitness
        requests the solver made."""
        return SolverReport(
            algorithm=self.algorithm,
            n=self.n,
            m=self.m,
            seed=self.seed,
            best=self.best,
            objective=self.best_value,
            iterations=len(self.trace),
            termination=self.termination,
            trace=self.trace,
            elapsed_s=self.elapsed_s,
            evaluations=evaluations,
        )
