"""One solver run, shared by the genetic algorithm and the ant colony: its
clock, its stopping windows and its SolverReport, which is the run's
record; and the check of a run's seed and window lengths."""

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
    first step; its convergence and stagnation counters; and ``report``,
    the run's SolverReport, which is its record. The solver sets the
    report's ``best`` (ascending 1-based indices, None before the first),
    its ``objective`` and its ``evaluations``; ``step`` fills the trace,
    the iteration count, the termination reason and ``elapsed_s``.

    The run converges after ``limit`` consecutive non-improving iterations
    that end at the incumbent best, and stagnates after ``cap`` consecutive
    non-improving iterations. They come from ``config``'s convergence_limit
    and stagnation_limit; defaults: limit floor(n * sqrt(m)), cap limit².
    """

    def __init__(self, algorithm: str, instance: Instance, config, seed: int):
        self.start = time.perf_counter()
        n, m = instance.n, instance.m_servers
        self.report = SolverReport(algorithm, n, m, seed, best=None, objective=math.nan,
                                   iterations=0, termination=None)
        limit, cap = config.convergence_limit, config.stagnation_limit
        self.limit = convergence_limit(n, m) if limit is None else limit
        self.cap = self.limit * self.limit if cap is None else cap
        self.converged = self.stagnant = 0

    def step(self, improved: bool, at_best: bool) -> Optional[str]:
        """Count one iteration and trace the best value; once a window
        closes, stop the clock and return the termination reason, else
        None. An improvement resets both windows."""
        report = self.report
        report.trace.append(report.objective)
        report.iterations += 1
        if improved:
            self.converged = self.stagnant = 0
        else:
            self.stagnant += 1
            self.converged = self.converged + 1 if at_best else 0
        if self.converged >= self.limit:
            report.termination = "convergence"
        elif self.stagnant >= self.cap:
            report.termination = "stagnation"
        if report.termination:
            report.elapsed_s = time.perf_counter() - self.start
        return report.termination
