"""The two stopping windows shared by the genetic algorithm and the ant colony,
and the check of a run's seed and window lengths."""

from __future__ import annotations

import math
from typing import Optional

from .errors import DomainError


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


class Windows:
    """Convergence and stagnation counters of one solver run.

    The run converges after ``limit`` consecutive non-improving iterations
    that end at the incumbent best, and stagnates after ``cap`` consecutive
    non-improving iterations. Defaults: limit floor(n * sqrt(m)), cap limit².
    """

    def __init__(self, n: int, m: int, limit: Optional[int], cap: Optional[int]):
        self.limit = convergence_limit(n, m) if limit is None else limit
        self.cap = self.limit * self.limit if cap is None else cap
        self.converged = 0
        self.stagnant = 0

    def step(self, improved: bool, at_best: bool) -> Optional[str]:
        """Count one iteration; return the termination reason once a window
        closes, None while the run goes on. An improvement resets both."""
        if improved:
            self.converged = self.stagnant = 0
        else:
            self.stagnant += 1
            self.converged = self.converged + 1 if at_best else 0
        if self.converged >= self.limit:
            return "convergence"
        if self.stagnant >= self.cap:
            return "stagnation"
        return None
