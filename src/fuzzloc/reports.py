"""Solver reports: the SolverReport of one solver run and its dict form in
result files; and the Run that checks the seed of every GA, ACO and brute
solve, then builds, times and ends its report, with its stopping windows."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from .fuzzy import check_count
from .model import Instance


@dataclass
class SolverReport:
    """Outcome of one solver run: the record that its Run builds and
    times. A GA or ACO run fills it as it goes, one trace entry per
    iteration; a brute solve fills it from its scan."""

    algorithm: str
    n: int
    m: int
    seed: int
    best: Optional[list[int]]  # open facilities, ascending 1-based indices
    objective: float
    iterations: int
    termination: Optional[str]  # "convergence", "stagnation" or "exhaustive"
    trace: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    bounds_id: Optional[str] = None
    evaluations: int = 0  # fitness calls the solver requested

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SolverReport":
        return cls(**data)


def convergence_limit(n: int, m: int) -> int:
    return int(n * math.sqrt(m))


def check_seed(seed: int) -> None:
    """The seed rule of every Run: a count of at least 0 (numpy's generators
    reject a negative seed, and random.Random(-s) replays seed s)."""
    check_count("seed", seed, 0, f"seed must be non-negative, got {seed}")


class Run:
    """One solver run: its seed, checked first; its clock, started when the
    run is made; its convergence and stagnation counters; and ``report``,
    the run's SolverReport, which is its record. The solver sets the
    report's ``best`` (ascending 1-based indices, None before the first)
    when ``step`` says a round improved the run; ``step`` keeps the rest of
    a GA or ACO run's record, and ``finish`` ends every run.

    A GA or ACO run converges after ``limit`` = floor(n * sqrt(m))
    consecutive non-improving iterations that end at the incumbent best,
    and stagnates after ``cap`` consecutive non-improving iterations, a
    config's stagnation_limit, or limit² when ``cap`` is None. A live run
    takes at least ``sure_rounds()`` more rounds, so a solver may draw and
    score that many at once.
    """

    def __init__(self, algorithm: str, instance: Instance, seed: int,
                 cap: Optional[int] = None):
        check_seed(seed)
        self.start = time.perf_counter()
        n, m = instance.n, instance.m_servers
        self.report = SolverReport(algorithm, n, m, seed, best=None, objective=math.nan,
                                   iterations=0, termination=None)
        self.limit = convergence_limit(n, m)
        self.cap = self.limit * self.limit if cap is None else cap
        self.converged = self.stagnant = 0

    def sure_rounds(self) -> int:
        """The rounds this live run takes before a window can close, the
        last of them included: each round adds at most 1 to either count."""
        return min(self.limit - self.converged, self.cap - self.stagnant)

    def step(self, value: float, requests: int, eligible: bool = True) -> bool:
        """One round of the run that reached ``value`` with ``requests``
        fitness requests; True if it improved the run. It does when it is
        the run's first (the objective is NaN until then), or when its value
        is ``eligible`` and strictly above the objective, which it becomes.
        Either way the round is counted and the objective traced; once a
        window closes, the run is finished (``report.termination``). An
        improvement resets both windows; a value equal to the best counts
        toward convergence."""
        report = self.report
        objective = report.objective
        improved = math.isnan(objective) or eligible and value > objective
        if improved:
            report.objective = value
            self.converged = self.stagnant = 0
        else:
            self.stagnant += 1
            self.converged = self.converged + 1 if value == objective else 0
        report.evaluations += requests
        report.trace.append(report.objective)
        report.iterations += 1
        if self.converged >= self.limit:
            self.finish("convergence")
        elif self.stagnant >= self.cap:
            self.finish("stagnation")
        return improved

    def finish(self, termination: str) -> None:
        """End the run: stop its clock and record why it ended."""
        self.report.termination = termination
        self.report.elapsed_s = time.perf_counter() - self.start
