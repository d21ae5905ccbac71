"""Solver run reports and their on-disk JSON format."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional

from .evaluation import Fitness, Steps, drive
from .model import Instance


@dataclass
class SolverReport:
    """Outcome of one solver run."""

    algorithm: str
    n: int
    m: int
    seed: int
    best: list[int]  # open facilities, ascending 1-based indices
    objective: float
    iterations: int
    termination: str  # "convergence", "stagnation" or "exhaustive"
    trace: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    bounds_id: Optional[str] = None
    evaluations: int = 0  # fitness calls the solver requested

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SolverReport":
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SolverReport":
        return cls.from_dict(json.loads(text))


class Outcome(NamedTuple):
    """What a GA or ACO step generator returns: the run's result, with one
    trace entry per iteration."""

    best: list[int]
    objective: float
    termination: str
    trace: list[float]
    evaluations: int


def run_solver(
    algorithm: str, instance: Instance, seed: int, steps: Steps[Outcome], fitness: Fitness
) -> SolverReport:
    """Drive one solver run with ``fitness`` and report it; ``elapsed_s``
    times the whole run."""
    start = time.perf_counter()
    outcome = drive([(steps, fitness)])[0]
    return SolverReport(
        algorithm=algorithm,
        n=instance.n,
        m=instance.m_servers,
        seed=seed,
        best=outcome.best,
        objective=outcome.objective,
        iterations=len(outcome.trace),
        termination=outcome.termination,
        trace=outcome.trace,
        elapsed_s=time.perf_counter() - start,
        evaluations=outcome.evaluations,
    )
