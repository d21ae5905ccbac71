"""Solver run reports and their dict form in result files."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass
class SolverReport:
    """Outcome of one solver run: the record that every GA and ACO run
    fills as it goes and returns, with one trace entry per iteration and
    ``elapsed_s`` timed by the run itself."""

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
