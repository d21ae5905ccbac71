"""Solver run reports and their on-disk JSON format."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional


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
