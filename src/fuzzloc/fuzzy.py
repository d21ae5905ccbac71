"""Triangular fuzzy numbers and the names of their slices."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

SLICE_INDEX = {"lo": 0, "mid": 1, "hi": 2}


@dataclass(frozen=True)
class TriFuzzy:
    """A triangular fuzzy number (lo, mid, hi) with lo <= mid <= hi."""

    lo: float
    mid: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.mid <= self.hi):
            raise DomainError(
                f"fuzzy triple not ordered: ({self.lo}, {self.mid}, {self.hi})"
            )

    @classmethod
    def from_seq(cls, seq) -> "TriFuzzy":
        lo, mid, hi = (float(x) for x in seq)
        return cls(lo, mid, hi)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lo, self.mid, self.hi)
