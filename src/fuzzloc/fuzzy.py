"""Triangular fuzzy numbers, the names of their slices, and the number and count rules."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

SLICE_INDEX = {"lo": 0, "mid": 1, "hi": 2}


def is_number(value) -> bool:
    """The number rule of instance and result files: an int or a float, as
    json.loads gives a JSON number. JSON true and false load as ints, but
    are not numbers; nor is a numeric string."""
    return isinstance(value, float) or type(value) is int


def is_count(value) -> bool:
    """The count rule: a Python int that is not a bool, as json.loads gives
    a JSON integer. A float, a bool or a numpy integer is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_count(name: str, value, least: int, message: str | None = None) -> None:
    """A count field: a number below ``least`` raises ``message`` (by
    default "<name> must be at least <least>"), and any other value that is
    not a count (is_count) raises a DomainError naming ``name``."""
    if isinstance(value, (int, float)) and value < least:
        raise DomainError(message or f"{name} must be at least {least}")
    if not is_count(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")


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
