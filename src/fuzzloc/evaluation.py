"""Fuzzification of the objective and constraints, and the maximin fitness.

The fuzzy objective is decomposed into three crisp components (left spread,
center, right spread); each is mapped through a linear membership function
calibrated by per-component bounds, and the fitness is the minimum of the
three memberships. Infeasible solutions get a negative penalty so that every
feasible solution dominates every infeasible one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .fuzzy import TriFuzzy
from .model import (
    Instance,
    Kernel,
    Solution,
    _open_indices,
    capacity_threshold,
    solution_kernel,
)

_DEGENERATE_EPS = 1e-12


@dataclass(frozen=True)
class SpreadComponents:
    """Crisp decomposition of a fuzzy objective value.

    z1 = mid - lo (minimized), z2 = mid (maximized), z3 = hi - mid (maximized).
    """

    z1: float
    z2: float
    z3: float

    def value(self, name: str) -> float:
        return getattr(self, name)


@dataclass(frozen=True)
class MaximinContext:
    """Per-component (min, max) bounds calibrating the membership functions."""

    z1_bounds: tuple[float, float]
    z2_bounds: tuple[float, float]
    z3_bounds: tuple[float, float]
    provenance: str  # "metaheuristic-estimated" or "oracle-exact"

    def bounds(self, name: str) -> tuple[float, float]:
        return getattr(self, f"{name}_bounds")

    def is_degenerate(self, name: str) -> bool:
        low, high = self.bounds(name)
        if not (math.isfinite(low) and math.isfinite(high)):
            return True
        return high - low <= _DEGENERATE_EPS

    def to_dict(self) -> dict:
        return {
            "z1_bounds": list(self.z1_bounds),
            "z2_bounds": list(self.z2_bounds),
            "z3_bounds": list(self.z3_bounds),
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MaximinContext":
        return cls(
            z1_bounds=tuple(data["z1_bounds"]),
            z2_bounds=tuple(data["z2_bounds"]),
            z3_bounds=tuple(data["z3_bounds"]),
            provenance=data["provenance"],
        )

    @property
    def bounds_id(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def fuzzy_objective(instance: Instance, solution: Solution) -> Optional[TriFuzzy]:
    """Objective evaluated at all three slices, sorted into a fuzzy triple.

    Returns None when any slice has an unstable queue.
    """
    result = solution_kernel(instance, solution)
    if not result.stable().all():
        return None
    return TriFuzzy(*result.objective().tolist())


def spread_components(z: TriFuzzy) -> SpreadComponents:
    return SpreadComponents(z1=z.mid - z.lo, z2=z.mid, z3=z.hi - z.mid)


def _membership(value: float, low: float, high: float, decreasing: bool) -> float:
    if not (math.isfinite(low) and math.isfinite(high)) or high - low <= _DEGENERATE_EPS:
        return 1.0  # degenerate bounds impose no discrimination
    if decreasing:
        raw = (high - value) / (high - low)
    else:
        raw = (value - low) / (high - low)
    return min(max(raw, 0.0), 1.0)


def _membership_block(values: np.ndarray, low: float, high: float, decreasing: bool) -> np.ndarray:
    """_membership of every entry of an array."""
    if not (math.isfinite(low) and math.isfinite(high)) or high - low <= _DEGENERATE_EPS:
        return np.ones_like(values)
    raw = (high - values) / (high - low) if decreasing else (values - low) / (high - low)
    return np.clip(raw, 0.0, 1.0)


def membership_values(c: SpreadComponents, ctx: MaximinContext) -> tuple[float, float, float]:
    """Linear membership degrees of the three components; clamped to [0, 1]."""
    mu1 = _membership(c.z1, *ctx.z1_bounds, decreasing=True)
    mu2 = _membership(c.z2, *ctx.z2_bounds, decreasing=False)
    mu3 = _membership(c.z3, *ctx.z3_bounds, decreasing=False)
    return (mu1, mu2, mu3)


def maximin_level(mu1: float, mu2: float, mu3: float) -> float:
    """Satisfaction level: the bottleneck membership degree."""
    for mu in (mu1, mu2, mu3):
        if not (0.0 <= mu <= 1.0):
            raise DomainError(f"membership {mu} outside [0, 1]")
    return min(mu1, mu2, mu3)


def fuzzy_capacity_feasible(instance: Instance, solution: Solution):
    """Truth-degree capacity check; returns (feasible, {facility: margin})."""
    open_idx = _open_indices(instance, solution)
    margins_arr = capacity_threshold(instance) - Kernel(instance, open_idx).occupancy
    margins = {int(j) + 1: float(m) for j, m in zip(open_idx, margins_arr)}
    return (bool(np.all(margins_arr >= 0)), margins)


def violation_total(instance: Instance, solution: Solution) -> float:
    """Relative constraint violation: capacity excess plus queue instability."""
    return float(solution_kernel(instance, solution).violation())


def evaluate(instance: Instance, solution: Solution, ctx: MaximinContext) -> float:
    """Maximin fitness in [0, 1] for feasible solutions, negative otherwise."""
    result = solution_kernel(instance, solution)
    if not result.feasible():
        return -(1.0 + float(result.violation()))
    z = TriFuzzy(*result.objective().tolist())
    return maximin_level(*membership_values(spread_components(z), ctx))


def evaluate_block(instance: Instance, idx: np.ndarray, ctx: MaximinContext) -> np.ndarray:
    """evaluate() of every row of a (B, k) array of 0-based, ascending
    facility indices, in one kernel call."""
    result = Kernel(instance, idx)
    lo, mid, hi = np.moveaxis(result.objective(), -1, 0)
    level = np.minimum(
        np.minimum(
            _membership_block(mid - lo, *ctx.z1_bounds, decreasing=True),
            _membership_block(mid, *ctx.z2_bounds, decreasing=False),
        ),
        _membership_block(hi - mid, *ctx.z3_bounds, decreasing=False),
    )
    return np.where(result.feasible(), level, -(1.0 + result.violation()))


def _component(result: Kernel, name: str) -> Optional[float]:
    if not result.feasible():
        return None
    return spread_components(TriFuzzy(*result.objective().tolist())).value(name)


def component_value(instance: Instance, solution: Solution, name: str) -> Optional[float]:
    """One spread component of a feasible solution, or None if infeasible."""
    return _component(solution_kernel(instance, solution), name)


def component_or_violation(
    instance: Instance, solution: Solution, name: str
) -> tuple[Optional[float], float]:
    """component_value and violation_total from one kernel call; the
    violation of a feasible solution is 0.0."""
    result = solution_kernel(instance, solution)
    value = _component(result, name)
    return (value, 0.0 if value is not None else float(result.violation()))


def score_rows(fitness, idx: np.ndarray) -> list[float]:
    """Fitness of every row of a (B, k) array of 0-based, ascending facility
    indices: one ``fitness.block(idx)`` call when the fitness has that
    method, one ``fitness(Solution)`` call per row otherwise."""
    block = getattr(fitness, "block", None)
    if block is None:
        return [fitness(Solution(row)) for row in (idx + 1).tolist()]
    return block(idx).tolist()


class MaximinFitness:
    """Fitness used by the final solver run: evaluate with the instance and
    bound context bound in. ``block`` scores a (B, k) array of 0-based
    subsets in one kernel call; the solvers and the oracle use it through
    score_rows."""

    def __init__(self, instance: Instance, ctx: MaximinContext):
        self.instance = instance
        self.ctx = ctx

    def __call__(self, solution: Solution) -> float:
        return evaluate(self.instance, solution, self.ctx)

    def block(self, idx: np.ndarray) -> np.ndarray:
        return evaluate_block(self.instance, idx, self.ctx)


def make_maximin_eval(instance: Instance, ctx: MaximinContext) -> MaximinFitness:
    return MaximinFitness(instance, ctx)
