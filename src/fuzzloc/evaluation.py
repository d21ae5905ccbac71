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
from typing import Callable, Optional

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

# The spread components in the order of Kernel.spreads().
COMPONENTS = ("z1", "z2", "z3")

Fitness = Callable[[Solution], float]


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


def _membership(values, ctx: MaximinContext, name: str) -> np.ndarray:
    """Linear membership degree of one spread component, clamped to [0, 1]:
    decreasing for z1 (minimized), increasing for z2 and z3 (maximized)."""
    if ctx.is_degenerate(name):
        return np.ones_like(values)  # degenerate bounds impose no discrimination
    low, high = ctx.bounds(name)
    raw = (high - values) / (high - low) if name == "z1" else (values - low) / (high - low)
    return np.minimum(np.maximum(raw, 0.0), 1.0)


def membership_values(c: SpreadComponents, ctx: MaximinContext) -> tuple[float, float, float]:
    """Linear membership degrees of the three components; clamped to [0, 1]."""
    return tuple(float(_membership(c.value(name), ctx, name)) for name in COMPONENTS)


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
    return MaximinFitness(instance, ctx)(solution)


def evaluate_block(instance: Instance, idx: np.ndarray, ctx: MaximinContext) -> np.ndarray:
    """evaluate() of every row of a (B, k) array of 0-based, ascending
    facility indices, in one kernel call."""
    return MaximinFitness(instance, ctx).block(idx)


def component_value(instance: Instance, solution: Solution, name: str) -> Optional[float]:
    """One spread component of a feasible solution, or None if infeasible."""
    result = solution_kernel(instance, solution)
    return float(result.spreads()[COMPONENTS.index(name)]) if result.feasible() else None


def score_rows(fitness: Fitness, idx: np.ndarray) -> list[float]:
    """Fitness of every row of a (B, k) array of 0-based, ascending facility
    indices: one ``fitness.block(idx)`` call when the fitness has that
    method, one ``fitness(Solution)`` call per row otherwise."""
    block = getattr(fitness, "block", None)
    if block is None:
        return [fitness(Solution(row)) for row in (idx + 1).tolist()]
    return block(idx).tolist()


class KernelFitness:
    """A fitness stated once, as ``score`` of a model.Kernel. ``block``
    scores a (B, k) array of 0-based subsets in one kernel call, which is
    how the solvers and the oracle use it through score_rows; a call scores
    one subset with the same formula on a one-subset kernel."""

    def __init__(self, instance: Instance):
        self.instance = instance

    def score(self, result: Kernel) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, solution: Solution) -> float:
        return float(self.score(solution_kernel(self.instance, solution)))

    def block(self, idx: np.ndarray) -> np.ndarray:
        return self.score(Kernel(self.instance, idx))


class MaximinFitness(KernelFitness):
    """Fitness used by the final solver run: the smallest membership degree
    of the spread components for a feasible subset, and -(1 + violation)
    for an infeasible one."""

    def __init__(self, instance: Instance, ctx: MaximinContext):
        super().__init__(instance)
        self.ctx = ctx

    def score(self, result: Kernel) -> np.ndarray:
        z = result.spreads()
        level = np.minimum.reduce(
            [_membership(z[..., s], self.ctx, name) for s, name in enumerate(COMPONENTS)]
        )
        return np.where(result.feasible(), level, -(1.0 + result.violation()))


def make_maximin_eval(instance: Instance, ctx: MaximinContext) -> MaximinFitness:
    return MaximinFitness(instance, ctx)
