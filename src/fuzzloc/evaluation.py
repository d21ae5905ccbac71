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
from typing import Callable, Generator, Optional, TypeVar

import numpy as np

from .errors import DomainError
from .fuzzy import TriFuzzy, is_number
from .model import (
    Instance, Kernel, Solution, _open_indices, block_figures, capacity_threshold, solution_kernel,
)

_DEGENERATE_EPS = 1e-12

# The spread components in the order of the spreads of Kernel.figures().
COMPONENTS = ("z1", "z2", "z3")

# The provenances of the bounds the package computes: protocol.estimate_bounds
# and oracle.exact_bounds.
PROVENANCES = ("metaheuristic-estimated", "oracle-exact")

# A fitness is a KernelFitness, whose rows drive scores on a shared kernel,
# or any other callable, which drive calls once per subset.
Fitness = Callable[[Solution], float]

T = TypeVar("T")

# A solver run as a generator: it yields each (B, k) array of 0-based,
# ascending facility indices it wants scored, receives their B values through
# send, and returns its result.
Steps = Generator[np.ndarray, list, T]


@dataclass(frozen=True)
class MaximinContext:
    """Per-component (min, max) bounds calibrating the membership functions.

    Each component's direction and scale are resolved once, on
    construction: z1 = mid - lo is minimized, so its membership decreases,
    and z2 = mid and z3 = hi - mid are maximized, so theirs increase.

    Each bound is stored as a float, so [0, 1] and [0.0, 1.0] give one
    context and one bounds_id, and a NaN bound as math.nan: tuples compare
    NaN by identity, so a context replayed from JSON equals the one written.
    """

    z1_bounds: tuple[float, float]
    z2_bounds: tuple[float, float]
    z3_bounds: tuple[float, float]
    provenance: str  # one of PROVENANCES

    def __post_init__(self) -> None:
        for name in COMPONENTS:
            pair = tuple(float(v) if v == v else math.nan for v in self.bounds(name))
            object.__setattr__(self, f"{name}_bounds", pair)
        # The raw degree (spread * sign + offset) / width is, bit for bit,
        # (high - z1) / width and (z - low) / width for z2 and z3. A
        # degenerate component gets the constant row sign 0, offset 1, width
        # 1, so its degree is 1 for any finite spread, as every kernel's is.
        rows = [
            (0.0, 1.0, 1.0) if self.is_degenerate(name)
            else (sign, high if sign < 0 else -low, high - low)
            for name, sign in zip(COMPONENTS, (-1.0, 1.0, 1.0))  # z1 decreases
            for low, high in [self.bounds(name)]
        ]
        for name, column in zip(("_sign", "_offset", "_width"), zip(*rows)):
            object.__setattr__(self, name, np.array(column, dtype=float))

    def bounds(self, name: str) -> tuple[float, float]:
        return getattr(self, f"{name}_bounds")

    def is_degenerate(self, name: str) -> bool:
        low, high = self.bounds(name)
        if not (math.isfinite(low) and math.isfinite(high)):
            return True
        return high - low <= _DEGENERATE_EPS

    def memberships(self, spreads: np.ndarray) -> np.ndarray:
        """Linear membership degrees (..., 3) of spread components (..., 3)
        in COMPONENTS order, clamped to [0, 1], and 1 for a component with
        degenerate bounds, which imposes no discrimination."""
        degrees = spreads * self._sign
        degrees += self._offset
        degrees /= self._width
        return np.minimum(np.maximum(degrees, 0.0, out=degrees), 1.0, out=degrees)

    def to_dict(self) -> dict:
        bounds = {f"{name}_bounds": list(self.bounds(name)) for name in COMPONENTS}
        return {**bounds, "provenance": self.provenance}

    @classmethod
    def from_dict(cls, data: dict) -> "MaximinContext":
        """The context of a to_dict() object; DomainError for anything else,
        naming the first unknown key in sorted order or the provenance."""
        if not (isinstance(data, dict) and isinstance(data.get("provenance"), str)):
            raise DomainError("bounds must be an object with a provenance string")
        keys = [f"{name}_bounds" for name in COMPONENTS]
        unknown = sorted(data.keys() - {*keys, "provenance"})
        if unknown:
            raise DomainError(f"bounds has unknown field {unknown[0]!r}")
        if data["provenance"] not in PROVENANCES:
            raise DomainError(f"bounds has unknown provenance {data['provenance']!r}")
        bounds = [data.get(key) for key in keys]
        for key, pair in zip(keys, bounds):
            pair_ok = isinstance(pair, (list, tuple)) and len(pair) == 2
            if not (pair_ok and all(map(is_number, pair))):
                raise DomainError(f"{key} must be a pair of numbers")
        return cls(*bounds, provenance=data["provenance"])

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


def fuzzy_capacity_feasible(instance: Instance, solution: Solution):
    """Truth-degree capacity check; returns (feasible, {facility: margin})."""
    open_idx = _open_indices(instance, solution)
    margins_arr = capacity_threshold(instance) - Kernel(instance, open_idx).occupancy
    margins = {int(j) + 1: float(m) for j, m in zip(open_idx, margins_arr)}
    return (bool(np.all(margins_arr >= 0)), margins)


def violation_total(instance: Instance, solution: Solution) -> float:
    """Relative constraint violation: capacity excess plus queue instability,
    0 for a feasible solution."""
    violation = solution_kernel(instance, solution).figures()[2]
    return 0.0 if violation is None else float(violation)


def evaluate(instance: Instance, solution: Solution, ctx: MaximinContext) -> float:
    """Maximin fitness in [0, 1] for feasible solutions, negative otherwise."""
    return MaximinFitness(instance, ctx)(solution)


def component_value(instance: Instance, solution: Solution, name: str) -> Optional[float]:
    """One spread component of a feasible solution, or None if infeasible."""
    feasible, spreads, _ = solution_kernel(instance, solution).figures()
    return float(spreads[COMPONENTS.index(name)]) if feasible else None


def drive(runs: list[tuple[Steps[T], Fitness]]) -> list[T]:
    """Step the (generator, fitness) runs together; return what each
    generator returns, in order. This is the only batch scorer: solver runs
    and enumerate_optimum go through it.

    Each round steps the runs that have their values. A plain callable
    fitness is called once per row at once; a KernelFitness run's block
    waits. Then one subset size is served: the size that the most waiting
    runs ask for, the larger on ties. Its blocks share one call of
    model.block_figures, which reads a round of m-subsets from the
    instance's figures table when it has one (an ACO solve builds it) and
    computes any other round on one Kernel. Each run scores its own rows
    with KernelFitness.score, and blocks of other sizes wait for a later
    round. The KernelFitness runs of one drive share an instance: the
    figures are those of the instance of the first block's run. Waiting
    lets runs share a kernel call when their sizes differ: a GA mating
    scores trial subsets whose size falls from |union| - 1 to m, so
    lockstep GA runs seldom ask for one size in the same round. When every
    waiting block has one size, as in every ACO round and every drive of a
    single run, a round serves them all. A kernel row has the same bits in
    any block, and in the table, and no run's sends depend on another run,
    so every run ends as it would alone."""
    results: list = [None] * len(runs)
    scorers = [f if isinstance(f, KernelFitness) else None for _, f in runs]  # None: a callable
    replies: dict[int, Optional[list]] = dict.fromkeys(range(len(runs)))
    waiting: dict[int, list] = {}  # subset size -> [(run, block)]
    while replies or waiting:
        stepped, replies = replies, {}
        for r, values in stepped.items():
            steps, fitness = runs[r]
            try:
                idx = steps.send(values)
            except StopIteration as stop:
                results[r] = stop.value
                continue
            if scorers[r] is None:
                replies[r] = [fitness(Solution(row)) for row in (idx + 1).tolist()]
            else:
                waiting.setdefault(idx.shape[-1], []).append((r, idx))
        if not waiting:
            continue
        members = waiting.pop(next(iter(waiting)) if len(waiting) == 1 else
                              max(waiting, key=lambda k: (len(waiting[k]), k)))
        whole = members[0][1] if len(members) == 1 else np.concatenate([b for _, b in members])
        instance = scorers[members[0][0]].instance
        feasible, spreads, violation = block_figures(instance, whole)
        start = 0
        for r, idx in members:
            rows = slice(start, start + len(idx))
            start = rows.stop
            replies[r] = scorers[r].score(
                feasible[rows], spreads if spreads is None else spreads[rows],
                violation if violation is None else violation[rows]).tolist()
    return results


def penalty(violation):
    """The score of an infeasible subset: -(1 + violation), below every
    feasible maximin score; the bound runs scale it by 1e12."""
    return -1.0 - violation  # the bits of -(1.0 + violation), as violation >= 0


class KernelFitness:
    """A fitness stated once, by ``feasible_value`` of the spreads of
    feasible rows and ``infeasible_value`` of the violation of infeasible
    ones (by default ``penalty``). ``score`` composes the two over the
    figures of a model.Kernel, and is the only scorer: drive applies it to
    the rows of a kernel that it shares among runs, a call to a one-subset
    kernel."""

    def __init__(self, instance: Instance):
        self.instance = instance

    def feasible_value(self, spreads: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def infeasible_value(self, violation: np.ndarray) -> np.ndarray:
        return penalty(violation)

    def score(
        self, feasible: np.ndarray, spreads: Optional[np.ndarray], violation: Optional[np.ndarray]
    ) -> np.ndarray:
        """The values of rows with these Kernel.figures(). When ``spreads``
        or ``violation`` is None, the other part alone gives the values."""
        if violation is None:
            return self.feasible_value(spreads)
        if spreads is None:
            return self.infeasible_value(violation)
        return np.where(feasible, self.feasible_value(spreads), self.infeasible_value(violation))

    def __call__(self, solution: Solution) -> float:
        return float(self.score(*solution_kernel(self.instance, solution).figures()))


class MaximinFitness(KernelFitness):
    """Fitness used by the final solver run: the smallest membership degree
    of the spread components for a feasible subset, and -(1 + violation)
    for an infeasible one."""

    def __init__(self, instance: Instance, ctx: MaximinContext):
        super().__init__(instance)
        self.ctx = ctx

    def feasible_value(self, spreads: np.ndarray) -> np.ndarray:
        degrees = self.ctx.memberships(spreads)
        # column by column: far faster than a min over the short last axis
        return np.minimum(np.minimum(degrees[..., 0], degrees[..., 1]), degrees[..., 2])


def make_maximin_eval(instance: Instance, ctx: MaximinContext) -> MaximinFitness:
    return MaximinFitness(instance, ctx)
