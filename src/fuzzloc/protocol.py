"""The seven-run solve protocol: six bound-calibration runs, then the final
maximin run evaluated against the calibrated membership functions."""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional, Sequence

import numpy as np

from .aco import ACOConfig, run_aco, _colonies
from .errors import DomainError
from .evaluation import (
    COMPONENTS, KernelFitness, MaximinContext, drive, make_maximin_eval, penalty,
)
from .ga import GAConfig, run_ga, _steps as _ga_steps
from .model import Instance, no_feasible_subset
# A brute solve no longer calls enumerate_optimum; the name stays importable
# here because benchmarks/tracer.py wraps it on this module.
from .oracle import DEFAULT_ENUM_BUDGET, Scan, enumerate_optimum, exact_bounds  # noqa: F401
from .reports import SolverReport

# Bound runs in protocol order: min and max of each spread component.
BOUND_RUNS = (
    ("z1", "min"),
    ("z1", "max"),
    ("z2", "min"),
    ("z2", "max"),
    ("z3", "min"),
    ("z3", "max"),
)

# Each bound run maximizes sign * component, so a min run maximizes minus
# the component: the runs' columns of the spreads and their signs.
_COMPONENT = np.array([COMPONENTS.index(name) for name, _ in BOUND_RUNS])
_SIGN = np.array([1.0 if sense == "max" else -1.0 for _, sense in BOUND_RUNS])

_PENALTY_SCALE = 1e12


def bound_seeds(seed: int) -> list[int]:
    """Seeds of the six bound runs of a solve with the given seed."""
    return [seed + k for k in range(1, len(BOUND_RUNS) + 1)]


class _BoundFitness(KernelFitness):
    """The fitness of bound run ``run``, a position in BOUND_RUNS, which
    either solver maximizes: sign * component for a feasible subset, and
    1e12 * penalty(violation), below any feasible value, for an infeasible
    one. ``select`` gives each row of the blocks to come its own run."""

    def __init__(self, instance: Instance, run: int):
        super().__init__(instance)
        self.select(run)

    def select(self, runs) -> None:
        """Score every row as run ``runs`` when it is one position, else row
        i of each block as run ``runs[i]``."""
        rows = np.arange(len(runs)) if np.ndim(runs) else ...
        self.pick = (rows, _COMPONENT[runs])
        self.sign = _SIGN[runs]

    def feasible_value(self, spreads: np.ndarray) -> np.ndarray:
        return self.sign * spreads[self.pick]

    def infeasible_value(self, violation: np.ndarray) -> np.ndarray:
        return _PENALTY_SCALE * penalty(violation)


def estimate_bounds(
    instance: Instance, config: GAConfig | ACOConfig, seeds: Sequence[int]
) -> MaximinContext:
    """Run the six bound-calibration optimizations and collect the extrema.

    The config's type picks the solver, and each bound run is ``config``
    reseeded with its seed. Bound run k maximizes sign * component, so its
    best objective read back through _SIGN[k] is its component extremum. A
    bound run that finds no feasible solution ends at or below the penalty
    -1e12 and records NaN, which the membership functions treat as
    degenerate. Exact bounds come from ``oracle.exact_bounds``. The six runs
    step together in one ``drive`` call, and each ends as it would alone:
    six GA step generators, or one ACO generator over a six-row trail array
    whose blocks one ``_BoundFitness`` scores, each row as its own run.

    On an instance that ``model.no_feasible_subset`` certifies, every run
    would end at or below the penalty, so after the seed checks no run is
    made and every bound is NaN, the context the six runs would give.
    """
    if len(seeds) != len(BOUND_RUNS):
        raise DomainError(f"need {len(BOUND_RUNS)} seeds, got {len(seeds)}")
    configs = [dataclasses.replace(config, seed=seed) for seed in seeds]  # checks each seed
    if no_feasible_subset(instance):
        return MaximinContext(*[(math.nan, math.nan)] * 3, provenance="metaheuristic-estimated")
    if isinstance(config, GAConfig):
        reports = drive([
            (_ga_steps(instance, run), _BoundFitness(instance, r))
            for r, run in enumerate(configs)
        ])
    else:
        fitness = _BoundFitness(instance, 0)  # _colonies selects each row's run
        senses = [sense for _, sense in BOUND_RUNS]
        reports = drive(
            [(_colonies(instance, config, seeds, senses, fitness.select), fitness)], table=True)[0]
    # BOUND_RUNS holds each component's min and max runs, in COMPONENTS order.
    found = [
        sign * report.objective if report.objective > -_PENALTY_SCALE else math.nan
        for sign, report in zip(_SIGN.tolist(), reports)
    ]
    return MaximinContext(*zip(found[::2], found[1::2]), provenance="metaheuristic-estimated")


def solve_protocol(
    instance: Instance,
    algo: str,
    seed: int = 0,
    *,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    ga_config: Optional[GAConfig] = None,
    aco_config: Optional[ACOConfig] = None,
    ctx: Optional[MaximinContext] = None,
) -> tuple[SolverReport, MaximinContext]:
    """Full solve: calibrate bounds, then run the final maximin optimization.

    Bounds come in one of two ways. A given ``ctx`` (exact bounds, or bounds
    replayed from an earlier solve) is used as it is. Otherwise "ga" and
    "aco" calibrate them with six bound runs seeded seed+1..seed+6, so the
    whole protocol is reproducible from one seed, and "brute" computes exact
    bounds. "brute" searches exhaustively in one pass (``oracle.Scan``)
    that yields both its exact bounds and its optimum; ``enum_budget`` caps
    that enumeration.
    """
    if algo == "brute":
        start = time.perf_counter()
        scan = Scan(instance, enum_budget)
        if ctx is None:
            ctx = exact_bounds(instance, budget=enum_budget, scan=scan)
        result = scan.optimum(make_maximin_eval(instance, ctx))
        report = SolverReport(
            algorithm="brute",
            n=instance.n,
            m=instance.m_servers,
            seed=seed,
            best=result.best.sorted(),
            objective=result.best_value,
            iterations=result.evaluated_count,
            termination="exhaustive",
            trace=[result.best_value],
            elapsed_s=time.perf_counter() - start,
            bounds_id=ctx.bounds_id,
        )
        return (report, ctx)
    if algo not in ("ga", "aco"):
        raise DomainError(f"unknown algorithm {algo!r}")
    base = (ga_config or GAConfig()) if algo == "ga" else (aco_config or ACOConfig())
    config = dataclasses.replace(base, seed=seed)  # a bad seed fails before the bound runs
    if ctx is None:
        ctx = estimate_bounds(instance, config, bound_seeds(seed))
    # Looked up at call time: benchmarks/tracer.py patches run_ga and run_aco here.
    report = (run_ga if algo == "ga" else run_aco)(
        instance, make_maximin_eval(instance, ctx), config
    )
    report.bounds_id = ctx.bounds_id
    return (report, ctx)
