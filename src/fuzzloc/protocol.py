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
    COMPONENTS,
    Fitness,
    KernelFitness,
    MaximinContext,
    component_value,
    drive,
    make_maximin_eval,
)
from .ga import GAConfig, run_ga, _steps as _ga_steps
from .model import Instance, Solution
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

_PENALTY_SCALE = 1e12


def bound_seeds(seed: int) -> list[int]:
    """Seeds of the six bound runs of a solve with the given seed."""
    return [seed + k for k in range(1, len(BOUND_RUNS) + 1)]


class _BoundFitness(KernelFitness):
    """Single-component objective with infeasibility pushed past any feasible
    value in the run's optimization direction.

    The GA always maximizes, so minimization runs hand it the negated
    component; the ACO takes the raw component plus a sense flag (its deposit
    rule differs between the two directions).
    """

    def __init__(self, instance: Instance, name: str, sense: str, solver: str):
        super().__init__(instance)
        self.pick = (..., COMPONENTS.index(name))  # the component of every row
        self.penalty = -_PENALTY_SCALE if sense == "max" else _PENALTY_SCALE
        self.negate = solver == "ga" and sense == "min"

    def formula(
        self, feasible: np.ndarray, spreads: np.ndarray, violation: np.ndarray
    ) -> np.ndarray:
        values = np.where(feasible, spreads[self.pick], self.penalty * (1.0 + violation))
        return -values if self.negate else values


class _BoundRows(_BoundFitness):
    """The six ACO bound runs' fitnesses as one, for the blocks that
    ``aco._colonies`` yields: ``select`` names the run of each row of the
    blocks to come, and each row gets its run's component and penalty."""

    def __init__(self, instance: Instance):
        super().__init__(instance, *BOUND_RUNS[0], "aco")  # until select
        runs = [_BoundFitness(instance, name, sense, "aco") for name, sense in BOUND_RUNS]
        self.components = np.array([run.pick[-1] for run in runs])
        self.penalties = np.array([run.penalty for run in runs])

    def select(self, runs: np.ndarray) -> None:
        self.pick = (np.arange(len(runs)), self.components[runs])
        self.penalty = self.penalties[runs]


def _run(instance: Instance, fitness: Fitness, config: GAConfig | ACOConfig) -> SolverReport:
    """The final GA or ACO run of a solve, maximizing ``fitness``; the
    config's type picks the solver. ``run_ga`` and ``run_aco`` are looked up
    as module globals on each call, so a wrapper patched onto this module
    sees the final run only: ``estimate_bounds`` steps the bound runs
    itself."""
    if isinstance(config, GAConfig):
        return run_ga(instance, fitness, config)
    return run_aco(instance, fitness, config)


def estimate_bounds(
    instance: Instance, config: GAConfig | ACOConfig, seeds: Sequence[int]
) -> MaximinContext:
    """Run the six bound-calibration optimizations and collect the extrema.

    The config's type picks the solver, and each bound run is ``config``
    reseeded with its seed. A bound run that finds no feasible solution
    records NaN, which the membership functions treat as degenerate. Exact
    bounds come from ``oracle.exact_bounds``. The six runs step together in
    one ``drive`` call, and each ends as it would alone: six GA step
    generators, or one ACO generator over a six-row trail array whose
    blocks one ``_BoundRows`` scores.
    """
    if len(seeds) != len(BOUND_RUNS):
        raise DomainError(f"need {len(BOUND_RUNS)} seeds, got {len(seeds)}")
    configs = [dataclasses.replace(config, seed=seed) for seed in seeds]
    if isinstance(config, GAConfig):
        outcomes = drive([
            (_ga_steps(instance, run), _BoundFitness(instance, name, sense, "ga"))
            for (name, sense), run in zip(BOUND_RUNS, configs)
        ])
    else:
        fitness = _BoundRows(instance)
        senses = [sense for _, sense in BOUND_RUNS]
        outcomes = drive([(_colonies(instance, configs, senses, fitness.select), fitness)])[0]
    found: dict[tuple[str, str], float] = {}
    for (name, sense), outcome in zip(BOUND_RUNS, outcomes):
        value = component_value(instance, Solution(outcome.best), name)
        found[name, sense] = math.nan if value is None else value
    return MaximinContext(
        *[(found[name, "min"], found[name, "max"]) for name in COMPONENTS],
        provenance="metaheuristic-estimated",
    )


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
    report = _run(instance, make_maximin_eval(instance, ctx), config)
    report.bounds_id = ctx.bounds_id
    return (report, ctx)
