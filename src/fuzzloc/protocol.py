"""The seven-run solve protocol: six bound-calibration runs, then the final
maximin run evaluated against the calibrated membership functions."""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional, Sequence

import numpy as np

from .aco import ACOConfig, run_aco, _steps as _aco_steps
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
        self.component = COMPONENTS.index(name)
        self.penalty = -_PENALTY_SCALE if sense == "max" else _PENALTY_SCALE
        self.negate = solver == "ga" and sense == "min"

    def formula(
        self, feasible: np.ndarray, spreads: np.ndarray, violation: np.ndarray
    ) -> np.ndarray:
        values = np.where(
            feasible, spreads[..., self.component], self.penalty * (1.0 + violation)
        )
        return -values if self.negate else values


def _config(
    algo: str, seed: int, ga_config: Optional[GAConfig], aco_config: Optional[ACOConfig]
) -> GAConfig | ACOConfig:
    """The GA or ACO configuration of one run, reseeded with ``seed``."""
    if algo == "ga":
        return dataclasses.replace(ga_config or GAConfig(), seed=seed)
    return dataclasses.replace(aco_config or ACOConfig(), seed=seed)


def _run(
    instance: Instance,
    fitness: Fitness,
    algo: str,
    seed: int,
    ga_config: Optional[GAConfig],
    aco_config: Optional[ACOConfig],
) -> SolverReport:
    """The final GA or ACO run of a solve, maximizing ``fitness``, seeded
    with ``seed``. ``run_ga`` and ``run_aco`` are looked up as module
    globals on each call, so a wrapper patched onto this module sees the
    final run only: ``estimate_bounds`` steps the bound runs itself."""
    config = _config(algo, seed, ga_config, aco_config)
    if algo == "ga":
        return run_ga(instance, fitness, config)
    return run_aco(instance, fitness, config)


def estimate_bounds(
    instance: Instance,
    solver: str,
    seeds: Sequence[int],
    ga_config: Optional[GAConfig] = None,
    aco_config: Optional[ACOConfig] = None,
) -> MaximinContext:
    """Run the six bound-calibration optimizations and collect the extrema.

    ``solver`` is "ga" or "aco". A bound run that finds no feasible solution
    records NaN, which the membership functions treat as degenerate. Exact
    bounds come from ``oracle.exact_bounds``. The six runs step together in
    one ``drive`` call, and each ends as it would alone.
    """
    if solver not in ("ga", "aco"):
        raise DomainError(f"unknown solver handle {solver!r}")
    if len(seeds) != len(BOUND_RUNS):
        raise DomainError(f"need {len(BOUND_RUNS)} seeds, got {len(seeds)}")
    runs = []
    for (name, sense), seed in zip(BOUND_RUNS, seeds):
        config = _config(solver, seed, ga_config, aco_config)
        if solver == "ga":
            steps = _ga_steps(instance, config)
        else:
            steps = _aco_steps(instance, config, sense)
        runs.append((steps, _BoundFitness(instance, name, sense, solver)))
    outcomes = drive(runs)
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
    if ctx is None:
        ctx = estimate_bounds(
            instance, algo, bound_seeds(seed), ga_config=ga_config, aco_config=aco_config
        )
    report = _run(instance, make_maximin_eval(instance, ctx), algo, seed, ga_config, aco_config)
    report.bounds_id = ctx.bounds_id
    return (report, ctx)
