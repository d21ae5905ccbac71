"""The seven-run solve protocol: six bound-calibration runs, then the final
maximin run evaluated against the calibrated membership functions."""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional, Sequence

import numpy as np

from .aco import ACOConfig, run_aco
from .errors import DomainError
from .evaluation import (
    MaximinContext,
    component_or_violation,
    component_value,
    make_maximin_eval,
)
from .ga import GAConfig, run_ga
from .model import Instance, Kernel, Solution
from .oracle import DEFAULT_ENUM_BUDGET, enumerate_optimum, exact_bounds
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


class _BoundFitness:
    """Single-component objective with infeasibility pushed past any feasible
    value in the run's optimization direction.

    The GA always maximizes, so minimization runs hand it the negated
    component; the ACO takes the raw component plus a sense flag (its deposit
    rule differs between the two directions). ``block`` scores a (B, k) array
    of 0-based subsets in one kernel call, with the same bits per row as the
    per-subset call.
    """

    def __init__(self, instance: Instance, name: str, sense: str, solver: str):
        self.instance = instance
        self.name = name
        self.penalty = -_PENALTY_SCALE if sense == "max" else _PENALTY_SCALE
        self.negate = solver == "ga" and sense == "min"

    def __call__(self, solution: Solution) -> float:
        value, violation = component_or_violation(self.instance, solution, self.name)
        if value is None:
            value = self.penalty * (1.0 + violation)
        return -value if self.negate else value

    def block(self, idx: np.ndarray) -> np.ndarray:
        result = Kernel(self.instance, idx)
        lo, mid, hi = np.moveaxis(result.objective(), -1, 0)
        component = {"z1": mid - lo, "z2": mid, "z3": hi - mid}[self.name]
        values = np.where(
            result.feasible(), component, self.penalty * (1.0 + result.violation())
        )
        return -values if self.negate else values


def _bound_eval(instance: Instance, name: str, sense: str, solver: str) -> _BoundFitness:
    return _BoundFitness(instance, name, sense, solver)


def estimate_bounds(
    instance: Instance,
    solver: str,
    seeds: Sequence[int],
    ga_config: Optional[GAConfig] = None,
    aco_config: Optional[ACOConfig] = None,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> MaximinContext:
    """Run the six bound-calibration optimizations and collect the extrema.

    ``solver`` is "ga", "aco" or "oracle"; the oracle ignores the seeds and
    returns exact bounds by enumeration. A bound run that finds no feasible
    solution records NaN, which the membership functions treat as degenerate.
    """
    if solver == "oracle":
        return exact_bounds(instance, budget=enum_budget)
    if solver not in ("ga", "aco"):
        raise DomainError(f"unknown solver handle {solver!r}")
    if len(seeds) != len(BOUND_RUNS):
        raise DomainError(f"need {len(BOUND_RUNS)} seeds, got {len(seeds)}")
    bounds: dict[str, dict[str, float]] = {"z1": {}, "z2": {}, "z3": {}}
    for (name, sense), seed in zip(BOUND_RUNS, seeds):
        eval_fn = _bound_eval(instance, name, sense, solver)
        if solver == "ga":
            base = ga_config or GAConfig()
            report = run_ga(instance, eval_fn, dataclasses.replace(base, seed=seed))
        else:
            base = aco_config or ACOConfig()
            report = run_aco(instance, eval_fn, dataclasses.replace(base, seed=seed), sense=sense)
        value = component_value(instance, Solution(report.best), name)
        bounds[name][sense] = math.nan if value is None else value
    return MaximinContext(
        z1_bounds=(bounds["z1"]["min"], bounds["z1"]["max"]),
        z2_bounds=(bounds["z2"]["min"], bounds["z2"]["max"]),
        z3_bounds=(bounds["z3"]["min"], bounds["z3"]["max"]),
        provenance="metaheuristic-estimated",
    )


def solve_protocol(
    instance: Instance,
    algo: str,
    seed: int = 0,
    use_exact_bounds: bool = False,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
    ga_config: Optional[GAConfig] = None,
    aco_config: Optional[ACOConfig] = None,
    ctx: Optional[MaximinContext] = None,
) -> tuple[SolverReport, MaximinContext]:
    """Full solve: calibrate bounds, then run the final maximin optimization.

    Bound-run seeds are seed+1..seed+6 so the whole protocol is reproducible
    from one seed. ``algo`` "brute" uses exact bounds and exhaustive search.
    A given ``ctx`` (bounds replayed from an earlier solve) skips the
    calibration.
    """
    if algo == "brute":
        start = time.perf_counter()
        if ctx is None:
            ctx = exact_bounds(instance, budget=enum_budget)
        result = enumerate_optimum(instance, make_maximin_eval(instance, ctx), budget=enum_budget)
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
    if ctx is None and use_exact_bounds:
        ctx = exact_bounds(instance, budget=enum_budget)
    elif ctx is None:
        seeds = [seed + k for k in range(1, len(BOUND_RUNS) + 1)]
        ctx = estimate_bounds(
            instance, algo, seeds, ga_config=ga_config, aco_config=aco_config
        )
    fitness = make_maximin_eval(instance, ctx)
    if algo == "ga":
        report = run_ga(instance, fitness, dataclasses.replace(ga_config or GAConfig(), seed=seed))
    else:
        report = run_aco(instance, fitness, dataclasses.replace(aco_config or ACOConfig(), seed=seed))
    report.bounds_id = ctx.bounds_id
    return (report, ctx)
