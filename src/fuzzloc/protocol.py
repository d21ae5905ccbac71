"""The seven-run solve protocol: six bound-calibration runs, then the final
maximin run evaluated against the calibrated membership functions."""

from __future__ import annotations

import math
from typing import Optional

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
from .reports import Run, SolverReport, check_seed

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


def estimate_bounds(instance: Instance, config: GAConfig | ACOConfig,
                    seed: int = 0) -> MaximinContext:
    """Run the six bound-calibration optimizations and collect the extrema.

    The config's type picks the solver (any other type is a DomainError),
    and bound run k (from 0) runs ``config`` at seed + k + 1, so a solve is
    reproducible from its one seed, which is checked first: seed -1 must
    not pass as bound seeds 0-5. Bound run k maximizes sign * component, so
    its best objective read back through _SIGN[k] is its component
    extremum. A bound run that finds no feasible solution ends at or below
    the penalty -1e12 and records NaN, which the membership functions treat
    as degenerate. Exact bounds come from ``oracle.exact_bounds``. The six
    runs step together in one ``drive`` call, and each ends as it would
    alone: six GA step generators, or one ACO generator over a six-row
    trail array whose blocks one ``_BoundFitness`` scores, each row as its
    own run, and whose deposits take each run's sign from _SIGN.

    On an instance that ``model.no_feasible_subset`` certifies, every run
    would end at or below the penalty, so no run is made and every bound is
    NaN, the context the six runs would give.
    """
    check_seed(seed)
    if not isinstance(config, (GAConfig, ACOConfig)):
        raise DomainError(f"config must be a GAConfig or an ACOConfig, got {type(config).__name__}")
    if no_feasible_subset(instance):
        return MaximinContext(*[(math.nan, math.nan)] * 3, provenance="metaheuristic-estimated")
    seeds = [seed + k + 1 for k in range(len(BOUND_RUNS))]
    if isinstance(config, GAConfig):
        reports = drive([
            (_ga_steps(instance, config, bound_seed), _BoundFitness(instance, r))
            for r, bound_seed in enumerate(seeds)
        ])
    else:
        fitness = _BoundFitness(instance, 0)  # _colonies selects each row's run
        reports = drive([(_colonies(instance, config, seeds, _SIGN, fitness.select), fitness)])[0]
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
    "aco" calibrate them with the six bound runs of ``estimate_bounds``, so
    the whole protocol is reproducible from one seed, and "brute" computes
    exact bounds. "brute" searches exhaustively in one pass (``oracle.Scan``)
    that yields both its exact bounds and its optimum; ``enum_budget`` caps
    that enumeration. Its report is the record of a reports.Run, as every
    GA and ACO report is, timed over the scan and the exact bounds. A "ga"
    or "aco" solve given a config of another class raises DomainError first.
    """
    if algo == "brute":
        run = Run("brute", instance, seed)
        scan = Scan(instance, enum_budget)
        if ctx is None:
            ctx = exact_bounds(instance, budget=enum_budget, scan=scan)
        result = scan.optimum(make_maximin_eval(instance, ctx))
        report = run.report
        report.best = result.best.sorted()
        report.objective = result.best_value
        report.iterations = result.evaluated_count
        report.trace.append(result.best_value)
        run.finish("exhaustive")
    elif algo in ("ga", "aco"):
        kind, config = (GAConfig, ga_config) if algo == "ga" else (ACOConfig, aco_config)
        config = kind() if config is None else config
        if not isinstance(config, kind):
            raise DomainError(f"{algo} needs a {kind.__name__}, got {type(config).__name__}")
        if ctx is None:
            ctx = estimate_bounds(instance, config, seed)
        # Looked up at call time: benchmarks/tracer.py patches run_ga and run_aco here.
        report = (run_ga if algo == "ga" else run_aco)(
            instance, make_maximin_eval(instance, ctx), config, seed
        )
    else:
        raise DomainError(f"unknown algorithm {algo!r}")
    report.bounds_id = ctx.bounds_id
    return (report, ctx)
