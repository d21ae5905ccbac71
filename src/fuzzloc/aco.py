"""Ant colony optimizer: static desirability index, pheromone-guided subset
construction, and evaporation-plus-deposit updates with a pheromone cap."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .evaluation import Fitness, Steps
from .model import Instance, Solution
from .reports import Outcome, SolverReport, run_solver
from .termination import Windows, check_windows

TAU_MIN = 1e-6
# Largest accepted alpha_exp and beta_exp. Every positive double has
# |log x| < 746 (the smallest subnormal gives about -744.4), so below this
# bound each term of _log_weights stays under half the largest double and
# their sum stays finite.
MAX_EXPONENT = sys.float_info.max / (2 * 746)


@dataclass
class ACOConfig:
    evaporation_rate: float = 0.97  # trail persistence: fraction of tau kept
    max_pheromone: float = 200.0  # deposit scale and cap on accumulated tau
    population_coefficient: int = 2
    alpha_exp: float = 0.75  # pheromone exponent
    beta_exp: float = 0.75  # heuristic exponent
    seed: int = 0
    convergence_limit: Optional[int] = None  # default floor(n * sqrt(m))
    stagnation_limit: Optional[int] = None  # default convergence_limit ** 2

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.alpha_exp, self.beta_exp, self.max_pheromone))):
            raise DomainError("alpha_exp, beta_exp and max_pheromone must be finite")
        if not (0 < self.evaporation_rate < 1):
            raise DomainError("evaporation_rate must lie in (0, 1)")
        if self.max_pheromone <= 0:
            raise DomainError("max_pheromone must be positive")
        if self.alpha_exp <= 0 or self.beta_exp <= 0:
            raise DomainError("exponents must be positive")
        if self.alpha_exp > MAX_EXPONENT or self.beta_exp > MAX_EXPONENT:
            raise DomainError(f"exponents must not exceed {MAX_EXPONENT:.4g}")
        if self.population_coefficient < 1:
            raise DomainError("population_coefficient must be at least 1")
        check_windows(self.convergence_limit, self.stagnation_limit)


@dataclass
class PheromoneState:
    tau: np.ndarray  # one trail level per node

    @classmethod
    def initial(cls, n: int) -> "PheromoneState":
        return cls(tau=np.ones(n))


def heuristic_index(instance: Instance) -> np.ndarray:
    """Static node desirability: mid service rate over total distance to all
    other nodes, normalized to sum to 1."""
    raw = instance.service[:, 1] / instance.distance.sum(axis=1)
    return raw / raw.sum()


def ant_count(n: int, m: int, coefficient: int) -> int:
    if not (1 <= m < n):
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    return coefficient * math.ceil(n / m)


def _log_weights(tau: np.ndarray, eta: np.ndarray, config: ACOConfig) -> np.ndarray:
    """Log selection weights alpha * log(tau) + beta * log(eta). They are
    finite for every trail the package creates: updates clip tau to
    [TAU_MIN, max_pheromone], eta is positive, and ACOConfig bounds the
    exponents by MAX_EXPONENT."""
    return config.alpha_exp * np.log(tau) + config.beta_exp * np.log(eta)


def construct_solution(
    state: PheromoneState,
    eta: np.ndarray,
    instance: Instance,
    config: ACOConfig,
    rng: np.random.Generator,
) -> Solution:
    """Draw m_servers distinct nodes, each proportionally to tau^a * eta^b."""
    log_w = _log_weights(state.tau, eta, config)
    return Solution(_sample_colony(log_w, instance.m_servers, 1, rng)[0] + 1)


def _sample_colony(
    log_w: np.ndarray, m: int, ants: int, rng: np.random.Generator
) -> np.ndarray:
    """One subset per ant as an (ants, m) array of 0-based, ascending node
    indices, by the Gumbel top-k trick: the m largest of log_w plus Gumbel
    noise are a draw from the same distribution as m sequential draws, each
    proportional to the weights of the nodes not yet chosen (tests/test_aco.py
    keeps that stepwise sampler as the reference). One (ants, n)
    Gumbel draw consumes the generator as ``ants`` draws of n values would,
    row by row."""
    keys = log_w + rng.gumbel(size=(ants, log_w.size))
    return np.sort(np.argpartition(-keys, m - 1, axis=1)[:, :m], axis=1)


def pheromone_update(
    state: PheromoneState,
    colony: Sequence[tuple[Solution, float]],
    config: ACOConfig,
    sense: str = "max",
) -> PheromoneState:
    """Evaporate, deposit per ant on every node it opened, then clamp.

    Deposits are theta*F under maximization and theta/F under minimization.
    An ant with a non-finite F, a negative F under maximization or a
    nonpositive F under minimization deposits nothing. A penalized ant of a
    minimization bound run has F = +1e12 * (1 + violation), so it still
    deposits theta/F, about 2e-10. The colony's solutions must be of one size.
    """
    idx = np.array([solution.sorted() for solution, _ in colony], dtype=np.intp) - 1
    return _deposit(state, idx, [value for _, value in colony], config, sense)


def _deposit(
    state: PheromoneState,
    idx: np.ndarray,
    values: Sequence[float],
    config: ACOConfig,
    sense: str,
) -> PheromoneState:
    """pheromone_update for a colony given as (B, k) 0-based node indices and
    the B fitness values. Each node receives its deposits in ant order."""
    tau = state.tau * config.evaporation_rate
    values = np.asarray(values, dtype=float)
    if sense == "max":
        kept = np.isfinite(values) & (values >= 0)
        amounts = config.max_pheromone * values[kept]
    else:
        kept = np.isfinite(values) & (values > 0)
        with np.errstate(over="ignore"):  # inf for a subnormal F, as in Python
            amounts = config.max_pheromone / values[kept]
    nodes = idx[kept]
    np.add.at(tau, nodes.ravel(), np.repeat(amounts, nodes.shape[-1]))
    return PheromoneState(tau=np.clip(tau, TAU_MIN, config.max_pheromone))


def run_aco(
    instance: Instance, eval_fn: Fitness, config: ACOConfig, sense: str = "max"
) -> SolverReport:
    """Iterate colonies until the colony converges on the global best or
    improvement stops.

    Same two windows as the genetic algorithm: the per-iteration colony best
    equals the global best for floor(n * sqrt(m)) consecutive iterations
    (convergence), or the global best goes unimproved for the square of that
    many iterations (stagnation). Each colony is sampled first and scored as
    one block of ``evaluation.drive``, then walked in ant order.
    """
    return run_solver("aco", instance, config.seed, _steps(instance, config, sense), eval_fn)


def _steps(instance: Instance, config: ACOConfig, sense: str) -> Steps[Outcome]:
    """run_aco as a step generator: it yields one colony per iteration."""
    if sense not in ("max", "min"):
        raise DomainError(f"sense must be 'max' or 'min', got {sense!r}")
    rng = np.random.default_rng(config.seed)
    better = (lambda a, b: a > b) if sense == "max" else (lambda a, b: a < b)
    n, m = instance.n, instance.m_servers
    windows = Windows(n, m, config.convergence_limit, config.stagnation_limit)
    ants = ant_count(n, m, config.population_coefficient)
    eta = heuristic_index(instance)
    state = PheromoneState.initial(n)
    best: Optional[list[int]] = None
    best_value = -math.inf if sense == "max" else math.inf
    trace: list[float] = []
    while True:
        improved = False
        colony_best = -math.inf if sense == "max" else math.inf
        idx = _sample_colony(_log_weights(state.tau, eta, config), m, ants, rng)
        values = yield idx
        for ant, value in enumerate(values):
            if better(value, colony_best):
                colony_best = value
            if best is None or better(value, best_value):
                best, best_value = (idx[ant] + 1).tolist(), value
                improved = True
        state = _deposit(state, idx, values, config, sense)
        trace.append(best_value)
        termination = windows.step(improved, colony_best == best_value)
        if termination:
            return Outcome(best, best_value, termination, trace, ants * len(trace))
