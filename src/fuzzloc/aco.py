"""Ant colony optimizer: static desirability index, pheromone-guided subset
construction, and evaporation-plus-deposit updates with a pheromone cap."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .evaluation import Fitness, score_rows
from .model import Instance, Solution
from .reports import SolverReport
from .termination import Windows

TAU_MIN = 1e-6


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
        if self.population_coefficient < 1:
            raise DomainError("population_coefficient must be at least 1")


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
    [TAU_MIN, max_pheromone], eta is positive, and ACOConfig rejects
    non-finite exponents."""
    return config.alpha_exp * np.log(tau) + config.beta_exp * np.log(eta)


def _selection_probabilities(
    state: PheromoneState, eta: np.ndarray, unchosen: np.ndarray, config: ACOConfig
) -> np.ndarray:
    log_w = _log_weights(state.tau[unchosen], eta[unchosen], config)
    weights = np.exp(log_w - log_w.max())
    return weights / weights.sum()


def select_next(
    state: PheromoneState,
    eta: np.ndarray,
    chosen: set[int],
    config: ACOConfig,
    rng: np.random.Generator,
) -> int:
    """Sample one more node (1-based) proportionally to tau^a * eta^b.

    The stepwise reference for _sample_colony, which draws whole subsets."""
    n = state.tau.size
    unchosen = np.asarray([j for j in range(n) if (j + 1) not in chosen], dtype=int)
    if unchosen.size == 0:
        raise DomainError("no unchosen nodes left")
    probs = _selection_probabilities(state, eta, unchosen, config)
    return int(unchosen[rng.choice(unchosen.size, p=probs)]) + 1


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
    noise are a draw from the same distribution as m select_next calls
    (sequential proportional sampling without replacement). One (ants, n)
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
    many iterations (stagnation). Each colony is sampled first and scored in
    one ``score_rows`` call, then walked in ant order.
    """
    if sense not in ("max", "min"):
        raise DomainError(f"sense must be 'max' or 'min', got {sense!r}")
    start = time.perf_counter()
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
    iterations = 0
    while True:
        improved = False
        colony_best = -math.inf if sense == "max" else math.inf
        idx = _sample_colony(_log_weights(state.tau, eta, config), m, ants, rng)
        values = score_rows(eval_fn, idx)
        for ant, value in enumerate(values):
            if better(value, colony_best):
                colony_best = value
            if best is None or better(value, best_value):
                best, best_value = (idx[ant] + 1).tolist(), value
                improved = True
        state = _deposit(state, idx, values, config, sense)
        iterations += 1
        trace.append(best_value)
        termination = windows.step(improved, colony_best == best_value)
        if termination:
            break
    return SolverReport(
        algorithm="aco",
        n=n,
        m=m,
        seed=config.seed,
        best=best,
        objective=best_value,
        iterations=iterations,
        termination=termination,
        trace=trace,
        elapsed_s=time.perf_counter() - start,
        evaluations=ants * iterations,
    )
