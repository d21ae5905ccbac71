"""Ant colony optimizer: static desirability index, pheromone-guided subset
construction, and evaporation-plus-deposit updates with a pheromone cap.
Runs that step together keep their trails as the rows of one array."""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .evaluation import Fitness, Steps
from .model import Instance
from .reports import Outcome, SolverReport, run_solver
from .termination import Windows, check_run

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
        check_run(self.seed, self.convergence_limit, self.stagnation_limit)


def heuristic_index(instance: Instance) -> np.ndarray:
    """Static node desirability: mid service rate over total distance to all
    other nodes, normalized to sum to 1."""
    raw = instance.service[:, 1] / instance.distance.sum(axis=1)
    return raw / raw.sum()


def ant_count(n: int, m: int, coefficient: int) -> int:
    if not (1 <= m < n):
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    return coefficient * math.ceil(n / m)


def _log_weights(tau: np.ndarray, beta_log_eta: np.ndarray, config: ACOConfig) -> np.ndarray:
    """Log selection weights alpha * log(tau) + beta * log(eta), given the
    heuristic term beta * log(eta), which a run computes once. They are
    finite for every trail the package creates: updates clip tau to
    [TAU_MIN, max_pheromone], eta is positive, and ACOConfig bounds the
    exponents by MAX_EXPONENT."""
    return config.alpha_exp * np.log(tau) + beta_log_eta


def _sample_colonies(log_w: np.ndarray, m: int, noise: np.ndarray) -> np.ndarray:
    """One colony per row of the (R, n) log weights, given the (R, ants, n)
    Gumbel noise of each run's generator (overwritten here), as one
    (R * ants, m) array of 0-based, ascending node indices: run r's ants
    are rows r * ants to (r + 1) * ants - 1. Each subset comes from the
    Gumbel top-k trick: the m largest of log_w plus Gumbel noise are a draw
    from the same distribution as m sequential draws, each proportional to
    the weights of the nodes not yet chosen (tests/test_aco.py keeps that
    stepwise sampler as the reference)."""
    keys = np.add(noise, log_w[:, None, :], out=noise)
    picks = np.negative(keys, out=keys).argpartition(m - 1, axis=-1)[..., :m]
    return np.sort(picks, axis=-1).reshape(-1, m)


def _update(
    tau: np.ndarray,
    nodes: np.ndarray,
    values: Sequence[float],
    config: ACOConfig,
    maximize: np.ndarray,
) -> np.ndarray:
    """The (R, n) trails after one colony per row: evaporate, deposit per
    ant on every node it opened, then clip to [TAU_MIN, max_pheromone], with
    one pass of each for all R runs (the MAX-MIN Ant System rule).

    ``nodes`` and ``values`` hold the colonies one after another, each ant's
    nodes as indices into the flattened trails (node j of run r at
    r * n + j), and ``maximize`` flags the ants of maximizing runs. Deposits
    are theta*F under maximization and theta/F under minimization, with
    theta = max_pheromone. An ant with a non-finite F, a negative F under
    maximization or a nonpositive F under minimization deposits nothing. A
    penalized ant of a minimization bound run has F = +1e12 * (1 +
    violation), so it still deposits theta/F, about 2e-10. Each node
    receives its deposits in ant order; an ant that deposits nothing adds
    0.0, which leaves every positive trail as it is."""
    values = np.asarray(values, dtype=float)
    # inf for a subnormal F, as in Python; the other branch of np.where may
    # divide by zero or overflow, and its values are dropped.
    with np.errstate(over="ignore", divide="ignore"):
        amounts = np.where(maximize, config.max_pheromone * values, config.max_pheromone / values)
    # F >= 0 under maximization, F > 0 (at least the least subnormal) else
    kept = (values >= np.where(maximize, 0.0, 5e-324)) & (values < math.inf)
    trails = tau * config.evaporation_rate
    deposits = np.where(kept, amounts, 0.0).repeat(nodes.shape[-1])
    np.add.at(trails.reshape(-1), nodes.ravel(), deposits)
    return np.minimum(np.maximum(trails, TAU_MIN, out=trails), config.max_pheromone, out=trails)


def run_aco(instance: Instance, eval_fn: Fitness, config: ACOConfig) -> SolverReport:
    """Iterate colonies that maximize ``eval_fn`` until the colony converges
    on the global best or improvement stops.

    Same two windows as the genetic algorithm: the per-iteration colony best
    equals the global best for floor(n * sqrt(m)) consecutive iterations
    (convergence), or the global best goes unimproved for the square of that
    many iterations (stagnation). Each colony is sampled first and scored as
    one block of ``evaluation.drive``; its first ant that beats the best so
    far becomes the new best.
    """
    return run_solver("aco", instance, config.seed, _steps(instance, config), eval_fn)


def _steps(instance: Instance, config: ACOConfig) -> Steps[Outcome]:
    """run_aco as a step generator: it yields one colony per iteration."""
    return (yield from _colonies(instance, [config], ["max"]))[0]


def _trail_parameters(config: ACOConfig) -> ACOConfig:
    return dataclasses.replace(config, seed=0, convergence_limit=None, stagnation_limit=None)


def _colonies(
    instance: Instance,
    configs: Sequence[ACOConfig],
    senses: Sequence[str],
    select: Optional[Callable[[np.ndarray], None]] = None,
) -> Steps[list[Outcome]]:
    """R ACO runs as one step generator over one (R, n) trail array; it
    returns their Outcomes in order.

    Run r takes its seed and windows from configs[r] and its sense from
    senses[r]; the runs share every other parameter. Each iteration yields
    the live runs' colonies as one block, run after run. ``select``, when
    given, learns the run of each row of the blocks to come: before the
    first block and whenever a run ends and its trail row is dropped. Every
    run ends as it would alone: it draws its Gumbel noise from its own
    generator, and the walk keeps each run's first ant that is strictly
    better than its best so far.
    """
    if any(sense not in ("max", "min") for sense in senses):
        raise DomainError(f"sense must be 'max' or 'min', got {senses!r}")
    config = configs[0]
    if any(_trail_parameters(c) != _trail_parameters(config) for c in configs):
        raise DomainError("runs stepped together must differ only in seed and windows")
    n, m = instance.n, instance.m_servers
    ants = ant_count(n, m, config.population_coefficient)
    beta_log_eta = config.beta_exp * np.log(heuristic_index(instance))
    rngs = [np.random.default_rng(c.seed) for c in configs]
    windows = [Windows(n, m, c.convergence_limit, c.stagnation_limit) for c in configs]
    # A value times its run's sign ranks the better values higher.
    signs = [1.0 if sense == "max" else -1.0 for sense in senses]
    best: list = [None] * len(configs)
    best_value: list = [None] * len(configs)
    traces: list[list[float]] = [[] for _ in configs]
    outcomes: list = [None] * len(configs)
    # One entry per live run: its run, its trails and its best times sign.
    live = list(range(len(configs)))
    tau = np.ones((len(configs), n))
    signed_best = [-math.inf] * len(configs)
    while live:
        sign = np.array([signs[r] for r in live])[:, None]
        maximize = np.repeat(sign[:, 0] > 0, ants)
        # run i's trails start at i * n in the flattened trail array
        offsets = np.repeat(np.arange(len(live)) * n, ants)[:, None]
        if select:
            select(np.repeat(live, ants))
        gumbel = [rngs[r].gumbel for r in live]
        noise = np.empty((len(live), ants, n))
        ended = [False] * len(live)
        while not any(ended):
            for i, draw in enumerate(gumbel):
                noise[i] = draw(size=(ants, n))
            idx = _sample_colonies(_log_weights(tau, beta_log_eta, config), m, noise)
            sent = yield idx
            values = np.asarray(sent, dtype=float)
            scores = np.fmax(values.reshape(len(live), ants) * sign, -math.inf)  # NaN last
            picks = scores.argmax(axis=1)
            if best[live[0]] is None:  # a run's first ant is its first best, even when NaN
                picks[np.isnan(values[::ants])] = 0
            tau = _update(tau, idx + offsets, values, config, maximize)
            for i, (r, pick, ranked) in enumerate(zip(live, picks.tolist(), scores.tolist())):
                top = ranked[pick]
                improved = best[r] is None or top > signed_best[i]
                if improved:
                    row = i * ants + pick
                    best[r], best_value[r] = (idx[row] + 1).tolist(), sent[row]
                    signed_best[i] = signs[r] * best_value[r]
                termination = windows[r].step(improved, top == signed_best[i])
                traces[r].append(best_value[r])
                if termination:
                    evaluations = ants * len(traces[r])
                    outcomes[r] = Outcome(
                        best[r], best_value[r], termination, traces[r], evaluations
                    )
                    ended[i] = True
        kept = [not gone for gone in ended]
        live, signed_best = list(compress(live, kept)), list(compress(signed_best, kept))
        tau = tau[kept]
    return outcomes
