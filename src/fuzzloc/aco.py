"""Ant colony optimizer: static desirability index, pheromone-guided subset
construction, and evaporation-plus-deposit updates with a pheromone cap.
Runs that step together keep their trails as the rows of one array."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .evaluation import Fitness, Steps, drive
from .model import Instance, figures_table
from .reports import SolverReport
from .termination import Run, check_run

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
    log_w = np.log(tau)
    return np.add(np.multiply(log_w, config.alpha_exp, out=log_w), beta_log_eta, out=log_w)


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
    picks = np.negative(keys, out=keys).argpartition(m - 1, axis=-1)[..., :m].reshape(-1, m)
    picks.sort(axis=-1)
    return picks


def _deposit_rule(maximize: np.ndarray) -> tuple:
    """_update's rule for ants that maximize where ``maximize`` is set: their
    signs, least depositing F, and flags, one bool when all share a sense."""
    maximize = maximize if maximize.any() and not maximize.all() else bool(maximize.all())
    return np.where(maximize, 1.0, -1.0), np.where(maximize, 0.0, 5e-324), maximize


@np.errstate(over="ignore", divide="ignore")
def _update(tau: np.ndarray, nodes: np.ndarray, values: Sequence[float], config: ACOConfig,
            rule: tuple) -> np.ndarray:
    """The (R, n) trails after one colony per row: evaporate, deposit per
    ant on every node it opened, then clip to [TAU_MIN, max_pheromone], with
    one pass of each for all R runs (the MAX-MIN Ant System rule).

    ``nodes`` and ``values`` hold the colonies one after another, each ant's
    nodes as indices into the flattened trails (node j of run r at
    r * n + j), and ``rule`` is the _deposit_rule of the flags of the ants
    of maximizing runs. Every run maximizes its values. An ant's F is its
    value in a maximizing run and -value, the objective it minimizes, in a
    minimizing run. Deposits are theta*F under maximization and theta/F
    under minimization, with theta = max_pheromone. An ant with a
    non-finite F, a negative F under maximization or a nonpositive F under
    minimization deposits nothing. A penalized ant of a minimization bound
    run has value -1e12 * (1 + violation), so F = 1e12 * (1 + violation),
    and it still deposits theta/F, about 2e-10. Each node receives its
    deposits in ant order; an ant that deposits nothing adds 0.0, which
    leaves every positive trail as it is. A subnormal F deposits inf, as in
    Python, and deposits near the float maximum may add up to inf on one
    node; the cap clips both."""
    sign, floor, maximize = rule
    f = np.multiply(values, sign)
    kept = (f >= floor) & (f < math.inf)
    trails = tau * config.evaporation_rate
    theta = config.max_pheromone
    if isinstance(maximize, bool):
        amounts = np.multiply(f, theta, out=f) if maximize else np.divide(theta, f, out=f)
    else:  # the branch an ant does not take may overflow; np.where drops it
        amounts = np.where(maximize, theta * f, theta / f)
    deposits = np.where(kept, amounts, 0.0).repeat(nodes.shape[-1])
    np.add.at(trails.reshape(-1), nodes.ravel(), deposits)
    return np.minimum(np.maximum(trails, TAU_MIN, out=trails), theta, out=trails)


def run_aco(instance: Instance, eval_fn: Fitness, config: ACOConfig) -> SolverReport:
    """Iterate colonies that maximize ``eval_fn`` until the colony converges
    on the global best or improvement stops.

    Same two windows as the genetic algorithm: the per-iteration colony best
    equals the global best for floor(n * sqrt(m)) consecutive iterations
    (convergence), or the global best goes unimproved for the square of that
    many iterations (stagnation). Each colony is sampled first and scored as
    one block of ``evaluation.drive``; its first ant that beats the best so
    far becomes the new best, and a NaN value ranks below every other value,
    as -inf.
    """
    return drive([(_colonies(instance, config, [config.seed], ["max"]), eval_fn)])[0][0]


def _colonies(
    instance: Instance,
    config: ACOConfig,
    seeds: Sequence[int],
    senses: Sequence[str],
    select: Optional[Callable[[np.ndarray], None]] = None,
) -> Steps[list[SolverReport]]:
    """R ACO runs as one step generator over one (R, n) trail array; it
    returns their SolverReports in order, each the record of the run's
    termination.Run, which times it from the first step to the round it
    ends in.

    Every run maximizes the values sent for its rows. The runs share
    ``config``, its windows included; run r takes its seed from seeds[r] and
    its sense from senses[r], which picks only its deposit rule (see
    _update): a "min" run's values are minus its objective. Each iteration
    yields the live runs' colonies as one block, run after run. ``select``,
    when given, learns the run of each row of the blocks to come: before the
    first block and whenever a run ends and its trail row is dropped. Every
    run ends as it would alone: it draws its Gumbel noise from its own
    generator, and the walk keeps each run's first ant that is strictly
    better than its best so far, scoring a NaN value as -inf. The first step
    builds the instance's figures table (model.figures_table).
    """
    if any(sense not in ("max", "min") for sense in senses):
        raise DomainError(f"sense must be 'max' or 'min', got {senses!r}")
    runs = [Run("aco", instance, config, seed) for seed in seeds]
    reports = [run.report for run in runs]
    figures_table(instance)
    n, m = instance.n, instance.m_servers
    ants = ant_count(n, m, config.population_coefficient)
    beta_log_eta = config.beta_exp * np.log(heuristic_index(instance))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    live = list(range(len(runs)))  # the runs of the trail rows, in order
    tau = np.ones((len(runs), n))
    while live:
        rule = _deposit_rule(np.repeat([senses[r] == "max" for r in live], ants))
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
            values = np.asarray((yield idx), dtype=float)
            scores = np.fmax(values.reshape(len(live), ants), -math.inf)  # NaN last
            picks = scores.argmax(axis=1)
            tau = _update(tau, idx + offsets, values, config, rule)
            for i, (r, pick, ranked) in enumerate(zip(live, picks.tolist(), scores.tolist())):
                report, top = reports[r], ranked[pick]
                improved = report.best is None or top > report.objective
                if improved:
                    report.best, report.objective = (idx[i * ants + pick] + 1).tolist(), top
                ended[i] = bool(runs[r].step(improved, top == report.objective))
        kept = [not gone for gone in ended]
        live = list(compress(live, kept))
        tau = tau[kept]
    for report in reports:
        report.evaluations = ants * report.iterations
    return reports
