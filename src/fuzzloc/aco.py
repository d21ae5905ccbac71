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
from .evaluation import Fitness, MaximinFitness, Steps, drive
from .fuzzy import check_count, is_number
from .model import BLOCK_SIZE, Instance, figures_table, no_feasible_subset
from .reports import Run, SolverReport

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
    stagnation_limit: Optional[int] = None  # None: reports.Run's default

    def __post_init__(self) -> None:
        for name in ("evaporation_rate", "max_pheromone", "alpha_exp", "beta_exp"):
            if not is_number(getattr(self, name)):
                raise DomainError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not all(map(math.isfinite, (self.alpha_exp, self.beta_exp, self.max_pheromone))):
            raise DomainError("alpha_exp, beta_exp and max_pheromone must be finite")
        if not (0 < self.evaporation_rate < 1):
            raise DomainError("evaporation_rate must lie in (0, 1)")
        if self.max_pheromone < TAU_MIN:  # else every trail clips to the cap for good
            raise DomainError(f"max_pheromone must be at least the trail floor "
                              f"TAU_MIN = {TAU_MIN:g}, got {self.max_pheromone!r}")
        if self.alpha_exp <= 0 or self.beta_exp <= 0:
            raise DomainError("exponents must be positive")
        if self.alpha_exp > MAX_EXPONENT or self.beta_exp > MAX_EXPONENT:
            raise DomainError(f"exponents must not exceed {MAX_EXPONENT:.4g}")
        check_count("population_coefficient", self.population_coefficient, 1)
        if self.stagnation_limit is not None:
            check_count("stagnation_limit", self.stagnation_limit, 1)


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


@np.errstate(over="ignore", divide="ignore")
def _update(tau: np.ndarray, nodes: np.ndarray, values: Sequence[float], config: ACOConfig,
            signs: np.ndarray, maximize) -> np.ndarray:
    """The (R, n) trails after one colony per row: evaporate, deposit per
    ant on every node it opened, then clip to [TAU_MIN, max_pheromone], with
    one pass of each for all R runs (the MAX-MIN Ant System rule).

    ``nodes`` and ``values`` hold the colonies one after another, each ant's
    nodes as indices into the flattened trails (node j of run r at
    r * n + j). ``signs`` holds each ant's sign, 1.0 for an ant of a
    maximizing run and -1.0 for one of a minimizing run, and ``maximize``
    is signs > 0, one bool when all the ants share a sign. Every run
    maximizes its values. An ant's F is sign * value: its value in a
    maximizing run and -value, the objective it minimizes, in a minimizing
    run. An ant deposits only when 0 < F < inf: theta*F under maximization
    and theta/F under minimization, with theta = max_pheromone. A penalized
    ant of a minimization bound run has value -1e12 * (1 + violation), so
    F = 1e12 * (1 + violation), and it still deposits theta/F, about 2e-10.
    Each node receives its deposits in ant order; an ant that deposits
    nothing adds +0.0, which leaves every trail (never -0.0) as it is, so
    colonies in which no ant deposits get the bytes of _evaporate(tau). A
    subnormal F deposits inf, as in Python, and deposits near the float
    maximum may add up to inf on one node; the cap clips both."""
    f = np.multiply(values, signs)
    kept = (f > 0.0) & (f < math.inf)
    theta = config.max_pheromone
    if isinstance(maximize, bool):
        amounts = np.multiply(f, theta, out=f) if maximize else np.divide(theta, f, out=f)
    else:  # the branch an ant does not take may overflow; np.where drops it
        amounts = np.where(maximize, theta * f, theta / f)
    deposits = np.where(kept, amounts, 0.0).repeat(nodes.shape[-1])
    return _evaporate(tau, config, nodes.ravel(), deposits)


def _evaporate(tau: np.ndarray, config: ACOConfig, nodes: Optional[np.ndarray] = None,
               deposits: Optional[np.ndarray] = None) -> np.ndarray:
    """The (R, n) trails after evaporation, the ``deposits`` added at the
    flattened ``nodes`` when given, and the clip to [TAU_MIN, max_pheromone],
    in that order: the last step of _update, and the first of
    _evaporations."""
    trails = tau * config.evaporation_rate
    if deposits is not None:
        np.add.at(trails.reshape(-1), nodes, deposits)
    return np.minimum(np.maximum(trails, TAU_MIN, out=trails), config.max_pheromone, out=trails)


def _evaporations(tau: np.ndarray, span: int, config: ACOConfig) -> np.ndarray:
    """The (span, R, n) trails of span - 1 rounds that only evaporate from
    the (R, n) trails ``tau``, then the trails after them, span >= 2: row i
    holds the trails after i _evaporate steps, bit for bit, so row 0 is
    ``tau`` and row 1 is _evaporate(tau). Rows 2 on are the running product
    of row 1 and the evaporation rate, clipped once as _evaporate clips.

    The running product is the chain of steps. Each product x * rho is the
    IEEE operation of _evaporate, and with rho < 1 it rounds to at most x.
    Row 1 lies in [TAU_MIN, max_pheromone] (ACOConfig keeps the cap at
    least TAU_MIN), so no later product rises above the cap, which binds
    only in row 1, where trails of 1.0 above a cap below 1 meet it. A trail
    that the chain clips up to TAU_MIN stays there; its running product,
    below TAU_MIN from then on or 0 after an underflow, clips to it too."""
    rows = np.empty((span,) + tau.shape)
    rows[0] = tau
    rows[1] = _evaporate(tau, config)
    rows[2:] = config.evaporation_rate
    products = np.multiply.accumulate(rows[1:], axis=0, out=rows[1:])
    np.minimum(np.maximum(products, TAU_MIN, out=products), config.max_pheromone, out=products)
    return rows


def run_aco(instance: Instance, eval_fn: Fitness, config: ACOConfig,
            seed: int = 0) -> SolverReport:
    """Iterate colonies from ``seed`` that maximize ``eval_fn``, one per
    iteration, until a window of reports.Run closes; Run checks the seed,
    and Run.step decides which colonies improve the run.

    Colonies are sampled and scored in passes, one ``evaluation.drive``
    block each (see _colonies). The run is quiet, and a pass holds the
    colonies of every round left of those the run surely takes, when no
    colony can deposit: ``eval_fn`` is exactly a MaximinFitness (a subclass
    may score an infeasible subset above 0) and its instance has no
    feasible subset (model.no_feasible_subset), so every value is a penalty
    below 0. Elsewhere a pass is one colony. A colony's value is that of its
    first best ant, and a NaN value ranks below every other value, as -inf.
    """
    quiet = type(eval_fn) is MaximinFitness and no_feasible_subset(eval_fn.instance)
    return drive([(_colonies(instance, config, [seed], np.ones(1), quiet=quiet), eval_fn)])[0][0]


def _colonies(
    instance: Instance,
    config: ACOConfig,
    seeds: Sequence[int],
    signs: np.ndarray,
    select: Optional[Callable[[np.ndarray], None]] = None,
    quiet: bool = False,
) -> Steps[list[SolverReport]]:
    """R ACO runs as one step generator over one (R, n) trail array; it
    returns their SolverReports in order, each the record of the run's
    reports.Run, which times it from the first step to the round it
    ends in.

    Every run maximizes the values sent for its rows. The runs share
    ``config``, and so both windows; run r takes its seed from seeds[r] and
    its sign from signs[r], 1.0 or -1.0, which picks only its deposit rule
    (see _update): a run of sign -1.0 minimizes an objective, and its values
    are minus that objective. Every run ends as it would alone: it draws its
    Gumbel noise from its own generator, and hands Run.step the value of its
    colony's first best ant, a NaN value scoring -inf, and ``ants``
    requests. The first step builds the instance's figures table
    (model.figures_table).

    The runs step in blocks of k rounds, the fewest that a live run surely
    takes (Run.sure_rounds), capped so that k rounds of the live runs'
    colonies hold at most model.BLOCK_SIZE rows, and at least 1. No run ends
    inside a block, so each live run draws the block's noise in one
    (k, ants, n) call, the stream of k (ants, n) draws. A block is taken in
    passes, each yielded as one block of its rounds' colonies, round after
    round and run after run, and walked whole, and its trails take one
    step. In a ``quiet`` run, whose caller knows that no round deposits, a
    pass holds the rest of the block, and one clipped running product of
    the evaporation rate (_evaporations) gives the trails of its rounds,
    sampled at once, and the trails after them. Any other pass is one round
    and ends with _update, which gives a round in which no ant deposits
    the trails of evaporation alone. A pass walks its colonies in one flat
    loop: one argmax call gives each colony's first best ant, whose value
    is read from the flat list of the pass's values (a max would give 0.0
    where that ant has -0.0), and whose row only a colony that improves its
    run reads. ``select``, when given, learns the run of each row of the
    blocks to come once per set of live runs, before its first block; it
    assumes one-round passes, which every run but a quiet one takes.
    """
    runs = [Run("aco", instance, seed, config.stagnation_limit) for seed in seeds]
    figures_table(instance)
    n, m = instance.n, instance.m_servers
    ants = ant_count(n, m, config.population_coefficient)
    beta_log_eta = config.beta_exp * np.log(heuristic_index(instance))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    live = list(range(len(runs)))  # the runs of the trail rows, in order
    tau = np.ones((len(runs), n))
    while live:
        senses = signs[live] > 0
        # one bool when the live runs share a sense, else one flag per ant
        maximize = bool(senses[0]) if (senses == senses[0]).all() else senses.repeat(ants)
        ant_signs = np.repeat(signs[live], ants)
        # run i's trails start at i * n in the flattened trail array
        offsets = np.repeat(np.arange(len(live)) * n, ants)[:, None]
        row_runs = np.repeat(live, ants)
        if select:
            select(row_runs)
        gumbel = [rngs[r].gumbel for r in live]
        live_runs = [runs[r] for r in live]
        kept = [True] * len(live)
        while all(kept):
            # no live run ends before the block's last round, so its noise is all used
            k = max(1, min(min(runs[r].sure_rounds() for r in live), BLOCK_SIZE // len(row_runs)))
            noise = np.empty((k, len(live), ants, n))
            for i, draw in enumerate(gumbel):
                noise[:, i] = draw(size=(k, ants, n))
            span = k if quiet else 1
            for t in range(0, k, span):
                if quiet:  # the trails of the pass's rounds, then the trails after them
                    rows = _evaporations(tau, span + 1, config)
                    trails, tau = rows[:span].reshape(-1, n), rows[span]
                else:
                    trails = tau
                draws = noise[t:t + span].reshape(-1, ants, n)  # a view, sampled in place
                idx = _sample_colonies(_log_weights(trails, beta_log_eta, config), m, draws)
                values = np.asarray((yield idx), dtype=float)
                scores = np.fmax(values, -math.inf)  # NaN last
                picks = scores.reshape(-1, ants).argmax(axis=1).tolist()
                ranked = scores.tolist()
                for run, row, pick in zip(live_runs * span, range(0, len(ranked), ants), picks):
                    top = ranked[row + pick]  # the first best ant's: a max could turn -0.0 to 0.0
                    if run.step(top, ants):
                        run.report.best = (idx[row + pick] + 1).tolist()
                if not quiet:
                    tau = _update(tau, idx + offsets, values, config, ant_signs, maximize)
            kept = [run.report.termination is None for run in live_runs]
        live = list(compress(live, kept))
        tau = tau[kept]
    return [run.report for run in runs]
