"""Ant colony optimizer: desirability index, sampling, pheromone dynamics."""

import re
import warnings

import numpy as np
import pytest

from conftest import mild_params
from fuzzloc import aco
from fuzzloc.aco import (
    TAU_MIN,
    ACOConfig,
    ant_count,
    heuristic_index,
    run_aco,
)
from fuzzloc.errors import DomainError
from fuzzloc.evaluation import make_maximin_eval
from fuzzloc.instances import generate_instance
from fuzzloc.oracle import enumerate_optimum, exact_bounds


def _selection_probabilities(
    tau: np.ndarray, eta: np.ndarray, unchosen: np.ndarray, config: ACOConfig
) -> np.ndarray:
    log_w = aco._log_weights(tau[unchosen], config.beta_exp * np.log(eta[unchosen]), config)
    weights = np.exp(log_w - log_w.max())
    return weights / weights.sum()


def select_next(
    tau: np.ndarray,
    eta: np.ndarray,
    chosen: set[int],
    config: ACOConfig,
    rng: np.random.Generator,
) -> int:
    """Reference: sample one more node (1-based) proportionally to
    tau^a * eta^b. The colony sampler, aco._sample_colonies, draws whole
    subsets at once; the distribution tests check it against repeated calls
    of this stepwise sampler."""
    n = tau.size
    unchosen = np.asarray([j for j in range(n) if (j + 1) not in chosen], dtype=int)
    if unchosen.size == 0:
        raise DomainError("no unchosen nodes left")
    probs = _selection_probabilities(tau, eta, unchosen, config)
    return int(unchosen[rng.choice(unchosen.size, p=probs)]) + 1


def draw_colony(
    tau: np.ndarray, eta: np.ndarray, m: int, ants: int, config: ACOConfig, rng
) -> np.ndarray:
    """One run's colony of ``ants`` subsets as aco._colonies draws it: the
    log weights of the trail row, then aco._sample_colonies on one (1, ants,
    n) Gumbel draw. Returns (ants, m) 0-based, ascending node indices."""
    log_w = aco._log_weights(tau[None], config.beta_exp * np.log(eta), config)
    return aco._sample_colonies(log_w, m, rng.gumbel(size=(1, ants, tau.size)))


def evaporate(tau: np.ndarray, config: ACOConfig) -> np.ndarray:
    """aco._update for a colony without ants."""
    return aco._update(tau, np.empty((0, 1), dtype=np.intp), [], config, np.empty(0), True)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ACOConfig(evaporation_rate=1.0)
        with pytest.raises(DomainError):
            ACOConfig(max_pheromone=0)
        with pytest.raises(DomainError):
            ACOConfig(alpha_exp=0)
        with pytest.raises(DomainError):
            ACOConfig(population_coefficient=0)

    @pytest.mark.parametrize("field", ["alpha_exp", "beta_exp", "max_pheromone"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(DomainError):
            ACOConfig(**{field: value})

    @pytest.mark.parametrize("field", ["evaporation_rate", "max_pheromone", "alpha_exp",
                                       "beta_exp"])
    @pytest.mark.parametrize("value", ["x", None, True])
    def test_rejects_non_numbers(self, field, value):
        """A value that is not a number (fuzzy.is_number) raises a
        DomainError naming the field, not a TypeError from a comparison."""
        message = re.escape(f"{field} must be a number, got {value!r}")
        with pytest.raises(DomainError, match=f"^{message}$"):
            ACOConfig(**{field: value})

    @pytest.mark.parametrize("field", ["stagnation_limit"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_rejects_window_below_one(self, field, value):
        with pytest.raises(DomainError, match="at least 1"):
            ACOConfig(**{field: value})

    def test_rejects_negative_seed(self, small_instance):
        # the seed is run_aco's, not the config's
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            run_aco(small_instance, lambda solution: 0.0, ACOConfig(), seed=-1)

    @pytest.mark.parametrize("field", ["alpha_exp", "beta_exp"])
    def test_rejects_exponent_above_bound(self, field):
        for value in (np.nextafter(aco.MAX_EXPONENT, np.inf), 2e307):
            with pytest.raises(DomainError, match="exceed"):
                ACOConfig(**{field: value})

    def test_log_weights_finite_at_exponent_bound(self):
        config = ACOConfig(alpha_exp=aco.MAX_EXPONENT, beta_exp=aco.MAX_EXPONENT)
        extremes = np.array([5e-324, 1e-6, 1.0, 200.0, np.finfo(float).max])
        tau, eta = np.meshgrid(extremes, extremes)
        beta_log_eta = config.beta_exp * np.log(eta.ravel())
        log_w = aco._log_weights(tau.ravel(), beta_log_eta, config)
        assert np.isfinite(beta_log_eta).all() and np.isfinite(log_w).all()

    def test_tuned_defaults(self):
        config = ACOConfig()
        assert config.evaporation_rate == 0.97
        assert config.max_pheromone == 200.0
        assert config.population_coefficient == 2
        assert config.alpha_exp == 0.75
        assert config.beta_exp == 0.75


class TestAntCount:
    def test_examples(self):
        assert ant_count(20, 5, 2) == 8
        assert ant_count(30, 5, 2) == 12
        assert ant_count(6, 2, 1) == 3

    def test_invalid(self):
        with pytest.raises(DomainError):
            ant_count(5, 5, 2)


class TestHeuristicIndex:
    def test_normalized_and_positive(self, medium_instance):
        eta = heuristic_index(medium_instance)
        assert eta.shape == (8,)
        assert np.all(eta > 0)
        assert eta.sum() == pytest.approx(1.0)

    def test_proportional_to_service_over_distance(self, medium_instance):
        eta = heuristic_index(medium_instance)
        raw = medium_instance.service[:, 1] / medium_instance.distance.sum(axis=1)
        assert np.allclose(eta, raw / raw.sum())

    def test_stable_across_calls(self, medium_instance):
        a = heuristic_index(medium_instance)
        b = heuristic_index(medium_instance)
        assert np.array_equal(a, b)


class TestSelection:
    def test_hand_probabilities(self):
        tau = np.asarray([1.0, 1.0])
        eta = np.asarray([2.0, 1.0])
        config = ACOConfig(alpha_exp=1.0, beta_exp=1.0)
        probs = _selection_probabilities(tau, eta, np.asarray([0, 1]), config)
        assert probs == pytest.approx([2 / 3, 1 / 3])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(0)
        tau = rng.uniform(TAU_MIN, 200, size=10)
        eta = rng.uniform(0.01, 1, size=10)
        probs = _selection_probabilities(tau, eta, np.arange(10), ACOConfig())
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_remaining_node(self):
        tau = np.ones(3)
        eta = np.full(3, 1 / 3)
        rng = np.random.default_rng(0)
        pick = select_next(tau, eta, {1, 2}, ACOConfig(), rng)
        assert pick == 3

    def test_empirical_frequencies_match(self):
        # single-server constructions reduce to one proportional draw
        tau = np.asarray([1.0, 2.0, 3.0, 2.0, 2.0])
        eta = np.full(5, 0.2)
        config = ACOConfig(alpha_exp=1.0, beta_exp=1.0)
        expected = tau / tau.sum()
        rng = np.random.default_rng(42)
        counts = np.zeros(5)
        draws = 50_000
        for _ in range(draws):
            pick = select_next(tau, eta, set(), config, rng)
            counts[pick - 1] += 1
        assert np.allclose(counts / draws, expected, atol=0.01)


class TestConstruction:
    def test_size_and_range(self, medium_instance):
        tau = np.ones(8)
        eta = heuristic_index(medium_instance)
        rng = np.random.default_rng(1)
        for _ in range(50):
            (nodes,) = draw_colony(tau, eta, medium_instance.m_servers, 1, ACOConfig(), rng)
            assert len(set(nodes.tolist())) == 2
            assert all(0 <= j < 8 for j in nodes)

    def test_near_exhaustive_choice(self, medium_instance):
        tau = np.ones(8)
        eta = heuristic_index(medium_instance)
        rng = np.random.default_rng(2)
        (nodes,) = draw_colony(tau, eta, 7, 1, ACOConfig(), rng)
        assert len(set(nodes.tolist())) == 7

    @staticmethod
    def check_stepwise_distribution(instance, tau, alpha):
        # the vectorized sampler and repeated select_next draws agree with
        # each other and with the exact marginal inclusion probability of
        # each node, P(j) = p_j + sum_{i != j} p_i * p_j / (1 - p_i) for m = 2
        eta = heuristic_index(instance)
        config = ACOConfig(alpha_exp=alpha)
        log_w = alpha * np.log(tau) + config.beta_exp * np.log(eta)
        p = np.exp(log_w - log_w.max())
        p /= p.sum()
        exact = p + p * (np.sum(p / (1 - p)) - p / (1 - p))
        draws = 20_000
        # one colony of 20 000 ants takes the Gumbel draws of 20 000
        # one-ant colonies, row by row
        rng = np.random.default_rng(3)
        colony = draw_colony(tau, eta, 2, draws, config, rng)
        fast = np.bincount(colony.ravel(), minlength=8).astype(float)
        rng = np.random.default_rng(4)
        slow = np.zeros(8)
        for _ in range(draws):
            chosen = set()
            for _ in range(2):
                chosen.add(select_next(tau, eta, chosen, config, rng))
            for j in chosen:
                slow[j - 1] += 1
        assert np.allclose(fast / draws, slow / draws, atol=0.015)
        assert np.allclose(fast / draws, exact, atol=0.015)
        assert np.allclose(slow / draws, exact, atol=0.015)

    def test_matches_stepwise_distribution(self, medium_instance):
        self.check_stepwise_distribution(medium_instance, np.linspace(1, 5, 8), 0.75)

    def test_matches_stepwise_distribution_near_cap(self, medium_instance):
        # tau^150 overflows above tau of about 114: the weights exist only as logs
        self.check_stepwise_distribution(medium_instance, np.linspace(198, 200, 8), 150.0)


class TestPheromoneUpdate:
    """aco._update on (R, n) trails; ``nodes`` index the flattened trails."""

    @staticmethod
    def update(tau, nodes, values, signs):
        signs = np.asarray(signs)
        return aco._update(
            np.asarray(tau, dtype=float), np.asarray(nodes, dtype=np.intp), values,
            ACOConfig(), signs, signs > 0,
        )

    def test_pure_evaporation(self):
        out = evaporate(np.full((1, 3), 100.0), ACOConfig())
        assert out[0] == pytest.approx([97.0] * 3)

    def test_deposit_example(self):
        out = self.update(np.ones((1, 4)), [[1]], [0.9], [1.0])
        assert out[0, 1] == pytest.approx(0.97 + 180.0)
        assert out[0, 0] == pytest.approx(0.97)

    def test_penalized_ant_deposits_nothing(self):
        out = self.update(np.ones((1, 4)), [[1]], [-1.5], [1.0])
        assert out[0] == pytest.approx([0.97] * 4)

    def test_minimization_deposit(self):
        # a minimizing run's values are -F: F = 4 deposits theta/F
        out = self.update(np.ones((1, 4)), [[2]], [-4.0], [-1.0])
        assert out[0, 2] == pytest.approx(0.97 + 200.0 / 4.0)
        # the penalized ant of a minimization bound run still deposits theta/F
        out = self.update(np.ones((1, 4)), [[2]], [-1e12 * (1 + 0.5)], [-1.0])
        assert out[0, 2] - 0.97 == pytest.approx(200.0 / 1.5e12, rel=1e-4)

    def test_row_offsets(self):
        # node j of row r is r * n + j; a max row and a min row in one update
        out = self.update(np.ones((2, 4)), [[1], [4 + 3]], [0.9, -4.0], [1.0, -1.0])
        assert out[0] == pytest.approx([0.97, 0.97 + 180.0, 0.97, 0.97])
        assert out[1] == pytest.approx([0.97, 0.97, 0.97, 0.97 + 50.0])

    def test_clamped_to_bounds(self):
        out = self.update(np.ones((1, 4)), [[0]], [10.0], [1.0])
        assert out[0, 0] == 200.0
        for _ in range(1000):
            out = evaporate(out, ACOConfig())
        assert np.all(out >= TAU_MIN)

    def test_geometric_decay(self):
        config = ACOConfig()
        tau = np.full((1, 2), 50.0)
        for t in range(1, 11):
            tau = evaporate(tau, config)
            expected = max(TAU_MIN, 0.97**t * 50.0)
            assert tau[0] == pytest.approx([expected] * 2)


class TestRunACO:
    def test_deterministic(self, small_instance):
        ctx = exact_bounds(small_instance)
        fitness = make_maximin_eval(small_instance, ctx)
        a = run_aco(small_instance, fitness, ACOConfig(), seed=5)
        b = run_aco(small_instance, fitness, ACOConfig(), seed=5)
        assert a.best == b.best
        assert a.objective == b.objective
        assert a.trace == b.trace

    def test_trace_nondecreasing(self, small_instance):
        ctx = exact_bounds(small_instance)
        fitness = make_maximin_eval(small_instance, ctx)
        report = run_aco(small_instance, fitness, ACOConfig(), seed=3)
        assert all(x <= y for x, y in zip(report.trace, report.trace[1:]))
        assert report.termination in ("convergence", "stagnation")

    def test_finds_optimum_on_small_instance(self, small_instance):
        ctx = exact_bounds(small_instance)
        fitness = make_maximin_eval(small_instance, ctx)
        optimum = enumerate_optimum(small_instance, fitness)
        hits = sum(
            abs(run_aco(small_instance, fitness, ACOConfig(), seed=s).objective
                - optimum.best_value) < 1e-9
            for s in range(20)
        )
        assert hits >= 16

    def test_never_exceeds_enumerated_best(self, small_instance):
        ctx = exact_bounds(small_instance)
        fitness = make_maximin_eval(small_instance, ctx)
        optimum = enumerate_optimum(small_instance, fitness)
        for seed in range(5):
            report = run_aco(small_instance, fitness, ACOConfig(), seed=seed)
            assert report.objective <= optimum.best_value + 1e-12

    def test_evaluations_are_ants_times_iterations(self, small_instance):
        fitness = make_maximin_eval(small_instance, exact_bounds(small_instance))
        calls = []

        def counted(solution):
            calls.append(solution)
            return fitness(solution)

        config = ACOConfig()
        report = run_aco(small_instance, counted, config, seed=2)
        ants = ant_count(small_instance.n, small_instance.m_servers, config.population_coefficient)
        assert report.evaluations == ants * report.iterations == len(calls)

    def test_large_alpha_samples_in_log_space(self):
        # at alpha = 150 every trail above about 114 overflows tau^alpha; the
        # colony is drawn by Gumbel top-k on the log weights, without a warning
        instance = generate_instance(mild_params(20, 5, 0))
        fitness = make_maximin_eval(instance, exact_bounds(instance))
        config = ACOConfig(alpha_exp=150, stagnation_limit=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_aco(instance, fitness, config)
        assert report.termination in ("convergence", "stagnation")
        assert 0.0 <= report.objective <= 1.0
