"""Genetic algorithm: sizing, mating, replacement, termination, optimality."""

import math
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fuzzloc.ga
from conftest import feasible_subsets, mate, mild_params, populate, record
from fuzzloc.errors import DomainError, InfeasibleInstanceError
from fuzzloc.evaluation import drive, make_maximin_eval
from fuzzloc.ga import (
    Chromosome,
    GAConfig,
    _distinct_parents,
    _mate,
    _Memo,
    population_size,
    replace,
    run_ga,
)
from fuzzloc.instances import generate_instance
from fuzzloc.model import Solution
from fuzzloc.oracle import enumerate_optimum, exact_bounds
from fuzzloc.reports import Run, convergence_limit


def subset_size_fitness(solution: Solution) -> float:
    """Deterministic toy fitness: prefer high indices, penalize size."""
    return sum(solution.open) - 10.0 * len(solution.open)


class TestSizing:
    def test_population_size_examples(self):
        assert population_size(20, 5, 10) == 10
        assert population_size(100, 5, 10) == 20
        assert population_size(6, 2, 2) == 3

    def test_population_size_invalid(self):
        with pytest.raises(DomainError):
            population_size(5, 5, 10)

    def test_convergence_limit(self):
        assert convergence_limit(20, 5) == 44
        assert convergence_limit(6, 2) == 8

    def test_config_floor(self):
        with pytest.raises(DomainError):
            GAConfig(population_floor=1)

    @pytest.mark.parametrize("field", ["stagnation_limit"])
    @pytest.mark.parametrize("value", [0, -5])
    def test_config_rejects_window_below_one(self, field, value):
        # A falsy limit used to fall back to the default window, and a
        # negative one closed the window after one iteration.
        with pytest.raises(DomainError, match="at least 1"):
            GAConfig(**{field: value})

    def test_config_rejects_negative_seed(self, small_instance):
        # random.Random(-3) would replay seed 3; the seed is run_ga's, not the config's
        with pytest.raises(DomainError, match="seed must be non-negative, got -3"):
            run_ga(small_instance, subset_size_fitness, GAConfig(), seed=-3)


class TestInitPopulation:
    def test_covers_all_genes(self, medium_instance):
        population = populate(medium_instance, GAConfig(), subset_size_fitness, seed=0)
        union = set().union(*(c.genes for c in population))
        assert union == set(range(1, medium_instance.n + 1))

    def test_member_sizes(self, medium_instance):
        population = populate(medium_instance, GAConfig(), subset_size_fitness, seed=1)
        assert all(len(c.genes) == medium_instance.m_servers for c in population)
        assert len(population) == population_size(medium_instance.n, 2, 10)

    def test_deterministic(self, medium_instance):
        a = populate(medium_instance, GAConfig(), subset_size_fitness, seed=7)
        b = populate(medium_instance, GAConfig(), subset_size_fitness, seed=7)
        assert [c.genes for c in a] == [c.genes for c in b]


class TestGenerateCandidate:
    def test_shared_gene_preserved(self):
        p1 = Chromosome(frozenset({1, 2, 3}), subset_size_fitness(Solution([1, 2, 3])))
        p2 = Chromosome(frozenset({3, 4, 5}), subset_size_fitness(Solution([3, 4, 5])))
        child = mate(p1, p2, subset_size_fitness, random.Random(0))
        assert len(child.genes) == 3
        assert 3 in child.genes
        assert child.genes <= p1.genes | p2.genes

    def test_greedy_drop_optimal_for_additive_fitness(self):
        p1 = Chromosome(frozenset({1, 2}), 0.0)
        p2 = Chromosome(frozenset({7, 8}), 0.0)
        child = mate(p1, p2, subset_size_fitness, random.Random(0))
        assert child.genes == frozenset({7, 8})

    def test_identical_parents_rejected(self):
        p = Chromosome(frozenset({1, 2}), 0.0)
        with pytest.raises(DomainError):
            mate(p, p, subset_size_fitness, random.Random(0))

    @pytest.mark.parametrize("order", [1, -1])
    def test_parents_of_unequal_size_rejected(self, order):
        parents = [Chromosome(frozenset({1, 2, 3}), 0.0), Chromosome(frozenset({1, 2}), 0.0)]
        with pytest.raises(DomainError):
            mate(*parents[::order], subset_size_fitness, random.Random(0))

    def test_candidate_fitness_matches_eval(self):
        p1 = Chromosome(frozenset({1, 2}), 0.0)
        p2 = Chromosome(frozenset({2, 5}), 0.0)
        child = mate(p1, p2, subset_size_fitness, random.Random(3))
        assert child.fitness == subset_size_fitness(Solution(child.genes))


def counter_replace(population: list[Chromosome], candidate: Chromosome) -> list[Chromosome]:
    """``replace`` as it was before gene sets became bitmasks, counting gene
    carriers with a Counter. The reference that ``replace`` is checked
    against."""
    if any(candidate.genes == member.genes for member in population):
        return population
    carriers = Counter(gene for member in population for gene in member.genes)
    gained = sum(1 for gene in candidate.genes if gene not in carriers)
    for i in sorted(range(len(population)), key=lambda k: population[k].fitness):
        member = population[i]
        if candidate.fitness < member.fitness:
            break
        lost = sum(1 for gene in member.genes - candidate.genes if carriers[gene] == 1)
        if lost <= gained:
            population[i] = candidate
            break
    return population


class TestReplace:
    def test_worse_candidate_rejected(self):
        population = [Chromosome(frozenset({1, 2}), 5.0), Chromosome(frozenset({3, 4}), 3.0)]
        assert not replace(population, Chromosome(frozenset({5, 6}), 1.0))
        assert {c.genes for c in population} == {frozenset({1, 2}), frozenset({3, 4})}

    def test_duplicate_rejected(self):
        population = [Chromosome(frozenset({1, 2}), 5.0), Chromosome(frozenset({3, 4}), 3.0)]
        assert not replace(population, Chromosome(frozenset({1, 2}), 9.0))
        assert {c.genes for c in population} == {frozenset({1, 2}), frozenset({3, 4})}

    def test_better_candidate_replaces_worst(self):
        population = [Chromosome(frozenset({1, 2}), 5.0), Chromosome(frozenset({3, 4}), 3.0)]
        assert replace(population, Chromosome(frozenset({5, 6}), 4.0))
        assert frozenset({5, 6}) in {c.genes for c in population}
        assert frozenset({3, 4}) not in {c.genes for c in population}

    def test_sole_carrier_of_a_gene_kept(self):
        # {5, 6} is the worst member and the only carrier of genes 5 and 6;
        # the candidate brings no new gene, so {3, 4} goes instead.
        population = [
            Chromosome(frozenset({1, 2}), 5.0),
            Chromosome(frozenset({3, 4}), 3.0),
            Chromosome(frozenset({1, 3}), 4.0),
            Chromosome(frozenset({5, 6}), 1.0),
        ]
        assert replace(population, Chromosome(frozenset({2, 4}), 3.5))
        assert [c.genes for c in population] == [
            frozenset({1, 2}), frozenset({2, 4}), frozenset({1, 3}), frozenset({5, 6}),
        ]

    def test_rejected_when_every_weaker_member_is_a_sole_carrier(self):
        population = [Chromosome(frozenset({1, 2}), 5.0), Chromosome(frozenset({3, 4}), 3.0)]
        assert not replace(population, Chromosome(frozenset({1, 3}), 4.0))
        assert [c.genes for c in population] == [frozenset({1, 2}), frozenset({3, 4})]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_replacements_keep_every_gene(self, data):
        # The invariant behind _distinct_parents: the pool 1..n never loses a
        # gene, so with m < n two members always differ.
        n = data.draw(st.integers(2, 12), label="n")
        m = data.draw(st.integers(1, n - 1), label="m")
        floor = data.draw(st.integers(2, 12), label="population_floor")
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="rng seed"))
        population = populate(
            SimpleNamespace(n=n, m_servers=m),
            GAConfig(population_floor=floor),
            lambda solution: float(rng.randint(0, 3)),
            rng,
        )
        subsets = st.lists(st.integers(1, n), min_size=m, max_size=m, unique=True)
        for _ in range(data.draw(st.integers(0, 40), label="replacements")):
            genes = frozenset(data.draw(subsets))
            replace(population, Chromosome(genes, float(data.draw(st.integers(0, 5)))))
            assert set().union(*(c.genes for c in population)) == set(range(1, n + 1))
            p1, p2 = _distinct_parents(population, rng)
            assert p1.genes != p2.genes

    def test_distinct_parents_fall_back_after_32_equal_draws(self):
        population = [
            Chromosome(frozenset({1, 2}), 3.0),
            Chromosome(frozenset({1, 2}), 2.0),
            Chromosome(frozenset({3, 4}), 1.0),
        ]

        class Stuck:
            """An rng whose every draw is the first member twice."""
            draws = 0

            def sample(self, members, k):
                self.draws += 1
                return [members[0]] * k

        rng = Stuck()
        p1, p2 = _distinct_parents(population, rng)
        assert rng.draws == 32
        assert (p1, p2) == (population[0], population[2])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_counter_reference(self, data):
        # Small fitness ranges give ties, copies of earlier members give
        # duplicate gene sets, and few members over up to 16 genes leave
        # genes with a sole carrier.
        n = data.draw(st.integers(2, 16), label="n")
        m = data.draw(st.integers(1, n - 1), label="m")
        subsets = st.lists(st.integers(1, n), min_size=m, max_size=m, unique=True)
        fitness = st.integers(0, 3).map(float)
        population: list[Chromosome] = []
        for _ in range(data.draw(st.integers(2, 12), label="size")):
            if population and data.draw(st.booleans(), label="copy"):
                genes = data.draw(st.sampled_from(population)).genes
            else:
                genes = frozenset(data.draw(subsets))
            population.append(Chromosome(genes, data.draw(fitness)))
        reference = list(population)
        for _ in range(data.draw(st.integers(1, 20), label="candidates")):
            if data.draw(st.booleans(), label="duplicate"):
                genes = data.draw(st.sampled_from(population)).genes
            else:
                genes = frozenset(data.draw(subsets))
            candidate = Chromosome(genes, data.draw(fitness))
            entered = replace(population, candidate)
            assert population == counter_replace(reference, candidate)
            assert entered == any(member is candidate for member in population)


class TestRunGA:
    def test_deterministic(self, small_instance):
        ctx = exact_bounds(small_instance)
        fitness = make_maximin_eval(small_instance, ctx)
        a = run_ga(small_instance, fitness, GAConfig(), seed=5)
        b = run_ga(small_instance, fitness, GAConfig(), seed=5)
        assert a.best == b.best
        assert a.objective == b.objective
        assert a.trace == b.trace

    def test_trace_nondecreasing(self, small_instance):
        ctx = exact_bounds(small_instance)
        fitness = make_maximin_eval(small_instance, ctx)
        report = run_ga(small_instance, fitness, GAConfig(), seed=2)
        assert all(x <= y for x, y in zip(report.trace, report.trace[1:]))
        assert report.termination in ("convergence", "stagnation")

    def test_best_is_valid_solution(self, small_instance):
        ctx = exact_bounds(small_instance)
        fitness = make_maximin_eval(small_instance, ctx)
        report = run_ga(small_instance, fitness, GAConfig(), seed=0)
        assert len(report.best) == small_instance.m_servers
        assert all(1 <= j <= small_instance.n for j in report.best)

    def test_finds_optimum_on_small_instance(self, small_instance):
        ctx = exact_bounds(small_instance)
        fitness = make_maximin_eval(small_instance, ctx)
        optimum = enumerate_optimum(small_instance, fitness)
        hits = sum(
            abs(run_ga(small_instance, fitness, GAConfig(), seed=s).objective
                - optimum.best_value) < 1e-9
            for s in range(20)
        )
        assert hits >= 18

    def test_never_exceeds_enumerated_best(self, small_instance):
        ctx = exact_bounds(small_instance)
        fitness = make_maximin_eval(small_instance, ctx)
        optimum = enumerate_optimum(small_instance, fitness)
        for seed in range(5):
            report = run_ga(small_instance, fitness, GAConfig(), seed=seed)
            assert report.objective <= optimum.best_value + 1e-12

    def test_explicit_window_overrides(self, small_instance):
        ctx = exact_bounds(small_instance)
        fitness = make_maximin_eval(small_instance, ctx)
        report = run_ga(
            small_instance,
            fitness,
            GAConfig(stagnation_limit=1),
            seed=0,
        )
        # every iteration before the last strictly improves the best, and the
        # fitness only takes one value per distinct 2-subset (15 of them)
        assert report.iterations <= 16


class _Forgetful(dict):
    """A dict that stores nothing."""

    def __setitem__(self, key, value):
        pass


class _NoMemo:
    """Stand-in for the GA's memo: caches no value and keeps no mating, so
    every requested row is scored. It ranks a NaN value as -inf, as the memo
    does."""

    def __init__(self):
        self.values = {}
        self.matings = _Forgetful()

    def score(self, key, value):
        return value if value == value else -math.inf


def _counting(fitness):
    def counted(solution):
        counted.calls += 1
        counted.distinct.add(solution.open)
        return fitness(solution)

    counted.calls = 0
    counted.distinct = set()
    return counted


class TestFitnessMemo:
    def test_reports_identical_without_memo(self, medium_instance, monkeypatch):
        fitness = make_maximin_eval(medium_instance, exact_bounds(medium_instance))
        memo = [run_ga(medium_instance, fitness, GAConfig(), seed=s) for s in range(3)]
        monkeypatch.setattr(fuzzloc.ga, "_Memo", _NoMemo)
        plain = [run_ga(medium_instance, fitness, GAConfig(), seed=s) for s in range(3)]
        for a, b in zip(memo, plain):
            assert (a.best, a.objective, a.trace, a.iterations, a.evaluations) == (
                b.best, b.objective, b.trace, b.iterations, b.evaluations
            )

    def test_evaluations_count_every_request(self, medium_instance, monkeypatch):
        fitness = make_maximin_eval(medium_instance, exact_bounds(medium_instance))
        cached = _counting(fitness)
        report = run_ga(medium_instance, cached, GAConfig(), seed=1)
        monkeypatch.setattr(fuzzloc.ga, "_Memo", _NoMemo)
        uncached = _counting(fitness)
        run_ga(medium_instance, uncached, GAConfig(), seed=1)
        # the first population scores each distinct member once, memo or not
        first = populate(medium_instance, GAConfig(), fitness, seed=1)
        repeats = len(first) - len({member.genes for member in first})
        assert report.evaluations == uncached.calls + repeats
        # the memo evaluates each distinct gene set once
        assert cached.calls == len(uncached.distinct) < uncached.calls

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(5, 10),
        m=st.integers(1, 4),
        instance_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
    )
    def test_reports_bit_identical_on_mild_instances(self, n, m, instance_seed, seed):
        instance = generate_instance(mild_params(n, m, instance_seed))
        try:
            fitness = make_maximin_eval(instance, exact_bounds(instance))
        except InfeasibleInstanceError:
            assume(False)
        memo = run_ga(instance, fitness, GAConfig(), seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fuzzloc.ga, "_Memo", _NoMemo)
            plain = run_ga(instance, fitness, GAConfig(), seed=seed)
        assert record(memo) == record(plain)


def plateau_fitness(solution: Solution) -> float:
    """Toy fitness with wide exact plateaus: the number of open facilities
    whose index is a multiple of three."""
    return float(sum(gene % 3 == 0 for gene in solution.open))


class TestMatingMemo:
    """Whole tie-free matings are kept in the run's memo, under the parents'
    union and unshared genes, and served from it on a repeat."""

    def test_repeated_tie_free_mating_yields_nothing(self):
        p1 = Chromosome(frozenset({1, 2, 3}), 0.0)
        p2 = Chromosome(frozenset({3, 7, 9}), 0.0)
        memo, rng = _Memo(), random.Random(0)
        [child] = drive([(_mate(p1, p2, rng, memo), subset_size_fitness)])
        state = rng.getstate()
        assert len(memo.matings) == 1
        # parents in either order are one mating
        repeat = _mate(p2, p1, rng, memo)
        with pytest.raises(StopIteration) as stop:
            next(repeat)
        assert stop.value.value is child
        assert child.genes == frozenset({3, 7, 9})
        assert rng.getstate() == state

    def test_tied_matings_draw_as_without_memo(self, monkeypatch):
        """On a plateau fitness the cached run makes the same rng.choice
        calls, with the same arguments, as a run that caches nothing, and no
        mating that drew a tie is kept."""
        instance = generate_instance(mild_params(12, 4, 0))
        config = GAConfig(stagnation_limit=60)
        draws = []
        choice = random.Random.choice

        def logged(rng, seq):
            draws.append(list(seq))
            return choice(rng, seq)

        tables = []

        class Recording(dict):
            kept = served = 0

            def get(self, mating):
                self.start = len(draws)
                found = super().get(mating)
                self.served += found is not None
                return found

            def __setitem__(self, mating, child):
                assert len(draws) == self.start, "a tied mating was kept"
                self.kept += 1
                super().__setitem__(mating, child)

        class RecordingMemo(_Memo):
            def __init__(self):
                super().__init__()
                self.matings = Recording()
                tables.append(self.matings)

        monkeypatch.setattr(random.Random, "choice", logged)
        monkeypatch.setattr(fuzzloc.ga, "_Memo", RecordingMemo)
        cached = run_ga(instance, plateau_fitness, config, seed=3)
        cached_draws = draws[:]
        draws.clear()
        monkeypatch.setattr(fuzzloc.ga, "_Memo", _NoMemo)
        plain = run_ga(instance, plateau_fitness, config, seed=3)
        assert record(cached) == record(plain)
        assert cached_draws == draws and len(draws) > 0
        [matings] = tables
        assert matings.kept > 0 and matings.served > 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), fitness=st.sampled_from([subset_size_fitness, plateau_fitness]))
    def test_mating_requests_follow_from_parent_masks(self, data, fitness):
        """Parents that differ in d genes each make d shrink steps of 2d,
        2d - 1, ..., d + 1 trial rows: d(3d + 1)/2, the count a run adds for
        each mating, hit or miss."""
        n = data.draw(st.integers(2, 14))
        m = data.draw(st.integers(1, n - 1))
        genes = st.lists(st.integers(1, n), min_size=m, max_size=m, unique=True).map(frozenset)
        g1, g2 = data.draw(genes), data.draw(genes)
        assume(g1 != g2)
        counted = _counting(fitness)
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        parents = [Chromosome(g, 0.0) for g in (g1, g2)]
        drive([(_mate(*parents, rng, _NoMemo()), counted)])
        d = len(g1 ^ g2) // 2
        assert counted.calls == d * (3 * d + 1) // 2


def comprehension_mate(p1, p2, rng, memo):
    """_mate's shrink steps with each block built by a comprehension: the
    draft less each droppable gene whose value the memo lacks, ascending, in
    the order of the droppable genes. The reference that _mate's rows, taken
    from a leave-one-out table, are checked against; it keeps no mating."""
    genes, droppable = sorted(p1.genes | p2.genes), sorted(p1.genes ^ p2.genes)
    draft = p1.mask | p2.mask
    for _ in range(len(droppable) // 2):
        keys = [draft ^ (1 << gene) for gene in droppable]
        trials = [memo.values.get(key) for key in keys]
        missing = [b for b, trial in enumerate(trials) if trial is None]
        if missing:
            values = yield np.array(
                [[gene - 1 for gene in genes if gene != droppable[b]] for b in missing],
                dtype=np.intp,
            )
            for b, value in zip(missing, values):
                trials[b] = memo.score(keys[b], value)
        best = max(trials)
        tied = [gene for gene, trial in zip(droppable, trials) if trial == best]
        dropped = tied[0] if len(tied) == 1 else rng.choice(tied)
        draft ^= 1 << dropped
        genes.remove(dropped)
        droppable.remove(dropped)
    return Chromosome(frozenset(genes), best)


def step_through(steps, value):
    """The blocks a mating generator yields, each row valued by ``value`` of
    its gene set, and what it returns."""
    blocks = []
    try:
        block = next(steps)
        while True:
            blocks.append(block)
            block = steps.send([value(frozenset((row + 1).tolist())) for row in block])
    except StopIteration as stop:
        return blocks, stop.value


def drawn_fitness(levels: int, salt: int):
    """A value per gene set from ``levels`` levels: few levels, many ties."""
    def value(genes) -> float:
        return float(random.Random(sum(1 << g for g in genes) ^ salt).randrange(levels))
    return value


class TestRoundInvariants:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_blocks_match_comprehension_rows(self, data):
        """Every block _mate yields equals the reference rows, with the memo
        holding none, some or all of the trial values beforehand, for unions
        of up to 2m genes at n up to 40; the child, the memo and the rng
        end as the reference leaves them."""
        n = data.draw(st.integers(2, 40), label="n")
        m = data.draw(st.integers(1, n - 1), label="m")
        genes = st.sets(st.integers(1, n), min_size=m, max_size=m).map(frozenset)
        g1, g2 = data.draw(genes, label="p1"), data.draw(genes, label="p2")
        assume(g1 != g2)
        p1, p2 = Chromosome(g1, 0.0), Chromosome(g2, 0.0)
        value = drawn_fitness(data.draw(st.sampled_from([2, 3, 10**6]), label="levels"),
                              data.draw(st.integers(0, 2**32), label="salt"))
        seed = data.draw(st.integers(0, 2**32), label="seed")
        scout = _Memo()
        step_through(comprehension_mate(p1, p2, random.Random(seed), scout), value)
        share = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="known share")
        pick = random.Random(seed)
        known = {key: v for key, v in scout.values.items() if pick.random() < share}
        memos, rngs = [_Memo(), _Memo()], [random.Random(seed), random.Random(seed)]
        for memo in memos:
            memo.values.update(known)
        expected, reference = step_through(comprehension_mate(p1, p2, rngs[0], memos[0]), value)
        blocks, child = step_through(_mate(p1, p2, rngs[1], memos[1]), value)
        assert all(block.dtype == np.intp and block.ndim == 2 for block in blocks)
        assert [block.tolist() for block in blocks] == [block.tolist() for block in expected]
        assert (child.genes, child.fitness) == (reference.genes, reference.fitness)
        assert memos[0].values == memos[1].values
        assert rngs[0].getstate() == rngs[1].getstate()

    @staticmethod
    def logged_run(instance, fitness, config, seed):
        """run_ga at ``seed``, logging per mating: the candidate, whether it entered, the
        population after it, the best that a max(population) scan (first
        member among ties) gives, the best that scan keeps when it beats the
        best so far (the rule before the scan was dropped), and the run's
        best after the mating, read before the next mating's replace or
        after the run, as the run sets it once Run.step has ruled."""
        log, kept, reports = [], [], []
        replace, step = fuzzloc.ga.replace, Run.step

        def scan(population):
            top = max(population, key=lambda c: c.fitness)
            return (sorted(top.genes), top.fitness)

        def settled(report):
            log[-1].append((report.best, report.objective))

        def logged_replace(population, candidate):
            if log:
                settled(reports[0])
            kept[:] = kept or [scan(population)]  # the first population's best
            entered = replace(population, candidate)
            scanned = scan(population)
            if scanned[1] > kept[0][1]:
                kept[0] = scanned
            log.append([candidate, entered, population[:], scanned, kept[0]])
            return entered

        def logged_step(run, *args):
            reports[:] = [run.report]
            return step(run, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fuzzloc.ga, "replace", logged_replace)
            patch.setattr(Run, "step", logged_step)
            report = run_ga(instance, fitness, config, seed)
        settled(report)
        return report, log

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_run_best_matches_population_scan(self, data):
        """After every mating the run's best is the one the max(population)
        scan kept, and its value is the scan's, under a plain fitness with
        many ties."""
        n = data.draw(st.integers(3, 12), label="n")
        m = data.draw(st.integers(1, n - 1), label="m")
        fitness = drawn_fitness(data.draw(st.sampled_from([2, 4, 10**6]), label="levels"),
                                data.draw(st.integers(0, 2**32), label="salt"))
        config = GAConfig(population_floor=data.draw(st.integers(2, 6), label="floor"),
                          stagnation_limit=30)
        seed = data.draw(st.integers(0, 2**16), label="seed")
        report, log = self.logged_run(SimpleNamespace(n=n, m_servers=m),
                                      lambda solution: fitness(solution.open), config, seed)
        assert len(log) == report.iterations > 0
        for _, _, _, scanned, kept, best in log:
            assert best == kept and best[1] == scanned[1]

    def test_rejected_candidate_above_every_member_is_not_the_best(self):
        """A candidate fitter than every member that replace rejects, as
        every weaker member is the sole carrier of a gene, does not become
        the run's best."""
        # n = 4, m = 2, two members: {1, 3} and {2, 4} carry one gene each
        # alone, and every other pair scores 10.
        values = {frozenset({1, 3}): 1.0, frozenset({2, 4}): 2.0}
        config = GAConfig(population_floor=2, stagnation_limit=5)
        report, log = self.logged_run(SimpleNamespace(n=4, m_servers=2),
                                      lambda solution: values.get(solution.open, 10.0), config, 0)
        for candidate, entered, population, scanned, kept, best in log:
            assert candidate.fitness == 10.0 > max(c.fitness for c in population)
            assert not entered
            assert best == scanned == kept == ([2, 4], 2.0)
        assert (report.best, report.objective, report.iterations) == ([2, 4], 2.0, 5)
