"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL verdict line summarizing the measured
quantities before asserting, so the verdict is visible in the report whether
or not the criterion holds.
"""

import csv
import dataclasses
import itertools
import json
import random
import time

import numpy as np
import pytest

from conftest import crispen, feasible_subsets, mate, mild_params
from fuzzloc.aco import TAU_MIN, ACOConfig, _update, run_aco
from fuzzloc.cli import main as cli_main
from fuzzloc.evaluation import (
    capacity_threshold,
    evaluate,
    fuzzy_capacity_feasible,
    fuzzy_objective,
    make_maximin_eval,
)
from fuzzloc.fuzzy import TriFuzzy
from fuzzloc.ga import Chromosome, GAConfig, run_ga
from fuzzloc.instances import generate_instance, save_instance
from fuzzloc.model import (
    Instance,
    Kernel,
    Solution,
    crisp_objective_slice,
    logit_allocation,
    mm1_metrics,
)
from fuzzloc.oracle import enumerate_optimum, exact_bounds, mm1_simulate


@pytest.fixture()
def verdict(capfd):
    """One pass/fail line per criterion, printed outside pytest's capture so
    it is always visible in the run log."""

    def report(number: int, name: str, ok: bool, detail: str) -> None:
        line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return report


SUITE_PAIRS = [(6, 2), (6, 3), (8, 2), (8, 3), (10, 2), (10, 3), (12, 2), (12, 3)]


def _suite_instances() -> list[Instance]:
    """Twenty generated instances cycling over the (n, M) grid.

    For each pair, generator seeds are scanned upward and an instance is
    accepted when it has at least two feasible subsets, so the maximin
    landscape is never vacuous or single-pointed.
    """
    cursors: dict[tuple[int, int], int] = {}
    chosen = []
    for n, m in SUITE_PAIRS * 2 + SUITE_PAIRS[:4]:
        seed = cursors.get((n, m), 0)
        while True:
            instance = generate_instance(mild_params(n, m, seed))
            seed += 1
            if len(feasible_subsets(instance)) >= 2:
                break
        cursors[(n, m)] = seed
        chosen.append(instance)
    return chosen


def test_criterion_1_oracle_equivalence(verdict):
    start = time.monotonic()
    ga_hits = aco_hits = runs = 0
    for instance in _suite_instances():
        ctx = exact_bounds(instance)
        fitness = make_maximin_eval(instance, ctx)
        optimum = enumerate_optimum(instance, fitness)
        for seed in range(20):
            ga = run_ga(instance, fitness, GAConfig(), seed=seed)
            aco = run_aco(instance, fitness, ACOConfig(), seed=seed)
            ga_hits += abs(ga.objective - optimum.best_value) < 1e-9
            aco_hits += abs(aco.objective - optimum.best_value) < 1e-9
            runs += 1
    elapsed = time.monotonic() - start
    ga_rate = ga_hits / runs
    aco_rate = aco_hits / runs
    ok = ga_rate >= 0.90 and aco_rate >= 0.80 and elapsed < 600
    verdict(
        1,
        "oracle equivalence",
        ok,
        f"GA {ga_hits}/{runs} ({ga_rate:.1%}, need >= 90%), "
        f"ACO {aco_hits}/{runs} ({aco_rate:.1%}, need >= 80%), "
        f"{elapsed:.0f}s (limit 600s)",
    )


def test_criterion_2_queue_formula_validation(verdict):
    """Method of independent replications: the mean of five 10^6-event runs
    must land within 2% of the analytic value, per rho and per quantity.

    A single run's Lq at rho = 0.8 has a relative standard deviation of about
    1.7% across seeds, so a per-seed 2% bar fails on seed noise alone; the
    five-run mean's is about 0.8%, while a biased simulator (say, one that
    counts the customer in service) is still off by 25% or more.
    """
    breaches = []
    summary = []
    for rho in (0.3, 0.5, 0.8):
        lam, mu = rho * 100.0, 100.0
        p0_ref, lq_ref = mm1_metrics(lam, mu)
        runs = [mm1_simulate(lam, mu, 10**6, seed=seed) for seed in range(5)]
        for label, ref, estimates in (
            ("P0", p0_ref, [sim.p0 for sim in runs]),
            ("Lq", lq_ref, [sim.lq for sim in runs]),
        ):
            rel = abs(np.mean(estimates) - ref) / abs(ref)
            per_seed = ",".join(f"{(est - ref) / ref:+.4f}" for est in estimates)
            line = f"rho={rho} {label} mean err={rel:.4f} (per seed {per_seed})"
            summary.append(line)
            if rel > 0.02:
                breaches.append(line)
    ok = not breaches
    head = f"{len(breaches)} of 6 replication means over 2%"
    verdict(2, "queue-formula validation", ok, head + ": " + "; ".join(summary))


def test_criterion_3_benchmark_shape(tmp_path, verdict):
    start = time.monotonic()
    t1_path = tmp_path / "table1.json"
    cli_main(["generate", "--table1", "--out", str(t1_path)])
    out = tmp_path / "bench.csv"
    code = cli_main([
        "bench", "--instance", str(t1_path), "--replications", "5",
        "--seed", "0", "--out", str(out),
    ])
    elapsed = time.monotonic() - start
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    objs = {"ga": [], "aco": []}
    evals = {"ga": [], "aco": []}
    feasible_in_range = True
    for row in rows:
        value = float(row["objective"])
        objs[row["algorithm"]].append(value)
        evals[row["algorithm"]].append(int(row["evals"]))
        if value >= 0.0 and not (0.0 <= value <= 1.0):
            feasible_in_range = False
    ga_obj, aco_obj = np.mean(objs["ga"]), np.mean(objs["aco"])
    # Run time is compared as fitness evaluations per final run, the
    # machine-independent cost of a metaheuristic; wall time would compare
    # two implementations (a memo, a vectorized kernel) rather than methods.
    ga_ev, aco_ev = np.mean(evals["ga"]), np.mean(evals["aco"])
    a_ok = code == 0 and len(rows) == 10 and feasible_in_range
    b_ok = ga_obj >= aco_obj
    c_ok = ga_ev >= aco_ev
    ok = a_ok and b_ok and c_ok and elapsed < 900
    verdict(
        3,
        "benchmark shape on the 20-node fixture",
        ok,
        f"(a) feasible objectives in [0,1]: {a_ok}; "
        f"(b) GA mean obj {ga_obj:.4f} >= ACO {aco_obj:.4f}: {b_ok}; "
        f"(c) GA mean evaluations {ga_ev:.0f} >= ACO {aco_ev:.0f}: {c_ok}; "
        f"{elapsed:.0f}s (limit 900s)",
    )


def spread_components(instance, solution) -> np.ndarray:
    """(z1, z2, z3) = (mid - lo, mid, hi - mid) of the fuzzy objective."""
    z = fuzzy_objective(instance, solution)
    return np.array([z.mid - z.lo, z.mid, z.hi - z.mid])


def test_criterion_4_fuzzy_layer_correctness(verdict):
    instance = generate_instance(mild_params(8, 2, 1))
    ctx = exact_bounds(instance)
    feasible = feasible_subsets(instance)
    in_bounds = True
    for solution in feasible:
        comps = spread_components(instance, solution)
        for index, name in enumerate(("z1", "z2", "z3")):
            low, high = ctx.bounds(name)
            if not (low - 1e-9 <= comps[index] <= high + 1e-9):
                in_bounds = False
        mus = ctx.memberships(comps)
        if not all(0.0 <= mu <= 1.0 for mu in mus):
            in_bounds = False
    attain = []
    for index, name in ((0, "z1"), (1, "z2"), (2, "z3")):
        target = ctx.bounds(name)[0] if name == "z1" else ctx.bounds(name)[1]
        best = min(
            feasible,
            key=lambda s: abs(spread_components(instance, s)[index] - target),
        )
        mus = ctx.memberships(spread_components(instance, best))
        attain.append(mus[index] == 1.0)
    crisp = crispen(instance)
    crisp_ctx = exact_bounds(crisp)
    crisp_eval = make_maximin_eval(crisp, crisp_ctx)
    ranked = []
    for solution in feasible_subsets(crisp):
        ranked.append(
            (crisp_objective_slice(crisp, solution, "mid"), crisp_eval(solution))
        )
    order_ok = all(
        (ca - cb) * (ea - eb) >= 0
        for (ca, ea), (cb, eb) in itertools.combinations(ranked, 2)
    )
    ok = in_bounds and all(attain) and order_ok
    verdict(
        4,
        "fuzzy-layer correctness",
        ok,
        f"memberships in [0,1]: {in_bounds}; bound attainers reach 1: {attain}; "
        f"crisp ranking matches mid slice: {order_ok}",
    )


def _single_facility_instance(rng: np.random.Generator, gamma: float):
    demand = np.sort(rng.uniform(1.0, 200.0, size=(2, 3)), axis=1)
    service = np.sort(rng.uniform(50.0, 300.0, size=(2, 3)), axis=1)
    beta = np.sort(rng.uniform(0.0, 0.9, size=3))
    instance = Instance(
        n=2,
        m_servers=1,
        distance=np.asarray([[0.0, 3.0], [3.0, 0.0]]),
        demand=demand,
        service=service,
        idle_min=TriFuzzy(*beta),
        mql=25.0,
        gamma=gamma,
    )
    rho_mid = demand[:, 1].sum() / service[0, 1]
    return instance, rho_mid, beta[1]


def test_criterion_5_constraint_transform_limits(verdict):
    rng = np.random.default_rng(0)
    mismatches = 0
    for _ in range(1000):
        instance, rho_mid, beta_mid = _single_facility_instance(rng, gamma=1.0)
        feasible, _ = fuzzy_capacity_feasible(instance, Solution([1]))
        if feasible != (rho_mid <= 1.0 - beta_mid):
            mismatches += 1
    base = generate_instance(mild_params(8, 2, 1))
    previous = None
    nested = True
    for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
        variant = dataclasses.replace(base, gamma=gamma)
        current = {
            combo
            for combo in itertools.combinations(range(1, 9), 2)
            if fuzzy_capacity_feasible(variant, Solution(combo))[0]
        }
        if previous is not None and not current <= previous:
            nested = False
        previous = current
    ok = mismatches == 0 and nested
    verdict(
        5,
        "constraint transform limits",
        ok,
        f"gamma=1 center-vs-center mismatches {mismatches}/1000; "
        f"feasible set nested over gamma grid: {nested}",
    )


def test_criterion_6_structural_invariants(verdict):
    cases = {"ga": 0, "aco": 0, "logit": 0, "aggregation": 0}
    pool = [
        generate_instance(mild_params(n, m, seed))
        for n, m, seed in [(6, 2, 0), (8, 2, 1), (8, 3, 2)]
    ]

    rng = random.Random(0)
    for _ in range(1000):
        instance = pool[rng.randrange(len(pool))]
        m = instance.m_servers
        salt = rng.randrange(1000)

        def fitness(solution):
            return sum((j * 37 + salt) % 101 for j in solution.open) / (
                10.0 * len(solution.open)
            )

        g1 = frozenset(rng.sample(range(1, instance.n + 1), m))
        g2 = frozenset(rng.sample(range(1, instance.n + 1), m))
        if g1 == g2:
            g2 = frozenset(
                sorted(g1 - {min(g1)} | {next(j for j in range(1, instance.n + 1) if j not in g1)})
            )
        child = mate(
            Chromosome(g1, fitness(Solution(g1))),
            Chromosome(g2, fitness(Solution(g2))),
            fitness,
            rng,
        )
        assert len(child.genes) == m
        assert (g1 & g2) <= child.genes
        cases["ga"] += 1
    for instance in pool:
        ctx = exact_bounds(instance)
        report = run_ga(instance, make_maximin_eval(instance, ctx), GAConfig(), seed=0)
        assert all(x <= y for x, y in zip(report.trace, report.trace[1:]))

    np_rng = np.random.default_rng(1)
    config = ACOConfig()
    tau = np.ones((1, 10))
    for _ in range(1000):
        weights = tau**config.alpha_exp
        probs = weights / weights.sum()
        assert abs(probs.sum() - 1.0) < 1e-9
        colony = [
            (np_rng.choice(10, size=3, replace=False), float(np_rng.uniform(-1.0, 1.0)))
            for _ in range(3)
        ]
        nodes, values = np.array([nodes for nodes, _ in colony]), [value for _, value in colony]
        tau = _update(tau, nodes, values, config, np.ones(3), True)
        assert np.all(tau >= TAU_MIN) and np.all(tau <= config.max_pheromone)
        cases["aco"] += 1

    for k in range(1000):
        instance = pool[k % len(pool)]
        combo = np_rng.choice(instance.n, size=instance.m_servers, replace=False) + 1
        alloc = logit_allocation(instance, Solution(combo))
        assert np.allclose(alloc.sum(axis=1), 1.0, atol=1e-9)
        cases["logit"] += 1
    for k in range(1000):
        instance = pool[(k + 1) % len(pool)]
        combo = np_rng.choice(instance.n, size=instance.m_servers, replace=False) + 1
        totals = Kernel(instance, np.sort(combo) - 1).lam_bar.sum(axis=0)
        assert np.allclose(totals, instance.demand.sum(axis=0), rtol=1e-6)
        cases["aggregation"] += 1

    ok = all(count >= 1000 for count in cases.values())
    verdict(
        6,
        "structural invariant suites",
        ok,
        "cases per suite: " + ", ".join(f"{k}={v}" for k, v in cases.items()),
    )


def _masked_result(path):
    doc = json.loads(path.read_text())
    doc["report"].pop("elapsed_s", None)
    return doc


def test_criterion_7_determinism(tmp_path, verdict):
    issues = []

    gen_a, gen_b = tmp_path / "g1.json", tmp_path / "g2.json"
    for target in (gen_a, gen_b):
        cli_main(["generate", "--n", "8", "--m", "2", "--seed", "11", "--out", str(target)])
    if gen_a.read_bytes() != gen_b.read_bytes():
        issues.append("generate not byte-identical")

    inst_path = tmp_path / "inst.json"
    save_instance(generate_instance(mild_params(6, 2, 0)), inst_path)
    for algo in ("ga", "aco", "brute"):
        res_a, res_b = tmp_path / f"{algo}_a.json", tmp_path / f"{algo}_b.json"
        for target in (res_a, res_b):
            cli_main([
                "solve", "--instance", str(inst_path), "--algo", algo,
                "--seed", "4", "--out", str(target),
            ])
        if _masked_result(res_a) != _masked_result(res_b):
            issues.append(f"solve --algo {algo} not deterministic")

    csv_a, csv_b = tmp_path / "b1.csv", tmp_path / "b2.csv"
    for target in (csv_a, csv_b):
        cli_main([
            "bench", "--instance", str(inst_path), "--replications", "2",
            "--seed", "0", "--exact-bounds", "--out", str(target),
        ])

    def masked_rows(path):
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("runtime_ms", None)
        return rows

    if masked_rows(csv_a) != masked_rows(csv_b):
        issues.append("bench rows not deterministic")

    ok = not issues
    verdict(7, "determinism", ok, "all artifacts reproduce" if ok else "; ".join(issues))
