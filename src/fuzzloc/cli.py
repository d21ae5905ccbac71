"""Benchmark command line: generate, solve, bench, tune, validate.

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 validation failure.
The enumeration budget can be overridden with FUZZLOC_ENUM_BUDGET, a positive
integer; any other value is a usage error. So is an --events,
--network-events or --replications count below 1, a validate --rho
that is not a finite number above 0, a solve given both --bounds and
--exact-bounds, and a generate --table1 given a generator flag.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .aco import ACOConfig
from .errors import BudgetExceededError, DomainError, InfeasibleInstanceError, InstanceFormatError
from .evaluation import MaximinContext
from .fuzzy import SLICE_INDEX, TriFuzzy
from .instances import (
    GeneratorParams,
    generate_instance,
    load_instance,
    save_instance,
    table1_bytes,
)
from .model import Instance, Kernel, Solution, mm1_metrics
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    exact_bounds,
    mm1_simulate,
    simulate_objective_slice,
)
from .protocol import estimate_bounds, solve_protocol
from .reports import check_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VALIDATION = 3

BENCH_HEADER = [
    "algorithm", "instance", "n", "m", "seed", "objective",
    "runtime_ms", "facilities", "termination", "bounds_id", "evals",
]


_SOLVE_ERRORS = (DomainError, InfeasibleInstanceError, BudgetExceededError)

# validate's relative tolerance at rho <= 0.8. A row is enforced when this
# bar spans at least ENFORCE_SPAN standard errors of its simulated mean.
VALIDATE_TOLERANCE = 0.02
ENFORCE_SPAN = 2.5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return format(value, ".12g")


def _write_table(path: Path, header: list, rows) -> None:
    """A CSV file: the header, then each row as ``rows`` yields it, with
    every float formatted by _fmt."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _enum_budget() -> int:
    """FUZZLOC_ENUM_BUDGET, or the default when it is unset or empty; any
    other value that is not a positive integer is a usage error."""
    raw = os.environ.get("FUZZLOC_ENUM_BUDGET")
    if not raw:
        return DEFAULT_ENUM_BUDGET
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"FUZZLOC_ENUM_BUDGET {exc}") from None


def _finite_float(*, zero_ok: bool) -> Callable[[str], float]:
    """argparse type of a finite number above 0, or at least 0 if ``zero_ok``."""
    bound = "at least" if zero_ok else "above"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (0 <= value if zero_ok else 0 < value) or value == math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number {bound} 0, got {text!r}")
        return value

    return parse


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _load(path: str, gamma=None, logit=None) -> Instance:
    instance = load_instance(path)
    if gamma is not None or logit is not None:
        instance = dataclasses.replace(
            instance,
            gamma=instance.gamma if gamma is None else gamma,
            logit_sensitivity=instance.logit_sensitivity if logit is None else logit,
        )
    return instance


def _context(args, instance: Instance) -> Optional[MaximinContext]:
    """Bounds of a solve: replayed from a ``--bounds`` result file, exact
    for ``--exact-bounds``, or None, which lets the solve calibrate them."""
    if getattr(args, "bounds", None):
        try:  # not text, not JSON, or not what MaximinContext.to_dict writes
            doc = json.loads(Path(args.bounds).read_text())
            ctx = MaximinContext.from_dict(doc.get("bounds") if isinstance(doc, dict) else None)
        except ValueError as exc:
            raise UsageError(f"{args.bounds} is not a result file: {exc}") from exc
        # A stored id that its bounds no longer give: the bounds were edited.
        if "bounds_id" in doc and doc["bounds_id"] != ctx.bounds_id:
            raise UsageError(f"{args.bounds} holds bounds_id {doc['bounds_id']!r}, "
                             f"but its bounds give {ctx.bounds_id!r}")
        return ctx
    if args.exact_bounds:
        return exact_bounds(instance, budget=_enum_budget())
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random or fixture instance file")
    gen.add_argument("--out", required=True)
    gen.add_argument("--table1", action="store_true", help="write the 20-node fixture instead")
    # a generator flag that is not given keeps its default: n = 20, m = 5, else GeneratorParams'
    generator = gen.add_argument_group("generator", argument_default=argparse.SUPPRESS)
    span = {"type": int, "nargs": 2, "metavar": ("MIN", "MAX")}
    flags = [
        generator.add_argument("--n", type=int),
        generator.add_argument("--m", dest="m_servers", type=int, metavar="M"),
        generator.add_argument("--seed", type=int),
        generator.add_argument("--demand-lo", dest="demand_lo_range", **span),
        generator.add_argument("--demand-offsets", type=int, nargs=2),
        generator.add_argument("--service-lo", dest="service_lo_range", **span),
        generator.add_argument("--service-offsets", type=int, nargs=2),
        generator.add_argument("--distance", dest="distance_range", **span),
        generator.add_argument("--idle-min", type=float, nargs=3),
        generator.add_argument("--mql", type=float),
        generator.add_argument("--gamma", type=float),
        generator.add_argument("--logit", dest="logit_sensitivity", type=float),
    ]
    # each GeneratorParams field's flag, which --table1 refuses
    gen.set_defaults(generator_flags={flag.dest: flag.option_strings[0] for flag in flags})

    slv = sub.add_parser("solve", help="run the full 7-run protocol on one instance")
    slv.add_argument("--instance", required=True)
    slv.add_argument("--algo", choices=("ga", "aco", "brute"), default="ga")
    slv.add_argument("--seed", type=int, default=0)
    slv.add_argument("--out", help="result file (report + bound context JSON)")
    bounds = slv.add_mutually_exclusive_group()
    bounds.add_argument("--exact-bounds", action="store_true")
    bounds.add_argument("--bounds", help="replay bounds from a prior result file")
    slv.add_argument("--gamma", type=float)
    slv.add_argument("--logit", type=float)

    ben = sub.add_parser("bench", help="paired GA/ACO replications over shared seeds")
    ben.add_argument("--instance", action="append", required=True)
    ben.add_argument("--replications", type=_positive_int, default=5)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--out", required=True, help="CSV output path")
    ben.add_argument("--exact-bounds", action="store_true")
    ben.add_argument("--gamma", type=float)
    ben.add_argument("--logit", type=float)

    tun = sub.add_parser("tune", help="full-factorial grid over ACO parameters")
    tun.add_argument("--instance", required=True)
    tun.add_argument("--seeds", type=int, nargs="+", default=[0])
    tun.add_argument("--out", required=True)
    tun.add_argument("--evaporation", type=float, nargs="+", default=[0.95, 0.99])
    tun.add_argument("--max-pheromone", type=float, nargs="+", default=[150, 250])
    tun.add_argument("--coefficient", type=int, nargs="+", default=[1, 3])
    tun.add_argument("--alpha", type=float, nargs="+", default=[0.5, 1])
    tun.add_argument("--beta", type=float, nargs="+", default=[0.5, 1])
    tun.add_argument("--exact-bounds", action="store_true")

    val = sub.add_parser("validate", help="check analytic queue formulas against simulation")
    val.add_argument("--events", type=_positive_int, default=10**6)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--rho", type=_finite_float(zero_ok=False), nargs="+",
                     default=[0.3, 0.5, 0.8])
    val.add_argument("--tolerance", type=_finite_float(zero_ok=True), default=VALIDATE_TOLERANCE)
    val.add_argument("--network-events", type=_positive_int, default=200_000)
    val.add_argument("--network-tolerance", type=_finite_float(zero_ok=True), default=0.05)
    val.add_argument("--skip-network", action="store_true")
    return parser


def cmd_generate(args) -> int:
    flags = args.generator_flags
    # in the order given, as each flag sets its field when it is parsed
    given = {k: tuple(v) if isinstance(v, list) else v for k, v in vars(args).items() if k in flags}
    if args.table1:
        if given:
            raise UsageError(f"--table1 takes no generator flag, got {flags[next(iter(given))]}")
        Path(args.out).write_bytes(table1_bytes())
        print(f"wrote table1 fixture to {args.out}")
        return EXIT_OK
    if "idle_min" in given:
        given["idle_min"] = TriFuzzy(*given["idle_min"])
    params = GeneratorParams(**{"n": 20, "m_servers": 5, **given})
    save_instance(generate_instance(params), args.out)
    print(f"wrote n={params.n} m={params.m_servers} instance to {args.out}")
    return EXIT_OK


def _result_doc(report, ctx: MaximinContext) -> str:
    doc = {"report": report.to_dict(), "bounds": ctx.to_dict(), "bounds_id": ctx.bounds_id}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_solve(args) -> int:
    instance = _load(args.instance, args.gamma, args.logit)
    # A brute solve computes exact bounds in its own enumeration pass.
    own_bounds = args.algo == "brute" and args.exact_bounds
    report, ctx = solve_protocol(
        instance,
        args.algo,
        seed=args.seed,
        enum_budget=_enum_budget(),
        ctx=None if own_bounds else _context(args, instance),
    )
    if args.out:
        Path(args.out).write_text(_result_doc(report, ctx))
    facilities = ",".join(str(j) for j in report.best)
    print(f"algorithm   : {report.algorithm}")
    print(f"objective   : {_fmt(report.objective)}")
    print(f"facilities  : {facilities}")
    print(f"iterations  : {report.iterations} ({report.termination})")
    print(f"runtime     : {report.elapsed_s * 1000:.1f} ms")
    print(f"bounds      : {ctx.provenance} ({ctx.bounds_id})")
    return EXIT_OK


def _bench_row(instance: Instance, name: str, algo: str, seed: int, ctx) -> dict:
    """One bench row. ``ctx`` is the instance's bounds, None to calibrate
    them, or the error that building them raised; that error or a failed
    solve gives NaN figures and an ``error:`` termination."""
    row = {
        "algorithm": algo, "instance": name, "n": instance.n, "m": instance.m_servers,
        "seed": seed, "objective": math.nan, "runtime_ms": math.nan, "facilities": "",
        "termination": "", "bounds_id": "", "evals": 0,
    }
    try:
        if isinstance(ctx, Exception):
            raise ctx
        report, ctx = solve_protocol(instance, algo, seed=seed, ctx=ctx)
    except _SOLVE_ERRORS as exc:
        row["termination"] = f"error:{exc}"
        return row
    row.update(
        objective=report.objective,
        runtime_ms=report.elapsed_s * 1000.0,
        facilities=";".join(str(j) for j in report.best),
        termination=report.termination,
        bounds_id=ctx.bounds_id,
        evals=report.evaluations,
    )
    return row


def cmd_bench(args) -> int:
    # every file is loaded first, so a bad one stops the command before any run
    instances = [(path, _load(path, args.gamma, args.logit)) for path in args.instance]
    rows, plots = [], {"runtime": [], "objective": []}
    for inst_path, instance in instances:
        name = Path(inst_path).stem  # the CSV's instance column
        try:  # bounds depend on the instance only: build them once
            ctx = _context(args, instance)
        except _SOLVE_ERRORS as exc:
            ctx = exc
        # each algorithm's (runtime, objective) means over this instance's rows
        means = {}
        for algo in ("ga", "aco"):
            solved = [
                _bench_row(instance, name, algo, args.seed + rep, ctx)
                for rep in range(args.replications)
            ]
            rows += solved
            done = [row for row in solved if not math.isnan(row["objective"])]
            means[algo] = [
                float(np.mean([row[key] for row in done])) if done else math.nan
                for key in ("runtime_ms", "objective")
            ]
        for algo, pair in sorted(means.items()):
            for plot, mean in zip(plots.values(), pair):
                plot.append([instance.n, algo, mean])
        (ga_rt, ga_obj), (aco_rt, aco_obj) = means["ga"], means["aco"]
        if math.isnan(ga_obj) or math.isnan(aco_obj):
            print(f"{inst_path}: incomplete results")
            continue
        gap = (ga_obj - aco_obj) / abs(ga_obj) * 100.0 if ga_obj != 0 else math.nan
        print(
            f"{inst_path}: GA obj {_fmt(ga_obj)} ({ga_rt:.0f} ms) | "
            f"ACO obj {_fmt(aco_obj)} ({aco_rt:.0f} ms) | gap {gap:.2f}%"
        )
    out = Path(args.out)
    _write_table(out, BENCH_HEADER, ([row[key] for key in BENCH_HEADER] for row in rows))
    for field, plot in plots.items():
        _write_table(out.with_name(f"{out.stem}_{field}_vs_n.csv"),
                     ["n", "algorithm", "mean_" + field], plot)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_tune(args) -> int:
    instance = _load(args.instance)
    grid = list(itertools.product(
        args.evaporation, args.max_pheromone, args.coefficient, args.alpha, args.beta
    ))
    # one config per cell, built first: a bad value stops the command before any run or file
    cells = [
        ACOConfig(evaporation_rate=ev, max_pheromone=ph, population_coefficient=co,
                  alpha_exp=al, beta_exp=be)
        for ev, ph, co, al, be in grid
    ]
    ctx = _context(args, instance)
    contexts = {seed: ctx or estimate_bounds(instance, ACOConfig(), seed) for seed in args.seeds}
    header = [
        "evaporation_rate", "max_pheromone", "population_coefficient",
        "alpha_exp", "beta_exp", "mean_objective",
    ]

    def mean_objective(config) -> float:
        return float(np.mean([
            solve_protocol(instance, "aco", seed=seed, aco_config=config, ctx=contexts[seed])[0]
            .objective
            for seed in args.seeds
        ]))

    # each cell's row is written as soon as its seeds are solved
    out = Path(args.out)
    rows = ([*values, mean_objective(config)] for values, config in zip(grid, cells))
    _write_table(out, header, rows)
    print(f"wrote {len(cells)} cells to {out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    mu = 100.0
    if all(mm1_metrics(rho * mu, mu) is None for rho in args.rho):
        raise UsageError("no --rho is below 1: every queue is unstable, so no row can be checked")
    failures = unchecked = 0
    print("rho    quantity  analytic   simulated  rel_err   tolerance  verdict")
    for rho in args.rho:
        lam = rho * mu
        analytic = mm1_metrics(lam, mu)
        if analytic is None:
            print(f"{rho:<6.3g} skipped (unstable)")
            continue
        # SE of queue estimates blows up as rho -> 1; relax relative to rho=0.8
        relax = max(1.0, (1.0 / (1.0 - rho)) / (1.0 / (1.0 - 0.8)))
        tol = args.tolerance * relax
        # Independent replications: one run's Lq at rho = 0.8 is off by 2-4%
        # on seed noise alone; the mean of five is within about 1%.
        runs = [mm1_simulate(lam, mu, args.events, seed=5 * args.seed + r) for r in range(5)]
        p0, lq = np.mean([(sim.p0, sim.lq) for sim in runs], axis=0)
        # standard errors of the two means, from each run's batch means
        p0_se, lq_se = np.sqrt(np.sum([(sim.p0_se**2, sim.lq_se**2) for sim in runs], axis=0)) / 5
        rows = (("P0", analytic[0], p0, p0_se), ("Lq", analytic[1], lq, lq_se))
        for label, ref, est, se in rows:
            rel = abs(est - ref) / abs(ref)
            ok = rel <= tol
            # NaN (one batch per run) is never enforceable
            enforce = ENFORCE_SPAN * se <= VALIDATE_TOLERANCE * relax * abs(ref)
            failures += enforce and not ok
            unchecked += not enforce
            verdict = ("pass" if ok else "FAIL") if enforce else "unchecked"
            print(
                f"{rho:<6.3g} {label:<9} {ref:<10.5f} {est:<10.5f} "
                f"{rel:<9.5f} {tol:<10.5f} {verdict}"
            )
        if relax > 1:
            print(f"       (tolerance relaxed x{relax:.1f} for rho={rho:g})")
    if unchecked:
        print(
            f"warning: {unchecked} rows have a standard error above 1/{ENFORCE_SPAN:g} of "
            f"the {VALIDATE_TOLERANCE:g} bar at {args.events} events; their tolerance is "
            "not enforceable and was not checked"
        )
    if not args.skip_network:
        # a small, comfortably stable instance
        instance = generate_instance(GeneratorParams(
            n=6, m_servers=2, demand_lo_range=(4, 30), demand_offsets=(10, 20), seed=123,
        ))
        # every subset's mid-slice objective where that slice is stable, on one kernel
        subsets = np.array(list(itertools.combinations(range(instance.n), instance.m_servers)))
        kernel, mid = Kernel(instance, subsets), SLICE_INDEX["mid"]
        scores = np.where(kernel.stable()[:, mid], kernel.slices()[:, mid], -math.inf)
        first = int(np.argmax(scores))
        best, analytic_obj = Solution(subsets[first] + 1), float(scores[first])
        sim_obj = simulate_objective_slice(
            instance, best, "mid", args.network_events, seed=args.seed
        )
        rel = abs(sim_obj - analytic_obj) / abs(analytic_obj)
        ok = rel <= args.network_tolerance
        failures += not ok
        print(
            f"network objective (mid slice, facilities {best}): analytic "
            f"{analytic_obj:.4f}, simulated {sim_obj:.4f}, rel_err {rel:.5f} "
            f"-> {'pass' if ok else 'FAIL'}"
        )
    if failures:
        print(f"validation FAILED ({failures} breaches)")
        return EXIT_VALIDATION
    print("validation passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "generate": cmd_generate,
        "solve": cmd_solve,
        "bench": cmd_bench,
        "tune": cmd_tune,
        "validate": cmd_validate,
    }
    try:
        # Before any run or output, naming the bad seed: bench and validate run
        # on seeds derived from --seed (seed + r and 5 * seed + r), tune on --seeds.
        for seed in getattr(args, "seeds", [getattr(args, "seed", 0)]):
            check_seed(seed)
        return handlers[args.command](args)
    except (UsageError, DomainError, InstanceFormatError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleInstanceError, BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
