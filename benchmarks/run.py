"""fuzzloc benchmark: seven-run GA and ACO solves, the brute-force oracle and
the M/M/1 simulator, in one closed loop with one caller.

    python3 benchmarks/run.py --workload mild20 --seed 0 --seconds 35 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced pass. End-to-end
times are scaled to a nominal machine speed by an interleaved reference
loop. See benchmarks/README.md for the workloads, the scaling and what each
metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

OPS = ("ga", "aco", "brute", "sim")
SETUP_PROBES = 7
# Nominal wall time of reference_work() on a 2-core Xeon; it only sets the
# scale of the end-to-end times.
REFERENCE_S = 0.090
KERNEL_SAMPLE = 200  # random subsets per kernel timing
KERNEL_REPEATS = 5
SIM_TOLERANCE = 0.2  # relative; ~4 standard errors of Lq at rho=0.8 and 10^5 events
NETWORK_TOLERANCE = 0.05  # `fuzzloc validate --network-tolerance` default

END_TO_END_UNITS = {
    "setup_s": "s",
    "ga_solve_s": "s",
    "aco_solve_s": "s",
    "brute_solve_s": "s",
    "sim_events_per_s": "1/s",
}

SETUP_PROBE = """
import sys, time
sys.path[:0] = [{bench!r}, {src!r}]
start = time.perf_counter()
import workloads
workloads.build_instance({name!r})
print(time.perf_counter() - start)
"""


@dataclass
class Outcome:
    op: str
    round: int
    seconds: float
    result: object = None
    error: Optional[Exception] = None  # raised by the call: a failed operation


def limit_threads() -> dict:
    """Pin BLAS/OpenMP pools to at most nproc threads (default 1), before
    numpy is imported, and return the settings used."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "1")
        os.environ[var] = str(max(1, min(int(value), nproc))) if value.isdigit() else "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def machine_record(threads: dict) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
    }


def reference_work() -> float:
    """Fixed work that calls no fuzzloc code: an arithmetic loop, small numpy
    operations, and a dict and a sort over a few MB, like the program's mix
    of interpreter, numpy and memory work. Its wall time tracks the speed
    the shared machine gives this process."""
    import numpy

    total = 0.0
    for i in range(200_000):
        total += i * i % 7
    x = numpy.linspace(0.1, 1.0, 20)
    for _ in range(2_000):
        y = numpy.exp(-x)
        total += float(y.sum() / (1.0 + y.max()))
    table = {((i * 7919) % 100_003, i & 7): i for i in range(80_000)}
    total += sum(table.get(((i * 7919) % 100_003, i & 7), 0) for i in range(80_000))
    values = [((i * 2_654_435_761) % 1_000_003) / 7.0 for i in range(80_000)]
    values.sort()
    return total + values[0]


def time_reference(samples: list) -> None:
    start = time.perf_counter()
    reference_work()
    samples.append(time.perf_counter() - start)


def speed_scale(samples: list) -> float:
    """Factor that turns a wall time measured among these reference samples
    into seconds at the nominal speed of REFERENCE_S."""
    return REFERENCE_S / statistics.fmean(samples)


def setup_seconds(name: str) -> tuple[float, float]:
    """Median over fresh interpreters of importing fuzzloc and building the
    workload's instance, raw and scaled to the nominal speed by reference
    samples taken between the interpreters."""
    code = SETUP_PROBE.format(bench=str(BENCH_DIR), src=str(SRC), name=name)
    times, reference = [], []
    for _ in range(SETUP_PROBES):
        time_reference(reference)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    time_reference(reference)
    raw = statistics.median(times)
    return raw, raw * speed_scale(reference)


class Oracle:
    """Exhaustive optimum of the maximin fitness, per bound context.

    The first pass is a plain enumerate_optimum over every subset. Fitness is
    negative exactly on infeasible subsets, whatever the bounds, so later
    passes skip those; when none is feasible every subset is kept.
    """

    def __init__(self, fz, instance, tracer) -> None:
        self.fz, self.instance, self.tracer = fz, instance, tracer
        self.feasible = None
        self.optima: dict = {}

    def optimum(self, ctx):
        if ctx.bounds_id in self.optima:
            return self.optima[ctx.bounds_id]
        fitness = self.fz.make_maximin_eval(self.instance, ctx)
        if self.feasible is None:
            with self.tracer.span("oracle.enumerate_optimum"):
                result = self.fz.enumerate_optimum(self.instance, fitness, keep_table=True)
            self.feasible = {key for key, value in result.table.items() if value >= 0}
        elif self.feasible:
            result = self.fz.enumerate_optimum(
                self.instance,
                lambda s: fitness(s) if s.open in self.feasible else -math.inf,
            )
        else:
            result = self.fz.enumerate_optimum(self.instance, fitness)
        self.optima[ctx.bounds_id] = result
        return result

    def any_feasible(self) -> bool:
        if self.feasible is None:
            self.optimum(self.fz.MaximinContext((0, 1), (0, 1), (0, 1), "probe"))
        return bool(self.feasible)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        import fuzzloc
        import fuzzloc.evaluation
        import workloads

        self.fz, self.wl = fuzzloc, workloads
        self.spec = workloads.WORKLOADS[workload]
        self.instance = workloads.build_instance(workload)
        self.rounds = max(2, round(seconds / self.spec.round_s))
        rng = random.Random(seed)
        self.sim_seeds = [rng.randrange(2**31) for _ in range(self.rounds)]
        self.network_seed = rng.randrange(2**31)
        self.replay_round = seed % self.rounds
        n, m = self.instance.n, self.instance.m_servers
        self.sample = [fuzzloc.Solution(rng.sample(range(1, n + 1), m))
                       for _ in range(KERNEL_SAMPLE)]
        self.failures: list[str] = []
        self.attempted = 0
        self.reference_s: list[float] = []  # reference_work() wall times

    # -- timed work -------------------------------------------------------

    def run_rounds(self, tracer) -> tuple[list[Outcome], float]:
        """One GA solve, one ACO solve, one brute solve and one simulator call
        per round; GA and ACO use solver seed = round number. A reference
        sample precedes every operation."""
        outcomes = []
        start = time.perf_counter()
        for r in range(self.rounds):
            for op in OPS:
                time_reference(self.reference_s)
                outcome = Outcome(op, r, 0.0)
                with tracer.span(op, round=r) as span:
                    try:
                        outcome.result = self._call(op, r)
                    except Exception as exc:  # checked below as a failure
                        outcome.error = exc
                outcome.seconds = span["end"] - span["start"]
                outcomes.append(outcome)
        time_reference(self.reference_s)
        return outcomes, time.perf_counter() - start

    def _call(self, op: str, r: int):
        fz, wl = self.fz, self.wl
        if op in ("ga", "aco"):
            return fz.solve_protocol(self.instance, op, seed=r,
                                     ga_config=wl.GA_CONFIG, aco_config=wl.ACO_CONFIG)
        if op == "brute":
            try:
                return fz.solve_protocol(self.instance, "brute")
            except fz.InfeasibleInstanceError as exc:
                return exc  # the documented outcome when no subset is feasible
        rho = wl.SIM_RHOS[r % len(wl.SIM_RHOS)]
        return fz.mm1_simulate(rho * wl.SIM_MU, wl.SIM_MU, self.spec.sim_events,
                               seed=self.sim_seeds[r])

    def network_check(self, tracer) -> None:
        """`fuzzloc validate`'s cross-check: simulated against analytic mid-slice
        objective of the best subset of the 6-node validation instance."""
        fz = self.fz
        instance = self.wl.validation_instance()

        def mid(solution):
            value = fz.crisp_objective_slice(instance, solution, "mid")
            return -math.inf if value is None else value

        self.attempted += 1
        try:
            best = fz.enumerate_optimum(instance, mid).best
            with tracer.span("oracle.simulate_objective_slice"):
                simulated = fz.oracle.simulate_objective_slice(
                    instance, best, "mid", self.wl.NETWORK_EVENTS, seed=self.network_seed)
        except Exception as exc:
            self.failures.append(f"network slice: raised {exc!r}")
            return
        analytic = mid(best)
        if abs(simulated - analytic) > NETWORK_TOLERANCE * abs(analytic):
            self.failures.append(f"network slice: simulated {simulated} vs analytic {analytic}")

    # -- output checks ----------------------------------------------------

    def check(self, outcomes: list[Outcome], oracle: Oracle) -> dict:
        """Check every outcome; return the gaps to the exhaustive optimum by
        algorithm. Failures go to self.failures."""
        gaps: dict[str, list[float]] = {"ga": [], "aco": []}
        for outcome in outcomes:
            self.attempted += 1
            try:
                problem = self._problem(outcome, oracle, gaps)
            except Exception as exc:
                problem = f"check raised {exc!r}"
            if problem:
                self.failures.append(f"{outcome.op} round {outcome.round}: {problem}")
        return gaps

    def _problem(self, outcome: Outcome, oracle: Oracle, gaps: dict):
        fz, result = self.fz, outcome.result
        if outcome.error is not None:
            return f"raised {outcome.error!r}"
        if outcome.op == "sim":
            rho = self.wl.SIM_RHOS[outcome.round % len(self.wl.SIM_RHOS)]
            p0, lq = fz.mm1_metrics(rho * self.wl.SIM_MU, self.wl.SIM_MU)
            if abs(result.lq - lq) > SIM_TOLERANCE * lq or abs(result.p0 - p0) > SIM_TOLERANCE * p0:
                return f"rho={rho}: simulated (P0, Lq) = ({result.p0}, {result.lq}), analytic ({p0}, {lq})"
            return None
        if isinstance(result, fz.InfeasibleInstanceError):
            if oracle.any_feasible():
                return "raised InfeasibleInstanceError on a feasible instance"
            return None
        report, ctx = result
        problem = self._report_problem(report, ctx)
        if problem:
            return problem
        optimum = oracle.optimum(ctx)
        if outcome.op == "brute":
            if report.objective != optimum.best_value or report.best != optimum.best.sorted():
                return f"brute {report.best}={report.objective} != enumeration {optimum.best}={optimum.best_value}"
            return None
        if report.objective > optimum.best_value:
            return f"objective {report.objective} above the exhaustive optimum {optimum.best_value}"
        gaps[outcome.op].append(optimum.best_value - report.objective)
        return None

    def _report_problem(self, report, ctx):
        n, m = self.instance.n, self.instance.m_servers
        best = report.best
        if len(best) != m or len(set(best)) != m or not all(1 <= j <= n for j in best):
            return f"best {best} is not {m} distinct facilities in 1..{n}"
        value = self.fz.evaluate(self.instance, self.fz.Solution(best), ctx)
        if value != report.objective:
            return f"objective {report.objective} != re-evaluated fitness {value}"
        if report.objective > 1:
            return f"feasible objective {report.objective} outside [0, 1]"
        return None

    def replay(self, outcomes: list[Outcome]) -> None:
        """Solve one seed again for each solver; best and objective must match."""
        r = self.replay_round
        for outcome in outcomes:
            if outcome.round != r or outcome.op not in ("ga", "aco"):
                continue
            self.attempted += 1
            if outcome.error is not None:
                self.failures.append(f"replay {outcome.op} seed {r}: first solve raised")
                continue
            first = outcome.result[0]
            try:
                again = self._call(outcome.op, r)[0]
            except Exception as exc:
                self.failures.append(f"replay {outcome.op} seed {r}: raised {exc!r}")
                continue
            if (again.best, again.objective) != (first.best, first.objective):
                self.failures.append(
                    f"replay {outcome.op} seed {r}: {again.best}={again.objective} "
                    f"!= {first.best}={first.objective}")

    # -- per-layer kernel timings -----------------------------------------

    def kernel_us(self, ctx) -> dict:
        """Median µs per call of each kernel entry point over a fixed sample of
        random subsets, and the share of that sample that is feasible."""
        fz, ev, inst = self.fz, self.fz.evaluation, self.instance
        calls = {
            "evaluation.evaluate_us": lambda s: ev.evaluate(inst, s, ctx),
            "evaluation.component_value_us": lambda s: ev.component_value(inst, s, "z2"),
            "evaluation.violation_total_us": lambda s: ev.violation_total(inst, s),
            "evaluation.fuzzy_objective_us": lambda s: ev.fuzzy_objective(inst, s),
            "evaluation.fuzzy_capacity_feasible_us": lambda s: ev.fuzzy_capacity_feasible(inst, s),
            "model.logit_allocation_us": lambda s: fz.logit_allocation(inst, s),
            "model.crisp_objective_slice_us": lambda s: fz.crisp_objective_slice(inst, s, "mid"),
            "model.solution_us": lambda s: fz.Solution(s.open),
        }
        out = {}
        for name, call in calls.items():
            times = []
            for _ in range(KERNEL_REPEATS):
                start = time.perf_counter()
                for solution in self.sample:
                    call(solution)
                times.append((time.perf_counter() - start) / len(self.sample))
            out[name] = statistics.median(times) * 1e6
        feasible = [ev.fuzzy_capacity_feasible(inst, s)[0] and ev.fuzzy_objective(inst, s) is not None
                    for s in self.sample]
        out["evaluation.feasible_share"] = sum(feasible) / len(feasible)
        return out

    def load_seconds(self, name: str) -> float:
        times = []
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            self.wl.build_instance(name)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def _median_of(outcomes: list[Outcome], op: str, value) -> float:
    values = [value(o) for o in outcomes if o.op == op and o.error is None]
    if not values:
        raise RuntimeError(f"no successful {op} operation to time")
    return statistics.median(values)


def _mean_seconds(outcomes: list[Outcome], op: str) -> float:
    """Mean wall time of the run's operations of one kind: the same solver
    seeds and simulator loads in every run of a given length."""
    seconds = [o.seconds for o in outcomes if o.op == op and o.error is None]
    if not seconds:
        raise RuntimeError(f"no successful {op} operation to time")
    return statistics.fmean(seconds)


def end_to_end(bench: Bench, outcomes: list[Outcome], setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics at the nominal speed, and the raw wall-clock
    figures they were scaled from."""
    raw = {
        "ga_solve_s": _mean_seconds(outcomes, "ga"),
        "aco_solve_s": _mean_seconds(outcomes, "aco"),
        "brute_solve_s": _mean_seconds(outcomes, "brute"),
        "sim_events_per_s": bench.spec.sim_events / _mean_seconds(outcomes, "sim"),
    }
    scale = speed_scale(bench.reference_s)
    values = {name: value / scale if name.endswith("_per_s") else value * scale
              for name, value in raw.items()}
    values = {"setup_s": setup_s, **values}
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
    return metrics, {**raw, "speed_scale": scale}


def per_layer(bench: Bench, tracer, outcomes, gaps, extra: dict) -> dict:
    """Aggregate the traced pass. Solver and protocol figures are per solve
    (totals over the pass divided by the number of solves)."""
    spans = tracer.spans
    by_id = {span["id"]: span for span in spans}

    def dur(span):
        return span["end"] - span["start"]

    solves = [s for s in spans if s["name"] in ("ga", "aco")]
    metrics: dict[str, tuple[float, str]] = {}
    bound = sum(dur(s) for s in spans if s["name"] == "protocol.bound_runs")
    final = sum(dur(s) for s in spans if s["name"] in ("ga.run", "aco.run")
                and by_id[s["parent"]]["name"] in ("ga", "aco"))
    nan_bounds = sum(
        sum(math.isnan(x) for x in (*o.result[1].z1_bounds, *o.result[1].z2_bounds, *o.result[1].z3_bounds))
        for o in outcomes if o.op in ("ga", "aco") and o.error is None)
    metrics["protocol.bound_runs_s"] = (bound / len(solves), "s")
    metrics["protocol.final_run_s"] = (final / len(solves), "s")
    metrics["protocol.other_s"] = ((sum(dur(s) for s in solves) - bound - final) / len(solves), "s")
    metrics["protocol.nan_bounds"] = (nan_bounds / len(solves), "count")
    for algo in ("ga", "aco"):
        runs = [s for s in spans if s["name"] == f"{algo}.run"]
        count = sum(1 for s in solves if s["name"] == algo)
        calls = sum(s["calls"] for s in runs)
        distinct = sum(s["distinct"] for s in runs)
        fitness_s = sum(s["fitness_s"] for s in runs)
        metrics[f"{algo}.calls"] = (calls / count, "count")
        metrics[f"{algo}.distinct"] = (distinct / count, "count")
        metrics[f"{algo}.repeat_share"] = (1 - distinct / calls, "ratio")
        metrics[f"{algo}.iterations"] = (sum(s["iterations"] for s in runs) / count, "count")
        metrics[f"{algo}.fitness_s"] = (fitness_s / count, "s")
        metrics[f"{algo}.self_s"] = ((sum(dur(s) for s in runs) - fitness_s) / count, "s")
        metrics[f"{algo}.gap"] = (statistics.fmean(gaps[algo]), "fitness")
    for name, value in extra.items():
        metrics[name] = (value, "ratio" if name.endswith("_share") else "us" if name.endswith("_us") else "s")

    def median_span(name):
        return statistics.median(dur(s) for s in spans if s["name"] == name)

    subsets = math.comb(bench.instance.n, bench.instance.m_servers)
    exact_s = median_span("oracle.exact_bounds")
    enum_s = median_span("oracle.enumerate_optimum")
    metrics["oracle.exact_bounds_s"] = (exact_s, "s")
    metrics["oracle.enumerate_optimum_s"] = (enum_s, "s")
    metrics["oracle.subsets"] = (subsets, "count")
    metrics["oracle.us_per_subset"] = ((exact_s + enum_s) / (2 * subsets) * 1e6, "us")
    events = bench.spec.sim_events
    metrics["oracle.mm1_simulate_s"] = (_median_of(outcomes, "sim", lambda o: o.seconds * 1e6 / events), "s")
    metrics["oracle.simulate_objective_slice_s"] = (median_span("oracle.simulate_objective_slice"), "s")
    lq_errors = []
    for o in outcomes:
        if o.op == "sim" and o.error is None:
            rho = bench.wl.SIM_RHOS[o.round % len(bench.wl.SIM_RHOS)]
            lq = bench.fz.mm1_metrics(rho * bench.wl.SIM_MU, bench.wl.SIM_MU)[1]
            lq_errors.append(abs(o.result.lq - lq) / lq)
    metrics["oracle.sim_lq_err"] = (statistics.fmean(lq_errors), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    threads = limit_threads()
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    try:
        import workloads
        from tracer import Tracer
    except ImportError as exc:
        print(f"error: cannot import fuzzloc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(workloads.fuzzloc.__file__).resolve().parents:
        print(f"error: fuzzloc was imported from {workloads.fuzzloc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    machine = machine_record(threads)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": machine}))

    # The traced run splits its time between an untraced and a traced pass
    # over the same rounds; their difference is the tracing overhead.
    bench = Bench(args.workload, args.seed, args.seconds / 2 if args.trace else args.seconds)
    if args.trace:
        _, untraced_s = bench.run_rounds(Tracer())
        tracer = Tracer()
        tracer.install()
        try:
            outcomes, traced_s = bench.run_rounds(tracer)
        finally:
            tracer.uninstall()
    else:
        setup_raw_s, setup_s = setup_seconds(args.workload)
        tracer = Tracer()
        outcomes, _ = bench.run_rounds(tracer)
    # Everything below runs after the timed rounds.
    oracle = Oracle(bench.fz, bench.instance, tracer)
    gaps = bench.check(outcomes, oracle)
    bench.network_check(tracer)
    bench.replay(outcomes)
    if args.trace:
        first_ctx = next(o.result[1] for o in outcomes
                         if o.op == "ga" and o.error is None)
        extra = bench.kernel_us(first_ctx)
        extra["instances.load_s"] = bench.load_seconds(args.workload)
        extra["trace.overhead_s"] = traced_s - untraced_s
        metrics = per_layer(bench, tracer, outcomes, gaps, extra)
        raw = {}
    else:
        metrics, raw = end_to_end(bench, outcomes, setup_s)
        raw["setup_s"] = setup_raw_s
        print(json.dumps({"raw": raw}))

    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"machine": machine, "rounds": bench.rounds,
                               "metrics": metrics, "raw": raw, "failures": bench.failures,
                               "reference_s": bench.reference_s,
                               "spans": tracer.spans}) + "\n")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
