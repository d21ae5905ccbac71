"""Per-stage cost of the solver rounds' scoring pass, on recorded blocks.

    PYTHONPATH=src python3 tools/stage_times.py [--workloads table1 mild20] [--passes 30]

For each workload (an instance of benchmarks/workloads.py) it runs one ACO
and then one GA ``solve_protocol`` at seed 0 with the benchmark's configs
(stagnation window 100), and records every block that ``evaluation.drive``
scores, once, with the fitness calls that score its rows: the final run's
``MaximinFitness`` and the bound runs' ``_BoundFitness``. It then replays
every recorded block, in ``--passes`` passes that alternate the order of
the solves, through the stages of a round:

    table      block_figures(instance, idx), a block of m-subsets that the
               instance's figures table served
    Kernel()   Kernel(instance, idx), any other block
    figures()  kernel.figures()
    score      each member's fitness.score(...) on its rows of the figures

and prints, per solve, the median over the passes of the mean µs per block
of each stage and of their total. The ACO solve, recorded first, builds
the instance's table (on an instance within model.TABLE_LIMIT), so the
GA's recorded blocks and every timed solve run on a warm instance, as the
benchmark's rounds after its first do, and neither the replay nor a later
solve pays for the build. Each pass also runs every solve once unwrapped;
``wall`` is the median of those wall times, and ``other`` is ``wall``
minus blocks × total: the ms that a solve spends outside the scoring pass,
in the solvers' own Python and ``drive``. Each pass also times one brute
solve per workload twice: ``warm`` on the instance that the ACO solve has
given its table, as in the benchmark's rounds, and ``cold`` on a fresh
copy (``dataclasses.replace``), which makes the oracle's one kernel pass;
and twice more under the bounds of that ACO solve, ``ctx-warm`` and
``ctx-cold``, which on table1 (no feasible subset, NaN bounds) times the
oracle's least-violation ranking, from the table's violation column warm
and from one violation pass cold. It prints their median ms in one
``brute`` row per workload (a brute solve that raises, on an instance with
no feasible subset and no given bounds, is timed too). Run it
against another checkout's ``src`` (PYTHONPATH) to compare two versions on
the same blocks; a version's blocks are its own, and the scoring path does
not change them.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # one BLAS thread, set before numpy is imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import workloads  # noqa: E402
from fuzzloc import InfeasibleInstanceError, evaluation, protocol  # noqa: E402
from fuzzloc.model import Kernel, block_figures  # noqa: E402

STAGES = ("table", "Kernel()", "figures()", "score")
# The brute solves of each pass, in the order of even passes.
BRUTE_KINDS = ("warm", "cold", "ctx-warm", "ctx-cold")


def snapshot(fitness):
    """A copy of a fitness that scores as it does now: a stacked
    ``_BoundFitness`` changes its runs between rounds."""
    if isinstance(fitness, protocol._BoundFitness):
        copy = protocol._BoundFitness(fitness.instance, 0)
        copy.pick, copy.sign = fitness.pick, fitness.sign
        return copy
    return fitness


def solve(instance, algo: str, ctx=None):
    """One seed-0 solve with the benchmark's configs, under ``ctx`` when
    given."""
    return protocol.solve_protocol(instance, algo, seed=0, ga_config=workloads.GA_CONFIG,
                                   aco_config=workloads.ACO_CONFIG, ctx=ctx)


def brute_wall(instance, ctx=None) -> float:
    """The wall time (s) of one brute solve, under ``ctx`` when given."""
    start = time.perf_counter()
    try:
        solve(instance, "brute", ctx)
    except InfeasibleInstanceError:  # no feasible subset: the documented outcome
        pass
    return time.perf_counter() - start


def record(instance, algo: str) -> list:
    """The blocks of one seed-0 solve: (idx, tabled, [(fitness, rows)]),
    where ``tabled`` says that the instance's figures table served the
    block and ``rows`` is the member's slice of the block, in drive's
    order. Each block is recorded once, where drive asks for its figures:
    ``block_figures``."""
    blocks = []
    score = evaluation.KernelFitness.score

    def recorded_figures(instance, idx):
        figures = block_figures(instance, idx)
        tabled = instance._table is not None and idx.shape[-1] == instance.m_servers
        blocks.append((idx.copy(), tabled, []))
        return figures

    def recorded_score(fitness, feasible, spreads, violation):
        members = blocks[-1][2]
        start = members[-1][1].stop if members else 0
        members.append((snapshot(fitness), slice(start, start + np.size(feasible))))
        return score(fitness, feasible, spreads, violation)

    evaluation.block_figures, evaluation.KernelFitness.score = recorded_figures, recorded_score
    try:
        solve(instance, algo)
    finally:
        evaluation.block_figures, evaluation.KernelFitness.score = block_figures, score
    return blocks


def replay(instance, blocks) -> list:
    """One pass over the blocks: the summed ns of each stage."""
    clock = time.perf_counter_ns
    totals = [0, 0, 0, 0]
    for idx, tabled, members in blocks:
        t0 = clock()
        if tabled:
            figures = block_figures(instance, idx)
            totals[0] += clock() - t0
        else:
            kernel = Kernel(instance, idx)
            t1 = clock()
            figures = kernel.figures()
            totals[1] += t1 - t0
            totals[2] += clock() - t1
        if len(members) == 1:
            t3 = clock()
            members[0][0].score(*figures)
            totals[3] += clock() - t3
            continue
        for fitness, rows in members:
            share = [None if f is None else f[rows] for f in figures]
            t3 = clock()
            fitness.score(*share)
            totals[3] += clock() - t3
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["table1", "mild20"],
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--passes", type=int, default=30)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    solves, instances, contexts = [], {}, {}
    for name in args.workloads:
        instance = instances[name] = workloads.build_instance(name)
        for algo in ("aco", "ga"):  # the ACO builds the table that the GA reads
            solves.append((f"{name} {algo}", instance, algo, record(instance, algo)))
        contexts[name] = solve(instance, "aco")[1]
    per_block = {label: [] for label, *_ in solves}
    walls = {label: [] for label, *_ in solves}
    brutes = {name: {kind: [] for kind in BRUTE_KINDS} for name in instances}
    for p in range(args.passes):
        for name, instance in instances.items():
            for kind in BRUTE_KINDS if p % 2 == 0 else BRUTE_KINDS[::-1]:
                ctx = contexts[name] if kind.startswith("ctx-") else None
                fresh = kind.endswith("cold")
                brutes[name][kind].append(
                    brute_wall(dataclasses.replace(instance) if fresh else instance, ctx))
        for label, instance, algo, blocks in solves if p % 2 == 0 else solves[::-1]:
            gc.disable()  # the replay only: a solve runs as it would alone
            try:
                totals = replay(instance, blocks)
            finally:
                gc.enable()
            per_block[label].append([t / 1e3 / len(blocks) for t in totals])
            start = time.perf_counter()
            solve(instance, algo)
            walls[label].append(time.perf_counter() - start)

    print(f"{'solve':<12} {'blocks':>6} {'rows':>6} "
          + " ".join(f"{s:>10}" for s in STAGES + ("total",)) + f" {'wall':>8} {'other':>8}"
          + "   (median us per block; wall and other in ms per solve)")
    for label, _, _, blocks in solves:
        stages = [statistics.median(col) for col in zip(*per_block[label])]
        total = statistics.median(sum(sample) for sample in per_block[label])
        rows = sum(len(idx) for idx, _, _ in blocks) / len(blocks)
        wall = statistics.median(walls[label]) * 1e3
        other = wall - len(blocks) * total / 1e3
        print(f"{label:<12} {len(blocks):>6} {rows:>6.1f} "
              + " ".join(f"{v:>10.2f}" for v in stages + [total]) + f" {wall:>8.2f} {other:>8.2f}")
    print(f"\n{'solve':<12} " + " ".join(f"{kind:>8}" for kind in BRUTE_KINDS)
          + "   (median ms per brute solve; warm after the ACO solve, cold on a fresh copy;"
          " ctx- under the ACO solve's bounds)")
    for name, kinds in brutes.items():
        print(f"{name + ' brute':<12} "
              + " ".join(f"{statistics.median(kinds[k]) * 1e3:>8.3f}" for k in BRUTE_KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
