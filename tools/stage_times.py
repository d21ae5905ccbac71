"""Per-stage cost of the solver rounds' scoring pass, on recorded blocks.

    PYTHONPATH=src python3 tools/stage_times.py [--workloads table1 mild20] [--passes 30]

For each workload (an instance of benchmarks/workloads.py) it runs one GA
and one ACO ``solve_protocol`` at seed 0 with the benchmark's configs
(stagnation window 100), and records every block that ``evaluation.drive``
sends to ``Kernel`` with the fitness calls that score its rows: the final
run's ``MaximinFitness`` and the bound runs' ``_BoundFitness``. It then
replays every recorded block, in ``--passes`` passes that alternate the
order of the solves, through the three stages of a round:

    Kernel()   Kernel(instance, idx)
    figures()  kernel.figures()
    score      each member's fitness.score(...) on its rows of the figures

and prints, per solve, the median over the passes of the mean µs per block
of each stage and of their total. Run it against another checkout's
``src`` (PYTHONPATH) to compare two versions of the kernel on the same
blocks; a version's blocks are its own, and the scoring path does not
change them.
"""

from __future__ import annotations

import argparse
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
from fuzzloc import evaluation, protocol  # noqa: E402
from fuzzloc.model import Kernel  # noqa: E402

STAGES = ("Kernel()", "figures()", "score")


def snapshot(fitness):
    """A copy of a fitness that scores as it does now: a stacked
    ``_BoundFitness`` changes its runs between rounds."""
    if isinstance(fitness, protocol._BoundFitness):
        copy = protocol._BoundFitness(fitness.instance, 0)
        copy.pick, copy.sign = fitness.pick, fitness.sign
        return copy
    return fitness


def record(instance, algo: str) -> list:
    """The blocks of one seed-0 solve: (idx, [(fitness, rows)]), where
    ``rows`` is the member's slice of the block, in drive's order."""
    blocks = []
    score = evaluation.KernelFitness.score

    class Recorded(Kernel):
        def __init__(self, instance, idx):
            super().__init__(instance, idx)
            blocks.append((idx.copy(), []))

    def recorded_score(fitness, feasible, spreads, violation):
        members = blocks[-1][1]
        start = members[-1][1].stop if members else 0
        members.append((snapshot(fitness), slice(start, start + np.size(feasible))))
        return score(fitness, feasible, spreads, violation)

    evaluation.Kernel, evaluation.KernelFitness.score = Recorded, recorded_score
    try:
        protocol.solve_protocol(instance, algo, seed=0, ga_config=workloads.GA_CONFIG,
                                aco_config=workloads.ACO_CONFIG)
    finally:
        evaluation.Kernel, evaluation.KernelFitness.score = Kernel, score
    return blocks


def replay(instance, blocks) -> list:
    """One pass over the blocks: the summed ns of each stage."""
    clock = time.perf_counter_ns
    totals = [0, 0, 0]
    for idx, members in blocks:
        t0 = clock()
        kernel = Kernel(instance, idx)
        t1 = clock()
        figures = kernel.figures()
        t2 = clock()
        totals[0] += t1 - t0
        totals[1] += t2 - t1
        if len(members) == 1:
            t3 = clock()
            members[0][0].score(*figures)
            totals[2] += clock() - t3
            continue
        for fitness, rows in members:
            share = [None if f is None else f[rows] for f in figures]
            t3 = clock()
            fitness.score(*share)
            totals[2] += clock() - t3
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["table1", "mild20"],
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--passes", type=int, default=30)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    solves = []
    for name in args.workloads:
        instance = workloads.build_instance(name)
        for algo in ("ga", "aco"):
            solves.append((f"{name} {algo}", instance, record(instance, algo)))
    per_block = {label: [] for label, _, _ in solves}
    gc.disable()
    try:
        for p in range(args.passes):
            for label, instance, blocks in solves if p % 2 == 0 else solves[::-1]:
                totals = replay(instance, blocks)
                per_block[label].append([t / 1e3 / len(blocks) for t in totals])
    finally:
        gc.enable()

    print(f"{'solve':<12} {'blocks':>6} {'rows':>6} "
          + " ".join(f"{s:>10}" for s in STAGES + ("total",)) + "   (median us per block)")
    for label, _, blocks in solves:
        stages = [statistics.median(col) for col in zip(*per_block[label])]
        total = statistics.median(sum(sample) for sample in per_block[label])
        rows = sum(len(idx) for idx, _ in blocks) / len(blocks)
        print(f"{label:<12} {len(blocks):>6} {rows:>6.1f} "
              + " ".join(f"{v:>10.2f}" for v in stages + [total]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
