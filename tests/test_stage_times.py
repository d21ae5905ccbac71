"""tools/stage_times.py on the benchmark's tiny ``smoke`` workload."""

import importlib.util
from pathlib import Path

import numpy as np

from fuzzloc import evaluation
from fuzzloc.evaluation import MaximinFitness
from fuzzloc.model import Kernel
from fuzzloc.protocol import _BoundFitness

PATH = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"
spec = importlib.util.spec_from_file_location("stage_times", PATH)
stage_times = importlib.util.module_from_spec(spec)
spec.loader.exec_module(stage_times)


def test_smoke_prints_every_stage(capsys):
    assert stage_times.main(["--workloads", "smoke", "--passes", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:7] == ["solve", "blocks", "rows", "Kernel()", "figures()", "score",
                                  "total"]
    assert [row.split()[:2] for row in rows] == [["smoke", "ga"], ["smoke", "aco"]]
    for row in rows:
        blocks, size, *stages, total = map(float, row.split()[2:])
        assert blocks >= 1 and size >= 1 and len(stages) == 3
        assert all(value > 0 for value in stages) and total > 0


def test_recorded_blocks_replay_the_solve():
    """Every recorded block is split among its members in drive's order,
    each member scores its rows as the solve did, and the patched names are
    restored afterwards."""
    instance = stage_times.workloads.build_instance("smoke")
    score = evaluation.KernelFitness.score
    for algo in ("ga", "aco"):
        blocks = stage_times.record(instance, algo)
        assert evaluation.Kernel is Kernel and evaluation.KernelFitness.score is score
        kinds = set()
        for idx, members in blocks:
            assert idx.ndim == 2 and len(members) >= 1
            assert members[0][1].start == 0 and members[-1][1].stop == len(idx)
            for (_, before), (_, after) in zip(members, members[1:]):
                assert before.stop == after.start
            figures = Kernel(instance, idx).figures()
            for fitness, rows in members:
                kinds.add(type(fitness))
                share = [None if f is None else f[rows] for f in figures]
                values = np.asarray(fitness.score(*share))
                assert values.shape == (rows.stop - rows.start,)
        # the smoke instance has feasible subsets: bound runs, then the final run
        assert kinds == {_BoundFitness, MaximinFitness}
