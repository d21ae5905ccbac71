"""tools/stage_times.py on the benchmark's tiny ``smoke`` workload."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from fuzzloc import evaluation
from fuzzloc.evaluation import COMPONENTS, MaximinFitness
from fuzzloc.model import Kernel, block_figures
from fuzzloc.protocol import _BoundFitness

PATH = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"
spec = importlib.util.spec_from_file_location("stage_times", PATH)
stage_times = importlib.util.module_from_spec(spec)
spec.loader.exec_module(stage_times)


def test_smoke_prints_every_stage(capsys):
    assert stage_times.main(["--workloads", "smoke", "--passes", "2"]) == 0
    stages, brutes = capsys.readouterr().out.split("\n\n")
    header, *rows = stages.splitlines()
    assert header.split()[:10] == ["solve", "blocks", "rows", "table", "Kernel()", "figures()",
                                   "score", "total", "wall", "other"]
    assert [row.split()[:2] for row in rows] == [["smoke", "aco"], ["smoke", "ga"]]
    for algo, row in zip(("aco", "ga"), rows):
        blocks, size, *stages, total, wall, other = map(float, row.split()[2:])
        assert blocks >= 1 and size >= 1 and len(stages) == 4
        table, kernel, figures, score = stages
        # smoke has 28 pairs, within TABLE_LIMIT: the ACO, recorded first,
        # builds the table, which serves all its blocks and the GA's blocks
        # of pairs, and the GA's larger trial subsets get Kernels
        assert score > 0 and total > 0 and table > 0
        assert (kernel > 0 and figures > 0) if algo == "ga" else kernel == figures == 0
        # other is the solve's wall time (ms) less its blocks' scoring time
        assert wall > 0 and other == pytest.approx(wall - blocks * total / 1e3, abs=0.01)
    # one brute row: the median ms of the warm and the cold solve, without
    # and with the ACO solve's bounds
    header, row = brutes.splitlines()
    assert header.split()[:5] == ["solve", "warm", "cold", "ctx-warm", "ctx-cold"]
    assert row.split()[:2] == ["smoke", "brute"]
    assert all(float(wall) > 0 for wall in row.split()[2:]) and len(row.split()) == 6


def test_brute_row_times_a_warm_and_a_cold_solve(monkeypatch):
    """Each pass times one brute solve on the instance that the ACO has given
    its table and one on a fresh copy, which has none, each without and with
    the bounds of the ACO solve. A solve that raises, on table1, where no
    subset is feasible, is timed too, and so is table1's solve under its NaN
    ACO bounds, which ranks every subset by its violation."""
    table1 = stage_times.workloads.build_instance("table1")
    assert stage_times.brute_wall(table1) > 0
    ctx = stage_times.solve(table1, "aco")[1]
    assert all(math.isnan(bound) for name in COMPONENTS for bound in ctx.bounds(name))
    assert stage_times.brute_wall(table1, ctx) > 0
    tables = []

    def timed(instance, ctx=None):
        tables.append((instance._table is not None, ctx is not None))
        return 1e-3

    monkeypatch.setattr(stage_times, "brute_wall", timed)
    assert stage_times.main(["--workloads", "smoke", "--passes", "3"]) == 0
    # passes alternate the order: warm, cold, ctx-warm, ctx-cold, then reversed
    kinds = [(True, False), (False, False), (True, True), (False, True)]
    assert tables == kinds + kinds[::-1] + kinds


def test_recorded_blocks_replay_the_solve(monkeypatch):
    """Every block that drive serves is recorded once, in order; each is
    split among its members in drive's order, each member scores its rows
    as the solve did, and the patched names are restored afterwards."""
    instance = stage_times.workloads.build_instance("smoke")
    score = evaluation.KernelFitness.score
    for algo in ("aco", "ga"):
        blocks = stage_times.record(instance, algo)
        served = []
        with monkeypatch.context() as patch:
            patch.setattr(evaluation, "block_figures",
                          lambda instance, idx: served.append(idx) or block_figures(instance, idx))
            stage_times.solve(instance, algo)
        assert [idx.tolist() for idx, _, _ in blocks] == [idx.tolist() for idx in served]
        assert evaluation.Kernel is Kernel and evaluation.block_figures is block_figures
        assert evaluation.KernelFitness.score is score
        # the ACO's table serves every ACO block and the GA's blocks of pairs
        assert {tabled for _, tabled, _ in blocks} == ({True} if algo == "aco" else {True, False})
        for idx, tabled, _ in blocks:
            assert tabled == (idx.shape[1] == instance.m_servers)
        kinds = set()
        for idx, _, members in blocks:
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
