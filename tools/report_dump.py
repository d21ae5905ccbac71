"""A byte-for-byte dump of solve reports, to show that a change keeps them.

    PYTHONPATH=src python3 tools/report_dump.py > dump.txt
    PYTHONPATH=src python3 tools/report_dump.py --instances mild20 weighted12

For each instance it prints the GA, ACO and brute ``solve_protocol``
reports and bound contexts of seeds 0 and 1 at the benchmark's stagnation
window (100), one JSON line per solve, with ``elapsed_s`` removed and every
float written as its hex string, so that NaN, signed zeros and the last bit
show. A brute solve that raises prints its error instead. The instances are
the benchmark's table1 and mild20, a mild n = 12 instance with random
benefit weights, the mild n = 10 instance at logit sensitivity 40, which
runs the shifted-exponent allocation, and a mild n = 24, M = 6 instance:
its 134 596 subsets are past model.TABLE_LIMIT, so its ACO blocks get
their own kernels, where the other instances' ACO blocks are looked up in
their figures tables. Two versions of the program that print the same
bytes give the same reports:

    PYTHONPATH=parent/src python3 tools/report_dump.py > before.txt
    PYTHONPATH=src python3 tools/report_dump.py > after.txt
    cmp before.txt after.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":  # one BLAS thread, set before numpy is imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import workloads  # noqa: E402
from fuzzloc import InfeasibleInstanceError, generate_instance  # noqa: E402
from fuzzloc.protocol import solve_protocol  # noqa: E402


def _weighted12():
    instance = generate_instance(workloads._mild(12, 3, 3))
    weight = np.random.default_rng(3).uniform(0.0, 2.0, size=(12, 12))
    return dataclasses.replace(instance, benefit_weight=weight)


def _logit40():
    return dataclasses.replace(generate_instance(workloads._mild(10, 3, 2)),
                               logit_sensitivity=40.0)


INSTANCES = {
    "table1": lambda: workloads.build_instance("table1"),
    "mild20": lambda: workloads.build_instance("mild20"),
    "weighted12": _weighted12,
    "logit40": _logit40,
    "mild24": lambda: generate_instance(workloads._mild(24, 6, 0)),
}
ALGOS = ("ga", "aco", "brute")
SEEDS = (0, 1)


def hexed(value):
    """``value`` with every float, nested ones included, as its hex string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def dump_line(name: str, instance, algo: str, seed: int) -> str:
    """One solve's JSON line: its report without ``elapsed_s`` and its
    bound context, floats as hex; or the error a brute solve raised."""
    head = {"instance": name, "algo": algo, "seed": seed}
    try:
        report, ctx = solve_protocol(instance, algo, seed=seed, ga_config=workloads.GA_CONFIG,
                                     aco_config=workloads.ACO_CONFIG)
    except InfeasibleInstanceError as exc:
        return json.dumps({**head, "error": str(exc)}, sort_keys=True)
    doc = report.to_dict()
    del doc["elapsed_s"]
    return json.dumps({**head, "report": hexed(doc), "bounds": hexed(ctx.to_dict())},
                      sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", nargs="+", default=list(INSTANCES), choices=INSTANCES)
    args = parser.parse_args(argv)
    for name in args.instances:
        instance = INSTANCES[name]()
        for algo in ALGOS:
            for seed in SEEDS:
                print(dump_line(name, instance, algo, seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
