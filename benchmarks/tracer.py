"""In-memory spans for the benchmark, and the wrappers of the traced run.

The traced run swaps module attributes of ``fuzzloc.protocol`` for timing
wrappers and wraps the fitness callables handed to the solvers; nothing
under ``src/`` changes. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record name, start, end and the enclosing span; yield the record so
        the caller can attach counts to it."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            **attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Wrap the entry points solve_protocol reaches through its module."""
        import fuzzloc.protocol as protocol

        self._patch(protocol, "estimate_bounds", self._plain("protocol.bound_runs"))
        self._patch(protocol, "run_ga", self._solver("ga"))
        self._patch(protocol, "run_aco", self._solver("aco"))
        self._patch(protocol, "exact_bounds", self._plain("oracle.exact_bounds"))
        self._patch(protocol, "enumerate_optimum", self._plain("oracle.enumerate_optimum"))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def _plain(self, name: str):
        def make(original):
            def traced(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)

            return traced

        return make

    def _solver(self, algo: str):
        """Time the run and every fitness call; count calls, distinct subsets
        and iterations on the run's span."""

        def make(original):
            def traced(instance, eval_fn, config, *args, **kwargs):
                seen: set = set()
                with self.span(f"{algo}.run", calls=0, fitness_s=0.0) as record:

                    def fitness(solution):
                        start = time.perf_counter()
                        value = eval_fn(solution)
                        record["fitness_s"] += time.perf_counter() - start
                        record["calls"] += 1
                        seen.add(solution.open)
                        return value

                    report = original(instance, fitness, config, *args, **kwargs)
                    record["distinct"] = len(seen)
                    record["iterations"] = report.iterations
                return report

            return traced

        return make
