"""Microbenchmark of the exact scalar layer (``GaussRational``).

Times ``*``, ``+`` and ``/`` through the public operators on operand pairs
drawn from a pool the tracer captured during a workload's traced run
(matrix entries passed to ``linalg``, coefficients passed to ``wedge`` and
to the transversality tests), so the figures reflect the operand sizes
that workload really produces.
"""

from __future__ import annotations

import operator
import random
import statistics
from time import perf_counter_ns

PAIRS = 1000
REPEATS = 5
OPS = {"mul": operator.mul, "add": operator.add, "div": operator.truediv}


def scalar_metrics(pool, seed: int = 0) -> dict[str, float]:
    """Median ns per operation for each of mul, add and div (0 on an empty pool)."""
    if not pool:
        return {f"scalars.{name}_ns": 0.0 for name in OPS}
    rng = random.Random(seed)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(PAIRS)]
    out = {}
    for name, op in OPS.items():
        times = []
        for _ in range(REPEATS):
            start = perf_counter_ns()
            for a, b in pairs:
                op(a, b)
            times.append((perf_counter_ns() - start) / len(pairs))
        out[f"scalars.{name}_ns"] = statistics.median(times)
    return out
