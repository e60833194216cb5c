"""Host-speed probe: scales measured times to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same query can take up to 70% longer from one second or minute to the next
while other work shares the cores.  The probe times a fixed pure-Python kernel before and
after every measured interval and scales the interval by
``REFERENCE_S / (mean of the two kernel times)``.  A scaled time is what
the interval would have taken on a host where the kernel takes
``REFERENCE_S``; a slow spell slows the kernel and the program alike and
drops out of the ratio.

The kernel uses only the standard library (``Fraction`` arithmetic, an
exact elimination, tuple-keyed dicts and a sort) and none of ``geowb``, so
a change of the program does not change the kernel.  The collector is off
while it runs, so that the program's live heap does not add collection
time to it.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# About the kernel's median time on the 2-core x86_64 host (CPython 3.11)
# the figures in ``baseline.json`` were recorded on, under its usual load
# (4.5 ms when it ran alone).  Only its constancy matters: it fixes the
# unit of every scaled time.
REFERENCE_S = 0.007

_rng = random.Random(7)
_MATRIX = [[Fraction(_rng.randint(-3, 3), _rng.randint(1, 3)) for _ in range(10)]
           for _ in range(9)]


def _fractions() -> Fraction:
    acc = Fraction(0)
    last = {}
    for i in range(1, 200):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
        last[i % 17] = acc
    return acc


def _elimination() -> list:
    rows = [list(r) for r in _MATRIX]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows


def _tables() -> int:
    table = {}
    for i in range(4000):
        table[(i % 97, i % 89, i)] = i * 3
    return sum(table[k] for k in sorted(table, key=lambda k: (k[2], k[0]))[:2000])


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _fractions()
        _elimination()
        _tables()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Scales each measured interval by the kernel times around it."""

    def __init__(self, warmup: int = 5):
        for _ in range(warmup):
            kernel_seconds()
        self.last = kernel_seconds()

    def scale(self) -> float:
        """Factor for the interval since the previous call (or since creation)."""
        before, self.last = self.last, kernel_seconds()
        return REFERENCE_S / ((before + self.last) / 2)
