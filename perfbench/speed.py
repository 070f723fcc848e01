"""The machine's speed, timed next to the items, and item times scaled
by it.

The machine the benchmark runs on is shared, and its speed for this
kind of code changes by up to a factor of two from one second to the
next and from one minute to the next. So the worker times a fixed piece
of reference work, which owes nothing to dispnet, every
``SAMPLE_EVERY_NS`` and at the end of every block. Each item's wall time
is multiplied by ``REFERENCE_NS`` over the mean of the two reference
timings around it. The result is the item's time on a machine where
the reference work takes ``REFERENCE_NS``. Programs slowed by the same
neighbours slow alike, so the ratio holds still where both times move.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

REFERENCE_NS = 2_000_000        # the scale of every scaled time
SAMPLE_EVERY_NS = 50_000_000    # wall time between reference timings


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _tree(n):
    return None if n == 0 else (_tree(n - 1), n, _tree(n - 2) if n > 1 else None)


def _size(t):
    return 0 if t is None else 1 + _size(t[0]) + _size(t[2])


def reference_work():
    """Interpreter work of the kinds dispnet does: small objects, tuples,
    dict and list traffic, a sort, and recursion over a tree."""
    buckets = {}
    for i in range(3000):
        entry = (i, str(i & 63), _Pair(i, None))
        buckets.setdefault(entry[1], []).append(entry)
    total = sum(len(v) for v in sorted(buckets.values(), key=len))
    return total + _size(_tree(16))


def reference_ns():
    """Wall time of one ``reference_work``. The collector is off while it
    runs, so that the program's heap cannot change it."""
    gc.disable()
    try:
        start = perf_counter_ns()
        reference_work()
        return perf_counter_ns() - start
    finally:
        gc.enable()


class Scaler:
    """Times the reference work between items and scales item times by
    it. ``add`` takes an item's wall time; ``block_end`` returns the
    scaled times of the items added since the last ``block_end``."""

    def __init__(self):
        self.samples = [reference_ns()]
        self.at = perf_counter_ns()
        self.pending = []       # wall times since the last sample
        self.scaled = []        # of the current block

    def _sample(self):
        now = reference_ns()
        factor = 2 * REFERENCE_NS / (self.samples[-1] + now)
        self.scaled.extend(ns * factor for ns in self.pending)
        self.pending.clear()
        self.samples.append(now)
        self.at = perf_counter_ns()

    def before_item(self):
        if perf_counter_ns() - self.at >= SAMPLE_EVERY_NS:
            self._sample()

    def add(self, ns):
        self.pending.append(ns)

    def block_end(self):
        self._sample()
        scaled, self.scaled = self.scaled, []
        return scaled
