"""Host speed, measured by a fixed kernel timed next to every invocation.

The benchmark runs on a few cores of a shared host whose speed swings by a
third over minutes, while the neighbours' load changes.  A run's median
invocation time follows those swings, so two runs of the same code disagree
by more than any change worth detecting.  The kernel below does the same kind
of work as the simulator (a heap of event objects, dict state, float math,
list growth and small numpy operations) and never imports `leolora`, so a
change to the program cannot change its time.  Timed in the benchmark's own
process between invocations, its time tracks the host's speed: over 50-second
windows of `steady` invocations the simulator's time varied by 14%
(coefficient of variation) and the ratio of the two by 3.5%.  It tracks
`sweep` across runs better than `steady` (see perfbench/README.md).

`scale(before, after)` turns an invocation's seconds into seconds at the
reference speed: the host speed at which the kernel takes `REFERENCE_S`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Kernel seconds at the reference speed: about the kernel's time on a
# 2-vCPU Xeon VM in a quiet phase.  Any fixed value serves; it sets the scale.
REFERENCE_S = 0.2
_ITERATIONS = 50_000


@dataclass
class _Event:
    time: float
    seq: int
    node: int

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def kernel(iterations: int = _ITERATIONS) -> float:
    heap: list[_Event] = []
    level: dict[int, float] = {}
    history: list[tuple[float, float]] = []
    acc = np.zeros(64)
    total = 0.0
    for i in range(iterations):
        heapq.heappush(heap, _Event((i * 7919) % 1000 / 7.0 + i, i, i % 16))
        if len(heap) > 64:
            ev = heapq.heappop(heap)
            s = min(max(level.get(ev.node, 0.5) + math.sin(ev.time) * 0.01, 0.0), 1.0)
            level[ev.node] = s
            total += s * s
            history.append((ev.time, s))
            if i % 50 == 0:
                acc += np.sqrt(acc + s)
    return total + float(acc.sum())


def time_kernel() -> float:
    """Seconds the kernel takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor from seconds measured between two kernel timings to reference seconds."""
    return REFERENCE_S / ((before_s + after_s) / 2.0)
