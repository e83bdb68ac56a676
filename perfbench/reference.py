"""The host-speed reference: fixed computations outside ``repro``.

The development host's speed drifts: the same operation took from 1.1 s
to 1.9 s in 38-second windows a few minutes apart, and both CPUs slowed
together.  Every CPU-bound computation slows with it, so an untraced run
times :func:`python_work` and :func:`numpy_work` once after each
operation.  The run's slowdown is the geometric mean, over the two, of the
median timing over the reference host's time, and the run divides its
operation and set-up times by it.  ``repro`` never runs this code, and
the timings run with the garbage collector emptied and then switched
off, so neither a change to the program nor the size of its heap can
move the reference.

Two computations because the slowdown is not uniform: on the development
host, heap-and-dict Python code tracked the fat-tree workload best and
array sorting tracked the control-loop workload best (correlations of
0.98 and 0.94 over 30- and 38-second windows).  Their geometric mean cut
the spread of per-window median operation times (interquartile distance
over the median) from 0.16 to 0.08 on the control-loop workload and from
0.12 to 0.09 on the fat-tree workload.
"""

from __future__ import annotations

import gc
import heapq
import math
import statistics
import time
from typing import Callable, List, Tuple

import numpy as np

#: Seconds :func:`python_work` and :func:`numpy_work` take on the reference
#: host, the development box at its fast state.  Reported times are seconds
#: on that host; a slowdown below 1 means the host ran faster than that.
#: Changing these rescales every reported time, so they stay fixed.
REFERENCE_PYTHON_S = 0.048
REFERENCE_NUMPY_S = 0.055


def python_work() -> int:
    """Push 20,000 keys through a heap and a dict; return the dict's size."""
    heap: List[Tuple[int, int]] = []
    table = {}
    for index in range(20000):
        heapq.heappush(heap, ((index * 7919) % 10007, index))
        table[(index, index & 255)] = [index]
    while heap:
        _, index = heapq.heappop(heap)
        table.pop((index, index & 255), None)
    return len(table)


def numpy_work() -> float:
    """Sort and sum a 20,000-element array 300 times; return the checksum."""
    values = np.random.default_rng(0).random(20000)
    total = 0.0
    for _ in range(300):
        total += float(np.cumsum(np.sort(values))[-1])
        values = values[::-1].copy()
    return total


def timings(clock: Callable[[], float] = time.perf_counter) -> Tuple[float, float]:
    """Wall seconds one call of :func:`python_work` and of :func:`numpy_work` take now.

    The caller's garbage, and its live heap, would otherwise be collected
    and traversed during the timing, so the collector is emptied first and
    kept off until both calls return.
    """
    gc.collect()
    gc.disable()
    try:
        start = clock()
        python_work()
        middle = clock()
        numpy_work()
        end = clock()
    finally:
        gc.enable()
    return middle - start, end - middle


def slowdown(samples: List[Tuple[float, float]]) -> float:
    """How much slower than the reference host the *samples* of :func:`timings` ran."""
    python_s = statistics.median(sample[0] for sample in samples)
    numpy_s = statistics.median(sample[1] for sample in samples)
    return math.sqrt(python_s / REFERENCE_PYTHON_S * numpy_s / REFERENCE_NUMPY_S)
