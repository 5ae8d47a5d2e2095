"""A fixed pure-Python task, timed between rounds, that tracks machine speed.

On a shared 2-vCPU machine, speed drifts by tens of percent over minutes
(other tenants share the cores; CPU time drifts as much as wall time).  The
task does the same kind of work as ``amplify`` (bitmask rows, tuples,
sorting, small function calls) and never changes, so its time measures the
machine, not the code under test.
"""

from __future__ import annotations

import random
import statistics
import time

import gen

# Seconds the task takes on the machine that defines the scale (a shared
# 2-vCPU Intel Xeon machine with Python 3.11.7 took 1.4-2.7 ms).
NOMINAL_S = 0.0016

_GRAPHS = [gen.random_rows(random.Random(i), 10, 0.3) for i in range(4)]
_PERMS = [gen.shuffled(random.Random(100 + i), 10) for i in range(8)]


def task() -> int:
    acc = 0
    for rows in _GRAPHS:
        acc += len(gen.signature(gen.closure(rows)))
        for phi in _PERMS:
            acc += gen.is_witness(rows, gen.permute(rows, phi), phi)
    return acc


def sample(repeats: int = 3) -> float:
    """Median seconds of ``repeats`` runs of the task."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor taking times measured between two samples to nominal speed."""
    return NOMINAL_S / ((before + after) / 2)
