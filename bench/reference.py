"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark shares a few cores of a host with other jobs, and their load
changes the speed of this process by a factor of two or more for tens of
seconds at a time (CPU time tracks wall time, so this is not scheduling).
The run therefore times this kernel between ops and reports op times
scaled to the speed at which the kernel takes ``NOMINAL_S``: an op that
took ``t`` seconds while the kernel took ``k`` counts as
``t * (NOMINAL_S / k) ** exponent``, with the workload's exponent.

The kernel imitates what spinlab spends its time on: building and walking a
dict keyed by small tuples (the collapsed-class descriptors) and whole-array
numpy passes (log-sum-exp, sort).  It does not call spinlab, so a change to
the program cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.050  # the kernel's time on an idle 2-core x86-64 sandbox
WINDOW = 2
_ARRAY = np.random.default_rng(0).normal(size=400_000)


def _kernel() -> float:
    table = {}
    for k in range(60_000):
        table[(k & 7, k >> 3, k % 13)] = k
    total = float(sum(v for (a, b, c), v in table.items() if a == 3))
    for _ in range(3):
        total += float(np.log(np.exp(_ARRAY - _ARRAY.max()).sum()))
        total += float(np.sort(_ARRAY)[7])
    return total


def seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scale(latencies: list[float], refs: list[float], exponent: float = 1.0) -> list[float]:
    """Scale each op's wall time in ``latencies`` to the nominal speed.

    ``refs`` holds one kernel pass before each op and one after the last, so
    op ``i`` ran between ``refs[i]`` and ``refs[i + 1]``.  The machine's speed
    for op ``i`` is the median of the ``WINDOW`` passes before it and the
    ``WINDOW`` passes after it: one pass jitters by 10-25%, while the
    machine's speed holds for a few seconds at a time.  ``exponent`` is how
    strongly the workload's op time follows the kernel: an op whose time
    grows as ``k ** exponent`` is multiplied by ``(NOMINAL_S / k) ** exponent``.
    """
    if len(refs) != len(latencies) + 1:
        raise ValueError(f"{len(latencies)} ops need {len(latencies) + 1} reference passes, got {len(refs)}")
    return [t * (NOMINAL_S / statistics.median(refs[max(0, i + 1 - WINDOW): i + 1 + WINDOW])) ** exponent
            for i, t in enumerate(latencies)]
