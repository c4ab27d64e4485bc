"""Speed probe: a fixed piece of pure-Python work that measures how fast the
machine runs at the moment.

On a shared host the speed of a core wanders by a fifth and more over seconds
to minutes, with the load of other tenants. The worker runs the probe before
every job and after the last, and the benchmark divides each job's time by
the probe times around it (``run.py``), so the end-to-end times read in
seconds of a machine on which the probe takes ``REFERENCE_S``. The probe is
the benchmark's own code, so a change to the program moves job times and not
the probe.

The work resembles the engine's: row scans of a multiplication table,
frozensets of principal ideals, subset tests and a set of seen pairs. It is
run with the cycle collector off, so that the heap the program left behind
does not change its time.
"""
from __future__ import annotations

import gc
import time

REFERENCE_S = 0.040  # end-to-end times are scaled to a probe of this length
_N = 60
_ROUNDS = 40
_TABLE = [[(a * b + a + b) % _N for b in range(_N)] for a in range(_N)]


def _work() -> int:
    total = 0
    for _ in range(_ROUNDS):
        ideals = [frozenset(row) for row in _TABLE]
        seen = set()
        for a in range(_N):
            row = _TABLE[a]
            for b in range(0, _N, 3):
                key = (a, row[b])
                if key not in seen and ideals[b] <= ideals[a] | {b}:
                    seen.add(key)
        total += len(seen)
    return total


def probe_ns() -> int:
    """Time of one run of the probe, in nanoseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _work()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()
