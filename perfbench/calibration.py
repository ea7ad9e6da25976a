"""A fixed yardstick for the speed of the host a run lands on.

On a shared host the same code can run up to twice as slow for minutes
at a time while neighbours are busy, in process CPU time as much as in
wall time.  So every time the benchmark reports is scaled by
NOMINAL_S / cal, where cal is timed in the same process just before and
just after the timed work (the best of two calls each time).  The kernel mixes the
two kinds of work relprime does, big-integer additions and interpreted
loops; it never changes, so a change to relprime moves the scaled times
exactly as it moves the raw ones.  NOMINAL_S is the kernel's best time under CPython 3.11 on a
quiet 2-core x86-64 VM, so there the scaled times are the wall times.
"""

from time import perf_counter

NOMINAL_S = 0.0016


def calibrate():
    total = 0
    for e in range(1, 2000):
        total += (1 << e) - 1
    for j in range(15000):
        total += j * j % 7
    return total


def best_of(repeats: int) -> float:
    """Best wall time of calibrate() over a few back-to-back calls."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        calibrate()
        best = min(best, perf_counter() - start)
    return best
