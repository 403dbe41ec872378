"""Host-speed calibration for the benchmark.

A fixed piece of stdlib-only work (Fraction arithmetic, dict updates and
tuple keys) is timed around and during every benchmark op.  Dividing an
op's time by the mean of those samples turns seconds into calibration
units ("cal"), which cancels most of the host's speed drift.

Samples are taken a few at a time just before and just after each op, and
during the op from an interval timer (SIGALRM; the handler runs in the main
thread between bytecodes, so no thread is started).  The time the handler
takes is subtracted from the op's time through ``Sampler.clock``.  On a
shared 2-core host, samples taken during a 2 s op cut the spread of its
normalised time about threefold compared with samples taken only around it.

This module must not import prolong: its cost may not depend on the code
under test.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

ROUNDS = 40
INTERVAL_S = 0.05


def calibration_work(rounds: int = ROUNDS) -> Fraction:
    """The fixed workload; returns a value so the work cannot be skipped."""
    table: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for i in range(rounds):
        key = (i % 7, i % 5)
        a = Fraction(i % 11 + 1, i % 13 + 2)
        b = Fraction(i % 5 + 3, i % 7 + 1)
        value = a * b + a / b - Fraction(1, i % 3 + 2)
        table[key] = table.get(key, Fraction(0)) + value
        total += table[key] * Fraction(1, len(table))
    return total


_EXPECTED = calibration_work()


def calibration_sample() -> float:
    """Seconds taken by one run of the fixed workload, with GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        value = calibration_work()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if value != _EXPECTED:
        raise RuntimeError("calibration loop returned a different value")
    return elapsed


class Sampler:
    """Calibration samples taken every INTERVAL_S while the context is open.

    ``clock`` is perf_counter minus the time spent in the handler, so a span
    timed with it excludes the samples taken inside it.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = perf_counter()
        self.samples.append(calibration_sample())
        self.spent += perf_counter() - start

    def clock(self) -> float:
        return perf_counter() - self.spent

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
