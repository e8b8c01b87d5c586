"""A host-speed reference that the end-to-end times are scaled by.

On a shared host the same Python code runs 20-50% slower in some seconds or
minutes than in others, and CPU time slows with it, so raw times of one commit
spread wider from run to run than any useful bound.  Each timed region is
therefore measured next to a fixed pure-Python kernel that belongs to the
benchmark, not to the program: a few kernel runs just before and after the
region, and one every ``PERIOD_S`` seconds during it, from a SIGALRM handler
whose own time is taken out of the region's.  The time reported is

    measured time * REFERENCE_S / (trimmed mean of the kernel's times)

that is, the time the region would take on a host where the kernel takes
``REFERENCE_S``.  No change to the program can change the kernel, so a slower
program still reads slower by the same factor; only the host's drift cancels.
"""

from __future__ import annotations

import contextlib
import signal
import time

# About the kernel's time on a 2-vCPU Xeon VM with Python 3.11.7.  Any fixed
# value would do: it only sets the unit of the scaled times.
REFERENCE_S = 0.0005
PERIOD_S = 0.01
BRACKET = 4  # kernel runs before and after each timed region

_TABLE = dict.fromkeys(range(64), 0)  # reused, so that the kernel allocates no container


def _mix(a: int, b: int) -> int:
    return (a * b + a) % 7


def kernel() -> float:
    """Time one fixed pass of dict updates, calls and small-integer arithmetic.

    It allocates no container, so it never sets off a garbage collection,
    whose cost would depend on the program's objects.
    """
    table, total = _TABLE, 0
    start = time.perf_counter()
    for i in range(1500):
        k = i & 63
        table[k] = (table[k] + _mix(i, k) + i) & 1023
        total += (i * i) % 7 + (table[k] & 3)
    return time.perf_counter() - start


def trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and lowest tenth, and at least one of each."""
    values = sorted(values)
    cut = max(1, len(values) // 10)
    kept = values[cut : len(values) - cut]
    return sum(kept) / len(kept)


class Reference:
    """Kernel times taken next to one timed region, in one process."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # time inside the SIGALRM handler
        self._ticking = False

    def bracket(self) -> None:
        self.samples += [kernel() for _ in range(BRACKET)]

    def _tick(self, signum, frame) -> None:
        if self._ticking:
            start = time.perf_counter()
            self.samples.append(kernel())
            self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def ticking(self):
        """Context in which the kernel also runs every ``PERIOD_S`` seconds."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._ticking = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            self._ticking = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, seconds: float) -> float:
        """``seconds`` as they would read on a host where the kernel takes ``REFERENCE_S``."""
        return seconds * REFERENCE_S / trimmed_mean(self.samples)

