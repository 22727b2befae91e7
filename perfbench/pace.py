"""Machine-speed probe: a fixed kernel timed every few tens of ms of wall time.

The benchmark runs on virtual CPUs shared with other tenants.  Their speed
changes by 10% to 40% within seconds and for minutes at a time, and it
changes for all code together: a pure-Python kernel, a numpy array kernel
and a scipy Poisson kernel, timed in turn, correlate by 0.82 to 0.96 over
windows of 0.3 s to 6 s.  A kernel timed only before or after a job misses
what happens during it, so the probe runs inside the measured process: a
SIGALRM every `INTERVAL_S` of wall time interrupts the program between two
bytecodes and times the kernel once.  The kernel mixes interpreter and
array work; of the kernels tried it tracked the three workloads best
overall (README, *Machine-speed probe*).

`adjusted` turns a measured time into seconds at the reference speed: the
kernel's own time is taken out, and the rest is scaled by the kernel's
reference time over its median time during the measurement.  The kernel is
the benchmark's own code and imports nothing of eitgate, so a change to
eitgate moves the adjusted times and not the scale.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
KERNEL_REF_S = 5.0e-4       # adjusted job times come close to raw ones in a quiet period
MIN_SAMPLES = 5
_GRID = np.linspace(0.0, 1.0, 120 * 120).reshape(120, 120)


def kernel() -> float:
    """Fixed work: a 4,000-step interpreter loop and one 120 x 120 ufunc pass."""
    s = 0
    for i in range(4000):
        s += i * i % 7
    return s + float((np.exp(-_GRID) * np.cos(_GRID)).sum())


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Probe:
    """Times `kernel` on every SIGALRM while started; one per process."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        self.samples.append(_timed_kernel())
        self._busy = False

    def start(self) -> "Probe":
        kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def take(self) -> list[float]:
        """The samples since the last take, and start afresh."""
        taken, self.samples = self.samples, []
        return taken


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def speed(samples: list[float]) -> float:
    """The machine's speed during the samples, relative to the reference.

    A measurement too short for `MIN_SAMPLES` samples, such as a job that
    fails at once, is topped up by timing the kernel now.
    """
    topped = samples + [_timed_kernel() for _ in range(MIN_SAMPLES - len(samples))]
    return KERNEL_REF_S / _median(topped)


def adjusted(raw_s: float, samples: list[float]) -> float:
    """raw_s without the kernel's own time, in seconds at the reference speed."""
    return (raw_s - sum(samples)) * speed(samples)
