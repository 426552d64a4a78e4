"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host.  Other tenants' load
changes this process's speed by up to 2x, in spells of tens of seconds,
and CPU time tracks wall time through them, so the process is slowed, not
descheduled.  A median over one run cannot remove that.

A fixed kernel of small-array numpy and interpreter work, of the same kind
as discflow's stepper at N=64 and independent of discflow, measures the
host's speed: a measured time is scaled by ``REF_S / kernel time``.  A
scaled time is in reference seconds: seconds on a host on which
`kernel_time()` returns REF_S.  A change to discflow moves the scaled time
as much as the raw one; the host's spells move it far less.

`Clock` times a pass: it samples the kernel every INTERVAL_S from a timer
signal, so the scaling follows the host through every phase.  A short
interval (a set-up) is scaled by `kernel_time()` taken just before and
after it.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: reference kernel time: about one sub-chunk's median on an unloaded
#: 2-vCPU Xeon VM, so reference seconds are close to that host's seconds
#: (the same VM measured 3-7 ms under its neighbours' load)
REF_S = 0.003
SUB_CHUNKS = 5
REPS = 60
SAMPLE_REPS = 20
#: seconds between a Clock's kernel samples
INTERVAL_S = 0.1
NODES = 64


def _sub_chunk(reps: int = REPS) -> float:
    x = np.cos(np.linspace(0.0, 2.0 * np.pi, NODES, endpoint=False))[:, None] \
        * np.array([1.0, 0.5])
    t0 = time.perf_counter()
    for _ in range(reps):
        e = np.roll(x, -1, axis=0) - x
        length = np.hypot(e[:, 0], e[:, 1])
        tangent = e / length[:, None]
        kappa = (tangent - np.roll(tangent, 1, axis=0)) \
            / (0.5 * (length + np.roll(length, 1)))[:, None]
        arc = np.concatenate(([0.0], np.cumsum(length)))
        y = np.interp(np.linspace(0.0, arc[-1], NODES + 1)[:-1], arc[:-1], x[:, 0])
        x = x + 1e-6 * kappa
        x[:, 0] = 0.999 * x[:, 0] + 0.001 * y
        float(length.sum())
    return time.perf_counter() - t0


def kernel_time() -> float:
    """Median time of one kernel sub-chunk over SUB_CHUNKS runs."""
    return statistics.median(_sub_chunk() for _ in range(SUB_CHUNKS))


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between kernel times `before` and `after`, in
    reference seconds."""
    return seconds * REF_S * 2.0 / (before + after)


class Clock:
    """Raw and scaled time of the work between start() and stop().

    A wall-clock timer interrupts the work every INTERVAL_S seconds to time
    a short kernel sample (SAMPLE_REPS repetitions); the time spent
    sampling is left out of both times.  Each stretch of work between two
    samples is scaled by the mean of their kernel times, so the scaling
    follows the host through every phase of the work, I/O included.
    """

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self.samples = 0

    @staticmethod
    def _sample() -> float:
        return _sub_chunk(SAMPLE_REPS) * (REPS / SAMPLE_REPS)

    def start(self) -> None:
        for _ in range(3):  # warm-up
            self._sample()
        self._kernel = self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        self._t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._add(time.perf_counter() - self._t, self._sample())
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, *_) -> None:
        now = time.perf_counter()
        self._add(now - self._t, self._sample())
        self._t = time.perf_counter()

    def _add(self, seconds: float, kernel: float) -> None:
        self.raw += seconds
        self.scaled += scale(seconds, self._kernel, kernel)
        self._kernel = kernel
        self.samples += 1
