"""Host-speed sampling, to take the shared host's speed swings out of timings.

The benchmark runs on a few vCPUs of a shared host.  The speed of those
vCPUs drifts by up to 2x over seconds to minutes (the load of the
neighbours on the same cores), and CPU time drifts with wall time, so
neither clock alone gives steady figures.  A ``SpeedSampler`` runs a
fixed calibration kernel every ``INTERVAL_S`` seconds in a background
thread while the workload runs; the kernel uses only the standard
library and numpy, never the engine, so a change to the engine cannot
move it.  A time measured over ``[start, end]`` is then reported at
reference speed: multiplied by ``REFERENCE_S`` times the mean kernel
speed (kernels per second) sampled in that window, which is the time the
same work would take on a host that runs one kernel in ``REFERENCE_S``.
The raw wall times are printed alongside.

The kernel holds the GIL for well under the interpreter's switch
interval, so the workload thread is never switched out in the middle of
a sample; ``run.py`` pins the workload process to one CPU, so the sampler
measures the CPU the workload runs on.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

# about the kernel time at the usual speed of the host the benchmark was
# tuned on (2-vCPU cloud VM, x86-64, Python 3.11, numpy with OpenBLAS,
# where it ranged from 0.6 to 1.0 ms); it only sets the scale of the
# reported times
REFERENCE_S = 8.0e-4
INTERVAL_S = 0.025  # between samples; a kernel takes 3 % of that

_VECTOR = np.linspace(0.0, 3.0, 512)
_MATRIX = np.add.outer(np.linspace(-1.0, 1.0, 24), np.linspace(0.0, 0.5, 24))
_MATRIX = _MATRIX + _MATRIX.T


def kernel() -> float:
    """Vector arithmetic, small LAPACK calls, float formatting, dicts.

    Of the kernels tried (interpreted arithmetic, Python object handling,
    small real and complex matrix products, vector arithmetic, symmetric
    eigensolves, float formatting), this mix tracked the engine's basis
    solves, RK4 steps, coupling integrals and CSV writing through the
    host's fast and slow phases at least as well as any other: it took the
    interquartile spread of 1 s slices of each from 0.26-0.30 to 0.05-0.09.
    """
    x = _VECTOR
    acc = 0.0
    for _ in range(8):
        x = np.sin(x) * np.cos(x) + 0.5 * x
        acc += float(x.sum())
    for _ in range(2):
        acc += float(np.linalg.eigh(_MATRIX)[0][0])
    values = x[:100].tolist()
    text = "\n".join(
        ",".join(f"{v:.17g}" for v in values[i:i + 7]) for i in range(0, 100, 7)
    )
    records = [{"n": i, "key": str(i * 7 % 13)} for i in range(150)]
    records.sort(key=lambda r: (r["key"], -r["n"]))
    return acc + len(text) + len(",".join(f"{r['n']}:{r['key']}" for r in records))


class SpeedSampler:
    """Times ``kernel`` every ``INTERVAL_S`` seconds in a daemon thread."""

    def __init__(self):
        self.times: list = []  # midpoints, perf_counter seconds, increasing
        self.durations: list = []
        self._speed: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.sample()

    def sample(self, count: int = 1) -> None:
        """Time ``count`` kernels back to back in the calling thread."""
        for _ in range(count):
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.times.append(0.5 * (start + end))
            self.durations.append(end - start)

    def start(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time sampled in ``[start, end]`` (for the record)."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return statistics.median(
            self.durations[lo:hi] or self.durations or [REFERENCE_S]
        )

    def _speeds(self) -> list:
        """Kernels per second at each sample: the inverse of the median of
        five neighbouring kernel times, so that one sample delayed by an
        interrupt does not count."""
        k = self.durations
        if len(self._speed) != len(k):
            self._speed = [1.0 / statistics.median(k[max(i - 2, 0):i + 3])
                           for i in range(len(k))]
        return self._speed

    def at_reference(self, start: float, end: float) -> float:
        """Duration of ``[start, end]`` scaled to reference speed.

        The work done in the interval is its duration times the mean speed
        over it, the samples being evenly spaced in time; an interval
        shorter than the sampling interval takes the speed of the three
        samples on either side.  Without samples the duration is returned
        as is.
        """
        speeds = self._speeds()
        if not speeds:
            return end - start
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < 2:
            lo, hi = max(lo - 3, 0), min(hi + 3, len(speeds))
        return (end - start) * REFERENCE_S * statistics.fmean(speeds[lo:hi])
