"""Scaling of op times to the reference machine speed.

On a shared host the speed of the whole guest drifts by 10-30% over tens of
seconds to minutes, so raw times of the same code spread past the bounds
from one run to the next.  A timed run therefore also times a fixed
calibration kernel between ops and reports each op's time scaled by how
fast the kernel ran around it.  The kernel is the benchmark's own code: a
change to the library moves op time and not the kernel.

The kernel only tracks ops of its own character.  Over 20 s windows on the
reference machine, interpreted Python ops (``cascade_auction``) and the
kernel moved together (correlation 0.95-0.99): scaled, their spread was
0.03 against 0.10 raw, and over ten runs of each of the three interpreted
workloads scaling cut the run-to-run spread of their times from up to 0.27
to at most 0.09.  The dense LP ops of ``mnl_ladder`` drift less than the kernel
(slope 0.5-0.7 against it), and so does a kernel of dense row pivots like
the library's simplex: scaled by either, their spread over ten runs grew
(p50 0.10 raw, 0.14 scaled).  That workload reports raw times.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# One calibration sample per this much op time.
CALIBRATE_EVERY_S = 0.1
# An op is scaled by the calibration samples this close to its middle.
LOCAL_WINDOW_S = 5.0


def kernel() -> float:
    """Interpreted arithmetic, a small dict, and numpy calls on short
    arrays: the mix of the mechanism, cascade and CLI code."""
    acc, table = 0.0, {}
    for i in range(12000):
        acc += (i * 7 % 13) * 0.5
        table[i & 255] = acc
    a = np.arange(64.0)
    for _ in range(200):
        a = np.sort(a[::-1]) + 1.0
    return acc + float(a[0])


# Mean time of one kernel on the reference machine, a 2-vCPU KVM guest
# (Intel Xeon, Python 3.11.7, numpy 2.4.6): the speed that scaled times are
# expressed at.
REFERENCE_S = 0.0037


class Calibration:
    """Times the kernel between ops, one sample per CALIBRATE_EVERY_S of op
    time.  Each op is scaled by the kernel's mean time within
    LOCAL_WINDOW_S of it, so a slow stretch inside a run does not widen the
    run's percentiles either.  Disabled, it takes no samples and scales by
    1."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.times: list[float] = []
        self.samples: list[float] = []
        self._owed = CALIBRATE_EVERY_S  # the first op is followed by a sample

    def after_op(self, elapsed: float) -> None:
        if not self.enabled:
            return
        self._owed += elapsed
        while self._owed >= CALIBRATE_EVERY_S:
            self._owed -= CALIBRATE_EVERY_S
            start = perf_counter()
            kernel()
            self.times.append(start)
            self.samples.append(perf_counter() - start)

    @property
    def scale(self) -> float:
        """Reference speed over this run's speed: multiply a time by it."""
        if not self.enabled:
            return 1.0
        return REFERENCE_S / statistics.fmean(self.samples)

    def scaled(self, starts: list[float], durations: list[float]) -> np.ndarray:
        """Each op's duration times reference speed over the speed within
        LOCAL_WINDOW_S of the op's middle."""
        if not self.enabled:
            return np.asarray(durations)
        times, samples = np.asarray(self.times), np.asarray(self.samples)
        durations = np.asarray(durations)
        middles = np.asarray(starts) + durations / 2.0
        total = np.concatenate(([0.0], np.cumsum(samples)))
        lo = np.searchsorted(times, middles - LOCAL_WINDOW_S)
        hi = np.searchsorted(times, middles + LOCAL_WINDOW_S, side="right")
        count = hi - lo
        local = np.where(count > 0,
                         (total[hi] - total[lo]) / np.maximum(count, 1),
                         samples.mean())
        return durations * REFERENCE_S / local
