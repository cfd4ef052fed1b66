"""Host-speed calibration of the benchmark's times.

On a shared host the CPU speed one process sees drifts by tens of percent (other
tenants, frequency changes); on the 2-core host this benchmark was written on,
the same interpreted work flipped between two speeds about 60% apart.  Every
interpreter therefore times a fixed reference kernel, which does not touch
levyruin, around its set-up and between operations, and reports calibrated
times: wall time * NOMINAL_S / (the kernel's mean time around that work), the
time the work would have taken had the kernel taken NOMINAL_S.  A library
change moves calibrated times as it moves wall times; host drift largely cancels.
"""

from __future__ import annotations

import math
import time
from array import array

NOMINAL_S = 0.005  # the kernel's time on the reference host in a typical state
INTERVAL_S = 0.25  # wall time between kernel samples during a timed run


def kernel() -> float:
    """Fixed interpreted work resembling the library's: float arithmetic, math
    calls and dict stores.  Pure Python, so it can run before numpy is imported."""
    acc = 0.0
    table = {}
    for i in range(21000):
        x = 0.5 + (i % 97) * 0.01
        acc += math.exp(-x) * math.sqrt(x) / (1.0 + x * x)
        table[i & 255] = acc
    return acc


class HostSpeed:
    """Kernel samples of one interpreter, and the calibration of a timed phase.

    Between ``start`` and ``stop`` the phase is cut into segments at each kernel
    sample.  A segment's factor is the mean of the two samples around it over
    NOMINAL_S (above 1 on a slower host); the segment's wall time and the
    latencies recorded in it are divided by that factor, so each operation is
    calibrated by the host state it ran in.  Kernel time is in no segment.
    """

    def __init__(self):
        self.samples = array("d")
        self.spent = 0.0       # wall seconds spent in the kernel
        self.raw = 0.0         # wall seconds of the timed segments
        self.calibrated = 0.0  # calibrated seconds of the timed segments
        self._next = 0.0
        self._latencies = array("d")
        self._mark = 0
        self._segment_start = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._next = end + INTERVAL_S

    def factor(self) -> float:
        """Mean kernel time over NOMINAL_S.  The mean, not the median: the host
        alternates between states and a throughput averages over both."""
        return sum(self.samples) / len(self.samples) / NOMINAL_S

    def start(self, latencies: array) -> None:
        """Begin a timed phase whose operations append raw latencies to ``latencies``."""
        self.sample()
        self._latencies = latencies
        self._mark = len(latencies)
        self._segment_start = time.perf_counter()

    def maybe_sample(self) -> None:
        """Close the current segment when INTERVAL_S has passed since the last sample."""
        if time.perf_counter() >= self._next:
            self._close_segment()

    def stop(self) -> None:
        self._close_segment()

    def _close_segment(self) -> None:
        wall = time.perf_counter() - self._segment_start
        before = self.samples[-1]
        self.sample()
        factor = 0.5 * (before + self.samples[-1]) / NOMINAL_S
        self.raw += wall
        self.calibrated += wall / factor
        lat = self._latencies
        for i in range(self._mark, len(lat)):
            lat[i] /= factor
        self._mark = len(lat)
        self._segment_start = time.perf_counter()
