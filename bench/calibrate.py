"""CPU-speed reference for timing on a shared host whose speed drifts.

On the shared 2-core x86 VM this benchmark was written on, the speed of
the same Python code changes by 20-70% from one spell of seconds to the
next (other tenants, vCPU placement). A run that lands in a fast spell
then reads as a speed-up that no code change made.

So the benchmark times a fixed reference loop in the same process, before
a session whenever ``EVERY_S`` seconds have passed since the last sample,
and scales each session's wall time by ``NOMINAL_S`` over the median
reference time within ``WINDOW_S`` of the session. The result is the
session's time on a CPU that runs the reference in ``NOMINAL_S``: what a
code change does to it shows, what the host does mostly cancels. The reference mixes the kinds of
work a session does: interpreter loops over dicts and ints, SHA-256 over
short messages, and masked uint16 table lookups in NumPy.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.002  # median reference time on the 2-core box, in its usual state
EVERY_S = 0.1
WINDOW_S = 1.0

_TABLE = np.arange(1 << 16, dtype=np.int64)
_VEC = (np.arange(4096, dtype=np.int64) * 40503 & 0xFFFF).astype(np.uint16)


def reference() -> float:
    """Seconds the fixed reference work takes now."""
    start = perf_counter()
    h = b"bbext"
    for _ in range(300):
        h = hashlib.sha256(h * 16).digest()
    acc: dict[int, int] = {}
    s = 0
    for i in range(3000):
        s = (s * 31 + i) & 0xFFFF
        acc[s & 63] = acc.get(s & 63, 0) ^ s
    out = np.zeros(_VEC.shape, dtype=np.uint16)
    for k in range(1, 21):
        mask = _VEC != 0
        out[mask] ^= _TABLE[(_VEC[mask].astype(np.int64) + k) & 0xFFFF].astype(np.uint16)
    return perf_counter() - start


def reference_median(samples: int = 5) -> tuple[float, float]:
    """(median reference seconds, seconds spent measuring it)."""
    start = perf_counter()
    value = statistics.median(reference() for _ in range(samples))
    return value, perf_counter() - start


class SpeedTrack:
    """Reference samples over a run, and the scale factor they give."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self) -> None:
        value = reference()
        self.times.append(perf_counter())
        self.values.append(value)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median reference time around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.values[lo:hi]
        if not near:
            near = [self.values[min(bisect.bisect_left(self.times, start), len(self.values) - 1)]]
        return NOMINAL_S / statistics.median(near)
