"""Host-speed calibration, so timings from different host states compare.

On a shared host the CPU speed a process gets switches between discrete
levels for seconds to minutes at a time: a fixed pure-Python loop reads
37 ms in one moment and 84 ms in another, and process CPU time tracks
wall time, so the slowdown is in execution itself.  A raw median then
says as much about the host's state during the run as about the program.

The benchmark therefore times a burst of a small fixed calibration loop
(about 1 ms on an uncontended core) before every op, and scales each
op's wall time by ``REFERENCE_S / local calibration time``, where the
local time is the median calibration of the ``SPAN`` bursts on each side
of the op.  A normalized time reads as the op's time on a host where the
calibration loop takes ``REFERENCE_S``.  Raw times are reported beside
them.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Dict, List

import numpy as np

#: calibration time the normalized timings are scaled to
REFERENCE_S = 1.0e-3
#: calibration loops per burst
BURST = 3
#: an op's host state is read from this many bursts before it (counting
#: the one just before it) and as many after it
SPAN = 2

_VALUES = np.random.default_rng(1).random(20_000)


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work."""
    started = time.perf_counter()
    acc = 0
    table = {}
    for i in range(5_000):
        acc += i * i % 7
        table[i & 255] = acc
    for _ in range(3):
        np.sort(_VALUES)
        _VALUES.cumsum()
    return time.perf_counter() - started


class HostSpeed:
    """Calibration bursts of one run and the scale factors they give."""

    def __init__(self) -> None:
        self.bursts: List[List[float]] = []

    def calibrate(self) -> int:
        """Time one burst; returns its index."""
        self.bursts.append([calibration_loop() for _ in range(BURST)])
        return len(self.bursts) - 1

    def factor(self, first: int, last: int) -> float:
        """``REFERENCE_S`` over the median calibration of bursts
        ``first`` to ``last`` (clipped to the bursts taken)."""
        return REFERENCE_S / median(
            value
            for burst in self.bursts[max(first, 0):last + 1]
            for value in burst
        )

    def around(self, burst: int) -> float:
        """The factor of an op preceded by burst ``burst``."""
        return self.factor(burst - SPAN + 1, burst + SPAN)

    @property
    def values(self) -> List[float]:
        return [value for burst in self.bursts for value in burst]

    def median_s(self) -> float:
        return median(self.values) if self.bursts else 0.0


def host_probe() -> Dict[str, float]:
    """Larger fixed pure-Python and numpy loops, timed before and after a
    run: a diagnostic that tells a slow-host run from a regression."""
    started = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    python_s = time.perf_counter() - started
    values = np.random.default_rng(0).random(400_000)
    started = time.perf_counter()
    for _ in range(4):
        np.sort(values)
        np.cumsum(values)
    numpy_s = time.perf_counter() - started
    return {"python_s": python_s, "numpy_s": numpy_s}
