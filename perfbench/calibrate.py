"""Machine-speed calibration.

The benchmark runs on a shared machine where other tenants' load changes how
fast this process runs, by up to 1.8x, in phases that last from about a
second to minutes.  CPU pinning and frequency control are not available.
Raw times of two 20-second runs of the same episodes can differ by 25%, which
is more than any useful regression bound.

So the loop times a fixed kernel every ``INTERVAL_NS``, between episodes.
The kernel uses no program code: it is a pure-Python integer loop plus small
numpy operations, the same mix the tick loop is made of.  Each measured time
``t`` is reported as ``t * (REFERENCE_NS / k) ** EXPONENT``.  Here ``k`` is the
median kernel time within ``WINDOW_NS`` of the measurement.  A reported time
is thus the time the work would take at the machine speed at which the kernel
takes ``REFERENCE_NS``.  The kernel does not change with the program, so a
faster program shows in full.  The raw times stay in the report file.

``EXPONENT`` is fitted, not assumed.  On a 2-vCPU 2.1 GHz Xeon VM, the log of
the episode time regressed on the log of the kernel time over 70 seconds of
varying load.  The slope was 0.83 for ``scenario_1_conflict`` episodes and
0.84 for ``bt_classic_27`` episodes.  With that slope, the residual spread
per 1.3-second window was 4-5%.  With slope 1 it was 6-7%, and without
calibration it was 21%.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

REFERENCE_NS = 1_000_000
EXPONENT = 0.83
INTERVAL_NS = 25_000_000
WINDOW_NS = 300_000_000


def kernel():
    total = 0
    for i in range(1500):
        total += i * i
    p = np.array([0.3, 0.7])
    log_b = np.log(np.maximum(np.array([[0.95, 0.9], [0.05, 0.1]]), 1e-16))
    for _ in range(150):
        v = log_b @ p
        z = np.exp(v - v.max())
        p = z / z.sum()
    return total, p


class SpeedTrack:
    """Kernel timings over a run, and the scale factor they imply."""

    def __init__(self):
        self.at = array("q")
        self.cost = array("q")
        kernel()  # the first call pays for numpy's lazy set-up

    def sample(self):
        t0 = time.perf_counter_ns()
        kernel()
        t1 = time.perf_counter_ns()
        self.at.append((t0 + t1) // 2)
        self.cost.append(t1 - t0)

    def maybe_sample(self):
        if not self.at or time.perf_counter_ns() - self.at[-1] >= INTERVAL_NS:
            self.sample()

    def scales(self, moments) -> np.ndarray:
        """Scale factor for each moment (perf_counter_ns)."""
        at = np.frombuffer(self.at, dtype=np.int64)
        cost = np.frombuffer(self.cost, dtype=np.int64)
        moments = np.asarray(moments, dtype=np.int64)
        lo = np.searchsorted(at, moments - WINDOW_NS, side="left")
        hi = np.searchsorted(at, moments + WINDOW_NS, side="right")
        out = np.empty(len(moments))
        for i, (a, b) in enumerate(zip(lo, hi)):
            if a == b:  # no sample in the window: use the nearest one
                a = min(int(np.searchsorted(at, moments[i])), len(at) - 1)
                b = a + 1
            out[i] = (REFERENCE_NS / float(np.median(cost[a:b]))) ** EXPONENT
        return out

    def median_cost_ns(self) -> float:
        return float(np.median(np.frombuffer(self.cost, dtype=np.int64)))
