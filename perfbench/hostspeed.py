"""Host speed: how fast this vCPU runs right now, relative to a reference.

On the shared 2-vCPU VM the bounds were set on, the same op's wall time
swings by up to 1.7x within seconds and stays high or low for a minute
at a time, because the host runs other tenants on the same physical
cores (and steals the vCPU outright now and then).  Thread CPU time
swings with it, so it is no escape.  A run that reports raw seconds then
measures the neighbours more than the program.

:class:`SpeedProbe` is a daemon thread that, every ``PERIOD_S``, times a
fixed pure-Python loop on the wall clock.  The loop calls a method and
updates attributes, a dict and a list, like the simulator's per-packet
code; a bare integer-add loop tracked the zoo workload's slowdowns less
well.  The loop is the benchmark's code, so no change to the program can
make it faster or slower.  ``speed(t0, t1)`` is ``REF_S`` over the median
loop time sampled in ``[t0, t1]``; ``REF_S`` is a fixed scale, so 1.0
means "as fast as the reference" and runs on the reference VM read about
0.65 to 1.3.  Multiplying a raw duration by it gives *reference
seconds*: the time the same work takes at the reference speed.  The
probe costs the measured thread about 3% (one ~0.6 ms loop per 20 ms plus
the GIL hand-offs), the same on every commit.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

#: Iterations of the calibration loop (about 0.5 ms at the reference speed).
CAL_ITERS = 2000
#: Wall seconds of the loop on an uncontended reference vCPU.
REF_S = 0.5e-3
#: Sampling period.
PERIOD_S = 0.02


class _Cell:
    """What the loop works on: attribute updates through a method call,
    like the simulator's per-packet objects; it allocates no containers,
    so it never triggers a garbage collection of the program's heap."""

    __slots__ = ("level", "count")

    def __init__(self):
        self.level = 0.0
        self.count = 0

    def step(self, x: float) -> float:
        self.level = self.level * 0.5 + x
        self.count += 1
        return self.level


_CELL = _Cell()
_TABLE = {k: 0.0 for k in range(64)}
_RING = [0.0] * 256


def calibrate() -> float:
    """Wall seconds of one calibration loop."""
    cell, table, ring = _CELL, _TABLE, _RING
    t0 = time.perf_counter()
    for k in range(CAL_ITERS):
        v = cell.step(k * 0.001)
        table[k & 63] = v
        ring[k & 255] = v
    return time.perf_counter() - t0


class SpeedProbe(threading.Thread):
    """Samples host speed in the background of the measured thread."""

    def __init__(self):
        super().__init__(daemon=True, name="perfbench-speed")
        self.starts: list[float] = []
        self.loops: list[float] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            t = time.perf_counter()
            d = calibrate()
            self.starts.append(t)
            self.loops.append(d)
            self._halt.wait(PERIOD_S)

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def speed(self, t0: float, t1: float) -> float:
        """Reference speed over ``[t0, t1]`` (``perf_counter`` times); an
        interval shorter than a few samples uses the nearest five."""
        n = len(self.loops)  # appended after ``starts``
        if n == 0:
            return 1.0
        i = bisect.bisect_left(self.starts, t0, 0, n)
        j = bisect.bisect_right(self.starts, t1, 0, n)
        if j - i < 3:
            mid = min(max((i + j) // 2, 0), n)
            i, j = max(0, mid - 3), min(n, mid + 2)
        return REF_S / statistics.median(self.loops[i:j])

    def overall(self) -> float:
        """Reference speed over everything sampled so far."""
        return REF_S / statistics.median(self.loops) if self.loops else 1.0
