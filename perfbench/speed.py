"""Machine-speed reference for every time the benchmark reports.

A shared host changes the speed of its cores by up to 1.5x within a second,
as other tenants' load comes and goes, and by more over minutes.  A run that
happened to fall in a slow stretch would read as a regression of the program.
So the benchmark pins itself and its children to one CPU and, between timed
intervals, times a fixed piece of reference work (a probe) on that CPU.
Each interval is reported in reference seconds:

    reference seconds = wall seconds * reference probe seconds / probe seconds

where probe seconds is the median of the probes taken within WINDOW_S
before and after the interval.  The machine's speed holds for a second or
so at a time, so that window follows it.  A change to the program moves wall
seconds and leaves the probe alone, so it moves reference seconds by the
same factor; a change in the machine's speed moves both and cancels.  The
raw wall times are kept next to the reference times in the result file.

Host load does not slow all work alike: it can slow starting a process while
pure-Python arithmetic runs faster.  So there are two probes, each matched
to the work it scales:
- COMPUTE, for ops inside a running process: dict updates and Fraction
  arithmetic, the kind of work the program does.
- SPAWN, for work that starts a process (a CLI call, a set-up): start a bare
  interpreter (`python -I -S -c pass`) and wait for it to exit.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

PROBE_EVERY_S = 0.05  # between ops, probe when the last probe is this old
WINDOW_S = 0.5  # an interval is scaled by the probes this close to it


def pin_cpu() -> None:
    """Run this process and the children it starts on one CPU, so that the
    probes time the core the work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _compute() -> Fraction:
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    f = Fraction(1, 3)
    for i in range(100):
        f = f * Fraction(i + 1, i + 2) + counts[i % 97]
    return f


def _spawn() -> None:
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True, timeout=60)


# (probe, what it takes at the reference speed): about its time on an idle
# 2-vCPU Intel Xeon VM, so reference seconds read close to wall seconds there.
COMPUTE = (_compute, 0.001)
SPAWN = (_spawn, 0.012)


class Meter:
    """Probes of one kind taken between timed intervals, and the conversion
    of an interval's wall time into reference seconds."""

    def __init__(self, kind=COMPUTE):
        self._work, self.reference_probe_s = kind
        self.times: list[float] = []  # perf_counter at the end of each probe
        self.seconds: list[float] = []

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            self._work()
            t1 = time.perf_counter()
            self.times.append(t1)
            self.seconds.append(t1 - t0)

    def tick(self) -> None:
        """Probe if the last probe is older than PROBE_EVERY_S."""
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, t0: float, t1: float) -> float:
        """The reference probe time over the median probe time within
        WINDOW_S of [t0, t1], or of the nearest probes before and after it
        when none is that close.  The median keeps a probe hit by an
        interrupt from rescaling an op."""
        if not self.times:
            raise RuntimeError("no probe taken")
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.seconds[lo:hi]
        if not near:
            before = max(bisect.bisect_right(self.times, t0) - 1, 0)
            after = min(before + 1, len(self.times) - 1)
            near = [self.seconds[before], self.seconds[after]]
        return self.reference_probe_s / statistics.median(near)

    def reference(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1]."""
        return (t1 - t0) * self.factor(t0, t1)

    def median_probe_s(self) -> float:
        return statistics.median(self.seconds) if self.seconds else 0.0
