"""Machine speed, measured while ops run, to scale timings to a reference speed.

On a shared host the speed of a CPU drifts by a quarter or more over seconds
to minutes, far more than the changes the benchmark must resolve.  A fixed
pure-Python probe (dict updates, int-to-str, a sort: the kind of work the
program does) runs on the same CPU every PROBE_EVERY_S, from a timer signal,
so it also samples the speed during long ops.  Each op's time, less the probe
time that fell inside it, is scaled by REFERENCE_S over the probe time
during it.  The reported times read as if the machine ran at the reference
speed throughout.
"""

from __future__ import annotations

import bisect
import signal
import time
from statistics import fmean
from typing import List

from stats import median

# Probe time in a quiet period on the machine the baseline was measured on.
REFERENCE_S = 0.0006
PROBE_EVERY_S = 0.05
MIN_PROBES = 5
WINDOW_S = 0.5


def probe() -> float:
    """Seconds a fixed mix of dict updates, int-to-str and sorting takes now."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3
    sorted(str(x) for x in range(600))
    return time.perf_counter() - t0


class SpeedMeter:
    """Probe samples over time.  As a context manager it probes on a timer."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.samples: List[float] = []
        self._previous = None
        self._busy = False

    def probe(self, *_signal_args) -> None:
        if self._busy:   # a timer tick during a slow probe
            return
        self._busy = True
        start = time.perf_counter()
        seconds = probe()
        self.starts.append(start)
        self.samples.append(seconds)
        self._busy = False

    def __enter__(self) -> "SpeedMeter":
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def scaled(self, start: float, seconds: float) -> float:
        """An op's seconds without the probes inside it, at the reference speed."""
        end = start + seconds
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = seconds - sum(self.samples[lo:hi])
        return own * self.factor(start, end)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the speed probed during [start, end].

        A long op's time integrates the speed over its span, so the probes
        inside it are averaged.  A short op, holding fewer than MIN_PROBES
        probes, takes the median of those within WINDOW_S of it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi - lo >= MIN_PROBES:
            return REFERENCE_S / fmean(self.samples[lo:hi])
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return REFERENCE_S / median(self.samples[lo:hi] or self.samples)
