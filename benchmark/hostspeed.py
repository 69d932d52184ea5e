"""Host-speed correction for timings taken on a shared machine.

Raw seconds on a shared host drift by tens of percent between processes
and within one.  A fixed pure-Python probe loop is therefore timed in turns
with the work; every work interval is scaled by the probe's nominal
duration divided by its measured duration around that interval, which
gives seconds at the reference host speed.

The probe spends about half its time on exact rational arithmetic with
dictionary stores and half on a tight integer loop.  Timed against fixed
units of the program's work on the reference host, the work's time grew as
the probe's slowdown to the power 0.8 with the rational half alone, 1.15
with the integer half alone, and 0.9 to 1.05 with both, so the mix is the
one whose ratio the work follows.  The probe shares no interpreter state the
program can change: the cyclic garbage collector is switched off while it
runs, so neither the program's heap nor any GC tuning it makes reaches the
probe, and it keeps no objects between calls.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# The probe adds FRACTION_STEPS fractions and runs INTEGER_STEPS steps of a
# linear congruential generator.  PROBE_NOMINAL_S is what one probe took on
# the reference host (a 2-core x86-64 sandbox, CPython 3.11.7, fastest of
# 300 readings); corrected seconds are seconds on that host.
FRACTION_STEPS = 300
INTEGER_STEPS = 6000
PROBE_NOMINAL_S = 0.0015

# Work is interrupted for a probe reading once this much time has passed
# since the previous reading.
PROBE_EVERY_S = 0.02


def probe_loop():
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = Fraction(0)
        steps = [Fraction(1, b) for b in range(1, 8)]
        table = {}
        for i in range(FRACTION_STEPS):
            acc += steps[i % 7]
            table[(i % 13, i % 5)] = acc
        x = 1
        for _ in range(INTEGER_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        return x
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Probe readings over time and the correction they imply.

    ``readings`` is a time-ordered list of (midpoint, measured probe
    seconds).  ``interval`` brackets a piece of work with readings and
    records it; ``corrected`` turns a recorded raw interval into reference
    seconds.
    """

    def __init__(self, probe=probe_loop, nominal=PROBE_NOMINAL_S,
                 every=PROBE_EVERY_S, window=0.0, now=time.perf_counter):
        self.probe = probe
        self.nominal = nominal
        self.every = every
        self.window = window
        self.now = now
        self.times = []
        self.durations = []

    def read(self):
        t0 = self.now()
        self.probe()
        t1 = self.now()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def maybe_read(self):
        if not self.times or self.now() - self.times[-1] >= self.every:
            self.read()

    def slowdown(self, t0, t1):
        """Measured over nominal probe time around [t0, t1]: the median of
        the readings within ``window`` seconds of the interval, and of the
        nearest one on each side of it."""
        if not self.times:
            raise RuntimeError("no probe readings taken")
        lo = max(0, bisect.bisect_left(self.times, t0 - self.window) - 1)
        hi = min(len(self.times), bisect.bisect_right(self.times, t1 + self.window) + 1)
        return statistics.median(self.durations[lo:hi]) / self.nominal

    def corrected(self, t0, t1):
        """Seconds the interval [t0, t1] would take at the reference speed."""
        return (t1 - t0) / self.slowdown(t0, t1)

    def summary(self):
        """Probe readings for reference: count and slowdown quartiles."""
        if not self.durations:
            return {"readings": 0}
        s = sorted(d / self.nominal for d in self.durations)
        q = statistics.quantiles(s, n=4) if len(s) > 1 else [s[0]] * 3
        return {"readings": len(s), "slowdown_min": s[0], "slowdown_q1": q[0],
                "slowdown_median": q[1], "slowdown_q3": q[2], "slowdown_max": s[-1]}
