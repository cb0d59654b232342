"""A speed probe that turns wall time into reference-speed seconds.

On a shared virtual machine the speed can drift by up to a factor of
two over seconds to minutes, and CPU time drifts with it.  While a
session runs, ``SpeedProbe`` interrupts it every ``PERIOD_S`` with
SIGALRM and times a fixed pure-Python kernel.
For an interval of the session,

    reference seconds = (wall time - time spent in the probe)
                        * mean over the probe samples of REFERENCE_S / sample

which is the time the interval would take at the speed where the kernel
takes ``REFERENCE_S``.  The probe costs under 1 % of the wall time, and
that share is subtracted.  Its signal handler runs only between Python
bytecodes, so it never interrupts a numpy call.  This module imports
only ``signal`` and ``time``, and the kernel calls no imported module,
so the probe neither shortens nor disturbs the imports it times.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.02
# median duration of the kernel on the 2-vCPU Xeon virtual machine with
# Python 3.11.7 that recorded baseline.json; a constant, so that figures
# stay comparable across runs
REFERENCE_S = 1.48e-4


def kernel():
    counts = {}
    for i in range(700):
        counts[i % 37] = counts.get(i % 37, 0) + i * i
    return sorted(counts.values())


class SpeedProbe:
    def __init__(self):
        self.samples = []        # (start, duration) of every kernel run

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, start, end):
        """Reference-speed seconds of the interval [start, end)."""
        inside = [d for t, d in self.samples if start <= t < end]
        # an interval shorter than one period takes the speed of them all
        speeds = [REFERENCE_S / d for d in inside or
                  [d for _, d in self.samples]]
        return (end - start - sum(inside)) * sum(speeds) / len(speeds)
