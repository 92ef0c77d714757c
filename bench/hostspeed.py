"""Host-speed calibration for timings on a shared, noisy machine.

On a small shared VM the speed of pure-Python code swings by up to a
factor of two within seconds and drifts over minutes with the load of
neighbouring machines, and the swing slows every CPU-bound loop alike.
A fixed loop that does not touch the package is therefore timed
throughout the run, from a SIGALRM handler every PERIOD_S of wall time
(about 0.5% of the run), and each op's time is scaled by REF_S over the
loop's median duration during the op and PAD samples either side:

    reported = measured * REF_S / median(loop durations around the op)

Reported times are thus seconds at the reference speed, the speed at
which LOOPS additions take REF_S.  Raw times stay in the run metadata.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOPS = 2000
PERIOD_S = 0.02
REF_S = 1e-4
PAD = 5


class HostSpeed:
    """Calibration-loop durations sampled while the timer runs."""

    def __init__(self):
        self.samples = []
        self._old = None

    def probe(self, *_):
        clock = time.perf_counter
        t = clock()
        x = 0
        for i in range(LOOPS):
            x += i
        self.samples.append(clock() - t)

    def factor(self, start, end=None, pad=PAD):
        """REF_S over the median loop duration of the samples taken while
        len(samples) went from start to end, padded by pad either side;
        probes now when fewer than three are at hand."""
        end = len(self.samples) if end is None else end
        window = self.samples[max(0, start - pad):end + pad]
        if len(window) < 3:
            for _ in range(3):
                self.probe()
            window = self.samples[-3:]
        return REF_S / statistics.median(window)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
