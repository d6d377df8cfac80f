"""Host-speed probe: times reported in reference seconds.

The benchmark runs in a small VM on a shared host whose CPU speed
drifts by up to 2x over a few seconds, so raw wall and CPU times of the
same code spread by 10-30 % between runs minutes apart. The probe
measures the host's speed while the program runs: a fixed piece of pure
Python work (``reference_work``, which shares no code with meskf) is
timed every ``INTERVAL_S`` of wall time (``SETUP_INTERVAL_S`` during
set-up) from a SIGALRM handler, between the program's own bytecodes. A
phase of the run (set-up, campaign) is then reported as

    (phase time - probe time inside it) * mean(REFERENCE_S / probe)

its time on a host that runs ``reference_work`` in ``REFERENCE_S``
(about this machine when it is fast). The probe's work never changes
and its time inside the phase is taken out again, so a change in the
program's own work is what moves the result. bench/README.md has the
measurements behind this.
"""

import math
import signal
import statistics
import time

INTERVAL_S = 0.1
# set-up lasts about 0.5 s, so it is sampled more often
SETUP_INTERVAL_S = 0.025
# one reference_work call on this machine (2-vCPU Firecracker VM) when
# the host is fast; it only fixes the unit
REFERENCE_S = 0.002


def reference_work():
    acc = 0.0
    items = []
    for i in range(1, 6001):
        x = i * 0.01
        acc += math.sqrt(x) * math.sin(x) + x / (1.0 + x * x)
        items.append((i * 7919) % 4099)
    items.sort()
    return acc + sum(items)


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Probe:
    """Samples ``(start, wall, cpu)`` of ``reference_work`` calls."""

    def __init__(self):
        self.samples = []
        self._old = None

    def sample(self, *_):
        t0, c0 = _clock(), time.process_time()
        reference_work()
        self.samples.append((t0, _clock() - t0, time.process_time() - c0))

    def start(self, interval=INTERVAL_S):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def mark(self, n=3):
        """Samples taken on purpose between two phases."""
        for _ in range(n):
            self.sample()

    def scale(self, begin, end, wall_s, cpu_s):
        """Wall and CPU seconds of the phase [begin, end) in reference
        seconds, and the median sample. The host speed comes from the
        samples within the phase and the marks just before and after it.

        Each sample stands for an equal slice of wall time, in which the
        host did REFERENCE_S / sample of reference work per second. The
        factor is the mean of that over the slices, not its value at the
        median sample: when the host switches between a fast and a slow
        state within the phase, the median picks one state, while the
        phase's time adds up both."""
        inside = [s for s in self.samples if begin <= s[0] < end]
        before = [s for s in self.samples if s[0] < begin][-3:]
        after = [s for s in self.samples if s[0] >= end][:3]
        if not after:
            raise RuntimeError("no probe sample after the phase")
        used = [s[1] for s in before + inside + after]
        factor = statistics.fmean(REFERENCE_S / t for t in used)
        return ((wall_s - sum(s[1] for s in inside)) * factor,
                (cpu_s - sum(s[2] for s in inside)) * factor,
                statistics.median(used))
