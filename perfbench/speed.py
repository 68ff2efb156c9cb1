"""Timing scaled to the nominal speed of the CPU the benchmark runs on.

The virtual CPUs this benchmark was built on change speed by 10 to 30 %
within seconds, and the two CPUs drift independently, so raw wall times
of identical runs spread more than any useful bound. Every process that
does timed work therefore runs a SpeedClock: a timer interrupts it every
PERIOD_S and runs a short, fixed calibration loop on the same thread
(two loops in turn, one per style of the program's hot code), so the
loops see the CPU speed the work sees. Each timed call is divided
by how much slower than nominal the loops ran during that call (median
bursts), and the loops' own time is subtracted from it.
A parent pauses its clock while a child (which samples itself) runs, and
takes over the child's samples with `absorb`; run.py pins every process
to one CPU. Raw wall times are reported alongside.
"""

import contextlib
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# The program's times move about this power of the loops': part of its
# time waits on memory, which does not speed up or slow down with the
# CPU. Fitted on the reference machine (0.6 to 0.8 per operation).
SENSITIVITY = 0.75
MIN_SAMPLES = 5


def _array_loop(n):
    """Element-wise reads and writes of small arrays, as in the kernels."""
    y = np.zeros(6)
    k = np.empty(6)
    for i in range(n):
        for j in range(6):
            k[j] = y[j] * 0.5 + 0.001 * j
        y[i % 6] = k[(i + 1) % 6] + 1.0
    return float(y[0])


def _scalar_loop(n):
    """Float arithmetic and whole-array operations, as in the controller."""
    x = 0.0
    v = np.zeros(3)
    for i in range(n):
        x = x * 0.5 + i % 7 * 0.25
        v = v * 0.999 + 0.001
    return x + float(v[0])


# kind -> (loop, iterations per burst, burst time on the reference machine
# (2 vCPUs, Python 3.11, numpy 2.4) at its median speed)
LOOPS = {
    "a": (_array_loop, 1500, 0.0047),
    "s": (_scalar_loop, 2000, 0.0045),
}


class SpeedClock:
    """Samples CPU speed while active; times calls net of the sampling.

    Use as a context manager; it owns SIGALRM while active. The speed
    factor is the median burst time over nominal: bursts interrupted by
    the host are outliers, and the median ignores them.
    """

    def __init__(self):
        self.bursts = []
        self.burst_total = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start()
        return self

    def __exit__(self, *exc):
        self._stop()
        signal.signal(signal.SIGALRM, self._previous)

    def _start(self):
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def _sample(self, signum, frame):
        kind = "as"[len(self.bursts) % 2]
        loop, iters, _ = LOOPS[kind]
        t0 = time.perf_counter()
        loop(iters)
        took = time.perf_counter() - t0
        self.bursts.append((kind, took))
        self.burst_total += took

    @contextlib.contextmanager
    def paused(self):
        """Stop sampling while a child process runs on this CPU."""
        self._stop()
        try:
            yield
        finally:
            self._start()

    def absorb(self, report):
        """Take over a finished child's samples (its bursts ran in our calls)."""
        bursts = [(w[0], float(w[2:])) for w in report.split()]
        self.bursts.extend(bursts)
        self.burst_total += sum(took for _, took in bursts)

    def time(self, fn, *args, **kwargs):
        """Return (result, seconds, scaled seconds) of fn(...).

        Seconds exclude calibration; scaled seconds are also divided by
        the speed factor of the samples taken during the call, or of the
        whole run so far if the call took fewer than MIN_SAMPLES.
        """
        t0, total0, n0 = time.perf_counter(), self.burst_total, \
            len(self.bursts)
        out = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0 - (self.burst_total - total0)
        during = self.bursts[n0:]
        factor = (self.factor(during) if len(during) >= MIN_SAMPLES
                  else self.factor())
        return out, seconds, seconds / factor

    def factor(self, bursts=None):
        """Slow-down: the geometric mean over loops of median burst time
        over nominal, to the power SENSITIVITY; above 1 when slow."""
        bursts = self.bursts if bursts is None else bursts
        ratios = [statistics.median(t for k, t in bursts if k == kind)
                  / nominal for kind, (_, _, nominal) in LOOPS.items()
                  if any(k == kind for k, _ in bursts)]
        if not ratios:
            return 1.0
        return math.prod(ratios) ** (SENSITIVITY / len(ratios))

    def report(self):
        """The samples as one line, for a parent to `absorb`."""
        return " ".join(f"{kind}:{took!r}" for kind, took in self.bursts)
