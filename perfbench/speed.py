"""Times in seconds at a reference host speed.

The benchmark's host is shared: its speed drifts by tens of percent
within a minute, and by more over an hour, as other jobs come and go.
To measure the program rather than the host, a fixed reference kernel
(small numpy vector ops in a Python loop, the character of the program's
dynamics recursions) runs interleaved with the measured code, from a
SIGALRM handler every PERIOD_S of wall time.  The measured code's time
is its wall time minus the kernel's, reported as

    seconds * NOMINAL_S / (mean kernel time over the same stretch)

that is, in seconds of a host on which one kernel takes NOMINAL_S.
Over ten 30 s runs of each workload on a 2-vCPU shared host, the spread
(IQR / median) of the operations' wall time was 0.12-0.23 and that of
their time at reference speed 0.02-0.05.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.04
# one kernel on a fast stretch of a 2-vCPU x86-64 host (Python 3.11,
# numpy 2.4), so reported seconds read near wall seconds there
NOMINAL_S = 0.003
KERNEL_ITERS = 100
BRACKET = 3           # kernels run before and after each measured stretch

_A = np.arange(36.0).reshape(6, 6) / 100.0
_V = np.ones(6)


def kernel():
    """The reference work: a fixed chain of 6-vector ops."""
    x = _V
    for _ in range(KERNEL_ITERS):
        x = _A @ x
        x = x / (1.0 + abs(x[0]))
        x = np.concatenate([np.cross(x[:3], x[3:]), x[:3]])
    return x


class Meter:
    """A program clock with the reference kernel interleaved.

    `clock()` reads wall seconds minus the kernel's seconds so far, so
    spans of it time only the measured code.  `scale()` converts such
    spans to seconds at reference speed, from the kernels timed since
    the last `start()`.
    """

    def __init__(self):
        self.kernel_s = 0.0
        self.samples = []

    def _run_kernel(self, *_):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.kernel_s += dt

    def clock(self):
        while True:
            before = self.kernel_s
            now = time.perf_counter()
            if self.kernel_s == before:  # no kernel ran in between
                return now - before

    def clock_ns(self):
        return int(self.clock() * 1e9)

    def bracket(self):
        for _ in range(BRACKET):
            self._run_kernel()

    def start(self):
        self.samples = []
        self.bracket()
        signal.signal(signal.SIGALRM, self._run_kernel)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.bracket()

    def scale(self):
        return NOMINAL_S / statistics.fmean(self.samples)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
