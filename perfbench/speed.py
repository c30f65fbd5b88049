"""Machine-speed sampling, so that pass times from a host whose CPU speed
drifts can be compared.

While a :class:`SpeedSampler` is active, a timer signal runs a fixed
pure-Python kernel every ``INTERVAL_S`` seconds and records how long it
took.  The block's time, less the kernel's own time, is then scaled by
``nominal / mean kernel time``: the result is the time the block would
take on a machine where the kernel takes its nominal time.  The kernel is
pure Python even for array-heavy passes: scaling by the geometric mean of
it and a small-array numpy kernel gave no steadier medians on any
workload, and wider spreads on the interpreter-bound ones.
"""

import signal
import statistics
import time

INTERVAL_S = 0.025
NOMINAL_S = 2.5e-4  # the kernel's nominal time


def _kernel() -> int:
    total = 0.0
    cells = {}
    for i in range(400):
        total += i * 0.5
        cells[i & 63] = repr(total)
    return len(cells)


class SpeedSampler:
    """Context manager timing its block and sampling the machine's speed."""

    def __init__(self):
        self.samples = []
        self.raw = 0.0  # the block's wall time less the kernel's own time
        self._previous = None
        self._t0 = 0.0

    def _sample(self, _signum=None, _frame=None):
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.raw = elapsed - sum(self.samples)
        if not self.samples:  # a block shorter than the sampling interval
            self._sample()
        return False

    @property
    def normalized(self) -> float:
        """``raw`` scaled to the kernel's nominal speed."""
        return self.raw * NOMINAL_S / statistics.mean(self.samples)
