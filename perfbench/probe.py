"""Host-speed probe for the measured worker.

The benchmark runs on a shared host whose speed changes by up to about 2x
for seconds to minutes at a time (another tenant's load on the same cores),
which no amount of averaging inside one run removes.  The probe times a
fixed pure-Python kernel, independent of linkcoh, every few milliseconds
from a SIGALRM handler while the worker sets up and runs its operations, so
the set-up time and each operation's latency can be put on one scale:

    corrected = (raw - probe time inside it) * REF_S / local_probe_s

where `local_probe_s` is the median probe time around the interval and
`REF_S` the kernel's time on an uncontended core of the host the benchmark
was calibrated on, so a corrected latency reads as seconds on that host.
The kernel runs with the garbage collector off, so a larger linkcoh heap
cannot slow it and thereby hide a regression.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# probe kernel time on an uncontended core of the calibration host
# (Python 3.11, 2 vCPUs): the fastest of several thousand probes
REF_S = 0.000155
INTERVAL_S = 0.025
# probe interval during a worker's set-up, which lasts only a few tenths of
# a second
SETUP_INTERVAL_S = 0.01
# untimed kernel runs before the first probe
WARMUP = 50
# an operation that spans fewer probes than this is corrected by the
# median of this many probes nearest to it in time
MIN_PROBES = 7

_A = {(i % 3, i % 5, i % 7): Fraction(i + 1, 2 + i % 3) for i in range(6)}
_B = {(i % 4, i % 2, i % 3): Fraction(2 * i - 5, 3) for i in range(6)}


def kernel() -> int:
    """Multiply two small sparse polynomials held as exponent-tuple dicts
    with Fraction coefficients, the data layout of linkcoh's ring."""
    out: dict[tuple[int, ...], Fraction] = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return len(out)


def sample() -> float:
    """Time one kernel run with the garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        kernel()
        return time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()


class Probe:
    """Probes the host every few milliseconds while installed."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # handler entry times
        self.times: list[float] = []  # kernel times
        self.costs: list[float] = []  # whole handler times
        self.warmup_s = 0.0

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.times.append(sample())
        self.starts.append(t)
        self.costs.append(time.perf_counter() - t)

    def install(self, interval: float) -> None:
        """Probe every `interval` seconds from now on; may be called again
        to change the interval."""
        if not self.warmup_s:
            # a new process runs the kernel slower until its bytecode is
            # specialised and its caches are warm
            t = time.perf_counter()
            for _ in range(WARMUP):
                sample()
            self.warmup_s = time.perf_counter() - t
            signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def remove(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Median host slowdown over [start, end], from the probes inside it
        or, for a short interval, the MIN_PROBES probes nearest to it."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        if j - i < MIN_PROBES:
            mid = (i + j) // 2
            i = max(0, min(mid - MIN_PROBES // 2, len(self.times) - MIN_PROBES))
            j = min(len(self.times), i + MIN_PROBES)
        return statistics.median(self.times[i:j]) / REF_S

    def spent(self, start: float, end: float) -> float:
        """Time the probe took inside [start, end], two perf_counter
        readings taken outside the handler."""
        # a handler runs whole between two bytecodes, so a probe that
        # entered inside [start, end] also finished inside it
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        return sum(self.costs[i:j])

    def correct_span(self, raw: float, start: float, end: float) -> float:
        """`raw` seconds that include [start, end], without the probes run
        inside that interval and divided by the host slowdown over it."""
        return (raw - self.spent(start, end)) / self.factor(start, end)

    def correct(self, start: float, end: float) -> float:
        """The time from `start` to `end`, corrected as by correct_span."""
        return self.correct_span(end - start, start, end)
