"""A clock that runs at a fixed reference speed.

On a machine shared with other tenants the CPU's speed swings by up to 40%
in episodes of seconds to minutes, so plain wall time of the same work
varies far more between runs than any change worth detecting.  This clock
samples the machine's current speed every ``PERIOD_S`` seconds by timing a
fixed pure-Python probe (fractions, dict churn and big-int bit operations,
the kinds of work the library does) from a ``SIGALRM`` handler, so probes
also land inside long library calls.  Reference time is wall time with each
stretch between two probes scaled by ``PROBE_REF_S / probe duration``, and
the probes themselves excluded: the time the work would take on a machine
whose probe runs in ``PROBE_REF_S`` (about this benchmark's machine when
no neighbour is busy).

Timestamps are taken with ``time.perf_counter`` while measuring and turned
into reference time afterwards with :meth:`RefClock.convert`, so the signal
handler never races with the code that reads the clock.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
PROBE_REF_S = 200e-6


def probe() -> object:
    """Fixed work whose duration measures the machine's current speed."""
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(k, k + 7)
    d = {}
    for k in range(300):
        d[(k * 7919) & 1023] = k
    t = (1 << 640) - 1
    for _ in range(40):
        t ^= (t >> 3) & (t << 5)
    return acc, len(d), t


class RefClock:
    """Periodic speed probes and the wall-to-reference time conversion."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._table: tuple[list[float], list[float], list[float]] | None = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)
        self._build()

    def _build(self) -> None:
        """Cumulative reference time at each probe's start and end.

        The factor after probe k is ``PROBE_REF_S`` over the median duration
        of probes k-1, k and k+1, which damps a probe that a context switch
        or a garbage collection happened to hit."""
        s, e = self.starts, self.ends
        d = [b - a for a, b in zip(s, e)]
        n = len(d)
        factor = []
        for k in range(n):
            window = sorted(d[max(0, k - 1) : k + 2])
            factor.append(PROBE_REF_S / window[len(window) // 2])
        at_start = [0.0] * n
        for k in range(1, n):
            at_start[k] = at_start[k - 1] + (s[k] - e[k - 1]) * factor[k - 1]
        self._table = (s, at_start, factor)

    def convert(self, t: float) -> float:
        """Reference time of wall timestamp ``t`` (perf_counter seconds)."""
        s, at_start, factor = self._table
        k = bisect.bisect_right(s, t) - 1
        if k < 0:
            return (t - s[0]) * factor[0]
        since = t - self.ends[k]
        if since <= 0:  # inside probe k: the probe itself does not count
            return at_start[k]
        return at_start[k] + since * factor[k]

    def duration(self, t0: float, t1: float) -> float:
        return self.convert(t1) - self.convert(t0)

    @property
    def probe_median_s(self) -> float:
        d = sorted(b - a for a, b in zip(self.starts, self.ends))
        return d[len(d) // 2]
