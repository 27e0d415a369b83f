"""How fast the core runs while an operation runs, and times at full speed.

The benchmark's machine shares its cores with other tenants, and a core
runs up to about two times slower while they load it, for a second or
for minutes (README.md, "Full-speed time").  A two-second operation so
reads anywhere between one and two times its own cost, and no number of
repetitions fixes that when whole minutes run slowed.

The pacer measures the core's speed while the operation runs.  Every
PERIOD_S seconds a SIGALRM handler in the operation's process runs a
fixed reference loop twice and times the second pass.  The first pass
only warms the caches: straight after genrank's sl3 closure, whose
200 MB evict the loop, a single pass read 20% slower than during
`rank psl2:7` in the same minute, and the second pass read the same
during both.  The loop mixes interpreted integer and dict work with
small numpy gathers, as genrank does: genrank's indexed generation
test, its pure-Python closure and `canonical_tuple` slowed 0.96 to
1.12 times as much as this loop, against 1.23 to 1.28 times as much as
a pure-Python loop.

A stretch of the operation that ends at a timed pass of duration d
counts as `stretch * REFERENCE_BURST_S / d`: the time it takes on a
core that runs the pass in REFERENCE_BURST_S.  The bursts are left out
of every stretch, so the pacer's own cost does not count.
REFERENCE_BURST_S is a constant, not a figure measured in the run: when
other tenants slow a core for a whole run, no pass of the run shows
full speed.  On another machine the times read in the same unit, and
compare with each other as seconds do.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.02
WARMUP_BURSTS = 5
# the reference loop's timed pass at full speed on the benchmark's
# machine, a 2.0 GHz Xeon: the lower edge of the passes timed inside
# genrank operations while other tenants slowed the cores (in a quiet
# hour the median pass read 0.31 to 0.34 ms)
REFERENCE_BURST_S = 0.00036


_TABLE = np.arange(4096, dtype=np.int32).reshape(64, 64)


def reference_loop() -> int:
    s = 0
    seen = {}
    for i in range(1500):
        s += i * i % 7
        seen[i & 255] = s
    for i in range(20):
        rows = np.array([i & 63, (i * 7) & 63], dtype=np.int32)
        s += int(np.unique(_TABLE[np.ix_(rows, rows)].ravel()).size)
    return s


class Pacer:
    """Times a reference burst every PERIOD_S seconds; `bursts` holds
    (start, duration, timed pass) triples on the `time.monotonic` clock."""

    def __init__(self):
        self.bursts: list[tuple[float, float, float]] = []

    def burst(self, *_signal_args) -> None:
        # the first pass brings the loop back into the caches the
        # operation has just filled; only the second is timed
        t0 = time.monotonic()
        reference_loop()
        t1 = time.monotonic()
        reference_loop()
        t2 = time.monotonic()
        self.bursts.append((t0, t2 - t0, t2 - t1))

    def start(self) -> None:
        for _ in range(WARMUP_BURSTS):   # let the interpreter specialise the loop
            reference_loop()
        self.burst()
        signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def full_speed_time(bursts: list[tuple[float, float, float]], start: float, end: float,
                    ref: float = REFERENCE_BURST_S) -> float:
    """The time from `start` to `end` at full speed, bursts left out.

    Each stretch between bursts counts at the speed of the burst that
    closes it, the first burst after `end` for the last stretch, or the
    last burst when none follows.
    """
    if not bursts:
        raise ValueError("no reference bursts recorded")
    starts = [b[0] for b in bursts]
    # the first burst that ends after `start`
    i = max(0, bisect.bisect_right(starts, start) - 1)
    if bursts[i][0] + bursts[i][1] <= start:
        i += 1
    total, t = 0.0, start
    while i < len(bursts) and bursts[i][0] < end:
        b0, length, d = bursts[i]
        if b0 > t:
            total += (b0 - t) * ref / d
        t = max(t, b0 + length)
        i += 1
    if t < end:
        total += (end - t) * ref / bursts[min(i, len(bursts) - 1)][2]
    return total
