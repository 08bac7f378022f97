"""The host's speed during a run, from a fixed pure-Python yardstick.

The reference VM runs the same pure-Python code up to 1.8 times slower in
some phases than in others, CPU time as much as wall time. Its speed
switches between levels within seconds, so a sample taken between two
inputs says little about a long input. A ``Speedometer`` therefore times
the yardstick from a timer signal, every ``every_s`` seconds of wall time,
in the middle of whatever the run is doing. ``scaled`` turns a measured
interval into the time it would have taken at the yardstick's nominal
speed: each gap between two samples counts with the factor ``NOMINAL_S``
over the median time of the four samples around it, two on either side, so
that one slow sample (a garbage collection, a page fault) moves little. The
samples' own time does not count.

The yardstick is code of this directory only, so a change to the library
cannot change it. It does the kinds of work the library does: a closure
walk over bit masks, like the enumeration in ``factorisation``, and
formatting, dict and sort work on labels, like ``io``.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter
from types import FrameType

# Median yardstick time on the reference VM (2-core x86_64, CPython 3.11);
# it only sets the scale of the reported seconds.
NOMINAL_S = 0.0014

_RNG = random.Random(20210308)
_WIDTH = 40
_MEMBERS = 22
_ADJ = [_RNG.getrandbits(_WIDTH) | _RNG.getrandbits(_WIDTH) for _ in range(_MEMBERS)]
_SEEDS = [_RNG.getrandbits(_MEMBERS) for _ in range(130)]
_LABELS = [f"v{i:02d}" for i in range(_WIDTH)]


def yardstick() -> int:
    """A fixed amount of work; returns a checksum so that nothing is skipped."""
    base = (1 << _WIDTH) - 1
    check = 0
    for seed in _SEEDS:
        common = base
        t = seed
        while t:
            low = t & -t
            common &= _ADJ[low.bit_length() - 1]
            t ^= low
        closed = 0
        for i in range(_MEMBERS):
            if common & ~_ADJ[i] == 0:
                closed |= 1 << i
        names = {_LABELS[i]: i for i in range(_WIDTH) if common >> i & 1}
        text = " ".join(sorted(names, reverse=True))
        check ^= closed ^ common ^ len(text)
    return check


class Speedometer:
    """Yardstick samples of one run, with their start and end times, and scaled intervals."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []

    def sample(self, _signum: int = 0, _frame: FrameType | None = None) -> None:
        start = perf_counter()
        yardstick()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.times.append(end - start)

    def start(self) -> None:
        """Take a sample now and then one every ``every_s`` from SIGALRM."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def stop(self) -> None:
        """Stop the timer and take a last sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        """The time [start, end] takes at nominal speed, without the samples in it.

        There must be a sample before ``start`` and one after ``end``.
        """
        k = bisect.bisect_right(self.ends, start) - 1
        if k < 0 or self.starts[-1] < end:
            raise ValueError("the samples do not cover the interval")
        total = 0.0
        while k + 1 < len(self.starts) and self.ends[k] < end:
            overlap = min(end, self.starts[k + 1]) - max(start, self.ends[k])
            if overlap > 0:
                total += overlap * NOMINAL_S / statistics.median(self.times[max(k - 1, 0) : k + 3])
            k += 1
        return total
