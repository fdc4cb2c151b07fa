"""Reference-speed time: wall time corrected for how fast the CPU runs now.

On a shared machine the same pure-Python work can take 40 % longer for
seconds or minutes at a stretch, so raw wall times of one run say more
about the neighbours than about the program. A background thread runs a
fixed kernel (a bitmask search written in the benchmark, not the
library) every PERIOD seconds and records how long it took. A timed
interval is converted to reference seconds by subtracting the sampler's
own busy time inside it and scaling by REF_KERNEL_S / (kernel time around
the interval): the time the interval would have taken on a CPU that runs
the kernel in exactly REF_KERNEL_S. Raw times are reported beside. The
process is pinned to one CPU so that the sampler measures the CPU the
work runs on, CLI children included.
"""
from __future__ import annotations

import os
import threading
from array import array
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

PERIOD = 0.05
SMOOTH = 3
REF_KERNEL_S = 0.0003

_ADJ = tuple((1 << ((v + 1) % 13)) | (1 << ((v - 1) % 13)) | (1 << ((v + 5) % 13))
             | (1 << ((v - 5) % 13)) for v in range(13))


def _step(comp: int, frontier: int) -> int:
    nxt = 0
    f = frontier
    while f:
        low = f & -f
        f ^= low
        nxt |= _ADJ[low.bit_length() - 1]
    return nxt & ~comp


def kernel() -> int:
    """Bitmask search with calls, tuples, a set and a dict: the same kind of
    interpreter work as the library, so it slows down the way it does."""
    acc = 0
    memo: dict[int, int] = {}
    for seed in range(1, 90):
        comp = frontier = seed
        path = []
        while frontier:
            frontier = _step(comp, frontier)
            comp |= frontier
            path.append((comp, frontier))
        memo[comp] = memo.get(comp, 0) + len(path)
        acc += len({c for c, _ in path})
    return acc


def timed_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def pin_to_one_cpu() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSampler:
    """Use as a context manager around the timed passes; convert intervals
    with ref_seconds once it has stopped."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._scale: list[float] | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference seconds spent in [a, b]. Each sample's kernel time is
        first smoothed to the median of itself and its SMOOTH neighbours
        each side; the interval takes the mean speed of the samples inside
        it, or of the nearest sample when it holds none."""
        starts, ends = self.starts, self.ends
        if self._scale is None:
            k = [e - s for s, e in zip(starts, ends)]
            self._scale = [REF_KERNEL_S / median(k[max(0, i - SMOOTH):i + SMOOTH + 1])
                           for i in range(len(k))]
        i = bisect_left(ends, a)
        j = bisect_right(starts, b)
        busy = 0.0
        for k in range(i, j):
            busy += min(ends[k], b) - max(starts[k], a)
        if j <= i:  # no sample inside: take the one whose middle is closest
            mid = (a + b) / 2
            i = min((k for k in (i - 1, i) if 0 <= k < len(starts)),
                    key=lambda k: abs((starts[k] + ends[k]) / 2 - mid))
            j = i + 1
        return (b - a - busy) * sum(self._scale[i:j]) / (j - i)
