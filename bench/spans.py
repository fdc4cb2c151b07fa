"""In-memory spans around calls into the library, and what they add up to.

A span is (name, start, end, parent, item): the benchmark opens one around
each public call it makes into a layer, so the library itself carries no
instrumentation. Spans live in flat arrays while a run lasts and are
written out once, at the end.
"""
from __future__ import annotations

import gzip
import math
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("q")
        self.start = array("d")
        self.end = array("d")

    def begin(self, name: str, parent: int = -1, item: int = -1) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(parent)
        self.item.append(item)
        self.end.append(math.nan)
        self.start.append(perf_counter())
        return len(self.start) - 1

    def finish(self, span: int) -> None:
        self.end[span] = perf_counter()

    def call(self, name: str, parent: int, item: int, fn, *args):
        span = self.begin(name, parent, item)
        try:
            return fn(*args)
        finally:
            self.end[span] = perf_counter()

    def self_times(self, seconds) -> dict[str, tuple[int, float]]:
        """Per span name: (span count, summed self time), with durations
        measured by seconds(start, end). Self time is a span's duration minus
        the durations of its direct children; the children of one span run
        one after another, so they never overlap."""
        dur = [seconds(a, b) for a, b in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i, nid in enumerate(self.name):
            entry = out.setdefault(self.names[nid], [0, 0.0])
            entry[0] += 1
            entry[1] += dur[i] - child[i]
        return {k: (c, s) for k, (c, s) in out.items()}

    def by_name(self, name: str, seconds) -> list[float]:
        nid = self.names.index(name)
        return [seconds(self.start[i], self.end[i])
                for i, n in enumerate(self.name) if n == nid]

    def coverage(self, root: int) -> float:
        """Share of the root span's wall time spent inside its direct children."""
        inside = sum(self.end[i] - self.start[i]
                     for i, p in enumerate(self.parent) if p == root)
        return inside / (self.end[root] - self.start[root])

    def write(self, path) -> None:
        """One CSV row per span; times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,item\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{i},{self.names[nid]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.item[i]}\n")


class NullTracer:
    """Same call interface, no recording: the untraced passes use this."""

    def begin(self, name: str, parent: int = -1, item: int = -1) -> int:
        return -1

    def finish(self, span: int) -> None:
        pass

    def call(self, name: str, parent: int, item: int, fn, *args):
        return fn(*args)
