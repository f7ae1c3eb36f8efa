"""Layer spans: an in-memory recorder for one traced operation, and self-time arithmetic.

A span is (name, parent, start, end).  The recorder wraps callables so that
each call becomes a span whose parent is the innermost span open when the
call began.  Spans live in flat arrays and are written out once, when the
operation ends.  A span's self time is its duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np


class Recorder:
    """Spans and counters of one process, kept in memory until `save`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter[str] = Counter()
        self._open = [-1]

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, count=None):
        """Wrap `fn` so each call records a span named `name`.

        `count(args, kwargs, result)` may return counter increments, stored
        as ``<name>.<key>``; it runs after the span has closed.
        """
        nid = self._intern(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counters, clock = self._open, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
            return result

        return traced

    def counter(self, name: str, fn):
        """Wrap `fn` so each call only increments ``<name>.calls``."""
        counters = self.counters
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.int64),
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals within it."""
    covered = [0] * len(start)
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    par, beg, fin = parent.tolist(), start.tolist(), end.tolist()
    current, reach = -1, 0
    for c in order.tolist():
        p = par[c]
        if p != current:
            current, reach = p, beg[p]
        lo, hi = max(beg[c], reach), min(fin[c], fin[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - np.array(covered, dtype=np.int64)


def summarize(paths) -> tuple[dict[str, dict[str, float]], Counter]:
    """Calls, total and self seconds per span name, and counters, over span files."""
    spans: dict[str, dict[str, float]] = {}
    counters: Counter[str] = Counter()
    for path in paths:
        with np.load(path) as d:
            names, name_id = d["names"].tolist(), d["name_id"]
            start, end, parent = d["start"], d["end"], d["parent"]
            counters.update(dict(zip(d["counter_names"].tolist(), d["counter_values"].tolist())))
        k = len(names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=end - start, minlength=k)
        own = np.bincount(name_id, weights=self_times(parent, start, end), minlength=k)
        for i, name in enumerate(names):
            s = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += int(calls[i])
            s["total_s"] += total[i] / 1e9
            s["self_s"] += own[i] / 1e9
    return spans, counters
