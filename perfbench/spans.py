"""In-memory span recorder for the benchmark's traced run, plus its statistics.

A span is one call across a layer boundary: its name, start, end and the span
that was open on the same thread when it started (its parent).  A span opened
on a thread whose own stack is empty (a worker thread of a parallel
cross-validation) takes as parent the innermost span open on the thread that
created the tracer, which is the call that started the workers.  Spans are
kept in flat arrays until the run ends; nothing is written out while timing.

The program is not modified: :meth:`Tracer.patch` replaces a module global or
class attribute with a recording wrapper and :meth:`Tracer.restore` puts the
original back.  Because the package looks these names up at call time, the
wrappers see every call made through them.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from array import array
from collections import defaultdict


def tail_percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile, defined only with at least ten samples beyond it.

    The value returned is the sample at rank ceil(q/100 * n); the rule asks
    for n - rank >= 10, so p99 needs at least 1000 samples.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"tail_percentile: q must be in (0, 100), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(q / 100.0 * n)
    if rank < 1 or n - rank < 10:
        raise ValueError(f"tail_percentile: p{q:g} needs at least ten samples beyond it, got {n} samples")
    return ordered[rank - 1]


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Per span: its duration minus the time its direct children cover.

    Children may overlap (spans of parallel worker threads share a parent),
    so the covered time is the union of their intervals, clipped to the
    parent's own interval.  ``parents[i]`` is -1 for a span with no parent.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        out.append((e - s) - (covered_length(kids, s, e) if kids else 0.0))
    return out


class Tracer:
    """Records spans on a per-thread stack; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._local.stack = self._owner_stack
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:  # the owner thread may pop concurrently, so no separate emptiness test
                parent = self._owner_stack[-1]
            except IndexError:
                parent = -1
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(parent)
            self.end.append(math.nan)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != idx:
            raise RuntimeError(f"Tracer.close: span {idx} is not the innermost open span")
        stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs once the span is closed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total duration, total self time, and durations."""
        if any(math.isnan(e) for e in self.end):
            raise RuntimeError("Tracer.summary: some spans are still open")
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name_id):
            entry = out.setdefault(self.names[nid], {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total"] += dur
            entry["self"] += selfs[i]
            entry["durations"].append(dur)
        return out
