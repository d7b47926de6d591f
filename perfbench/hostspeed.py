"""Host-speed calibration: time a fixed, benchmark-owned kernel between timed calls.

On a shared machine the same code runs 20-40% slower for minutes at a time
(other tenants on the same cores and caches), which is wider than any useful
regression bound.  A calibrated timing is the measured time multiplied by
``REFERENCE_SECONDS / local kernel time``, where the local kernel time is the
mean of the kernel samples taken just before and just after the call: it is the
time the call would have taken on a host where the kernel takes exactly
``REFERENCE_SECONDS``.

The kernel imports nothing from the package, so a change to the program never
changes it.  Its mix follows the package's hot paths: a pure-Python LZ76
phrase count over binary strings, sorts and cumulative sums of many small
numpy columns (a tree node search), and parsing decimal strings.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_SECONDS = 0.007  # kernel time on the host the calibrated figures are expressed for

_rng = np.random.default_rng(20260517)
_HISTORIES = ["".join("1" if b else "0" for b in _rng.random(96) < 0.5) for _ in range(60)]
_NODE_X = _rng.standard_normal((60, 320))
_NODE_G = _rng.standard_normal(320)
_CELLS = [repr(float(v)) for v in _rng.standard_normal(2000)]


def _phrase_count(s: str) -> int:
    """Lempel-Ziv (1976) exhaustive-history phrase count, written out independently of the package."""
    n = len(s)
    count, i = 0, 0
    while i < n:
        length = 1
        while i + length <= n and s[i : i + length] in s[: i + length - 1]:
            length += 1
        count += 1
        i += length
    return count


def _node_scan(x: np.ndarray, g: np.ndarray) -> float:
    """Sort, cumulative sums and best cut of one small column, as a tree node search does."""
    order = np.argsort(x, kind="stable")
    xs, gs = x[order], g[order]
    cut = np.nonzero(xs[:-1] < xs[1:])[0]
    cs = np.cumsum(gs)
    css = np.cumsum(gs * gs)
    sse = css[cut] - cs[cut] ** 2 / (cut + 1.0)
    return float(sse.min())


def kernel() -> float:
    """One fixed unit of work (about 8 ms); returns a checksum so nothing is skipped."""
    total = float(sum(_phrase_count(h) for h in _HISTORIES))
    total += sum(_node_scan(x, _NODE_G) for x in _NODE_X)
    total += sum(float(c) for c in _CELLS)
    return total


class HostSpeed:
    """Kernel samples on the wall clock and the thread's CPU clock, one after each timed call."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.sample()

    def sample(self) -> tuple[float, float]:
        """(wall, CPU) medians of five kernel runs."""
        walls, cpus = [], []
        for _ in range(5):
            w0, c0 = time.perf_counter(), time.thread_time()
            kernel()
            walls.append(time.perf_counter() - w0)
            cpus.append(time.thread_time() - c0)
        value = (sorted(walls)[2], sorted(cpus)[2])
        self.samples.append(value)
        return value

    def factors(self) -> tuple[float, float]:
        """(wall, CPU) calibration factors for the call timed since the previous sample.

        Call it right after each timed call: the previous sample was taken right
        before that call, and the fresh one counts as "before" for the next.
        """
        before, after = self.samples[-1], self.sample()
        return calibration_factor(before[0], after[0]), calibration_factor(before[1], after[1])


def calibration_factor(before: float, after: float) -> float:
    local = (before + after) / 2.0
    if not local > 0.0:
        raise ValueError(f"calibration_factor: kernel time must be positive, got {before!r}, {after!r}")
    return REFERENCE_SECONDS / local
