"""Residual-history encoding, Lempel-Ziv sequence complexity, and trust weights.

Each training sample accumulates a symbol history describing the direction
(and optionally the size) of its pseudo-residuals across boosting rounds.
The number of phrases in the exhaustive left-to-right Lempel-Ziv parsing of
that history measures how erratic the sample's error trajectory is; erratic
samples receive an exponentially reduced trust weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMBOLS = "0123"  # code c is the history character SYMBOLS[c]


def encode_gradients(g: np.ndarray, encoding: str, g_prev: np.ndarray | None = None) -> np.ndarray:
    """One round's symbol codes, an int64 array: code c is the character ``SYMBOLS[c]``.

    ``encoding`` is one of ``binary-sign``, ``binary-delta`` or ``quantized``.
    Binary-sign is [g > 0].  Binary-delta is [g rose since ``g_prev``]; with no
    ``g_prev`` (the first round) it is the sign, as binary-sign is.  Quantized
    is 2*[g > 0] + [|g| >= threshold], where the threshold is the median |g|,
    or the median of the nonzero |g| when more than half of the residuals are
    exactly 0.
    """
    g = np.asarray(g, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise ValueError("encode_gradients: non-finite gradients")
    if encoding == "binary-sign" or (encoding == "binary-delta" and g_prev is None):
        return (g > 0).astype(np.int64)
    if encoding == "binary-delta":
        g_prev = np.asarray(g_prev, dtype=np.float64)
        if not np.all(np.isfinite(g_prev)):
            raise ValueError("encode_gradients: non-finite previous gradients")
        return (g - g_prev > 0).astype(np.int64)
    if encoding == "quantized":
        magnitude = np.abs(g)
        threshold = float(np.median(magnitude))
        if threshold <= 0:
            # most residuals are exactly 0: the nonzero ones set the scale
            nonzero = magnitude[magnitude > 0]
            if nonzero.size == 0:
                raise ValueError("encode_gradients: every residual is zero, quantized encoding undefined")
            threshold = float(np.median(nonzero))
        return 2 * (g > 0).astype(np.int64) + (magnitude >= threshold)
    raise ValueError(f"encode_gradients: unknown encoding {encoding!r}")


def lz76_complexity(s: str) -> int:
    """Phrase count of the exhaustive left-to-right Lempel-Ziv parsing.

    A phrase starting at position p is extended through position j while the
    substring s[p..j] occurs inside s[0..j-1]; as soon as it does not, the
    phrase closes at j and the next phrase starts at j+1.  A final suffix
    that never stopped matching counts as one phrase.  The empty sequence has
    complexity 0.

    The count is the literal parse's, from scratch, computed by tracking the
    open phrase's first occurrence q in s[0..p-1].  The phrase extends
    symbol by symbol while the item at j-(p-q) equals the item at j in a
    list of the symbols that ends in None; None equals no symbol, so the
    extension stops at the end of ``s`` with no separate end test (an end
    character would not do, since any character may be a symbol).  On a
    mismatch inside ``s`` the next occurrence of the longer phrase is
    searched after q (any occurrence of it starts at an occurrence of the
    shorter phrase, and q was the first of those).  A start q <= p-1 is
    exactly what containment in s[0..j-1] admits, so the phrases are the
    ones the definition gives.

    ``s`` is a string, one symbol per character; anything else raises TypeError.
    """
    if not isinstance(s, str):
        raise TypeError(f"lz76_complexity: expected a str history, got {type(s).__name__}")
    n = len(s)
    items = [*s, None]  # the end marker, equal to no symbol
    count = 0
    p = 0  # start of the current (open) phrase
    while p < n:
        q = s.find(s[p], 0, p)  # first occurrence of the phrase so far, or -1
        j = p
        while q >= 0:
            j += 1
            back = p - q
            while items[j - back] == items[j]:
                j += 1
            if j == n:
                return count + 1  # reproducible suffix
            q = s.find(s[p : j + 1], q + 1, j)
        count += 1
        p = j + 1
    return count


def normalize_complexities(raw) -> np.ndarray:
    """Min-max scale raw complexities to [0, 1] across the sample population.

    When every sample has the same complexity there is no evidence to
    penalise anyone, so all outputs are 0 (full trust).
    """
    values = np.asarray(raw, dtype=np.float64)
    if values.size == 0:
        raise ValueError("normalize_complexities: empty input")
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def check_normalized(values, caller: str) -> np.ndarray:
    """``values`` as a float vector; ValueError naming ``caller`` unless it is 1-D, nonempty and
    within [0, 1], the range the bounds on exp(-C) rest on; NaN fails too."""
    c = np.asarray(values, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"{caller}: normalized complexities must be a nonempty 1-D vector")
    if not (0.0 <= c.min() and c.max() <= 1.0):
        raise ValueError(f"{caller}: normalized complexities must be finite and lie in [0, 1]")
    return c


def trust_weights(gradients, normalized) -> tuple[np.ndarray, np.ndarray]:
    """Trust terms tau = exp(-normalized complexity) and weights w = |g| * tau, for a ``normalized``
    that passes :func:`check_normalized` (an empty one does not) and has the shape of ``gradients``."""
    g = np.asarray(gradients, dtype=np.float64)
    c = check_normalized(normalized, "trust_weights")
    if g.shape != c.shape:
        raise ValueError(f"trust_weights: length mismatch {g.shape} vs {c.shape}")
    tau = np.exp(-c)
    return tau, np.abs(g) * tau


@dataclass(frozen=True)
class TrustState:
    """Per-round record of the trust computation for all samples."""

    iteration: int
    raw_complexity: np.ndarray
    normalized: np.ndarray
    tau: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        n = self.raw_complexity.shape[0]
        for name in ("normalized", "tau", "weights"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"TrustState: field {name} has inconsistent length")
