"""Gradient boosting with complexity-based trust weighting, plus the classic baseline.

Each round: compute pseudo-residuals, extend every sample's encoded residual
history, convert history complexities into trust weights, and fit a weighted
regression tree to the residuals.  With trust disabled the loop is a classic
uniform-weight GBDT; magnitude-only mode keeps the |g| factor but forces the
trust term to 1 (ablation arm).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import chain, repeat, zip_longest

import numpy as np

from .complexity import (
    SYMBOLS,
    TrustState,
    encode_gradients,
    lz76_complexity,
    normalize_complexities,
    trust_weights,
)
from .data import DataError, Dataset, open_input, write_rows
from .trees import RegressionTree, fit_tree_weighted, presort

LOSSES = ("logistic", "squared")
ENCODINGS = ("binary-sign", "binary-delta", "quantized")
TRUST_MODES = ("enabled", "disabled", "magnitude-only")

SCORE_CLAMP = 50.0  # overflow guard ahead of the logistic link

# the numbers a config field takes, by the type of its default; a bool is neither
_NUMBER_KINDS = {int: numbers.Integral, float: numbers.Real}


@dataclass(frozen=True)
class BoostConfig:
    """Training settings.  The fields are the one schema of a run: config files,
    the ``itboost-model v1`` header (in field order) and the CLI flags are
    derived from them."""

    iterations: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 1
    loss: str = field(default="logistic", metadata={"choices": LOSSES})
    encoding: str = field(default="binary-sign", metadata={"choices": ENCODINGS})
    trust: str = field(default="enabled", metadata={"choices": TRUST_MODES})
    seed: int = 42

    def __post_init__(self):
        for f in fields(self):
            kind, choices, value = _NUMBER_KINDS.get(type(f.default)), f.metadata.get("choices"), getattr(self, f.name)
            if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
                raise ValueError(f"BoostConfig: {f.name} must be {type(f.default).__name__}, got {value!r}")
            if choices is not None and value not in choices:
                raise ValueError(f"BoostConfig: {f.name} must be one of {choices}, got {value!r}")
        if self.iterations < 1:
            raise ValueError("BoostConfig: iterations must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("BoostConfig: learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("BoostConfig: max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("BoostConfig: min_samples_leaf must be >= 1")
        if self.seed < 0:
            raise ValueError("BoostConfig: seed must be >= 0")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "BoostConfig":
        """Build a config from string-valued keys (config files, CLI overrides)."""
        kwargs = {}
        for key, value in mapping.items():
            if key not in CONFIG_TYPES:
                raise ValueError(f"BoostConfig: unknown field {key!r}")
            try:
                kwargs[key] = CONFIG_TYPES[key](value)
            except ValueError:
                raise ValueError(f"BoostConfig: {key} must be {CONFIG_TYPES[key].__name__}, got {value!r}") from None
        return cls(**kwargs)


def parse_config_file(path) -> dict:
    """Flat ``key = value`` file, '#' comments and blank lines ignored."""
    mapping = {}
    with open_input("parse_config_file", path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise DataError(f"parse_config_file: {path} line {line_no}: expected 'key = value'")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in mapping:
                raise DataError(f"parse_config_file: {path} line {line_no}: key {key!r} given twice")
            mapping[key] = value
    return mapping


def _exp(x: float) -> float:
    """The C library's ``exp(x)``: ``math.exp``, with the ``inf`` it returns
    where ``math.exp`` raises OverflowError instead (x above about 709.78)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _expit(z):
    """The logistic sigmoid ``1 / (1 + exp(-z))``: a float for a float, a
    float64 array for a float64 array.

    These are the IEEE operations of scipy's ``expit``, and ``math.exp`` is
    the C library's ``exp`` that ``expit`` calls, so both agree bit for bit
    (numpy's SIMD ``exp`` rounds some results differently).  A batch makes
    one ``math.exp`` pass over its elements, which a memoryview of the
    contiguous ``-z`` yields as Python floats; only a batch that overflows
    ``math.exp`` takes a second pass through :func:`_exp`, whose ``inf``
    gives the sigmoid's 0.0.
    """
    if isinstance(z, float):
        return 1.0 / (1.0 + _exp(-z))
    neg = np.negative(z).ravel()
    try:
        e = np.fromiter(map(math.exp, memoryview(neg)), dtype=np.float64, count=neg.size)
    except OverflowError:
        e = np.fromiter(map(_exp, memoryview(neg)), dtype=np.float64, count=neg.size)
    e += 1.0
    with np.errstate(under="ignore"):  # a subnormal result, as expit gives it, whatever the caller's errstate
        np.divide(1.0, e, out=e)
    return e.reshape(np.shape(z))


def gradient(y, score, loss: str):
    """Negative gradient of the loss w.r.t. the score F, elementwise.

    Logistic, log(1 + exp(-y*F)): y / (1 + exp(y*F)), computed as
    ``y * _expit(-y*F)``.  Large |F| never overflows: exp(y*F) up to about
    exp(709.78) decays to the exp(-y*F) asymptote, and beyond that C's
    ``exp`` returns inf, which :func:`_expit` keeps, so the gradient is
    exactly 0.0 with no exception or warning.  Squared, 0.5*(y - F)^2: the
    plain residual y - F.
    """
    y = np.asarray(y, dtype=np.float64)
    score = np.asarray(score, dtype=np.float64)
    if loss == "logistic":
        return y * _expit(-y * score)
    if loss == "squared":
        return y - score
    raise ValueError(f"gradient: unknown loss {loss!r}")


def loss_value(y, score, loss: str):
    """Elementwise loss; logistic uses the overflow-safe log-sum-exp form."""
    y = np.asarray(y, dtype=np.float64)
    score = np.asarray(score, dtype=np.float64)
    if loss == "logistic":
        return np.logaddexp(0.0, -y * score)
    if loss == "squared":
        return 0.5 * (y - score) ** 2
    raise ValueError(f"loss_value: unknown loss {loss!r}")


def init_score(labels, loss: str) -> float:
    """Constant score minimising the total loss over the training labels; a DataError if the
    logistic loss sees one class (a training split that noise or folding left one-sided)."""
    labels = np.asarray(labels)
    if loss == "squared":
        return float(np.mean(labels))
    if loss == "logistic":
        p = float(np.mean(labels == 1))
        if p <= 0.0 or p >= 1.0:
            raise DataError("init_score: logistic loss needs both classes present")
        return float(np.log(p / (1.0 - p)))
    raise ValueError(f"init_score: unknown loss {loss!r}")


@dataclass
class Model:
    """Additive tree ensemble: score(x) = base_score + learning_rate * sum(tree(x))."""

    base_score: float
    n_features: int
    trees: list[RegressionTree]
    config: BoostConfig

    def predict_score(self, X):
        """Raw additive score of each row of X (n, d); a float for one row x (d,).

        One row is checked once, turned into a list of Python floats once, and
        walked down each tree inline, the package's only single-row walk: each
        node compares a Python float with ``<=``, the same IEEE comparison as
        the batch's, so NaN goes right.  Its score is summed in Python floats,
        tree by tree: the same float operations in the same order as its row
        of the batch, so both agree bit for bit.  A batch is laid out
        column-major once, so the transposed (d, n) view each tree reads is
        already contiguous and never copied.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim not in (1, 2):
            raise ValueError(f"Model.predict_score: expected 1-D or 2-D input, got shape {X.shape}")
        if X.shape[-1] != self.n_features:
            raise ValueError(f"Model.predict_score: expected {self.n_features} features, got {X.shape[-1]}")
        lr = self.config.learning_rate
        if X.ndim == 1:
            row = X.tolist()
            score = float(self.base_score)
            for tree in self.trees:
                node = tree.root
                while node.left is not None:
                    node = node.left if row[node.feature] <= node.threshold else node.right
                score += lr * node.value
            return score
        X = np.asfortranarray(X)
        scores = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            scores += lr * tree.predict(X)
        return scores

    def predict_proba(self, X):
        """Positive-class probability: the logistic sigmoid (:func:`_expit`)
        of the score clamped to ``[-SCORE_CLAMP, SCORE_CLAMP]``.  One row's
        float score is clamped in Python floats; ``min(max(s, lo), hi)`` keeps
        NaN as ``np.clip`` does, so a row alone equals its row of the batch."""
        score = self.predict_score(X)
        if isinstance(score, float):
            return _expit(min(max(score, -SCORE_CLAMP), SCORE_CLAMP))
        return _expit(np.clip(score, -SCORE_CLAMP, SCORE_CLAMP))


MODEL_FORMAT_VERSION = "itboost-model v1"
CONFIG_TYPES = {f.name: type(f.default) for f in fields(BoostConfig)}  # each config field, in order, and its type
_HEADER_TYPES = CONFIG_TYPES | {"base_score": float, "n_features": int, "n_trees": int}  # each header key, in order
MODEL_HEADER_KEYS = tuple(_HEADER_TYPES)


def save_model(model: Model, path) -> None:
    """Versioned plain-text format: config header, then one preorder line per tree."""
    header = asdict(model.config) | {"base_score": model.base_score, "n_features": model.n_features,
                                     "n_trees": len(model.trees)}
    # each value as its header type, so learning_rate=1 is written 1.0 and reads back as written
    lines = [MODEL_FORMAT_VERSION, " ".join(f"{key}={cast(header[key])}" for key, cast in _HEADER_TYPES.items())]
    for i, tree in enumerate(model.trees):
        lines.append(f"tree {i}: " + " ".join(tree.to_tokens()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> Model:
    """The model a :func:`save_model` file holds.  Line 2 must list :data:`MODEL_HEADER_KEYS` in
    order, each number written as :func:`save_model` writes it (``str`` of an int, ``repr`` of a
    float), and base_score, thresholds and leaves must be finite; every rejection is a
    :class:`DataError` naming the path and the line."""
    with open_input("load_model", path) as fh:
        lines = [line.rstrip("\r\n") for line in fh]
    if not lines or lines[0] != MODEL_FORMAT_VERSION:
        raise DataError(f"load_model: {path} is not a {MODEL_FORMAT_VERSION} file")
    line_no = 2  # the line being read, for the rejection message
    try:
        pairs = [token.partition("=")[::2] for token in (lines[1].split() if len(lines) > 1 else ())]
        for i, (key, want) in enumerate(zip_longest((key for key, _ in pairs), MODEL_HEADER_KEYS)):
            if key != want:
                raise ValueError(f"header key {i + 1} is {key!r}, expected {want!r} ({' '.join(MODEL_HEADER_KEYS)})")
        header = {}
        for key, text in pairs:
            value = header[key] = _HEADER_TYPES[key](text)
            if not isinstance(value, str) and repr(value) != text:
                raise ValueError(f"{key}={text} is not in save_model's form {key}={value!r}")
        base_score = header.pop("base_score")
        if not math.isfinite(base_score):
            raise ValueError(f"base_score must be finite, got {base_score}")
        n_features = header.pop("n_features")
        if n_features < 1:
            raise ValueError(f"n_features must be at least 1, got {n_features}")
        n_trees = header.pop("n_trees")
        config = BoostConfig(**header)
        if len(lines) - 2 != n_trees:
            raise ValueError(f"expected {n_trees} trees, found {len(lines) - 2}")
        trees = []
        for line_no, line in enumerate(lines[2:], start=3):
            label, _, payload = line.partition(": ")
            if label != f"tree {line_no - 3}":
                raise ValueError(f"should start 'tree {line_no - 3}: ', got {line[:20]!r}")
            trees.append(RegressionTree.from_tokens(payload.split(), n_features))
    except ValueError as exc:
        raise DataError(f"load_model: {path} line {line_no}: {exc}") from None
    return Model(base_score=base_score, n_features=n_features, trees=trees, config=config)


TRACE_HEADER = "iteration,row_id,raw_C,normalized_C,tau,weight"


@dataclass
class RunTrace:
    """Per-iteration training record: trust state, loss, the
    seconds spent per round in the trust step and in the tree fit (the fit,
    which also scores the training rows, plus the score update), and the
    number of distinct histories the round parsed from scratch (0 unless
    trust is enabled).  Residuals are not kept: see :func:`evaluation.initial_margins`."""

    row_ids: np.ndarray
    trust: list[TrustState] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    trust_seconds: list[float] = field(default_factory=list)
    fit_seconds: list[float] = field(default_factory=list)
    distinct_histories: list[int] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.trust)

    def total_trust_seconds(self) -> float:
        return float(sum(self.trust_seconds))

    def to_csv(self, path) -> None:
        """One :data:`TRACE_HEADER` record per row per iteration, iteration by iteration."""
        row_ids = self.row_ids.tolist()
        blocks = (
            zip(repeat(state.iteration), row_ids, state.raw_complexity.tolist(), state.normalized.tolist(),
                state.tau.tolist(), state.weights.tolist())
            for state in self.trust
        )
        write_rows(path, TRACE_HEADER.split(","), chain.from_iterable(blocks))


_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1  # the integers a row_id or raw_C cell may hold


def load_trace_csv(path) -> tuple[np.ndarray, dict[int, TrustState]]:
    """Read a trace CSV back into per-iteration trust states keyed by iteration.

    The data rows must form one block per iteration, in order 1..M, and every
    block must list iteration 1's row ids in iteration 1's order (as
    :meth:`RunTrace.to_csv` writes them), so a reordered, truncated or
    concatenated trace is rejected rather than read with its rows misaligned.
    The file is opened and read once, and the first bad record is rejected
    as it is read, naming its line; blank lines are skipped.  A record is bad
    if it is not six cells of three integers and three finite floats, if its
    row_id or raw_C is outside int64 or its normalized_C outside [0, 1] (the
    range :func:`trust_weights` requires), if its iteration breaks the order,
    or if its row id repeats one of iteration 1's or, later, is not the one
    iteration 1 lists at its position.  A block shorter than iteration 1 is
    rejected at the line that starts the next, or at the end of the file.  A
    block becomes its :class:`TrustState`'s arrays as the next one starts, so
    beside them the reader holds one block's records as Python objects and
    iteration 1's row ids (and their set while iteration 1 is read).  Every
    rejection is a :class:`DataError`.
    """
    states: dict[int, TrustState] = {}
    row_ids, seen = [], set()  # iteration 1's row ids, in order and as a set until its block closes
    expected = None  # past iteration 1, the open block's iterator over iteration 1's row ids
    iteration, block = 0, []  # the open block: its iteration, and each record's four values after the row id

    def close_block(iteration, block):
        states[iteration] = TrustState(iteration=iteration, raw_complexity=np.asarray(block[0::4], dtype=np.int64),
                                       normalized=np.asarray(block[1::4], dtype=np.float64),
                                       tau=np.asarray(block[2::4], dtype=np.float64),
                                       weights=np.asarray(block[3::4], dtype=np.float64))

    with open_input("load_trace_csv", path) as fh:
        if fh.readline().strip() != TRACE_HEADER:
            raise DataError(f"load_trace_csv: unexpected header in {path}")
        for line_no, line in enumerate(fh, start=2):
            try:
                cells = line.split(",")
                if len(cells) != 6:
                    if not line.strip():
                        continue
                    raise ValueError(f"expected 6 cells, got {len(cells)}")
                try:
                    m, row_id, raw = int(cells[0]), int(cells[1]), int(cells[2])
                    norm, tau, w = float(cells[3]), float(cells[4]), float(cells[5])
                except ValueError:
                    raise ValueError("expected integer iteration, row_id and raw_C and float normalized_C, tau and "
                                     f"weight, got {line.strip()!r}") from None
                if not (math.isfinite(norm) and math.isfinite(tau) and math.isfinite(w)):
                    raise ValueError(f"normalized_C, tau and weight must be finite, got {line.strip()!r}")
                if not 0.0 <= norm <= 1.0:
                    raise ValueError(f"normalized_C must be in [0, 1], got {line.strip()!r}")
                if not iteration or m != iteration:
                    if m != iteration + 1:
                        raise ValueError(f"iteration {m} after iteration {iteration}; iterations must run 1..M in "
                                         "order, one block each")
                    if iteration:
                        if len(block) != 4 * len(row_ids):
                            raise ValueError(f"iteration {iteration} ends after {len(block) // 4} of iteration 1's "
                                             f"{len(row_ids)} rows")
                        seen = None
                        close_block(iteration, block)
                        expected = iter(row_ids)
                    iteration, block = m, []
                if m == 1:
                    if row_id in seen:
                        raise ValueError(f"row id {row_id} is listed twice in iteration 1")
                    if not _INT64_MIN <= row_id <= _INT64_MAX:
                        raise ValueError(f"row_id must be within int64, got {line.strip()!r}")
                    seen.add(row_id)
                    row_ids.append(row_id)
                elif row_id != next(expected, None):
                    raise ValueError(f"iteration {m} does not list iteration 1's {len(row_ids)} row ids in order: its "
                                     f"row {len(block) // 4 + 1} is row id {row_id}")
                if not _INT64_MIN <= raw <= _INT64_MAX:
                    raise ValueError(f"raw_C must be within int64, got {line.strip()!r}")
                block += raw, norm, tau, w
            except ValueError as exc:
                raise DataError(f"load_trace_csv: {path} line {line_no}: {exc}") from None
    if not iteration:
        raise DataError(f"load_trace_csv: {path} has no data rows")
    if len(block) != 4 * len(row_ids):
        raise DataError(f"load_trace_csv: {path} ends in iteration {iteration} after {len(block) // 4} of "
                        f"iteration 1's {len(row_ids)} rows")
    close_block(iteration, block)
    return np.array(row_ids, dtype=np.int64), states


def train(dataset: Dataset, config: BoostConfig) -> tuple[Model, RunTrace]:
    """Run the full boosting loop and return the model plus its training trace.

    Per iteration m: (1) pseudo-residuals against the current scores; (2) one
    encoded symbol appended to every sample's history; (3) raw complexities,
    min-max normalisation across samples, trust term exp(-normalized), weight
    |g| * trust; (4) weighted tree fit on the residuals, which writes each
    training row's leaf value into one buffer as it fits, then scores
    advance by learning_rate times that value, the same floats as
    learning_rate * tree(x) without routing the rows down the tree again.

    Only ``trust='enabled'`` keeps histories (step 2).  The other modes are
    ablations of the same weight step with every normalized complexity 0, so
    the trust term is 1: ``magnitude-only`` fits with weights |g|, and
    ``disabled`` then replaces them with uniform weights (the classic GBDT
    baseline).  A round whose residuals are all exactly 0 (the fit is exact)
    appends no symbol and fits with uniform weights, giving a single 0.0 leaf
    in every mode.  Every round parses each history from scratch with
    :func:`lz76_complexity`; the phrase count depends on the history string
    alone, so rows that share a history share one parse per round.  Each row
    carries an index into the round's distinct histories: one ``np.unique``
    over the keys (index << 2) | code, with the row's symbol code from
    :func:`encode_gradients`, gives the next round's indices and its distinct
    histories; only those are built as strings (code c appended as
    ``SYMBOLS[c]``) and parsed, and one ``take`` gives every row its count.
    The Python work of a round follows the number of distinct histories, not
    of rows.
    """
    sorted_X = presort(dataset.features)  # the features never change, so every round's fit shares one sort
    y = dataset.labels.astype(np.float64)
    n = dataset.n_rows
    f0 = init_score(dataset.labels, config.loss)
    scores = np.full(n, f0, dtype=np.float64)
    fitted = np.empty(n, dtype=np.float64)  # each round's tree(x) per row, written by the fit

    track_history = config.trust == "enabled"
    histories = [""]  # the round's distinct histories
    history_ids = np.zeros(n, dtype=np.int64)  # each row's index into ``histories``

    trees: list[RegressionTree] = []
    trace = RunTrace(row_ids=dataset.row_ids.copy())
    prev_g: np.ndarray | None = None

    for m in range(1, config.iterations + 1):
        g = gradient(y, scores, config.loss)

        t0 = time.perf_counter()
        raw = np.zeros(n, dtype=np.int64)
        normalized = np.zeros(n, dtype=np.float64)
        distinct = 0
        moved = bool(np.any(g))
        if track_history and moved:
            codes = encode_gradients(g, config.encoding, g_prev=prev_g)
            keys, history_ids = np.unique((history_ids << 2) | codes, return_inverse=True)
            histories = [histories[key >> 2] + SYMBOLS[key & 3] for key in keys.tolist()]
            distinct = len(histories)
            raw = np.fromiter(map(lz76_complexity, histories), dtype=np.int64, count=distinct).take(history_ids)
            normalized = normalize_complexities(raw)
        tau, weights = trust_weights(g, normalized)
        if config.trust == "disabled" or not moved:
            weights = np.ones(n, dtype=np.float64)
        t1 = time.perf_counter()
        tree = fit_tree_weighted(sorted_X, g, weights, config.max_depth, config.min_samples_leaf, out=fitted)
        scores += config.learning_rate * fitted
        t2 = time.perf_counter()
        trees.append(tree)

        trace.trust.append(
            TrustState(iteration=m, raw_complexity=raw, normalized=normalized, tau=tau, weights=weights)
        )
        trace.train_loss.append(float(np.mean(loss_value(y, scores, config.loss))))
        trace.trust_seconds.append(t1 - t0)
        trace.fit_seconds.append(t2 - t1)
        trace.distinct_histories.append(distinct)
        prev_g = g

    model = Model(base_score=f0, n_features=dataset.n_features, trees=trees, config=config)
    return model, trace

