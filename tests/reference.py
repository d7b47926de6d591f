"""Independent reference implementations used as oracles by the test suite.

Everything here is deliberately coded from the definitions, favouring
directness over speed, so that agreement with the production code is
meaningful.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import expit
from scipy.stats import chi2, rankdata

from itboost.boosting import Model
from itboost.data import DataError
from itboost.trees import RegressionTree, TreeNode, split_tolerance


def split_threshold(lo: float, hi: float) -> float:
    """The cut between sorted neighbours lo < hi: their midpoint, or lo where
    the midpoint rounds up to hi or overflows, so lo goes left and hi right."""
    mid = (float(lo) + float(hi)) / 2.0
    return mid if lo <= mid < hi else float(lo)


def naive_lz76(s: str) -> int:
    """Phrase count by explicit window scanning (no library substring search)."""
    n = len(s)
    if n == 0:
        return 0
    count, p, j = 0, 0, 0
    while j < n:
        pat = s[p : j + 1]
        width = len(pat)
        found = any(s[k : k + width] == pat for k in range(0, j - width + 1))
        if found:
            j += 1
        else:
            count += 1
            p = j + 1
            j = p
    if p < n:
        count += 1
    return count


class SymbolSequence:
    """Online phrase counter: after every ``append``, ``complexity`` equals a
    from-scratch parse of the symbols appended so far."""

    def __init__(self):
        self._chars = ""
        self._phrase_start = 0
        self._closed = 0

    @property
    def complexity(self) -> int:
        """Phrase count of the current contents (open suffix counts as one)."""
        return self._closed + (1 if self._phrase_start < len(self._chars) else 0)

    def append(self, symbol: str) -> int:
        """Append one symbol and return the updated phrase count."""
        j = len(self._chars)
        self._chars += symbol
        # The open phrase extended to position j stays open only while it
        # occurs somewhere in the text strictly before j.
        if self._chars[self._phrase_start : j + 1] not in self._chars[:j]:
            self._closed += 1
            self._phrase_start = j + 1
        return self.complexity


def pairwise_auc(labels, probabilities) -> float:
    """AUC as the mean over all (positive, negative) pairs with half credit for ties."""
    y = np.asarray(labels)
    q = np.asarray(probabilities, dtype=float)
    pos = q[y == 1]
    neg = q[y == -1]
    total = 0.0
    for qp in pos:
        for qn in neg:
            if qp > qn:
                total += 1.0
            elif qp == qn:
                total += 0.5
    return total / (pos.size * neg.size)


def rank_auc(labels, probabilities) -> float:
    """AUC from scipy's tie-averaged ranks: the positives' rank sum less its least possible
    value, over the pair count (NaN ranks, and so a NaN AUC, for any NaN probability)."""
    y = np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    ranks = rankdata(np.asarray(probabilities, dtype=float))
    u = float(np.sum(ranks[y == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _direct_weighted_sse(g, w) -> float:
    mean = float(np.sum(w * g) / np.sum(w))
    return float(np.sum(w * (g - mean) ** 2))


def brute_force_tree(X, g, w, max_depth, min_samples_leaf=1):
    """Greedy tree via exhaustive per-node split enumeration with direct SSE sums.

    Mirrors the production contract: zero-weight samples are dropped up front,
    candidate thresholds are midpoints between consecutive distinct sorted
    values, ties break to the lowest feature then lowest threshold, and nodes
    stop at depth, leaf-size, or constant targets.
    """
    X = np.asarray(X, dtype=float)
    g = np.asarray(g, dtype=float)
    w = np.asarray(w, dtype=float)
    active = w > 0
    Xa, ga, wa = X[active], g[active], w[active]

    def leaf(gn, wn):
        return TreeNode(value=float(np.sum(wn * gn) / np.sum(wn)))

    def build(Xn, gn, wn, depth):
        n = Xn.shape[0]
        if depth >= max_depth or n < 2 * min_samples_leaf or np.all(gn == gn[0]):
            return leaf(gn, wn)
        tol = split_tolerance(gn, wn)
        best = None  # (sse, feature, threshold)
        for f in range(Xn.shape[1]):
            values = np.unique(Xn[:, f])
            for lo, hi in zip(values[:-1], values[1:]):
                thr = split_threshold(lo, hi)
                left = Xn[:, f] <= thr
                n_left = int(np.sum(left))
                if n_left < min_samples_leaf or n - n_left < min_samples_leaf:
                    continue
                sse = _direct_weighted_sse(gn[left], wn[left]) + _direct_weighted_sse(
                    gn[~left], wn[~left]
                )
                if best is None or sse < best[0] - tol:
                    best = (sse, f, thr)
        if best is None:
            return leaf(gn, wn)
        _, f, thr = best
        left = Xn[:, f] <= thr
        node = TreeNode(feature=f, threshold=thr)
        node.left = build(Xn[left], gn[left], wn[left], depth + 1)
        node.right = build(Xn[~left], gn[~left], wn[~left], depth + 1)
        return node

    return RegressionTree(root=build(Xa, ga, wa, 0), n_features=X.shape[1])


def _per_feature_best_split(X, g, w, min_samples_leaf):
    """Smallest total weighted SSE over all (feature, midpoint-threshold) candidates.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values.  Ties (up to :func:`split_tolerance`) break toward the lowest
    feature index, then the lowest threshold.  Returns (sse, feature,
    threshold) or None if no candidate leaves at least ``min_samples_leaf``
    samples on each side.
    """
    n, d = X.shape
    tol = split_tolerance(g, w)
    best = None
    for f in range(d):
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        gs = g[order]
        ws = w[order]
        # split after sorted position i is valid only between distinct values
        cut = np.nonzero(xs[:-1] < xs[1:])[0]
        if min_samples_leaf > 1:
            cut = cut[(cut >= min_samples_leaf - 1) & (cut <= n - 1 - min_samples_leaf)]
        if cut.size == 0:
            continue
        wg = ws * gs
        cw = np.cumsum(ws)
        cwg = np.cumsum(wg)
        cwgg = np.cumsum(wg * gs)
        lw, lwg, lwgg = cw[cut], cwg[cut], cwgg[cut]
        rw, rwg, rwgg = cw[-1] - lw, cwg[-1] - lwg, cwgg[-1] - lwgg
        # rw can cancel to exactly 0 when the right side's weights are absorbed
        # by the cumsum; a side with (numerically) zero total weight has zero
        # weighted SSE.
        rw_safe = np.where(rw > 0, rw, 1.0)
        sse = (lwgg - lwg * lwg / lw) + np.where(rw > 0, rwgg - rwg * rwg / rw_safe, 0.0)
        j = int(np.nonzero(sse <= sse.min() + tol)[0][0])
        if best is None or sse[j] < best[0] - tol:
            best = (float(sse[j]), f, split_threshold(xs[cut[j]], xs[cut[j] + 1]))
    return best


def per_feature_tree(
    features: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    max_depth: int,
    min_samples_leaf: int = 1,
) -> RegressionTree:
    """The per-feature, per-node-argsort greedy CART that the vectorised
    split search in :mod:`itboost.trees` replaced, kept unchanged as a
    token-level oracle: same float operations in the same order, so the two
    must produce identical ``to_tokens()``.

    Leaf values are weighted means of the targets reaching the leaf.  Samples
    with zero weight are excluded entirely.  Recursion stops at max_depth, at
    min_samples_leaf, or when the node's targets are constant.
    """
    X = np.asarray(features, dtype=np.float64)
    g = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    active = w > 0
    Xa, ga, wa = X[active], g[active], w[active]

    def weighted_mean(gn, wn):
        return float(np.sum(wn * gn) / np.sum(wn))

    def build(Xn, gn, wn, depth) -> TreeNode:
        if (
            depth >= max_depth
            or Xn.shape[0] < 2 * min_samples_leaf
            or np.all(gn == gn[0])
        ):
            return TreeNode(value=weighted_mean(gn, wn))
        found = _per_feature_best_split(Xn, gn, wn, min_samples_leaf)
        if found is None:
            return TreeNode(value=weighted_mean(gn, wn))
        _, feature, threshold = found
        go_left = Xn[:, feature] <= threshold
        return TreeNode(
            feature=feature,
            threshold=threshold,
            left=build(Xn[go_left], gn[go_left], wn[go_left], depth + 1),
            right=build(Xn[~go_left], gn[~go_left], wn[~go_left], depth + 1),
        )

    return RegressionTree(root=build(Xa, ga, wa, 0), n_features=X.shape[1])


def tree_weighted_sse(tree: RegressionTree, X, g, w) -> float:
    pred = tree.predict(np.asarray(X, dtype=float))
    return float(np.sum(np.asarray(w, dtype=float) * (np.asarray(g, dtype=float) - pred) ** 2))


# ---------------------------------------------------------------------------
# Independent uniform-weight GBDT (classic baseline) for byte-identity checks.


@dataclass
class _RefTree:
    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "_RefTree | None" = None
    right: "_RefTree | None" = None


class ReferenceGBDT:
    """Plain gradient boosting with uniform-weight CART fitting.

    Written from the textbook description: per round, fit an unweighted
    regression tree to the pseudo-residuals (leaf value = mean residual) and
    advance the scores by the shrunken tree output.
    """

    def __init__(self, iterations, learning_rate, max_depth, min_samples_leaf, loss):
        self.iterations = iterations
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.loss = loss
        self.base_score = 0.0
        self.trees: list[_RefTree] = []

    def _gradient(self, y, scores):
        if self.loss == "logistic":
            return y * expit(-y * scores)
        return y - scores

    def _fit_tree(self, X, g):
        msl = self.min_samples_leaf

        def split(Xn, gn, depth):
            n = Xn.shape[0]
            if depth >= self.max_depth or n < 2 * msl or np.all(gn == gn[0]):
                return _RefTree(value=float(np.mean(gn)))
            tol = split_tolerance(gn, np.ones(n))
            best_sse = None
            best = None
            for f in range(Xn.shape[1]):
                order = np.argsort(Xn[:, f], kind="stable")
                xs = Xn[order, f]
                for i in range(n - 1):
                    if xs[i] == xs[i + 1]:
                        continue
                    if i + 1 < msl or n - i - 1 < msl:
                        continue
                    thr = split_threshold(xs[i], xs[i + 1])
                    left = Xn[:, f] <= thr
                    gl, gr = gn[left], gn[~left]
                    sse = float(np.sum((gl - np.mean(gl)) ** 2)) + float(
                        np.sum((gr - np.mean(gr)) ** 2)
                    )
                    if best_sse is None or sse < best_sse - tol:
                        best_sse = sse
                        best = (f, thr)
            if best is None:
                return _RefTree(value=float(np.mean(gn)))
            f, thr = best
            left = Xn[:, f] <= thr
            node = _RefTree(feature=f, threshold=thr)
            node.left = split(Xn[left], gn[left], depth + 1)
            node.right = split(Xn[~left], gn[~left], depth + 1)
            return node

        return split(X, g, 0)

    def _predict_tree(self, node, X):
        out = np.empty(X.shape[0])
        todo = [(node, np.arange(X.shape[0]))]
        while todo:
            nd, idx = todo.pop()
            if nd.left is None:
                out[idx] = nd.value
                continue
            mask = X[idx, nd.feature] <= nd.threshold
            todo.append((nd.left, idx[mask]))
            todo.append((nd.right, idx[~mask]))
        return out

    def fit(self, X, labels):
        X = np.asarray(X, dtype=float)
        y = np.asarray(labels, dtype=float)
        if self.loss == "logistic":
            p = float(np.mean(np.asarray(labels) == 1))
            self.base_score = float(np.log(p / (1.0 - p)))
        else:
            self.base_score = float(np.mean(labels))
        scores = np.full(X.shape[0], self.base_score)
        for _ in range(self.iterations):
            g = self._gradient(y, scores)
            tree = self._fit_tree(X, g)
            scores = scores + self.learning_rate * self._predict_tree(tree, X)
            self.trees.append(tree)
        return self

    def to_regression_trees(self) -> list[RegressionTree]:
        def convert(nd):
            if nd.left is None:
                return TreeNode(value=nd.value)
            return TreeNode(
                feature=nd.feature,
                threshold=nd.threshold,
                left=convert(nd.left),
                right=convert(nd.right),
            )

        return [RegressionTree(root=convert(t), n_features=-1) for t in self.trees]


def _oracle_symbols(g: np.ndarray, encoding: str, g_prev: np.ndarray | None) -> list[str]:
    """One symbol per residual, as ``encode_gradients``' docstring defines them:
    binary-sign is the sign; binary-delta is whether g rose since ``g_prev``,
    or the sign in the first round; quantized is the sign and whether |g|
    reaches the median |g|, or the median nonzero |g| when that median is 0."""
    g = g.tolist()
    if encoding == "binary-sign" or (encoding == "binary-delta" and g_prev is None):
        return ["1" if v > 0 else "0" for v in g]
    if encoding == "binary-delta":
        return ["1" if v > u else "0" for v, u in zip(g, g_prev.tolist())]
    magnitude = [abs(v) for v in g]
    threshold = np.median(magnitude)
    if threshold == 0:
        threshold = np.median([m for m in magnitude if m > 0])
    return ["0123"[2 * (v > 0) + (m >= threshold)] for v, m in zip(g, magnitude)]


def oracle_train(dataset, config):
    """``boosting.train`` rebuilt from the definitions: one online
    :class:`SymbolSequence` per row, :func:`_oracle_symbols`, min-max scaled
    complexities, weights |g| * exp(-C) (uniform with trust disabled or in a
    round whose residuals are all 0), a :func:`per_feature_tree` per round,
    and scores advanced by ``tree.predict(X)``.  Returns the model, each
    round's weights and each round's mean training loss."""
    X, y, n = dataset.features, dataset.labels.astype(np.float64), dataset.n_rows
    if config.loss == "logistic":
        p = float(np.mean(dataset.labels == 1))
        base = float(np.log(p / (1.0 - p)))
    else:
        base = float(np.mean(dataset.labels))
    scores = np.full(n, base)
    sequences = [SymbolSequence() for _ in range(n)]
    prev_g, trees, round_weights, losses = None, [], [], []
    for _ in range(config.iterations):
        g = y * expit(-y * scores) if config.loss == "logistic" else y - scores
        moved = bool((g != 0).any())
        c = np.zeros(n)
        if config.trust == "enabled" and moved:
            symbols = _oracle_symbols(g, config.encoding, prev_g)
            raw = np.array([seq.append(s) for seq, s in zip(sequences, symbols)], dtype=np.float64)
            if raw.max() > raw.min():
                c = (raw - raw.min()) / (raw.max() - raw.min())
        weights = np.abs(g) * np.exp(-c)
        if config.trust == "disabled" or not moved:
            weights = np.ones(n)
        tree = per_feature_tree(X, g, weights, config.max_depth, config.min_samples_leaf)
        scores = scores + config.learning_rate * tree.predict(X)
        loss = np.logaddexp(0.0, -y * scores) if config.loss == "logistic" else 0.5 * (y - scores) ** 2
        trees.append(tree)
        round_weights.append(weights)
        losses.append(float(np.mean(loss)))
        prev_g = g
    return Model(base_score=base, n_features=dataset.n_features, trees=trees, config=config), round_weights, losses


def tree_depth(tree: RegressionTree) -> int:
    """Edges on the tree's longest root-to-leaf path, walked with an explicit
    stack, so a chain deeper than the recursion limit has a depth too."""
    deepest, stack = 0, [(tree.root, 0)]
    while stack:
        node, level = stack.pop()
        if node.left is None:
            deepest = max(deepest, level)
        else:
            stack += ((node.left, level + 1), (node.right, level + 1))
    return deepest


# ---------------------------------------------------------------------------
# Friedman statistic, the arithmetic behind the paper's mean-rank comparison.


@dataclass(frozen=True)
class FriedmanResult:
    mean_ranks: np.ndarray
    statistic: float
    p_value: float


def friedman_from_mean_ranks(mean_ranks, n_datasets: int) -> FriedmanResult:
    """Chi-square rank statistic from per-algorithm mean ranks over D datasets."""
    r = np.asarray(mean_ranks, dtype=np.float64)
    a = r.size
    if a < 2 or n_datasets < 2:
        raise ValueError("friedman_from_mean_ranks: need >= 2 algorithms and >= 2 datasets")
    stat = 12.0 * n_datasets / (a * (a + 1.0)) * float(np.sum(r * r)) - 3.0 * n_datasets * (a + 1.0)
    stat = max(stat, 0.0)
    return FriedmanResult(mean_ranks=r, statistic=stat, p_value=float(chi2.sf(stat, a - 1)))


def per_cell_load_csv(path, label_column, positive_label: str):
    """``load_csv`` as a per-cell loop: (features, labels, feature_names).

    Strips every cell, parses it with ``float`` and checks it alone, raising
    ``DataError`` at the first bad cell in file order.  It predates two
    header and label rules of ``load_csv`` (distinct header names, nonempty
    label cells), so compare it on files that keep both.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        label_idx = label_column if isinstance(label_column, int) else header.index(label_column)
        rows, raw_labels = [], []
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue
            row = f"load_csv: {path} row {line_no}"
            if len(record) != len(header):
                raise DataError(f"{row} has {len(record)} cells, expected {len(header)}")
            values = []
            for col, cell in enumerate(record):
                token = cell.strip()
                if col == label_idx:
                    raw_labels.append(token)
                    continue
                name = header[col]
                if token == "":
                    raise DataError(f"{row}, column {name!r}: missing value")
                try:
                    x = float(token)
                except ValueError:
                    raise DataError(f"{row}, column {name!r}: unparsable cell {token!r}") from None
                if not np.isfinite(x):
                    raise DataError(f"{row}, column {name!r}: non-finite value {token!r}")
                values.append(x)
            rows.append(values)
    labels = np.array([1 if tok == positive_label else -1 for tok in raw_labels], dtype=np.int64)
    names = tuple(name for i, name in enumerate(header) if i != label_idx)
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(names)), labels, names
