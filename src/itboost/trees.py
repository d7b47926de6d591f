"""Weighted least-squares regression trees (greedy top-down CART)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TreeNode:
    """Internal node (feature, threshold) or leaf (value)."""

    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class RegressionTree:
    root: TreeNode
    n_features: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of each row of X (n, d); a float for one row x (d,).

        A row goes left when ``x[feature] <= threshold`` and right otherwise,
        so NaN goes right.  One row walks a single root-to-leaf path; a batch
        partitions its row indices down the tree (see :func:`_route`).
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim not in (1, 2):
            raise ValueError(f"RegressionTree.predict: expected 1-D or 2-D input, got shape {X.shape}")
        if X.shape[-1] != self.n_features:
            raise ValueError(f"RegressionTree.predict: expected {self.n_features} features, got {X.shape[-1]}")
        if X.ndim == 1:
            node = self.root
            while node.left is not None:
                node = node.left if X[node.feature] <= node.threshold else node.right
            return float(node.value)
        out = np.empty(X.shape[0], dtype=np.float64)
        _route(self.root, np.ascontiguousarray(X.T), np.arange(X.shape[0]), out)
        return out

    def depth(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def n_leaves(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root)

    def to_tokens(self) -> list[str]:
        """Preorder serialisation: 'I <feature> <threshold>' / 'L <value>' tokens."""
        tokens: list[str] = []

        def walk(node):
            if node.is_leaf:
                tokens.extend(["L", repr(float(node.value))])
            else:
                tokens.extend(["I", str(int(node.feature)), repr(float(node.threshold))])
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return tokens

    @classmethod
    def from_tokens(cls, tokens: list[str], n_features: int) -> "RegressionTree":
        pos = 0

        def parse() -> TreeNode:
            nonlocal pos
            kind = tokens[pos]
            if kind == "L":
                node = TreeNode(value=float(tokens[pos + 1]))
                pos += 2
                return node
            if kind == "I":
                feature = int(tokens[pos + 1])
                if not 0 <= feature < n_features:
                    raise ValueError(
                        f"RegressionTree.from_tokens: feature {feature} outside [0, {n_features})"
                    )
                threshold = float(tokens[pos + 2])
                pos += 3
                left = parse()
                right = parse()
                return TreeNode(feature=feature, threshold=threshold, left=left, right=right)
            raise ValueError(f"RegressionTree.from_tokens: bad node kind {kind!r}")

        try:
            root = parse()
        except IndexError:
            raise ValueError("RegressionTree.from_tokens: token list ends inside a node") from None
        if pos != len(tokens):
            raise ValueError("RegressionTree.from_tokens: trailing tokens")
        return cls(root=root, n_features=n_features)


def _route(node: TreeNode, XT: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """Write the leaf value of each row in ``idx`` into ``out``.

    ``XT`` is the (d, n) transposed batch, so a split reads one contiguous
    feature row with ``take``; ``compress`` splits the index without a
    boolean-mask gather.
    """
    if node.left is None:
        out[idx] = node.value
        return
    go_left = XT[node.feature].take(idx) <= node.threshold
    _route(node.left, XT, idx.compress(go_left), out)
    _route(node.right, XT, idx.compress(~go_left), out)


def _weighted_mean(g: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum(w * g) / np.sum(w))


def split_tolerance(g, w) -> float:
    """SSE comparison tolerance for tie-breaking, relative to the node's scale.

    Mathematically tied candidates (common when two features isolate the same
    sample) must resolve by the deterministic tie rule, not by accumulated
    rounding, so SSE comparisons treat differences below this as equal.
    """
    scale = float(np.sum(w * g * g))
    return 1e-12 * max(scale, 1e-300)


def _best_split(XT, g, w, order, tol, min_samples_leaf):
    """Smallest total weighted SSE over all (feature, midpoint-threshold) candidates.

    ``XT`` is the (d, N) transposed feature matrix.  ``order`` is a (d, n)
    array whose row f lists the node's samples (indices into ``g``, ``w`` and
    the columns of ``XT``) sorted stably by feature f.  All features are
    searched at once: one gather per array, cumulative sums along each row
    and the SSE of every cut.  Candidate thresholds are midpoints between
    consecutive distinct sorted values.  Ties (up to ``tol``, the node's
    :func:`split_tolerance`) break toward the lowest feature index, then the
    lowest threshold.  Returns (sse, feature, threshold) or None if no
    candidate leaves at least ``min_samples_leaf`` samples on each side.
    """
    d, n = order.shape
    xs = np.take(XT, order + np.arange(0, XT.size, XT.shape[1])[:, None])
    # split after sorted position i is valid only between distinct values
    valid = xs[:, :-1] < xs[:, 1:]
    valid[:, : min_samples_leaf - 1] = False
    valid[:, n - min_samples_leaf :] = False
    # Running sums of w, w*g and w*g*g along each feature's order, computed in
    # place: the same float operations as one feature at a time, in the same
    # order, with fewer (d, n) temporaries alive.
    gs = g[order]
    cw = w[order]
    cwg = cw * gs
    cwgg = gs
    cwgg *= cwg
    for running in (cw, cwg, cwgg):
        np.cumsum(running, axis=1, out=running)
    lw, lwg, lwgg = cw[:, :-1], cwg[:, :-1], cwgg[:, :-1]
    rw = cw[:, -1:] - lw
    # rw can cancel to exactly 0 when the right side's weights are absorbed
    # by the cumsum; a side with (numerically) zero total weight has zero
    # weighted SSE.
    right_empty = ~(rw > 0)
    rw[right_empty] = 1.0
    right = cwg[:, -1:] - lwg
    right *= right
    right /= rw
    np.subtract(cwgg[:, -1:] - lwgg, right, out=right)
    right[right_empty] = 0.0
    sse = lwg * lwg
    sse /= lw
    np.subtract(lwgg, sse, out=sse)
    sse += right
    sse[~valid] = np.inf
    # per feature: the first valid cut within tol of that feature's minimum
    near = valid & (sse <= sse.min(axis=1, keepdims=True) + tol)
    cut = np.argmax(near, axis=1)
    cut_sse = sse[np.arange(d), cut].tolist()
    best = None
    for f in np.flatnonzero(valid.any(axis=1)).tolist():
        if best is None or cut_sse[f] < best[0] - tol:
            best = (cut_sse[f], f, int(cut[f]))
    if best is None:
        return None
    sse_f, f, j = best
    return sse_f, f, float((xs[f, j] + xs[f, j + 1]) / 2.0)


def _grow(XT, g, w, order, rows, depth, max_depth, min_samples_leaf) -> TreeNode:
    """Subtree for the samples ``rows`` (ascending), whose per-feature sorted
    order is ``order`` (see :func:`_best_split`).

    A module-level function rather than a closure: a recursive closure is a
    reference cycle, which would keep each fit's arrays alive until the
    garbage collector next runs.
    """
    gn, wn = g[rows], w[rows]
    if depth >= max_depth or rows.shape[0] < 2 * min_samples_leaf or np.all(gn == gn[0]):
        return TreeNode(value=_weighted_mean(gn, wn))
    found = _best_split(XT, g, w, order, split_tolerance(gn, wn), min_samples_leaf)
    if found is None:
        return TreeNode(value=_weighted_mean(gn, wn))
    _, feature, threshold = found
    row_left = XT[feature, rows] <= threshold
    go_left = np.zeros(g.shape[0], dtype=bool)
    go_left[rows] = row_left
    # a stable filter of each feature's order keeps it sorted, ties in row order
    left = go_left[order].ravel()
    d = order.shape[0]
    left_child = _grow(
        XT, g, w, np.compress(left, order).reshape(d, -1), rows[row_left],
        depth + 1, max_depth, min_samples_leaf,
    )
    right_child = _grow(
        XT, g, w, np.compress(~left, order).reshape(d, -1), rows[~row_left],
        depth + 1, max_depth, min_samples_leaf,
    )
    return TreeNode(feature=feature, threshold=threshold, left=left_child, right=right_child)


def fit_tree_weighted(
    features: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    max_depth: int,
    min_samples_leaf: int = 1,
) -> RegressionTree:
    """Greedy CART minimising weighted squared error of the targets.

    Leaf values are weighted means of the targets reaching the leaf.  Samples
    with zero weight are excluded entirely (they influence neither splits nor
    leaf values, though the finished tree still routes them at prediction
    time).  Recursion stops at max_depth, at min_samples_leaf, or when the
    node's targets are constant.

    The samples are argsorted per feature once, at the root; each child
    inherits its parent's per-feature order through a stable filter, which
    is the order a stable argsort of the child's samples would give.
    """
    X = np.asarray(features, dtype=np.float64)
    g = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("fit_tree_weighted: features must be 2-D")
    if not (X.shape[0] == g.shape[0] == w.shape[0]):
        raise ValueError("fit_tree_weighted: features, targets, weights lengths disagree")
    if np.any(w < 0):
        raise ValueError("fit_tree_weighted: negative weights")
    if max_depth < 1 or min_samples_leaf < 1:
        raise ValueError("fit_tree_weighted: max_depth and min_samples_leaf must be >= 1")
    active = w > 0
    if not np.any(active):
        raise ValueError("fit_tree_weighted: all weights are zero")
    XT = np.ascontiguousarray(X[active].T)
    order = np.argsort(XT, axis=1, kind="stable")
    rows = np.arange(XT.shape[1])
    root = _grow(XT, g[active], w[active], order, rows, 0, max_depth, min_samples_leaf)
    return RegressionTree(root=root, n_features=X.shape[1])
