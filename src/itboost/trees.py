"""Weighted least-squares regression trees (greedy top-down CART)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class TreeNode:
    """Internal node (feature, threshold) or leaf (value).

    The fit and :meth:`RegressionTree.from_tokens` store a Python int feature
    and Python float threshold and value, so a single-row score summed from
    leaf values stays a Python float.  Slots, not a ``__dict__``, hold the
    fields, so each node visit of a single-row walk is a slot read.
    """

    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(slots=True)
class RegressionTree:
    root: TreeNode
    n_features: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of each row of the (n, d) batch X.

        A row goes left when ``x[feature] <= threshold`` and right otherwise,
        so NaN goes right.  The batch partitions its row indices down the tree
        (see :func:`_route`); one row is scored by :meth:`Model.predict_score`.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"RegressionTree.predict: expected a 2-D batch, got shape {X.shape}")
        if X.shape[1] != self.n_features:
            raise ValueError(f"RegressionTree.predict: expected {self.n_features} features, got {X.shape[1]}")
        out = np.empty(X.shape[0], dtype=np.float64)
        _route(self.root, np.ascontiguousarray(X.T), np.arange(X.shape[0]), out)
        return out

    def n_leaves(self) -> int:
        return sum(node.is_leaf for node in _preorder(self.root))

    def to_tokens(self) -> list[str]:
        """Preorder serialisation: 'I <feature> <threshold>' / 'L <value>' tokens."""
        tokens: list[str] = []
        for node in _preorder(self.root):
            if node.is_leaf:
                tokens += ("L", repr(float(node.value)))
            else:
                tokens += ("I", str(int(node.feature)), repr(float(node.threshold)))
        return tokens

    @classmethod
    def from_tokens(cls, tokens: list[str], n_features: int) -> "RegressionTree":
        """Inverse of :meth:`to_tokens`; raises ValueError on a malformed list,
        a feature outside ``[0, n_features)`` or a non-finite threshold or leaf."""
        root = None
        open_nodes: list[TreeNode] = []  # internal nodes still missing their right child
        pos = 0
        try:
            while root is None or open_nodes:
                kind = tokens[pos]
                if kind == "L":
                    node = TreeNode(value=float(tokens[pos + 1]))
                    pos += 2
                elif kind == "I":
                    feature = int(tokens[pos + 1])
                    if not 0 <= feature < n_features:
                        raise ValueError(
                            f"RegressionTree.from_tokens: feature {feature} outside [0, {n_features})"
                        )
                    node = TreeNode(feature=feature, threshold=float(tokens[pos + 2]))
                    pos += 3
                else:
                    raise ValueError(f"RegressionTree.from_tokens: bad node kind {kind!r}")
                if not math.isfinite(node.value + node.threshold):  # the unparsed one is 0.0
                    raise ValueError(f"RegressionTree.from_tokens: {tokens[pos - 1]!r} is not a finite number")
                if root is None:
                    root = node
                elif open_nodes[-1].left is None:
                    open_nodes[-1].left = node
                else:
                    open_nodes.pop().right = node
                if kind == "I":
                    open_nodes.append(node)
        except IndexError:
            raise ValueError("RegressionTree.from_tokens: token list ends inside a node") from None
        if pos != len(tokens):
            raise ValueError("RegressionTree.from_tokens: trailing tokens")
        return cls(root=root, n_features=n_features)


def _preorder(root: TreeNode):
    """Every node under ``root``: parents first, left subtrees before right.
    An explicit stack, so no depth is too deep."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack += (node.right, node.left)


def _route(root: TreeNode, XT: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """Write the leaf value of each row in ``idx`` into ``out``.

    ``XT`` is the (d, n) transposed batch, so a split reads one contiguous
    feature row with ``take``; ``compress`` splits the index without a
    boolean-mask gather.
    """
    stack = [(root, idx)]
    while stack:
        node, idx = stack.pop()
        if node.left is None:
            out[idx] = node.value
            continue
        go_left = XT[node.feature].take(idx) <= node.threshold
        stack += ((node.right, idx.compress(~go_left)), (node.left, idx.compress(go_left)))


def _weighted_mean(g: np.ndarray, w: np.ndarray) -> float:
    return float((w * g).sum() / w.sum())


def split_tolerance(g, w) -> float:
    """SSE comparison tolerance for tie-breaking, relative to the node's scale.

    Mathematically tied candidates (common when two features isolate the same
    sample) must resolve by the deterministic tie rule, not by accumulated
    rounding, so SSE comparisons treat differences below this as equal.
    """
    scale = float((w * g * g).sum())
    return 1e-12 * max(scale, 1e-300)


def _best_split(xs, g, w, order, tol, min_samples_leaf):
    """Smallest total weighted SSE over all (feature, midpoint-threshold) candidates.

    ``order`` is a (d, n) array whose row f lists the node's samples (indices
    into ``g`` and ``w``) sorted stably by feature f, and ``xs`` holds the
    matching feature values.  All features are searched at once: one gather
    per array, cumulative sums along each row and the SSE of every cut.
    Candidate thresholds are midpoints between consecutive distinct sorted
    values, or the lower value where the midpoint rounds up to the upper one
    or overflows.  Ties (up to ``tol``, the node's :func:`split_tolerance`)
    break toward the lowest feature index, then the lowest threshold.  Returns
    (sse, feature, threshold) or None if no candidate leaves at least
    ``min_samples_leaf`` samples on each side.
    """
    d, n = order.shape
    # split after sorted position i is valid only between distinct values
    valid = xs[:, :-1] < xs[:, 1:]
    valid[:, : min_samples_leaf - 1] = False
    valid[:, n - min_samples_leaf :] = False
    # Running sums of w, w*g and w*g*g along each feature's order, computed in
    # place: the same float operations as one feature at a time, in the same
    # order, with fewer (d, n) temporaries alive.
    gs = g.take(order)
    cw = w.take(order)
    cwg = cw * gs
    cwgg = gs
    cwgg *= cwg
    for running in (cw, cwg, cwgg):
        np.add.accumulate(running, axis=1, out=running)
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
    near = sse <= sse.min(axis=1, keepdims=True) + tol
    near &= valid
    cut = near.argmax(axis=1)
    cut_sse = sse[np.arange(d), cut].tolist()
    best = None
    for f in valid.any(axis=1).nonzero()[0].tolist():
        if best is None or cut_sse[f] < best[0] - tol:
            best = (cut_sse[f], f, int(cut[f]))
    if best is None:
        return None
    sse_f, f, j = best
    lo, hi = float(xs[f, j]), float(xs[f, j + 1])
    mid = (lo + hi) / 2.0
    return sse_f, f, mid if lo <= mid < hi else lo


def _grow(XT, g, w, order, xs, rows, max_depth, min_samples_leaf, out) -> TreeNode:
    """Tree for the samples ``rows`` (ascending), whose per-feature sorted
    order and values are ``order`` and ``xs`` (see :func:`_best_split`); each
    leaf writes its value into ``out`` at its rows.

    Nodes are grown from an explicit stack, so a tree as deep as its sample
    count needs no recursion.  A split makes one stable filter of the node's
    ``order`` and ``xs`` per child: that keeps each feature sorted, ties in
    row order, which is the order a stable argsort of the child's samples
    would give.  A child that cannot split (it is at ``max_depth`` or has
    fewer than ``2 * min_samples_leaf`` rows) is a leaf, so it carries its
    rows only and no sorted arrays.
    """
    root = TreeNode()
    go_left = np.zeros(g.shape[0], dtype=bool)
    d = order.shape[0]
    stack = [(root, order, xs, rows, 0)]
    while stack:
        node, order, xs, rows, depth = stack.pop()
        gn, wn = g.take(rows), w.take(rows)
        found = None
        if depth < max_depth and rows.shape[0] >= 2 * min_samples_leaf and not (gn == gn[0]).all():
            found = _best_split(xs, g, w, order, split_tolerance(gn, wn), min_samples_leaf)
        if found is None:
            node.value = _weighted_mean(gn, wn)
            out[rows] = node.value
            continue
        _, node.feature, node.threshold = found
        row_left = XT[node.feature].take(rows) <= node.threshold
        node.left, node.right = TreeNode(), TreeNode()
        left = None  # the node's per-feature go-left mask, built for the first child that can split
        for child, keep_rows in ((node.left, row_left), (node.right, ~row_left)):
            child_rows = rows.compress(keep_rows)
            if depth + 1 == max_depth or child_rows.shape[0] < 2 * min_samples_leaf:
                stack.append((child, None, None, child_rows, depth + 1))
                continue
            if left is None:
                go_left[rows] = row_left  # entries outside rows are stale, and order reads none of them
                left = go_left.take(order).ravel()
            keep = left if child is node.left else ~left
            stack.append((child, order.compress(keep).reshape(d, -1), xs.compress(keep).reshape(d, -1),
                          child_rows, depth + 1))
    return root


def presort(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(XT, order, values)`` for the (n, d) ``features``: the contiguous (d, n)
    transpose, each feature's stable argsort, and its values in that order.

    ``features`` do not change across boosting rounds, so a caller that fits
    many trees on them sorts once and passes the result to every
    :func:`fit_tree_weighted` call.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"presort: features must be 2-D, got shape {X.shape}")
    XT = np.ascontiguousarray(X.T)
    order = XT.argsort(axis=1, kind="stable")
    return XT, order, np.take_along_axis(XT, order, axis=1)


def fit_tree_weighted(
    presorted: tuple[np.ndarray, np.ndarray, np.ndarray],
    targets: np.ndarray,
    weights: np.ndarray,
    max_depth: int,
    min_samples_leaf: int = 1,
    out: np.ndarray | None = None,
) -> RegressionTree:
    """Greedy CART minimising weighted squared error of the targets.

    ``presorted`` is :func:`presort` of the (n, d) features.  Leaf values are
    weighted means of the targets reaching the leaf.  Samples with zero
    weight are excluded entirely (they influence neither splits nor leaf
    values).  Growth stops at max_depth, at min_samples_leaf, or when the
    node's targets are constant.  Targets and weights must be finite, and
    weights non-negative with at least one positive.

    The fit also scores its own rows: every sample's leaf value, the
    ``tree.predict`` of its features bit for bit, is written into ``out``, a
    writeable float64 array of shape (n,), when one is given.  A weighted
    sample gets the value of the leaf the fit put it in, and the zero-weight
    samples are routed down the finished tree in one batch.

    When some weights are zero, a stable filter of each feature's order drops
    those samples, which is the order a stable argsort of the weighted
    samples would give; each child then inherits its parent's order the same
    way.
    """
    XT, order, xs = presorted
    g = np.asarray(targets, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if not (XT.ndim == 2 and XT.shape == order.shape == xs.shape):
        raise ValueError(f"fit_tree_weighted: presorted shapes {XT.shape}, {order.shape}, {xs.shape} differ")
    d, n = XT.shape
    if not (g.shape == w.shape == (n,)):
        raise ValueError(f"fit_tree_weighted: targets {g.shape} and weights {w.shape} need {n} entries")
    if out is None:
        out = np.empty(n, dtype=np.float64)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (n,)
              and out.flags.writeable):
        raise ValueError(f"fit_tree_weighted: out must be a writeable float64 array of shape ({n},)")
    if not (np.isfinite(g).all() and np.isfinite(w).all()):
        raise ValueError("fit_tree_weighted: targets and weights must be finite")
    if (w < 0).any():
        raise ValueError("fit_tree_weighted: negative weights")
    if max_depth < 1 or min_samples_leaf < 1:
        raise ValueError("fit_tree_weighted: max_depth and min_samples_leaf must be >= 1")
    active = w > 0
    if not active.any():
        raise ValueError("fit_tree_weighted: all weights are zero")
    rows = active.nonzero()[0]
    if rows.shape[0] < n:
        keep = active.take(order).ravel()
        order = order.compress(keep).reshape(d, -1)
        xs = xs.compress(keep).reshape(d, -1)
    root = _grow(XT, g, w, order, xs, rows, max_depth, min_samples_leaf, out)
    if rows.shape[0] < n:
        _route(root, XT, (~active).nonzero()[0], out)
    return RegressionTree(root=root, n_features=d)
