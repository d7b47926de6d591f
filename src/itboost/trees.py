"""Weighted least-squares regression trees (greedy top-down CART)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Deepest tree RegressionTree.predict scores by full-batch comparisons (see
# _levelwise); deeper trees partition row indices (see _route).  It is the
# deepest complete tree the comparisons scored no slower than the partition at
# 80, 200 and 100k rows (README "Prediction").  The path code is uint8, so <= 8.
LEVELWISE_MAX_DEPTH = 6


@dataclass(slots=True)
class TreeNode:
    """Internal node (feature, threshold) or leaf (value, no children; every walk tests ``left is None``).

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


@dataclass(slots=True)
class RegressionTree:
    root: TreeNode
    n_features: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of each row of the (n, d) batch X.

        A row goes left when ``x[feature] <= threshold`` and right otherwise,
        so NaN goes right.  A tree at most :data:`LEVELWISE_MAX_DEPTH` deep is
        scored level by level over the whole batch (see :func:`_levelwise`);
        a deeper one partitions the row indices down the tree (see
        :func:`_route`).  Both make the same comparisons, so a row gets the
        same leaf either way.  One row is scored by :meth:`Model.predict_score`.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"RegressionTree.predict: expected a 2-D batch, got shape {X.shape}")
        if X.shape[1] != self.n_features:
            raise ValueError(f"RegressionTree.predict: expected {self.n_features} features, got {X.shape[1]}")
        XT = np.ascontiguousarray(X.T)
        out = _levelwise(self.root, XT)
        if out is None:
            out = np.empty(X.shape[0], dtype=np.float64)
            _route(self.root, XT, np.arange(X.shape[0]), out)
        return out

    def n_leaves(self) -> int:
        return sum(node.left is None for node in _preorder(self.root))

    def to_tokens(self) -> list[str]:
        """Preorder serialisation: 'I <feature> <threshold>' / 'L <value>' tokens."""
        tokens: list[str] = []
        for node in _preorder(self.root):
            if node.left is None:
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
        if node.left is not None:
            stack += (node.right, node.left)


def _route(root: TreeNode, XT: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """Write the leaf value of each row in ``idx`` into ``out``.

    ``XT`` is the (d, n) transposed batch, so a split reads one contiguous
    feature row with ``take``; ``compress`` splits the index without a
    boolean-mask gather.  A node touches only the rows that reach it, so a
    tree costs about its depth in gathers per row however many nodes it has:
    the path for trees deeper than :data:`LEVELWISE_MAX_DEPTH`, and for the
    fit's zero-weight rows.
    """
    stack = [(root, idx)]
    while stack:
        node, idx = stack.pop()
        if node.left is None:
            out[idx] = node.value
            continue
        go_left = XT[node.feature].take(idx) <= node.threshold
        stack += ((node.right, idx.compress(~go_left)), (node.left, idx.compress(go_left)))


def _levelwise(root: TreeNode, XT: np.ndarray) -> np.ndarray | None:
    """Leaf value of each column of the (d, n) batch ``XT``, scored by
    full-batch comparisons; None for a tree deeper than
    :data:`LEVELWISE_MAX_DEPTH`.

    One breadth-first walk gives each node a path code, one bit per step from
    the root (1 for left, 0 for right, the first step highest), lists each
    level's internal nodes and fills a table with a leaf value for each code
    of the deepest level D: a leaf at depth k fills the block of 2^(D-k)
    codes that begin with its own.

    Each row then carries a uint8 path code down the levels.  At each level
    every internal node compares its whole feature row, ``XT[f] <= t`` (false
    for NaN, so NaN goes right), and each row keeps the bit of the node at
    its code; then the code doubles and takes that bit.  A level with one
    internal node needs no selection: any other row is at a leaf, and
    whatever bits it picks up keep its code inside its leaf's block.  One
    ``take`` from the table ends the walk.
    """
    levels, leaves, level = [], [], [(root, 0)]
    while level:
        nodes, deeper = [], []
        for node, code in level:
            if node.left is None:
                leaves.append((len(levels), code, node.value))
            else:
                nodes.append((code, node.feature, node.threshold))
                deeper += ((node.left, 2 * code + 1), (node.right, 2 * code))
        if nodes:
            if len(levels) == LEVELWISE_MAX_DEPTH:
                return None
            levels.append(nodes)
        level = deeper
    table = [0.0] * (1 << len(levels))
    for depth, code, value in leaves:
        below = len(levels) - depth
        table[code << below : (code + 1) << below] = [value] * (1 << below)
    if not levels:  # the root is a leaf
        return np.full(XT.shape[1], table[0], dtype=np.float64)
    (_, f, t), = levels[0]
    code = np.less_equal(XT[f], t).view(np.uint8)
    for (first, f, t), *rest in levels[1:]:
        bit = np.less_equal(XT[f], t)
        if rest:
            bit &= np.equal(code, first)
        for node, f, t in rest:
            here = np.equal(code, node)
            here &= np.less_equal(XT[f], t)
            bit |= here
        code += code
        code |= bit
    return np.array(table, dtype=np.float64).take(code)


def split_tolerance(g, w) -> float:
    """SSE comparison tolerance for tie-breaking, relative to the node's scale.

    Mathematically tied candidates (common when two features isolate the same
    sample) must resolve by the deterministic tie rule, not by accumulated
    rounding, so SSE comparisons treat differences below this as equal.
    """
    scale = float((w * g * g).sum())
    return 1e-12 * max(scale, 1e-300)


def _best_split(xs, g, w, order, tol, min_samples_leaf, work):
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

    The six float temporaries, three (d, n) and three (d, n - 1), are views
    of the front of ``work``, a 1-D float64 block of at least 6 * d * n
    entries that the caller allocates once per fit.  So a tree's nodes reuse
    one buffer instead of each allocating and freeing their own, which at a
    wide root (128 KB and more per temporary) made glibc return the heap top
    to the kernel between nodes and fault it back in.
    """
    d, n = order.shape
    running = work[: 3 * d * n].reshape(3, d, n)
    gs, cw, cwg = running[0], running[1], running[2]
    cuts = work[3 * d * n : 3 * d * (2 * n - 1)].reshape(3, d, n - 1)
    rw, right, sse = cuts[0], cuts[1], cuts[2]
    # split after sorted position i is valid only between distinct values
    valid = xs[:, :-1] < xs[:, 1:]
    valid[:, : min_samples_leaf - 1] = False
    valid[:, n - min_samples_leaf :] = False
    # Running sums of w, w*g and w*g*g along each feature's order, computed in
    # place by one accumulate over the three stacked blocks: the same float
    # operations as one feature at a time, in the same order.  The indices
    # come from an argsort, so mode="clip" changes none of them; it lets take
    # write into out without a buffered copy.
    g.take(order, out=gs, mode="clip")
    w.take(order, out=cw, mode="clip")
    np.multiply(cw, gs, out=cwg)
    cwgg = gs
    cwgg *= cwg
    np.add.accumulate(running, axis=2, out=running)
    lw, lwg, lwgg = cw[:, :-1], cwg[:, :-1], cwgg[:, :-1]
    np.subtract(cw[:, -1:], lw, out=rw)
    # rw can cancel to exactly 0 when the right side's weights are absorbed
    # by the cumsum; a side with (numerically) zero total weight has zero
    # weighted SSE.
    right_empty = ~(rw > 0)
    rw[right_empty] = 1.0
    np.subtract(cwg[:, -1:], lwg, out=right)
    right *= right
    right /= rw
    right_gg = np.subtract(cwgg[:, -1:], lwgg, out=rw)  # rw is spent
    np.subtract(right_gg, right, out=right)
    right[right_empty] = 0.0
    np.multiply(lwg, lwg, out=sse)
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
    leaf writes its value into ``out`` at its rows.  Every split search
    writes its temporaries into one workspace sized for the root.

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
    work = np.empty(6 * order.size)
    stack = [(root, order, xs, rows, 0)]
    while stack:
        node, order, xs, rows, depth = stack.pop()
        gn, wn = g.take(rows), w.take(rows)
        found = None
        if depth < max_depth and rows.shape[0] >= 2 * min_samples_leaf and not (gn == gn[0]).all():
            found = _best_split(xs, g, w, order, split_tolerance(gn, wn), min_samples_leaf, work)
        if found is None:
            node.value = float((wn * gn).sum() / wn.sum())
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
