import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itboost.boosting import BoostConfig, Model
from itboost.trees import RegressionTree, fit_tree_weighted, presort
from reference import ReferenceGBDT, brute_force_tree, per_feature_tree, tree_depth, tree_weighted_sse


class TestFitBasics:
    def test_perfect_step_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        w = np.ones(4)
        tree = fit_tree_weighted(presort(X), g, w, max_depth=1)
        assert not tree.root.is_leaf
        assert tree.root.feature == 0
        assert tree.root.threshold == 1.5
        assert tree.root.left.value == -1.0
        assert tree.root.right.value == 1.0

    def test_constant_targets_give_single_leaf(self):
        X = np.arange(6.0)[:, None]
        tree = fit_tree_weighted(presort(X), np.full(6, 0.3), np.ones(6), max_depth=3)
        assert tree.root.is_leaf
        assert tree.root.value == pytest.approx(0.3)

    def test_leaf_value_is_weighted_mean(self):
        X = np.zeros((3, 1))  # no split possible
        g = np.array([1.0, 2.0, 4.0])
        w = np.array([1.0, 1.0, 2.0])
        tree = fit_tree_weighted(presort(X), g, w, max_depth=2)
        assert tree.root.is_leaf
        assert tree.root.value == pytest.approx((1 + 2 + 8) / 4.0)

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 2))
        g = rng.normal(size=20)
        tree = fit_tree_weighted(presort(X), g, np.ones(20), max_depth=4, min_samples_leaf=5)

        def leaf_counts(node, idx):
            if node.is_leaf:
                yield idx.size
                return
            mask = X[idx, node.feature] <= node.threshold
            yield from leaf_counts(node.left, idx[mask])
            yield from leaf_counts(node.right, idx[~mask])

        assert min(leaf_counts(tree.root, np.arange(20))) >= 5

    def test_depth_limit(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(64, 3))
        g = rng.normal(size=64)
        tree = fit_tree_weighted(presort(X), g, np.ones(64), max_depth=2)
        assert tree_depth(tree) <= 2
        assert tree.n_leaves() <= 4

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            fit_tree_weighted(presort(np.ones((3, 1))), np.ones(3), np.zeros(3), max_depth=1)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            fit_tree_weighted(presort(np.ones((3, 1))), np.ones(3), np.array([1.0, -1.0, 1.0]), max_depth=1)

    @pytest.mark.parametrize("targets, weights", [
        ([1.0, 2.0, np.nan, 4.0, 5.0, 6.0], np.ones(6)),
        (np.arange(6.0), [1.0, 1.0, np.inf, 1.0, 1.0, 1.0]),
        (np.arange(6.0), [1.0, 1.0, np.nan, 1.0, 1.0, 1.0]),
    ], ids=["nan-target", "inf-weight", "nan-weight"])
    def test_non_finite_targets_or_weights_rejected(self, targets, weights):
        with pytest.raises(ValueError, match="^fit_tree_weighted: targets and weights must be finite$"):
            fit_tree_weighted(presort(np.arange(6.0)[:, None]), targets, weights, max_depth=2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_tree_weighted(presort(np.ones((3, 1))), np.ones(2), np.ones(3), max_depth=1)

    def test_presorted_arrays_disagreeing_with_each_other_or_the_targets_rejected(self):
        XT, order, xs = presort(np.ones((3, 2)))
        with pytest.raises(ValueError, match=r"presorted shapes \(2, 3\), \(2, 4\), \(2, 3\) differ"):
            fit_tree_weighted((XT, np.zeros((2, 4), dtype=np.int64), xs), np.ones(3), np.ones(3), max_depth=1)
        with pytest.raises(ValueError, match=r"presorted shapes \(3,\), \(3,\), \(3,\) differ"):
            fit_tree_weighted((XT[0], order[0], xs[0]), np.ones(3), np.ones(3), max_depth=1)
        for g, w in ((np.ones(4), np.ones(4)), (np.ones((3, 1)), np.ones(3))):
            with pytest.raises(ValueError, match=r"need 3 entries"):
                fit_tree_weighted((XT, order, xs), g, w, max_depth=1)

    @pytest.mark.parametrize("out", [
        np.empty(4), np.empty((3, 1)), np.empty(3, dtype=np.float32), np.empty(3, dtype=np.int64), [0.0, 0.0, 0.0],
    ], ids=["long", "2-d", "float32", "int64", "list"])
    def test_out_of_wrong_shape_or_dtype_rejected(self, out):
        with pytest.raises(ValueError, match=r"^fit_tree_weighted: out must be a writeable float64 array of shape \(3,\)$"):
            fit_tree_weighted(presort(np.arange(3.0)[:, None]), np.arange(3.0), np.ones(3), max_depth=1, out=out)

    def test_read_only_out_rejected(self):
        out = np.zeros(3)
        out.flags.writeable = False
        with pytest.raises(ValueError, match=r"^fit_tree_weighted: out must be a writeable float64 array of shape \(3,\)$"):
            fit_tree_weighted(presort(np.arange(3.0)[:, None]), np.arange(3.0), np.ones(3), max_depth=1, out=out)
        assert not out.any()

    @pytest.mark.parametrize("shape", [(3,), (), (2, 3, 2)])
    def test_presort_rejects_input_not_2d(self, shape):
        with pytest.raises(ValueError, match=rf"^presort: features must be 2-D, got shape {re.escape(str(shape))}$"):
            presort(np.ones(shape))


class TestZeroWeightInvariance:
    def test_zero_weight_rows_do_not_change_the_tree(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            n = int(rng.integers(8, 30))
            X = rng.normal(size=(n, 2))
            g = rng.normal(size=n)
            w = rng.random(n) + 0.1
            base = fit_tree_weighted(presort(X), g, w, max_depth=3)
            extra = int(rng.integers(1, 6))
            X2 = np.vstack([X, rng.normal(size=(extra, 2))])
            g2 = np.concatenate([g, rng.normal(size=extra)])
            w2 = np.concatenate([w, np.zeros(extra)])
            padded = fit_tree_weighted(presort(X2), g2, w2, max_depth=3)
            assert base.to_tokens() == padded.to_tokens()

    def test_zero_weight_rows_still_routed_at_prediction(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        w = np.array([1.0, 1.0, 1.0, 0.0])
        tree = fit_tree_weighted(presort(X), g, w, max_depth=1)
        assert tree.predict(np.array([[3.0]])).tolist() == [tree.root.right.value]


@st.composite
def weighted_fits(draw):
    """Features with ties (integer-valued, or a column duplicating the first),
    weights of which a drawn share are zero, and a depth and leaf size."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, draw(st.sampled_from([2, 4, 50])), size=(n, d)).astype(float)
    if d > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]
    g = rng.normal(size=n)
    if draw(st.booleans()):
        g = np.round(g)
    w = rng.random(n) + 0.05
    w[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0.0
    w[draw(st.integers(0, n - 1))] = 1.0  # at least one weighted row
    return X, g, w, draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.booleans())


class TestOwnRowScoring:
    """The fit writes each row's leaf value into ``out``: weighted rows from
    the fit's own partition, zero-weight rows by routing them afterwards."""

    @given(case=weighted_fits())
    @settings(max_examples=300, deadline=None)
    def test_out_equals_predict_bit_for_bit(self, case):
        X, g, w, depth, min_samples_leaf, strided = case
        buffer = np.full(2 * X.shape[0], np.nan)
        out = buffer[::2] if strided else buffer[: X.shape[0]]
        tree = fit_tree_weighted(presort(X), g, w, depth, min_samples_leaf, out=out)
        assert out.tobytes() == tree.predict(X).tobytes()
        if strided:
            assert np.isnan(buffer[1::2]).all()
        plain = fit_tree_weighted(presort(X), g, w, depth, min_samples_leaf)
        assert plain.to_tokens() == tree.to_tokens()

    def test_zero_weight_rows_are_scored_by_the_leaf_they_reach(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [9.0], [-4.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0, 5.0, 7.0])
        w = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        out = np.full(6, np.nan)
        tree = fit_tree_weighted(presort(X), g, w, max_depth=1, out=out)
        assert tree.to_tokens() == ["I", "0", "1.5", "L", "-1.0", "L", "1.0"]
        assert out.tolist() == [-1.0, -1.0, 1.0, 1.0, 1.0, -1.0]


class TestUniformMatchesUnweighted:
    def test_scaling_weights_does_not_change_structure(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        g = rng.normal(size=30)
        a = fit_tree_weighted(presort(X), g, np.ones(30), max_depth=3)
        b = fit_tree_weighted(presort(X), g, np.full(30, 7.0), max_depth=3)
        ta, tb = a.to_tokens(), b.to_tokens()
        assert [t for t in ta if t in "IL"] == [t for t in tb if t in "IL"]
        # structure identical; leaf values equal up to fp tolerance
        for xa, xb in zip(ta, tb):
            if xa in "IL":
                assert xa == xb
            else:
                assert float(xa) == pytest.approx(float(xb), abs=1e-12)


class TestOracleAgreement:
    def test_weighted_sse_matches_exhaustive_search(self):
        rng = np.random.default_rng(20)
        for trial in range(60):
            n = int(rng.integers(4, 13))
            d = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 3))
            X = rng.normal(size=(n, d))
            if trial % 3 == 0:
                X = np.round(X)  # force duplicate feature values
            g = rng.normal(size=n)
            w = rng.random(n)
            if trial % 4 == 0:
                w[rng.integers(0, n)] = 0.0
            if not np.any(w > 0):
                w[0] = 1.0
            mine = fit_tree_weighted(presort(X), g, w, max_depth=depth)
            oracle = brute_force_tree(X, g, w, max_depth=depth)
            assert tree_weighted_sse(mine, X, g, w) == pytest.approx(
                tree_weighted_sse(oracle, X, g, w), abs=1e-9
            )

    def test_six_point_mixed_weights_depth_two(self):
        X = np.array([[0.0, 5.0], [1.0, 1.0], [2.0, 4.0], [3.0, 0.0], [4.0, 3.0], [5.0, 2.0]])
        g = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0])
        w = np.array([1.0, 0.5, 2.0, 1.0, 0.2, 1.5])
        mine = fit_tree_weighted(presort(X), g, w, max_depth=2)
        oracle = brute_force_tree(X, g, w, max_depth=2)
        assert tree_weighted_sse(mine, X, g, w) == pytest.approx(
            tree_weighted_sse(oracle, X, g, w), abs=1e-9
        )


class TestPerFeatureOracle:
    """The vectorised split search against the per-feature search it replaced.

    Both do the same float operations in the same order, so the trees must
    agree token for token, thresholds and leaf values included.  The cases
    lean on ties: integer-valued features, duplicated columns (exactly tied
    features) and zero weights, over every min_samples_leaf x depth pair.
    """

    @staticmethod
    def _case(rng, trial):
        n = 2 if trial % 10 == 0 else int(rng.integers(3, 41))
        d = 1 if trial % 5 == 0 else int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        if trial % 3 == 0:
            X = rng.integers(0, 4, size=(n, d)).astype(float)  # integer-valued, many ties
        if trial % 4 == 1 and d > 1:
            X[:, d - 1] = X[:, 0]  # duplicated column: every cut ties across features
        g = rng.normal(size=n)
        if (trial // 3) % 3 == 1:
            g = np.round(g)
        elif (trial // 3) % 3 == 2:
            g = rng.choice([-1.0, 1.0], size=n)  # two-valued: mirror-image cuts tie within a feature
        w = np.ones(n) if trial % 4 < 2 else rng.random(n) + 0.05
        if trial % 2 == 1:
            w[rng.random(n) < 0.2] = 0.0
        if not np.any(w > 0):
            w[0] = 1.0
        return X, g, w

    @pytest.mark.parametrize("min_samples_leaf", [1, 2, 3])
    @pytest.mark.parametrize("depth", [1, 3, 5, 8])
    def test_tokens_match_per_feature_search(self, depth, min_samples_leaf):
        rng = np.random.default_rng(1000 * depth + min_samples_leaf)
        for trial in range(30):
            X, g, w = self._case(rng, trial)
            mine = fit_tree_weighted(presort(X), g, w, max_depth=depth, min_samples_leaf=min_samples_leaf)
            oracle = per_feature_tree(X, g, w, max_depth=depth, min_samples_leaf=min_samples_leaf)
            assert mine.to_tokens() == oracle.to_tokens(), (trial, X.shape)

    def test_duplicated_column_resolves_to_the_lowest_feature(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=30)
        X = np.column_stack([rng.normal(size=30), x, x])
        g = np.where(x > 0, 1.0, -1.0)
        tree = fit_tree_weighted(presort(X), g, np.ones(30), max_depth=1)
        assert tree.root.feature == 1
        assert tree.to_tokens() == per_feature_tree(X, g, np.ones(30), max_depth=1).to_tokens()


class TestSerialization:
    def test_token_round_trip(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        g = rng.normal(size=40)
        tree = fit_tree_weighted(presort(X), g, np.ones(40), max_depth=3)
        back = RegressionTree.from_tokens(tree.to_tokens(), n_features=3)
        assert back.to_tokens() == tree.to_tokens()
        np.testing.assert_array_equal(back.predict(X), tree.predict(X))

    def test_predict_dimension_check(self):
        tree = fit_tree_weighted(presort(np.ones((2, 2))), np.array([0.0, 1.0]), np.ones(2), max_depth=1)
        with pytest.raises(ValueError):
            tree.predict(np.ones((3, 5)))


@st.composite
def fitted_trees(draw):
    """A tree fitted on integer-valued columns (the last may duplicate the
    first), plus query rows that hit its thresholds exactly and hold NaN."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 4))
    depth = draw(st.sampled_from([1, 3, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 4, size=(n, d)).astype(float)
    if d > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]
    g = rng.normal(size=n)
    tree = fit_tree_weighted(presort(X), g, np.ones(n), max_depth=depth)
    # integer data splits at midpoints x.5, so these values land on thresholds
    pool = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, np.nan])
    Q = np.vstack([X, rng.choice(pool, size=(draw(st.integers(0, 10)), d))])
    return tree, Q


class TestPredictPaths:
    """A batch partitions its row indices down the tree, and each row must
    reach the leaf the reference GBDT's independent tree walker reaches,
    whatever the batch's memory layout.  One row alone is walked by
    ``Model.predict_score``, so a one-tree ``Model`` scores each row alone."""

    @given(case=fitted_trees())
    @settings(max_examples=150, deadline=None)
    def test_single_row_equals_batch_and_oracle(self, case):
        tree, Q = case
        batch = tree.predict(Q)
        oracle = ReferenceGBDT(1, 0.1, 1, 1, "squared")._predict_tree(tree.root, Q)
        np.testing.assert_array_equal(batch, oracle)
        np.testing.assert_array_equal(tree.predict(np.asfortranarray(Q)), batch)
        np.testing.assert_array_equal(tree.predict(Q[::2]), batch[::2])
        wide = np.hstack([Q, Q])[:, : Q.shape[1]]  # column-strided view
        np.testing.assert_array_equal(tree.predict(wide), batch)
        # base 0 and rate 1 make a row's score 0.0 + 1.0 * leaf, which is the leaf exactly
        model = Model(base_score=0.0, n_features=tree.n_features, trees=[tree],
                      config=BoostConfig(learning_rate=1.0))
        alone = [model.predict_score(q) for q in Q]
        np.testing.assert_array_equal(alone, model.predict_score(Q))
        np.testing.assert_array_equal(alone, batch)

    def _stump(self):
        return RegressionTree.from_tokens(["I", "1", "1.5", "L", "-1.0", "L", "2.0"], n_features=2)

    def test_value_at_threshold_goes_left(self):
        tree = self._stump()
        Q = np.array([[9.0, 1.5], [9.0, np.nextafter(1.5, 2.0)], [0.0, 1.6]])
        np.testing.assert_array_equal(tree.predict(Q), [-1.0, 2.0, 2.0])

    def test_nan_goes_right(self):
        tree = self._stump()
        np.testing.assert_array_equal(tree.predict(np.array([[0.0, np.nan], [0.0, 0.0]])), [2.0, -1.0])

    def test_empty_batch(self):
        assert self._stump().predict(np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("shape", [(), (2, 3, 2), (1, 1, 2), (2,)])
    def test_input_not_2d_rejected(self, shape):
        with pytest.raises(ValueError, match=rf"expected a 2-D batch, got shape {re.escape(str(shape))}$"):
            self._stump().predict(np.ones(shape))
