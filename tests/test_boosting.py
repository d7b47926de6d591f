import hashlib
import math
import re
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from itboost import boosting
from itboost.boosting import (
    ENCODINGS,
    LOSSES,
    TRUST_MODES,
    BoostConfig,
    Model,
    init_score,
    gradient,
    load_model,
    load_trace_csv,
    loss_value,
    parse_config_file,
    save_model,
    train,
)
from itboost.complexity import encode_gradients, lz76_complexity
from itboost.data import DataError, Dataset
from itboost.synth import make_gaussian_dataset
from itboost.trees import RegressionTree, TreeNode
from conftest import random_dataset
from reference import ReferenceGBDT, oracle_train, round_gradients, tree_depth


class TestGradients:
    def test_logistic_at_zero(self):
        assert gradient(1, 0.0, "logistic") == pytest.approx(0.5, abs=1e-12)
        assert gradient(-1, 0.0, "logistic") == pytest.approx(-0.5, abs=1e-12)

    def test_logistic_known_value(self):
        assert gradient(1, 2.0, "logistic") == pytest.approx(1.0 / (1.0 + math.exp(2.0)), abs=1e-12)
        assert gradient(1, 2.0, "logistic") == pytest.approx(0.119203, abs=1e-6)

    def test_logistic_sign_matches_label(self):
        rng = np.random.default_rng(0)
        F = rng.normal(scale=3, size=100)
        assert np.all(gradient(np.ones(100), F, "logistic") > 0)
        assert np.all(gradient(-np.ones(100), F, "logistic") < 0)
        assert np.all(np.abs(gradient(np.ones(100), F, "logistic")) < 1)

    def test_logistic_extreme_scores_safe(self):
        with np.errstate(all="raise"):
            g = gradient(np.array([1.0, -1.0]), np.array([1000.0, -1000.0]), "logistic")
        assert np.all(np.isfinite(g))
        assert g[0] == pytest.approx(math.exp(-1000.0), abs=1e-300)

    def test_logistic_asymptote_at_500(self):
        g = gradient(1.0, 600.0, "logistic")
        assert g == pytest.approx(math.exp(-600.0), rel=1e-12)

    def test_squared(self):
        assert gradient(1, 1.0, "squared") == 0.0
        assert gradient(1, 1.3, "squared") == pytest.approx(-0.3)
        assert gradient(-1, 0.2, "squared") == pytest.approx(-1.2)

    def test_logistic_matches_finite_differences(self):
        h = 1e-5
        for y in (-1.0, 1.0):
            for F in np.linspace(-10, 10, 25):
                fd = (loss_value(y, F + h, "logistic") - loss_value(y, F - h, "logistic")) / (2 * h)
                g = gradient(y, F, "logistic")
                assert abs(g - (-fd)) / abs(g) < 1e-8


def same_bits(a, b) -> bool:
    """Equal float64 bit patterns elementwise, or NaN on both sides."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all((a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))))


# any double, with the edges drawn often: ±inf, NaN, ±0.0, subnormals, and the bands
# where exp(-z) overflows (|z| near 709.78) and where it underflows to 0 (|z| near 745.13)
LINK_INPUTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     -2.2250738585072009e-308, 709.78, -709.78, 709.79, -709.79, 1000.0, -1000.0]),
    *(st.floats(centre - 1.0, centre + 1.0) for centre in (709.78, -709.78, 745.13, -745.13)),
)


class TestExpit:
    """``boosting._expit`` against scipy's ``expit``, the oracle: the same bits, or
    both NaN, on arrays and on Python floats, with no exception or warning."""

    @staticmethod
    def strict(fn, *args):
        """``fn(*args)`` with every warning an error and every numpy floating-point error raised."""
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            return fn(*args)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(LINK_INPUTS, max_size=40))
    def test_array_matches_scipy(self, values):
        z = np.array(values, dtype=np.float64)
        got = self.strict(boosting._expit, z)
        assert got.dtype == np.float64
        assert same_bits(got, expit(z))
        assert same_bits(self.strict(boosting._expit, z[None, :]), expit(z[None, :]))  # shape kept

    @settings(max_examples=300, deadline=None)
    @given(x=LINK_INPUTS)
    def test_float_matches_scipy(self, x):
        got = self.strict(boosting._expit, x)
        assert type(got) is float
        assert same_bits(got, expit(x))

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-1e4, 1e4)), min_size=1, max_size=40))
    def test_logistic_gradient_is_y_times_expit(self, pairs):
        # beyond |F| = 709.78 exp(y*F) overflows, and the gradient must be 0.0 with y's sign
        y, score = (np.array(column) for column in zip(*pairs))
        assert same_bits(self.strict(gradient, y, score, "logistic"), y * expit(-y * score))


class TestInitScore:
    def test_balanced_logistic_zero(self):
        assert init_score(np.array([1, -1, 1, -1]), "logistic") == pytest.approx(0.0, abs=1e-15)

    def test_three_quarters_positive(self):
        labels = np.array([1, 1, 1, -1])
        assert init_score(labels, "logistic") == pytest.approx(math.log(3), abs=1e-12)

    def test_squared_is_mean(self):
        labels = np.array([1, 1, 1, -1, -1, -1, 1, -1, 1, 1])
        assert init_score(labels, "squared") == pytest.approx(np.mean(labels))

    def test_single_class_logistic_rejected(self):
        with pytest.raises(ValueError):
            init_score(np.array([1, 1, 1]), "logistic")


class TestPredict:
    def _stump(self, value):
        return RegressionTree(root=TreeNode(value=value), n_features=2)

    def test_no_trees_returns_base_score(self):
        model = Model(base_score=0.7, n_features=2, trees=[], config=BoostConfig())
        assert model.predict_score(np.array([1.0, 2.0])) == 0.7

    def test_zero_score_maps_to_half_and_positive_label(self):
        model = Model(base_score=0.0, n_features=2, trees=[], config=BoostConfig())
        assert model.predict_proba(np.array([0.0, 0.0])) == 0.5

    def test_stump_arithmetic(self):
        cfg = BoostConfig(learning_rate=0.1)
        model = Model(
            base_score=0.3, n_features=2, trees=[self._stump(1.0), self._stump(-0.5)], config=cfg
        )
        assert model.predict_score(np.array([9.9, 9.9])) == pytest.approx(0.35, abs=1e-12)

    def test_dimension_mismatch(self):
        model = Model(base_score=0.0, n_features=3, trees=[], config=BoostConfig())
        with pytest.raises(ValueError):
            model.predict_score(np.ones((4, 2)))

    def test_extreme_scores_clamped(self):
        """One row is clamped in Python floats and a batch by ``np.clip``;
        both agree at, beyond and inside ±SCORE_CLAMP, and both keep NaN,
        which ``min(max(score, lo), hi)`` does only with the score first."""
        for score in (500.0, 50.5, 50.0, 49.5, -50.0, -50.5, -500.0, np.inf, -np.inf, np.nan):
            model = Model(base_score=score, n_features=1, trees=[], config=BoostConfig(learning_rate=1.0))
            proba = model.predict_proba(np.zeros((2, 1)))
            alone = model.predict_proba(np.zeros(1))
            assert type(alone) is float
            np.testing.assert_array_equal(proba, [alone, alone])
            if math.isnan(score):
                assert math.isnan(alone)
            else:
                assert alone == expit(max(-50.0, min(score, 50.0))) and 0.0 < alone <= 1.0, score

    @pytest.mark.parametrize("loss", LOSSES)
    def test_single_row_equals_its_row_of_the_batch(self, loss):
        ds = random_dataset(60, 3, seed=11)
        model, _ = train(ds, BoostConfig(iterations=20, max_depth=3, loss=loss, trust="disabled"))
        X = np.vstack([ds.features, np.random.default_rng(12).normal(size=(20, 3))])
        X[-1, 0] = np.nan
        proba, score = model.predict_proba(X), model.predict_score(X)
        for i, x in enumerate(X):
            assert model.predict_proba(x) == proba[i]
            assert model.predict_score(x) == score[i]
        np.testing.assert_array_equal(model.predict_proba(np.asfortranarray(X)), proba)
        np.testing.assert_array_equal(model.predict_proba(X[::3]), proba[::3])

    def test_single_row_at_split_edges_equals_the_batch(self, tmp_path):
        ds = random_dataset(80, 3, seed=21)
        model, _ = train(ds, BoostConfig(iterations=15, max_depth=3, loss="logistic", trust="disabled"))
        save_model(model, tmp_path / "model.txt")
        loaded = load_model(tmp_path / "model.txt")
        splits = set()
        for tree in model.trees:
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if node.left is not None:
                    splits.add((node.feature, node.threshold))
                    stack += (node.left, node.right)
        rows = []
        for feature, threshold in sorted(splits):
            for value in (threshold, np.nextafter(threshold, np.inf)):
                rows.append(ds.features[0].copy())
                rows[-1][feature] = value
        for value in (np.inf, -np.inf, -0.0, np.nan):
            rows.append(np.full(3, value))
            for feature in range(3):
                rows.append(ds.features[1].copy())
                rows[-1][feature] = value
        X = np.array(rows)

        def bits(values):
            return np.asarray(values, dtype=np.float64).view(np.int64)

        for m in (model, loaded):
            for predict in (m.predict_score, m.predict_proba):
                singles = [predict(x) for x in X]
                assert all(type(v) is float for v in singles)
                np.testing.assert_array_equal(bits(singles), bits(predict(X)))
        np.testing.assert_array_equal(bits(loaded.predict_score(X)), bits(model.predict_score(X)))

    def test_single_row_equals_batch_without_trees(self):
        model = Model(base_score=0.7, n_features=2, trees=[], config=BoostConfig())
        X = np.array([[1.0, 2.0], [np.nan, 0.0]])
        proba = model.predict_proba(X)
        assert [model.predict_proba(x) for x in X] == proba.tolist()
        assert type(model.predict_score(X[0])) is float

    @pytest.mark.parametrize("shape", [(), (2, 3, 3), (1, 1, 3)])
    def test_input_not_1d_or_2d_rejected(self, shape):
        stump = RegressionTree(root=TreeNode(value=1.0), n_features=3)
        model = Model(base_score=0.0, n_features=3, trees=[stump], config=BoostConfig())
        for predict in (model.predict_score, model.predict_proba):
            with pytest.raises(ValueError, match=r"1-D or 2-D.*shape"):
                predict(np.ones(shape))


class TestTrain:
    def test_single_iteration_single_tree(self):
        ds = random_dataset(30, 2, seed=1)
        model, trace = train(ds, BoostConfig(iterations=1, loss="squared"))
        assert len(model.trees) == 1
        assert trace.n_iterations == 1
        # length-1 histories all parse to one phrase
        assert np.all(trace.trust[0].raw_complexity == 1)
        assert np.all(trace.trust[0].normalized == 0.0)

    def test_enabled_equals_magnitude_only_at_m1(self):
        ds = random_dataset(40, 3, seed=2)
        m_enabled, _ = train(ds, BoostConfig(iterations=1, loss="squared", trust="enabled"))
        m_mag, _ = train(ds, BoostConfig(iterations=1, loss="squared", trust="magnitude-only"))
        assert m_enabled.trees[0].to_tokens() == m_mag.trees[0].to_tokens()

    def test_degenerate_histories_make_enabled_equal_magnitude_only(self):
        # logistic residuals never change sign, so every history is constant
        # and min-max normalisation collapses: tau is 1 for everyone.
        ds = random_dataset(50, 3, seed=3)
        m_enabled, tr = train(ds, BoostConfig(iterations=8, loss="logistic", trust="enabled"))
        m_mag, _ = train(ds, BoostConfig(iterations=8, loss="logistic", trust="magnitude-only"))
        for a, b in zip(m_enabled.trees, m_mag.trees):
            assert a.to_tokens() == b.to_tokens()
        for state in tr.trust:
            assert state.raw_complexity.max() == state.raw_complexity.min()

    def test_default_binary_sign_under_logistic_loss_has_no_trust_term(self):
        # The package defaults (logistic loss, binary-sign, trust enabled):
        # g = y * sigmoid(-y*F), so sign(g) = sign(y) in every round and each
        # history repeats its first symbol.  Raw complexity is 1 then 2 for
        # everyone, tau is identically 1, and the fit is magnitude-only's.
        cfg = BoostConfig(iterations=30)
        assert (cfg.loss, cfg.encoding, cfg.trust) == ("logistic", "binary-sign", "enabled")
        ds = random_dataset(60, 3, seed=15)
        m_enabled, tr = train(ds, cfg)
        m_mag, _ = train(ds, BoostConfig(iterations=30, trust="magnitude-only"))
        for m, (g, state) in enumerate(zip(round_gradients(m_enabled, ds), tr.trust), start=1):
            assert np.array_equal(np.sign(g), ds.labels)
            assert np.all(state.raw_complexity == min(m, 2))
            assert np.all(state.tau == 1.0)
            assert np.array_equal(state.weights, np.abs(g))
        assert [t.to_tokens() for t in m_enabled.trees] == [t.to_tokens() for t in m_mag.trees]

    def test_disabled_matches_independent_reference_byte_for_byte(self):
        for seed in (0, 1):
            ds = random_dataset(60, 3, seed=seed)
            cfg = BoostConfig(iterations=8, learning_rate=0.1, max_depth=3, loss="logistic", trust="disabled", seed=seed)
            model, _ = train(ds, cfg)
            ref = ReferenceGBDT(8, 0.1, 3, 1, "logistic").fit(ds.features, ds.labels)
            assert model.base_score == ref.base_score
            ref_trees = ref.to_regression_trees()
            assert len(model.trees) == len(ref_trees)
            for mine, theirs in zip(model.trees, ref_trees):
                assert mine.to_tokens() == theirs.to_tokens()

    def test_monotone_training_loss_disabled_squared(self):
        for seed in (4, 5):
            ds = random_dataset(45, 2, seed=seed)
            _, trace = train(ds, BoostConfig(iterations=25, loss="squared", trust="disabled", seed=seed))
            losses = np.array(trace.train_loss)
            assert np.all(losses[1:] <= losses[:-1] + 1e-12)

    def test_each_tree_fit_does_not_increase_its_own_weighted_sse(self):
        # with the weights used at round m, the post-update residuals cannot
        # have larger weighted SSE than the pre-update residuals (the zero
        # tree is always available)
        ds = random_dataset(45, 2, seed=6)
        model, trace = train(ds, BoostConfig(iterations=20, loss="squared", trust="enabled", seed=6))
        gradients = round_gradients(model, ds)
        for m in range(len(gradients) - 1):
            w = trace.trust[m].weights
            before = float(np.sum(w * gradients[m] ** 2))
            after = float(np.sum(w * gradients[m + 1] ** 2))
            assert after <= before + 1e-12 * max(1.0, before)

    def test_determinism_bytes(self, tmp_path):
        ds = random_dataset(50, 3, seed=7)
        cfg = BoostConfig(iterations=10, loss="squared", trust="enabled", seed=7)
        paths = []
        for run in range(2):
            model, trace = train(ds, cfg)
            mp = tmp_path / f"model{run}.txt"
            tp = tmp_path / f"trace{run}.csv"
            save_model(model, mp)
            trace.to_csv(tp)
            paths.append((mp.read_bytes(), tp.read_bytes()))
        assert paths[0][0] == paths[1][0]
        assert paths[0][1] == paths[1][1]

    def test_quantized_and_delta_encodings_run(self):
        ds = random_dataset(30, 2, seed=9)
        for encoding in ("binary-delta", "quantized"):
            model, trace = train(ds, BoostConfig(iterations=5, loss="squared", encoding=encoding))
            assert len(model.trees) == 5
            assert trace.trust[-1].raw_complexity.max() >= 1

    def test_trace_times_every_round(self):
        ds = random_dataset(30, 2, seed=16)
        _, trace = train(ds, BoostConfig(iterations=7, loss="squared", trust="enabled"))
        assert len(trace.fit_seconds) == len(trace.trust_seconds) == 7
        assert all(t >= 0.0 for t in trace.fit_seconds)

    def test_disabled_skips_history_bookkeeping(self):
        ds = random_dataset(30, 2, seed=10)
        _, trace = train(ds, BoostConfig(iterations=4, loss="squared", trust="disabled"))
        for state in trace.trust:
            assert np.all(state.weights == 1.0)
            assert np.all(state.raw_complexity == 0)
        assert trace.distinct_histories == [0, 0, 0, 0]

    def test_encoding_irrelevant_when_disabled(self):
        ds = random_dataset(30, 2, seed=14)
        models = []
        for encoding in ("binary-sign", "binary-delta", "quantized"):
            cfg = BoostConfig(iterations=6, loss="squared", encoding=encoding, trust="disabled")
            model, _ = train(ds, cfg)
            models.append([t.to_tokens() for t in model.trees])
        assert models[0] == models[1] == models[2]

    # sha256 of the classic-GBDT models below, as saved before exact fits were
    # handled; the header records the encoding, so each has its own digest
    EXACT_FIT_DISABLED_SHA256 = {
        "binary-sign": "adb7be57acf235f955fa267b5cd535b5f9da152119066a8b3e2573b516f6faa9",
        "binary-delta": "1e864127ab6657b36c8b6ff97d1ff49fabb2d0c9f72e0b07ec5f946848456dcd",
        "quantized": "bb85755f74b4d8b1e489bed96932971d69c17dcfe784cc2c418d84216e41d5a2",
    }

    @pytest.mark.parametrize("encoding", ["binary-sign", "binary-delta", "quantized"])
    @pytest.mark.parametrize("trust", ["enabled", "disabled", "magnitude-only"])
    def test_exact_fit_trains_every_round(self, tmp_path, trust, encoding):
        # lr=1 and depth 8 fit these separated classes exactly in round 1, so
        # every residual is 0 from round 2 on
        ds = make_gaussian_dataset(n_rows=60, n_informative=2, separation=8.0, seed=0)
        cfg = BoostConfig(iterations=5, learning_rate=1.0, max_depth=8, loss="squared",
                          encoding=encoding, trust=trust)
        model, trace = train(ds, cfg)
        assert len(model.trees) == trace.n_iterations == 5
        for tree, g, state in list(zip(model.trees, round_gradients(model, ds), trace.trust))[1:]:
            assert not np.any(g)
            assert tree.to_tokens() == ["L", "0.0"]
            assert np.all(state.normalized == 0.0) and np.all(state.tau == 1.0)
            assert np.all(state.weights == 1.0)
        if trust == "disabled":
            path = tmp_path / "model.txt"
            save_model(model, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == self.EXACT_FIT_DISABLED_SHA256[encoding]

    def test_layers_are_called_through_module_globals(self, monkeypatch):
        # the traced benchmark attributes time to layers by wrapping these
        # names on the boosting module; train must keep calling them there
        calls = {}
        for name in ("encode_gradients", "lz76_complexity", "normalize_complexities",
                     "trust_weights", "fit_tree_weighted", "presort"):
            def counted(*args, _inner=getattr(boosting, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(boosting, name, counted)
        ds = random_dataset(20, 2, seed=18)
        model, trace = train(ds, BoostConfig(iterations=4, loss="squared", trust="enabled"))
        distinct = sum(len(set(h)) for h in replayed_histories(model, ds))
        assert calls == {"encode_gradients": 4, "lz76_complexity": distinct, "normalize_complexities": 4,
                         "trust_weights": 4, "fit_tree_weighted": 4, "presort": 1}
        assert sum(trace.distinct_histories) == distinct

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("encoding", ["binary-sign", "binary-delta", "quantized"])
    def test_fit_scores_the_training_rows_without_predict(self, tmp_path, monkeypatch, encoding, loss):
        # the second case fits most rows exactly, so later rounds have
        # zero-weight rows, which the fit routes itself
        cases = [(random_dataset(40, 3, seed=21), BoostConfig(iterations=10, max_depth=4)),
                 (_MOSTLY_EXACT, BoostConfig(iterations=6, learning_rate=1.0, max_depth=8))]
        for ds, base in cases:
            cfg = BoostConfig(**(asdict(base) | {"loss": loss, "encoding": encoding}))
            calls = []

            def predict(tree, X, _inner=RegressionTree.predict):
                calls.append(len(X))
                return _inner(tree, X)

            monkeypatch.setattr(RegressionTree, "predict", predict)
            model, trace = train(ds, cfg)
            monkeypatch.undo()
            assert calls == []
            ref_model, _, ref_losses = oracle_train(ds, cfg)
            assert trace.train_loss == ref_losses
            save_model(model, tmp_path / "model.txt")
            save_model(ref_model, tmp_path / "ref.txt")
            assert (tmp_path / "model.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_chain_tree_deeper_than_the_recursion_limit(self, tmp_path):
        # one sorted feature with alternating labels: every split peels off a
        # single end row, so the tree is a chain of depth n - 1
        n = 1200
        ds = Dataset(features=np.arange(float(n))[:, None], labels=np.tile([1, -1], n // 2),
                     row_ids=np.arange(n))
        cfg = BoostConfig(iterations=1, max_depth=100000, loss="squared", trust="disabled")
        model, _ = train(ds, cfg)
        assert tree_depth(model.trees[0]) == n - 1
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert [t.to_tokens() for t in back.trees] == [t.to_tokens() for t in model.trees]
        batch = back.predict_score(ds.features)
        np.testing.assert_array_equal(batch, model.predict_score(ds.features))
        assert [back.predict_score(x) for x in ds.features] == batch.tolist()

    # sha256 of (save_model, RunTrace.to_csv) bytes for the duplicated-row runs
    # below, as saved when every row's history was parsed on its own
    DUPLICATED_ROWS_SHA256 = {
        ("binary-sign", "squared"): ("7702c9e516638b47623578d41778de82900cee07f37d01d47643a74046c112cb",
                                     "2f14f95980ace389747a51b8276ea8ac608b9496a7b78f35f26f218eee57a718"),
        ("binary-sign", "logistic"): ("d541b3eb8b16c29fa7a3f9be67419d7b357f1df1fa932be1c13e8163fb63ee67",
                                      "0ec6acc00bc4b7dd1e051055a42109de042a4a4d25c6080bed6d6880c29bae53"),
        ("binary-delta", "squared"): ("39cbeb9f237c5b90da3ac81d049309ced74af616bc3bcfd49d7fbf36e1f89d90",
                                      "eca7b35c13c735850c9c7cb39237fd62146b6d5a03ad7ed3fca892a98e7f7b53"),
        ("binary-delta", "logistic"): ("113d5cb7da54de9b5c9114562c87d3211a53b967dead8250a6601c5f53f6f702",
                                       "cc99fa49a380191f784ada750321483511842de5b03c414edaefed76463e4af3"),
        ("quantized", "squared"): ("03d1d1ed8fe01f4715df10d61d5cb8d9d1936b9866e80b53996fcec4b3845fce",
                                   "64f09a37d509d2e0e385e068eb9d9addf89aba5fc66a01a8359804605b1ba698"),
        ("quantized", "logistic"): ("55d465d65f7d7d4f1cac1b6f327099d102df5cd1ebed51e3d82d43baac5de88b",
                                    "3cfdf1cb86687272eea78eddf5e9aef7e779fb3316c75b379e84b9ad5f61fb7c"),
    }

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("encoding", ["binary-sign", "binary-delta", "quantized"])
    def test_shared_histories_are_parsed_once_per_round(self, tmp_path, monkeypatch, encoding, loss):
        # every row appears twice, so no round has more than n/2 distinct histories
        base = random_dataset(15, 2, seed=19)
        ds = Dataset(features=np.vstack([base.features, base.features]),
                     labels=np.concatenate([base.labels, base.labels]), row_ids=np.arange(30))
        per_round = []  # lz76_complexity calls after each encode_gradients call

        def encode(*args, _inner=boosting.encode_gradients, **kwargs):
            per_round.append(0)
            return _inner(*args, **kwargs)

        def parse(history, _inner=boosting.lz76_complexity):
            per_round[-1] += 1
            return _inner(history)

        monkeypatch.setattr(boosting, "encode_gradients", encode)
        monkeypatch.setattr(boosting, "lz76_complexity", parse)
        model, trace = train(ds, BoostConfig(iterations=8, loss=loss, encoding=encoding, trust="enabled"))
        assert len(per_round) == 8 and max(per_round) <= ds.n_rows // 2
        assert trace.distinct_histories == per_round
        for histories, state in zip(replayed_histories(model, ds), trace.trust):
            assert state.raw_complexity.tolist() == [lz76_complexity(h) for h in histories]
        model_path, trace_path = tmp_path / "model.txt", tmp_path / "trace.csv"
        save_model(model, model_path)
        trace.to_csv(trace_path)
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (model_path, trace_path))
        assert digests == self.DUPLICATED_ROWS_SHA256[(encoding, loss)]


@st.composite
def datasets(draw):
    # rows are drawn from a small pool, so repeated rows (with either label) are common
    d = draw(st.integers(1, 3))
    value = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e3, 1e3, allow_nan=False))
    pool = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
    X = np.array([pool[i] for i in picks])
    n = len(picks)
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return Dataset(features=X, labels=np.array(labels), row_ids=np.arange(n))


configs = st.builds(
    BoostConfig,
    iterations=st.integers(1, 6),
    learning_rate=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    max_depth=st.integers(1, 8),
    min_samples_leaf=st.integers(1, 3),
    loss=st.sampled_from(LOSSES),
    encoding=st.sampled_from(ENCODINGS),
    trust=st.sampled_from(TRUST_MODES),
)

# squared loss, lr=1 and deep trees fit the five distinct points exactly; the
# two extra copies of row 0 carry the opposite label, so from round 2 on most
# residuals are 0 and a few are not (median |g| is 0)
_MOSTLY_EXACT = Dataset(features=np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [0.0], [0.0]]),
                        labels=np.array([1, -1, 1, -1, 1, -1, -1]), row_ids=np.arange(7))


class TestTrainNeverRaises:
    @given(dataset=datasets(), config=configs)
    @example(dataset=_MOSTLY_EXACT,
             config=BoostConfig(iterations=4, learning_rate=1.0, max_depth=8, loss="squared", encoding="quantized"))
    @settings(max_examples=150, deadline=None)
    def test_train_runs_every_round(self, dataset, config):
        if config.loss == "logistic" and np.unique(dataset.labels).size < 2:
            # rejected before any round: the initial log-odds are infinite
            with pytest.raises(ValueError, match="both classes"):
                train(dataset, config)
            return
        model, trace = train(dataset, config)
        assert len(model.trees) == trace.n_iterations == config.iterations
        assert all(np.all(np.isfinite(state.weights)) for state in trace.trust)


class TestTrainMatchesOracle:
    @given(dataset=datasets(), config=configs)
    @example(dataset=_MOSTLY_EXACT,
             config=BoostConfig(iterations=4, learning_rate=1.0, max_depth=8, loss="squared", encoding="quantized"))
    @settings(max_examples=300, deadline=None)
    def test_model_weights_and_losses_match_the_oracle(self, tmp_path_factory, dataset, config):
        if config.loss == "logistic" and np.unique(dataset.labels).size < 2:
            return  # rejected before any round, see TestTrainNeverRaises
        model, trace = train(dataset, config)
        oracle_model, oracle_weights, oracle_losses = oracle_train(dataset, config)
        directory = tmp_path_factory.mktemp("oracle")
        save_model(model, directory / "model.txt")
        save_model(oracle_model, directory / "oracle.txt")
        assert (directory / "model.txt").read_bytes() == (directory / "oracle.txt").read_bytes()
        assert [state.weights.tolist() for state in trace.trust] == [w.tolist() for w in oracle_weights]
        assert trace.train_loss == oracle_losses


def replayed_histories(model, dataset):
    """Each round's row histories, rebuilt by re-encoding the model's :func:`round_gradients`."""
    gradients = round_gradients(model, dataset)
    histories = [""] * dataset.n_rows
    rounds = []
    for m, g in enumerate(gradients):
        if np.any(g):
            g_prev = gradients[m - 1] if m else None
            symbols = encode_gradients(g, model.config.encoding, g_prev=g_prev)
            histories = [h + s for h, s in zip(histories, symbols)]
        rounds.append(histories)
    return rounds


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        ds = random_dataset(40, 3, seed=11)
        cfg = BoostConfig(iterations=6, loss="logistic", trust="enabled", seed=11)
        model, _ = train(ds, cfg)
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert back.base_score == model.base_score
        assert back.config == model.config
        np.testing.assert_array_equal(back.predict_score(ds.features), model.predict_score(ds.features))
        path2 = tmp_path / "model2.txt"
        save_model(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_int_learning_rate_saved_in_float_form(self, tmp_path):
        ds = random_dataset(20, 2, seed=15)
        model, _ = train(ds, BoostConfig(iterations=2, learning_rate=1, loss="squared"))
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert " learning_rate=1.0 " in path.read_text().splitlines()[1]
        assert load_model(path).config == model.config

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(path)

    def test_default_config_header_is_golden(self, tmp_path):
        # pins the itboost-model v1 header: BoostConfig field order, then the model keys
        path = tmp_path / "model.txt"
        save_model(Model(base_score=0.25, n_features=2, trees=[], config=BoostConfig()), path)
        assert path.read_text().splitlines()[1] == (
            "iterations=100 learning_rate=0.1 max_depth=3 min_samples_leaf=1 loss=logistic "
            "encoding=binary-sign trust=enabled seed=42 base_score=0.25 n_features=2 n_trees=0"
        )

    def _saved(self, tmp_path):
        ds = random_dataset(20, 2, seed=15)
        model, _ = train(ds, BoostConfig(iterations=3, loss="squared", trust="enabled"))
        path = tmp_path / "model.txt"
        save_model(model, path)
        return path, path.read_text().splitlines()

    def test_missing_header_key_rejected(self, tmp_path):
        path, lines = self._saved(tmp_path)
        lines[1] = " ".join(item for item in lines[1].split() if not item.startswith("n_trees="))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="n_trees"):
            load_model(path)

    def test_header_token_without_equals_rejected(self, tmp_path):
        path, lines = self._saved(tmp_path)
        lines[1] += " stray"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2: header key 12 is 'stray', expected None"):
            load_model(path)

    def test_header_key_given_twice_rejected(self, tmp_path):
        path, lines = self._saved(tmp_path)
        lines[1] += " n_trees=0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2: header key 12 is 'n_trees', expected None"):
            load_model(path)

    def test_tree_lines_beyond_n_trees_rejected(self, tmp_path):
        path, lines = self._saved(tmp_path)
        path.write_text("\n".join(lines + [lines[-1].replace("tree 2:", "tree 3:")]) + "\n")
        with pytest.raises(ValueError, match="expected 3 trees"):
            load_model(path)

    def test_tree_lines_out_of_order_rejected(self, tmp_path):
        path, lines = self._saved(tmp_path)
        lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="tree 0"):
            load_model(path)

    def test_dropped_config_key_rejected_not_defaulted(self, tmp_path):
        ds = random_dataset(20, 2, seed=15)
        model, _ = train(ds, BoostConfig(iterations=3, learning_rate=0.3, loss="squared"))
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[1] = " ".join(item for item in lines[1].split() if not item.startswith("learning_rate="))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"{re.escape(str(path))} line 2: header key 2 is 'max_depth', "
                                            "expected 'learning_rate'"):
            load_model(path)

    @pytest.mark.parametrize("index, pattern, repl, message", [
        (1, r"base_score=\S+", "base_score=inf", "line 2: base_score must be finite"),
        (1, r"learning_rate=\S+", "learning_rate=nan", "line 2: BoostConfig: learning_rate must be in"),
        (1, r"n_trees=\S+", "n_trees=three", "line 2: invalid literal for int"),
        (2, r"L \S+", "L nan", "line 3: RegressionTree.from_tokens: 'nan' is not a finite number"),
        (3, r"I (\d+) \S+", r"I \1 -inf", "line 4: RegressionTree.from_tokens: '-inf' is not a finite number"),
        (4, r"I \d+", "I 5", "line 5: RegressionTree.from_tokens: feature 5 outside"),
        # int() and float() accept these, but the model would re-save to other bytes
        (1, r"n_features=\S+", "n_features=0_2", "line 2: n_features=0_2 is not in save_model's form n_features=2"),
        (1, r"seed=\S+", "seed=0100", "line 2: seed=0100 is not in save_model's form seed=100"),
        (1, r"learning_rate=\S+", "learning_rate=0.1_0", "line 2: learning_rate=0.1_0 is not in save_model's form"),
        (1, r"base_score=\S+", "base_score=+0.5", "line 2: base_score=+0.5 is not in save_model's form"),
        (1, r"seed=\S+", "seed=-1", "line 2: BoostConfig: seed must be >= 0"),
        (1, r"n_features=\S+", "n_features=0", "line 2: n_features must be at least 1, got 0"),
        (1, r"n_features=\S+", "n_features=-3", "line 2: n_features must be at least 1, got -3"),
    ], ids=["inf-base-score", "nan-learning-rate", "word-tree-count", "nan-leaf", "inf-threshold", "feature-5",
            "int-digit-groups", "int-leading-zero", "float-digit-groups", "float-plus-sign", "negative-seed",
            "zero-features", "negative-features"])
    def test_bad_value_is_a_data_error_naming_the_line(self, tmp_path, index, pattern, repl, message):
        path, lines = self._saved(tmp_path)
        lines[index] = re.sub(pattern, repl, lines[index], count=1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"load_model: {re.escape(str(path))} {re.escape(message)}"):
            load_model(path)

    @pytest.fixture(scope="class")
    def mutation_base(self):
        ds = random_dataset(30, 3, seed=16)
        model, _ = train(ds, BoostConfig(iterations=4, learning_rate=0.3, loss="squared"))
        return model

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_as_itself_or_is_a_data_error(self, mutation_base, tmp_path_factory, data):
        # the file records every key and its tree count, so no mutation of one
        # line may load as a different model
        directory = tmp_path_factory.mktemp("mutated")
        original, path = directory / "original.txt", directory / "model.txt"
        save_model(mutation_base, original)
        lines = original.read_text().splitlines()
        mutation = data.draw(st.sampled_from(["delete", "duplicate", "replace", "drop-header-token"]))
        i = 1 if mutation == "drop-header-token" else data.draw(st.integers(0, len(lines) - 1))
        if mutation == "delete":
            del lines[i]
        elif mutation == "duplicate":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split(" ")
            j = data.draw(st.integers(0, len(tokens) - 1))
            if mutation == "drop-header-token":
                del tokens[j]
            else:  # junk holds no digit, so it never reads as a number
                tokens[j] = data.draw(st.sampled_from(["nan", "inf", ""]) | st.text("xyz#:=-", min_size=1))
            lines[i] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        try:
            model = load_model(path)
        except DataError as exc:
            assert str(path) in str(exc)
            return
        save_model(model, path)
        assert path.read_bytes() == original.read_bytes()

    @pytest.mark.parametrize("lo, hi", [(1.0000000000000002, 1.0000000000000004), (1e308, 1.7e308)],
                             ids=["midpoint-rounds-up", "midpoint-overflows"])
    def test_split_between_close_or_huge_values_separates_rows(self, tmp_path, lo, hi):
        # (lo + hi) / 2 is hi for the first pair and inf for the second
        ds = Dataset(np.array([[lo], [hi]]), np.array([-1, 1]), np.arange(2))
        model, _ = train(ds, BoostConfig(iterations=1, max_depth=1, trust="disabled"))
        tree = model.trees[0]
        assert lo <= tree.root.threshold < hi
        assert math.isfinite(tree.root.left.value) and math.isfinite(tree.root.right.value)
        assert tree.predict(ds.features).tolist() == [-0.5, 0.5]
        path = tmp_path / "model.txt"
        save_model(model, path)
        np.testing.assert_array_equal(load_model(path).predict_score(ds.features), model.predict_score(ds.features))

    def test_feature_index_outside_range_rejected(self):
        for feature in ("2", "-1"):
            with pytest.raises(ValueError, match="outside"):
                RegressionTree.from_tokens(["I", feature, "0.5", "L", "0.0", "L", "1.0"], n_features=2)
        with pytest.raises(ValueError):
            RegressionTree.from_tokens(["I", "0", "0.5", "L", "0.0"], n_features=2)


class TestTraceCsv:
    @staticmethod
    def _written(tmp_path):
        ds = random_dataset(6, 2, seed=17)
        _, trace = train(ds, BoostConfig(iterations=3, loss="squared", trust="enabled"))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header, *rows = path.read_text().splitlines()
        return path, header, rows

    def _rejects(self, path, header, rows, match):
        path.write_text("\n".join([header] + rows) + "\n")
        with pytest.raises(ValueError, match=match):
            load_trace_csv(path)

    def test_swapped_rows_rejected(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        rows[7], rows[8] = rows[8], rows[7]  # two rows of iteration 2
        self._rejects(path, header, rows, "iteration 2 does not list")

    def test_repeated_iteration_block_rejected(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        self._rejects(path, header, rows + rows[6:12], "iteration 2 after iteration 3")
        self._rejects(path, header, rows + rows, "iteration 1 after iteration 3")

    def test_missing_iteration_rejected(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        self._rejects(path, header, rows[:6] + rows[12:], "iteration 3 after iteration 1")

    def test_first_iteration_other_than_1_rejected(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        for first in ("0", "-1", "2"):
            rows[0] = ",".join([first] + rows[0].split(",")[1:])
            self._rejects(path, header, rows, f"line 2: iteration {first} after iteration 0")

    def test_repeated_row_id_rejected(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        first_id = rows[0].split(",")[1]
        for block in range(3):  # every block lists the same ids, one of them twice
            fields = rows[6 * block + 1].split(",")
            fields[1] = first_id
            rows[6 * block + 1] = ",".join(fields)
        self._rejects(path, header, rows, "row id twice")

    def test_iteration_split_across_blocks_rejected(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        self._rejects(path, header, rows[:6] + rows[6:9] + rows[6:9] + rows[12:], "iteration 2 does not list")

    def test_short_record_rejected(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        rows[2] = rows[2].rsplit(",", 1)[0]  # 5 cells
        self._rejects(path, header, rows, f"{re.escape(str(path))} line 4: expected 6 cells, got 5")

    @pytest.mark.parametrize("column", [0, 1, 2])  # iteration, row_id, raw_C
    def test_non_integer_cell_rejected(self, tmp_path, column):
        path, header, rows = self._written(tmp_path)
        cells = rows[8].split(",")
        cells[column] = "1.5"
        rows[8] = ",".join(cells)
        self._rejects(path, header, rows, f"{re.escape(str(path))} line 10: expected integer iteration")

    @pytest.mark.parametrize("text", ["99999999999999999999", "9223372036854775808", "-9223372036854775809"])
    @pytest.mark.parametrize("column, name", [(1, "row_id"), (2, "raw_C")])
    def test_integer_outside_int64_rejected(self, tmp_path, column, name, text):
        path, header, rows = self._written(tmp_path)
        for block in range(3):  # the same cell of every block, so a changed row id still agrees across blocks
            cells = rows[6 * block + 1].split(",")
            cells[column] = text
            rows[6 * block + 1] = ",".join(cells)
        path.write_text("\n".join([header] + rows) + "\n")
        message = f"^load_trace_csv: {re.escape(str(path))} column {name} holds an integer outside int64$"
        with pytest.raises(DataError, match=message):
            load_trace_csv(path)

    @pytest.mark.parametrize("column, text", [(3, "nan"), (4, "inf"), (5, "-inf")])  # normalized_C, tau, weight
    def test_non_finite_cell_rejected(self, tmp_path, column, text):
        path, header, rows = self._written(tmp_path)
        cells = rows[8].split(",")
        cells[column] = text
        rows[8] = ",".join(cells)
        path.write_text("\n".join([header, ""] + rows) + "\n")  # the blank line shifts the record to line 11
        with pytest.raises(DataError, match=f"{re.escape(str(path))} line 11: normalized_C, tau and weight must be finite"):
            load_trace_csv(path)

    @pytest.mark.parametrize("text", ["1.5", "1.0000000000000002", "-0.5", "1e10", "-800.0"])
    def test_normalized_complexity_outside_unit_interval_rejected(self, tmp_path, text):
        path, header, rows = self._written(tmp_path)
        cells = rows[8].split(",")
        cells[3] = text
        rows[8] = ",".join(cells)
        self._rejects(path, header, rows, f"^load_trace_csv: {re.escape(str(path))} line 10: normalized_C must be in "
                                          r"\[0, 1\], got ")

    @staticmethod
    def _set_cell(rows, indices, column, text):
        for i in indices:
            cells = rows[i].split(",")
            cells[column] = text
            rows[i] = ",".join(cells)

    # Two faults per file: the reader reports the first in its order (a bad line, then a
    # duplicate row id in iteration 1, then per iteration a row-id mismatch and then raw_C
    # outside int64, and row_id outside int64 last), whatever else the file holds.
    def test_bad_line_wins_over_a_duplicate_row_id(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        self._set_cell(rows, [1], 1, rows[0].split(",")[1])  # iteration 1 lists its first row id twice
        self._set_cell(rows, [14], 4, "inf")  # a non-finite tau in the last iteration
        self._rejects(path, header, rows, f"^load_trace_csv: {re.escape(str(path))} line 16: normalized_C, tau and "
                                          "weight must be finite")

    def test_duplicate_row_id_wins_over_raw_c_outside_int64(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        self._set_cell(rows, [1, 7, 13], 1, rows[0].split(",")[1])  # every block lists the same ids, one twice
        self._set_cell(rows, [2], 2, "99999999999999999999")
        self._rejects(path, header, rows, f"^load_trace_csv: {re.escape(str(path))} lists a row id twice in "
                                          "iteration 1$")

    @pytest.mark.parametrize("swapped, overflowing, message", [
        (2, 3, "iteration 2 does not list iteration 1's row ids in order"),
        (3, 2, "column raw_C holds an integer outside int64"),
    ])
    def test_earlier_iteration_fault_wins(self, tmp_path, swapped, overflowing, message):
        path, header, rows = self._written(tmp_path)
        first = 6 * (swapped - 1)
        rows[first + 1], rows[first + 2] = rows[first + 2], rows[first + 1]
        self._set_cell(rows, [6 * (overflowing - 1) + 3], 2, "99999999999999999999")
        self._rejects(path, header, rows, f"^load_trace_csv: {re.escape(str(path))} {message}$")

    def test_row_id_mismatch_wins_over_row_id_outside_int64(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        self._set_cell(rows, [1, 7, 13], 1, "9223372036854775808")  # the same row id in every block
        rows[13], rows[14] = rows[14], rows[13]
        self._rejects(path, header, rows, f"^load_trace_csv: {re.escape(str(path))} iteration 3 does not list "
                                          "iteration 1's row ids in order$")

    def test_reader_peak_memory_is_near_the_arrays_it_returns(self, tmp_path):
        ds = make_gaussian_dataset(n_rows=400, n_informative=10, separation=5.5, seed=0)
        _, trace = train(ds, BoostConfig(iterations=100))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        tracemalloc.start()
        try:
            row_ids, states = load_trace_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = row_ids.nbytes + sum(a.nbytes for s in states.values()
                                      for a in (s.raw_complexity, s.normalized, s.tau, s.weights))
        assert arrays == 400 * 8 * (1 + 4 * 100)
        assert peak <= 2 * arrays, f"peak {peak} bytes against {arrays} bytes of arrays"

    def test_blank_lines_skipped(self, tmp_path):
        path, header, rows = self._written(tmp_path)
        clean_ids, clean_states = load_trace_csv(path)
        path.write_text("\n".join([header, ""] + rows[:6] + ["   "] + rows[6:]) + "\n\n")
        row_ids, states = load_trace_csv(path)
        np.testing.assert_array_equal(row_ids, clean_ids)
        assert sorted(states) == sorted(clean_states)
        for m, state in states.items():
            np.testing.assert_array_equal(state.weights, clean_states[m].weights)

    @pytest.fixture(scope="class")
    def small_trace(self, tmp_path_factory):
        ds = random_dataset(4, 2, seed=1)  # 4 rows x 4 iterations, normalized_C both 0 and 1
        _, trace = train(ds, BoostConfig(iterations=4, max_depth=1, loss="squared", encoding="binary-delta"))
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        trace.to_csv(path)
        return path.read_text().splitlines()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_its_own_records_or_is_a_data_error(self, small_trace, tmp_path_factory, data):
        lines = list(small_trace)
        for _ in range(data.draw(st.integers(1, 3))):
            mutation = data.draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "blank"]))
            i = data.draw(st.integers(0, len(lines) - 1))
            if mutation == "delete":
                del lines[i]
            elif mutation == "duplicate":
                lines.insert(i, lines[i])
            elif mutation == "swap":
                j = data.draw(st.integers(0, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
            elif mutation == "replace":
                cells = lines[i].split(",")
                j = data.draw(st.integers(0, len(cells) - 1))
                # junk holds no digit, so it never reads as a number
                cells[j] = data.draw(st.sampled_from(["nan", "inf", "", "1.5"]) | st.text("xyz#:-", min_size=1))
                lines[i] = ",".join(cells)
            else:
                lines.insert(i, data.draw(st.sampled_from(["", " ", "\t"])))
        path = tmp_path_factory.mktemp("mutated") / "trace.csv"
        path.write_text("\n".join(lines) + "\n")
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("itboost.data.open", counting_open, raising=False)
            try:
                row_ids, states = load_trace_csv(path)
            except DataError as exc:
                assert str(path) in str(exc)
                states = None
        assert opened == [path]
        if states is None:
            return
        # a file that loads is read as exactly its own records, in order
        loaded = []
        for m, state in sorted(states.items()):
            columns = (state.raw_complexity, state.normalized, state.tau, state.weights)
            loaded += [(m, *record) for record in zip(row_ids.tolist(), *(c.tolist() for c in columns))]
        records = [line.split(",") for line in lines[1:] if line.strip()]
        assert loaded == [(int(c[0]), int(c[1]), int(c[2]), float(c[3]), float(c[4]), float(c[5])) for c in records]

    def test_round_trip_values(self, tmp_path):
        ds = random_dataset(25, 2, seed=12)
        _, trace = train(ds, BoostConfig(iterations=5, loss="squared", trust="enabled"))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        row_ids, states = load_trace_csv(path)
        np.testing.assert_array_equal(row_ids, trace.row_ids)
        assert sorted(states) == [1, 2, 3, 4, 5]
        for m, state in states.items():
            np.testing.assert_array_equal(state.raw_complexity, trace.trust[m - 1].raw_complexity)
            np.testing.assert_allclose(state.weights, trace.trust[m - 1].weights, rtol=0, atol=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoostConfig(iterations=0)
        with pytest.raises(ValueError):
            BoostConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            BoostConfig(learning_rate=1.5)
        with pytest.raises(ValueError):
            BoostConfig(loss="absolute")
        with pytest.raises(ValueError):
            BoostConfig(trust="sometimes")

    def test_defaults(self):
        cfg = BoostConfig()
        assert cfg.iterations == 100
        assert cfg.learning_rate == 0.1
        assert cfg.max_depth == 3
        assert cfg.min_samples_leaf == 1
        assert cfg.seed == 42

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# experiment\niterations = 7\nloss = squared\n\nlearning_rate = 0.2\n")
        mapping = parse_config_file(path)
        cfg = BoostConfig.from_mapping(mapping)
        assert cfg.iterations == 7
        assert cfg.loss == "squared"
        assert cfg.learning_rate == 0.2

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            BoostConfig.from_mapping({"depth": "3"})

    def test_config_file_key_given_twice_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("iterations = 7\nloss = squared\niterations = 9\n")
        with pytest.raises(ValueError, match="line 3: key 'iterations' given twice"):
            parse_config_file(path)

    def test_string_mapping_round_trip(self):
        cfg = BoostConfig(iterations=7, learning_rate=0.25, max_depth=5, min_samples_leaf=2,
                          loss="squared", encoding="quantized", trust="magnitude-only", seed=9)
        assert BoostConfig.from_mapping({k: str(v) for k, v in asdict(cfg).items()}) == cfg
