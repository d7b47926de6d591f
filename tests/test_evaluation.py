import concurrent.futures
import csv
import math
import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itboost import boosting, cli, evaluation
from itboost.boosting import ENCODINGS, LOSSES, TRUST_MODES, BoostConfig, train
from itboost.data import DataError, FoldPlan, save_csv, stratified_kfold
from itboost.evaluation import (
    METRIC_NAMES,
    MetricReport,
    accuracy,
    auc,
    compute_metrics,
    cross_validate,
    f1,
    initial_margins,
    log_loss,
    split_fold,
    trajectory_summary,
    write_sweep_csv,
    write_trajectory_csv,
)
from itboost.noise import NoiseSpec, inject
from itboost.synth import make_gaussian_dataset
from reference import friedman_from_mean_ranks, pairwise_auc, rank_auc, round_gradients


class TestMetrics:
    def test_perfect_ranking_auc(self):
        y = np.array([1, 1, -1, -1])
        q = np.array([0.9, 0.8, 0.2, 0.1])
        assert auc(y, q) == 1.0

    def test_uninformative_predictor(self):
        y = np.array([1, -1, 1, -1])
        q = np.full(4, 0.5)
        assert auc(y, q) == 0.5
        assert log_loss(y, q) == pytest.approx(math.log(2), abs=1e-12)

    def test_four_sample_worked_example(self):
        y = np.array([1, 1, -1, -1])
        q = np.array([0.9, 0.4, 0.6, 0.1])
        assert auc(y, q) == pytest.approx(0.75, abs=1e-12)
        assert accuracy(y, q) == pytest.approx(0.5, abs=1e-12)
        assert f1(y, q) == pytest.approx(0.5, abs=1e-12)

    def test_accuracy_half_ties_to_positive(self):
        assert accuracy(np.array([1, -1]), np.array([0.5, 0.5])) == 0.5

    def test_f1_zero_when_no_positive_activity(self):
        y = np.array([1, -1, 1, -1])
        q = np.array([0.1, 0.2, 0.3, 0.4])  # nothing predicted positive
        assert f1(y, q) == 0.0

    def test_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(4, 200))
            y = np.where(rng.random(n) < 0.5, 1, -1)
            y[0], y[1] = 1, -1
            q = np.round(rng.random(n), 2)  # rounding forces ties
            assert auc(y, q) == pairwise_auc(y, q)  # both count halves exactly

    @settings(max_examples=300, deadline=None)
    @given(
        levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        cells=st.lists(st.tuples(st.booleans(), st.integers(0, 5)), min_size=2, max_size=400),
        nan_at=st.none() | st.integers(0, 399),
    )
    def test_auc_is_rank_auc_bit_for_bit(self, levels, cells, nan_at):
        # a handful of distinct values, 0.0 and -0.0 among them, so that ties are heavy
        levels = levels + [0.0, -0.0]
        y = np.array([1 if positive else -1 for positive, _ in cells])
        y[0], y[1] = 1, -1
        q = np.array([levels[i % len(levels)] for _, i in cells])
        if nan_at is not None:
            q[nan_at % q.size] = math.nan
        got, want = auc(y, q), rank_auc(y, q)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_log_loss_minimised_by_base_rate(self):
        rng = np.random.default_rng(1)
        y = np.where(rng.random(300) < 0.3, 1, -1)
        base = np.mean(y == 1)
        losses = {c: log_loss(y, np.full(300, c)) for c in np.linspace(0.05, 0.95, 19)}
        best = min(losses, key=losses.get)
        assert abs(best - base) <= 0.05
        assert log_loss(y, np.full(300, base)) <= min(losses.values()) + 1e-12

    def test_log_loss_clipping_keeps_finite(self):
        y = np.array([1, -1])
        assert np.isfinite(log_loss(y, np.array([0.0, 1.0])))

    def test_single_class_rejected_for_auc_and_f1(self):
        with pytest.raises(ValueError):
            auc(np.array([1, 1]), np.array([0.2, 0.4]))
        with pytest.raises(ValueError):
            f1(np.array([-1, -1]), np.array([0.2, 0.4]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1, -1]), np.array([0.5]))


class TestCrossValidate:
    def _task(self, n=150, seed=0):
        ds = make_gaussian_dataset(n, 4, separation=4.0, seed=seed)
        folds = stratified_kfold(ds, 5, seed)
        return ds, folds

    def test_structure(self):
        ds, folds = self._task()
        cfg = BoostConfig(iterations=10, loss="squared", trust="disabled", seed=0)
        report = cross_validate(ds, cfg, folds)
        for name in ("acc", "f1", "auc", "log_loss"):
            assert len(report.per_fold[name]) == 5

    def test_deterministic(self):
        ds, folds = self._task()
        cfg = BoostConfig(iterations=8, loss="squared", trust="enabled", seed=0)
        a = cross_validate(ds, cfg, folds)
        b = cross_validate(ds, cfg, folds)
        for name in ("acc", "f1", "auc", "log_loss"):
            np.testing.assert_array_equal(a.per_fold[name], b.per_fold[name])

    def test_threads_do_not_change_results(self):
        ds, folds = self._task()
        cfg = BoostConfig(iterations=8, loss="squared", trust="enabled", seed=0)
        spec = NoiseSpec(kind="symmetric", rate=0.2, seed=3)
        serial = cross_validate(ds, cfg, folds, noise=spec, threads=1)
        for threads in (2, 4):
            pooled = cross_validate(ds, cfg, folds, noise=spec, threads=threads)
            for name in ("acc", "f1", "auc", "log_loss"):
                np.testing.assert_array_equal(pooled.per_fold[name], serial.per_fold[name])
            assert pooled.fold_train_seconds.shape == (5,)
            assert np.all(pooled.fold_train_seconds > 0)
            assert pooled.trust_seconds > 0

    def test_folds_train_in_order_on_the_calling_thread(self, monkeypatch):
        ds, folds = self._task()
        cfg = BoostConfig(iterations=4, loss="squared", trust="enabled", seed=0)
        calls = []
        real_train = evaluation.train

        def recording_train(dataset, config):
            calls.append((threading.get_ident(), dataset.row_ids.tolist()))
            return real_train(dataset, config)

        monkeypatch.setattr(evaluation, "train", recording_train)
        cross_validate(ds, cfg, folds, threads=1)  # threads > 1 trains in worker processes
        expected = [(threading.get_ident(), ds.row_ids[folds.train_indices(f)].tolist()) for f in range(folds.k)]
        assert calls == expected

    def test_worker_error_reaches_the_caller(self):
        ds, _ = self._task()
        # fold 0 tests every positive row, so its training split holds one class
        folds = FoldPlan(k=3, assignments=np.where(ds.labels == 1, 0, np.arange(ds.n_rows) % 2 + 1))
        cfg = BoostConfig(iterations=3, loss="logistic", trust="disabled", seed=0)
        errors = []
        for threads in (1, 2):
            with pytest.raises(DataError) as info:
                cross_validate(ds, cfg, folds, threads=threads)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1] == (DataError, "init_score: logistic loss needs both classes present")

    def test_no_worker_outlives_the_call(self):
        ds, folds = self._task()
        cfg = BoostConfig(iterations=3, loss="squared", trust="disabled", seed=0)
        cross_validate(ds, cfg, folds, threads=2)
        assert multiprocessing.active_children() == []

    def test_workers_capped_at_fold_count(self, monkeypatch):
        ds, folds = self._task()
        cfg = BoostConfig(iterations=3, loss="squared", trust="disabled", seed=0)
        requested = []

        class RecordingPool:
            """Starts no process: records the worker count and maps in this one."""

            def __init__(self, max_workers, mp_context):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        report = cross_validate(ds, cfg, folds, threads=10**6)
        assert requested == [folds.k]
        assert len(report.per_fold["acc"]) == folds.k

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        ds, folds = self._task()
        cfg = BoostConfig(iterations=3, loss="squared", trust="disabled", seed=0)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            cross_validate(ds, cfg, folds, threads=threads)

    def test_separable_task_solved_by_baseline(self):
        ds = make_gaussian_dataset(200, 4, separation=5.0, seed=3)
        folds = stratified_kfold(ds, 5, 3)
        cfg = BoostConfig(iterations=100, max_depth=3, loss="logistic", trust="disabled", seed=3)
        report = cross_validate(ds, cfg, folds)
        assert report.mean("acc") >= 0.95

    def test_noise_only_touches_training_split(self):
        ds, folds = self._task(seed=4)
        clean_test_labels = [ds.labels[folds.test_indices(f)].copy() for f in range(5)]
        train_ds, test_ds = split_fold(ds, folds, 0)
        noisy_train, mask = inject(train_ds, NoiseSpec("symmetric", 0.4, 4))
        assert len(mask.flipped_rows) > 0
        for f in range(5):
            np.testing.assert_array_equal(ds.labels[folds.test_indices(f)], clean_test_labels[f])
        assert np.array_equal(test_ds.labels, ds.labels[folds.test_indices(0)])

    def test_report_csv(self, tmp_path):
        ds, folds = self._task()
        cfg = BoostConfig(iterations=5, loss="squared", trust="disabled", seed=0)
        report = cross_validate(ds, cfg, folds)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("fold,acc,f1,auc,log_loss")
        assert len(lines) == 1 + 5 + 2  # header + folds + mean + std


class TestWriterGoldens:
    """Exact bytes of the report, sweep and trajectory CSVs for fixed, hand-built inputs."""

    @staticmethod
    def _report(acc, train_seconds):
        per_fold = {"acc": np.array(acc), "f1": np.array([0.5, 2 / 3]), "auc": np.array([0.875, 1.0]),
                    "log_loss": np.array([0.1, 0.3])}
        return MetricReport(per_fold=per_fold, wall_time_seconds=0.0,
                            fold_train_seconds=np.array(train_seconds), trust_seconds=0.0)

    def test_report_csv(self, tmp_path):
        path = tmp_path / "report.csv"
        self._report([0.75, 0.5], [0.25, 0.125]).to_csv(path)
        assert path.read_text() == (
            "fold,acc,f1,auc,log_loss,train_seconds\n"
            "0,0.75,0.5,0.875,0.1,0.25\n"
            "1,0.5,0.6666666666666666,1.0,0.3,0.125\n"
            "mean,0.625,0.5833333333333333,0.9375,0.2,0.375\n"
            "std,0.125,0.08333333333333331,0.0625,0.09999999999999999,\n"
        )

    def test_sweep_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        rows = [("enabled", "symmetric", 0.0, self._report([0.75, 0.5], [0.25, 0.125])),
                ("disabled", "symmetric", np.float64(0.2), self._report([1.0, 0.25], [0.5, 1 / 3]))]
        write_sweep_csv(rows, path)
        metrics = "0.5833333333333333,0.08333333333333331,0.9375,0.0625,0.2,0.09999999999999999"
        assert path.read_text() == (
            "mode,kind,rate,acc_mean,acc_std,f1_mean,f1_std,auc_mean,auc_std,log_loss_mean,log_loss_std,"
            "train_seconds\n"
            f"enabled,symmetric,0.0,0.625,0.125,{metrics},0.375\n"
            f"disabled,symmetric,0.2,0.625,0.375,{metrics},0.8333333333333333\n"
        )
        write_sweep_csv(rows[:1], path, first_column="encoding")
        assert path.read_text().splitlines()[0].startswith("encoding,kind,rate,")

    def test_trajectory_csv(self, tmp_path):
        path = tmp_path / "curves.csv"
        curves = {"noisy": np.array([1.0, 0.1, 1 / 3]), "hard": np.array([0.5, 0.25, 2e-17]),
                  "easy": np.array([1.0, 1.0, 1.5])}
        write_trajectory_csv(curves, path)
        assert path.read_text() == (
            "iteration,mean_weight_noisy,mean_weight_hard,mean_weight_easy\n"
            "1,1.0,0.5,1.0\n"
            "2,0.1,0.25,1.0\n"
            "3,0.3333333333333333,2e-17,1.5\n"
        )


class TestNoiseSweep:
    """noise-sweep runs one cross_validate per (mode, rate), given that rate's NoiseSpec (None at rate 0)."""

    @staticmethod
    def sweep(tmp_path, monkeypatch, dataset, *flags):
        """Run noise-sweep on ``dataset``: its exit code, the noise of each cross_validate, its CSV rows."""
        data, out = tmp_path / "data.csv", tmp_path / "sweep.csv"
        save_csv(dataset, data)
        noises = []
        real = cli.cross_validate

        def recording(*args, noise=None, **kwargs):
            noises.append(noise)
            return real(*args, noise=noise, **kwargs)

        monkeypatch.setattr(cli, "cross_validate", recording)
        code = cli.main(["noise-sweep", "--data", str(data), *flags, "--out", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines())) if out.exists() else None
        return code, noises, rows

    def test_degenerate_sweep_equals_plain_cv(self, tmp_path, monkeypatch):
        ds = make_gaussian_dataset(100, 3, separation=4.0, seed=5)
        flags = ["--k", "4", "--iterations", "6", "--loss", "squared", "--seed", "5"]
        code, noises, [swept] = self.sweep(tmp_path, monkeypatch, ds, "--kind", "symmetric", "--rates", "0",
                                           "--modes", "disabled", *flags)
        assert (code, noises) == (0, [None])
        report = tmp_path / "report.csv"
        assert cli.main(["evaluate", "--data", str(tmp_path / "data.csv"), "--trust", "disabled", *flags,
                         "--out", str(report)]) == 0
        plain = {row["fold"]: row for row in csv.DictReader(report.read_text().splitlines())}
        for m in METRIC_NAMES:
            assert (swept[f"{m}_mean"], swept[f"{m}_std"]) == (plain["mean"][m], plain["std"][m])

    def test_row_per_rate(self, tmp_path, monkeypatch):
        ds = make_gaussian_dataset(60, 3, separation=4.0, seed=6)
        flags = ["--k", "3", "--iterations", "2", "--seed", "6"]
        code, noises, rows = self.sweep(tmp_path, monkeypatch, ds, "--kind", "symmetric", "--rates", "0.3,0.1,0.2",
                                        *flags)
        assert code == 0
        assert noises == [NoiseSpec("symmetric", rate, 6) for rate in (0.1, 0.2, 0.3)]
        assert [row["rate"] for row in rows] == ["0.1", "0.2", "0.3"]
        code, noises, rows = self.sweep(tmp_path, monkeypatch, ds, "--kind", "feature", "--rates", "0,0.5,1", *flags)
        assert code == 0
        assert noises == [None, NoiseSpec("feature", 0.5, 6), NoiseSpec("feature", 1.0, 6)]
        assert [row["rate"] for row in rows] == ["0.0", "0.5", "1.0"]

    def test_every_rate_checked_before_the_first_cv(self, tmp_path, monkeypatch, capsys):
        # the specs are built for the whole list before the loop, so the bad last rate stops every cross-validation
        ds = make_gaussian_dataset(60, 3, separation=4.0, seed=7)
        assert self.sweep(tmp_path, monkeypatch, ds, "--kind", "symmetric", "--rates", "0.1,0.3,0.5") == (1, [], None)
        assert "label noise rate" in capsys.readouterr().err

    def test_unknown_kind_rejected_at_every_rate(self, tmp_path, monkeypatch, capsys):
        ds = make_gaussian_dataset(60, 3, separation=4.0, seed=1)
        for rates in ("0", "0,0.2"):
            assert self.sweep(tmp_path, monkeypatch, ds, "--kind", "bogus", "--rates", rates) == (1, [], None)
            assert capsys.readouterr().err.startswith("usage error: argument --kind: invalid choice: 'bogus'")

    def test_heavy_noise_degrades_baseline(self, tmp_path, monkeypatch):
        ds = make_gaussian_dataset(200, 4, separation=5.0, seed=8)
        code, _, (clean, noisy) = self.sweep(tmp_path, monkeypatch, ds, "--kind", "symmetric", "--rates", "0,0.4",
                                             "--modes", "disabled", "--iterations", "60", "--loss", "squared",
                                             "--seed", "8")
        assert code == 0
        assert float(noisy["acc_mean"]) < float(clean["acc_mean"])


class TestTrajectory:
    def _trace(self, rate, seed=9, iterations=20):
        ds = make_gaussian_dataset(120, 3, separation=4.0, seed=seed)
        noisy, mask = inject(ds, NoiseSpec("symmetric", rate, seed))
        cfg = BoostConfig(iterations=iterations, loss="squared", trust="enabled", seed=seed)
        model, trace = train(noisy, cfg)
        margins = initial_margins(model, noisy, max(1, iterations // 10))
        return trace, mask, margins

    def test_empty_mask_emits_only_easy_and_hard(self):
        trace, mask, margins = self._trace(rate=0.0)
        with pytest.warns(UserWarning, match="noisy"):
            curves = trajectory_summary(trace, mask, margins)
        assert set(curves) == {"hard", "easy"}

    def test_disabled_trace_curves_are_flat(self):
        ds = make_gaussian_dataset(80, 3, separation=4.0, seed=10)
        noisy, mask = inject(ds, NoiseSpec("symmetric", 0.2, 10))
        cfg = BoostConfig(iterations=10, loss="squared", trust="disabled", seed=10)
        model, trace = train(noisy, cfg)
        margins = initial_margins(model, noisy, 1)
        curves = trajectory_summary(trace, mask, margins)
        for curve in curves.values():
            assert np.all(curve == 1.0)

    def test_categories_partition_sensibly(self):
        trace, mask, margins = self._trace(rate=0.25)
        curves = trajectory_summary(trace, mask, margins)
        assert set(curves) == {"noisy", "hard", "easy"}
        assert all(len(c) == trace.n_iterations for c in curves.values())

    def test_margin_recovery_squared(self):
        ds = make_gaussian_dataset(60, 2, separation=4.0, seed=11)
        cfg = BoostConfig(iterations=5, loss="squared", trust="disabled", seed=11)
        model, _ = train(ds, cfg)
        # at iteration 1 all scores equal the base score, so margin = y * F0
        margins = initial_margins(model, ds, 1)
        expected = ds.labels.astype(float) * model.base_score
        np.testing.assert_allclose(margins, expected, atol=1e-12)

    def test_margin_recovery_logistic(self):
        ds = make_gaussian_dataset(60, 2, separation=4.0, seed=11)
        cfg = BoostConfig(iterations=5, loss="logistic", trust="disabled", seed=11)
        model, _ = train(ds, cfg)
        margins = initial_margins(model, ds, 1)
        expected = ds.labels.astype(float) * model.base_score
        np.testing.assert_allclose(margins, expected, atol=1e-9)

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("trust", TRUST_MODES)
    def test_margins_are_the_scores_train_entered_each_round_with(self, monkeypatch, loss, encoding, trust):
        # the gradients recomputed from the margins are the ones train's own gradient calls returned
        ds = make_gaussian_dataset(60, 3, separation=2.0, seed=12)
        noisy, _ = inject(ds, NoiseSpec("symmetric", 0.2, 12))
        cfg = BoostConfig(iterations=12, loss=loss, encoding=encoding, trust=trust, seed=12)
        seen = []

        def recorded(*args, _inner=boosting.gradient):
            seen.append(_inner(*args))
            return seen[-1]

        monkeypatch.setattr(boosting, "gradient", recorded)
        model, _ = train(noisy, cfg)
        monkeypatch.undo()
        assert [g.tobytes() for g in round_gradients(model, noisy)] == [g.tobytes() for g in seen]

    @pytest.mark.parametrize("iteration", [0, -1, 6])
    def test_margin_iteration_outside_trace_rejected(self, iteration):
        ds = make_gaussian_dataset(60, 2, separation=4.0, seed=11)
        model, _ = train(ds, BoostConfig(iterations=5, loss="squared", trust="disabled", seed=11))
        with pytest.raises(ValueError, match=r"iteration .* outside 1\.\.5"):
            initial_margins(model, ds, iteration)


class TestFriedman:
    def test_no_signal_case(self):
        result = friedman_from_mean_ranks([2.0, 2.0, 2.0], 4)
        np.testing.assert_allclose(result.mean_ranks, [2.0, 2.0, 2.0])
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_published_rank_vector(self):
        result = friedman_from_mean_ranks([6.6, 5.8, 5.4, 3.7, 3.4, 7.1, 3.0, 1.0], 5)
        assert result.statistic == pytest.approx(25.0, abs=0.1)
        assert result.p_value == pytest.approx(0.000700, abs=2e-4)

    def test_two_algorithms_dominant(self):
        # one algorithm ranked first on each of 4 datasets
        result = friedman_from_mean_ranks([1.0, 2.0], 4)
        np.testing.assert_allclose(result.mean_ranks, [1.0, 2.0])
        assert result.statistic == pytest.approx(4.0, abs=1e-12)
        assert result.p_value == pytest.approx(0.0455, abs=1e-4)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        mean_ranks = np.mean([rng.permutation(5) + 1.0 for _ in range(6)], axis=0)
        base = friedman_from_mean_ranks(mean_ranks, 6)
        perm = rng.permutation(5)
        permuted = friedman_from_mean_ranks(mean_ranks[perm], 6)
        np.testing.assert_allclose(permuted.mean_ranks, base.mean_ranks[perm], atol=1e-12)
        assert permuted.statistic == pytest.approx(base.statistic, abs=1e-9)
