"""Classification metrics, cross-validation driver, and sweep and trajectory CSVs."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .boosting import BoostConfig, Model, RunTrace, train
from .data import Dataset, FoldPlan, random_undersample, write_rows
from .noise import NoiseMask, NoiseSpec, inject

PROB_CLIP = 1e-15


def _check_pair(labels, probabilities):
    y = np.asarray(labels, dtype=np.int64)
    q = np.asarray(probabilities, dtype=np.float64)
    if y.shape != q.shape:
        raise ValueError(f"metric: labels and probabilities lengths disagree ({y.shape} vs {q.shape})")
    if y.size == 0:
        raise ValueError("metric: empty input")
    return y, q


def accuracy(labels, probabilities) -> float:
    """Fraction correct at threshold 0.5; a probability of exactly 0.5 predicts +1."""
    y, q = _check_pair(labels, probabilities)
    pred = np.where(q >= 0.5, 1, -1)
    return float(np.mean(pred == y))


def f1(labels, probabilities) -> float:
    """F1 of the positive class; defined as 0 when precision + recall is 0."""
    y, q = _check_pair(labels, probabilities)
    if not (np.any(y == 1) and np.any(y == -1)):
        raise ValueError("f1: both classes must be present")
    pred = np.where(q >= 0.5, 1, -1)
    tp = int(np.sum((pred == 1) & (y == 1)))
    fp = int(np.sum((pred == 1) & (y == -1)))
    fn = int(np.sum((pred == -1) & (y == 1)))
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def auc(labels, probabilities) -> float:
    """Rank-based ROC AUC with half credit for tied probabilities; a NaN probability gives NaN.

    The Mann-Whitney count U (negatives below each positive, plus half of those tied with it)
    equals the positives' tie-averaged rank sum less ``n_pos * (n_pos + 1) / 2``. It is a sum
    of halves, counted here in integers, so the value is exact.
    """
    y, q = _check_pair(labels, probabilities)
    positive = y == 1
    n_pos = int(np.sum(positive))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc: both classes must be present")
    if np.isnan(q).any():
        return float("nan")
    negatives, positives = np.sort(q[~positive]), q[positive]
    below = np.searchsorted(negatives, positives, "left")
    not_above = np.searchsorted(negatives, positives, "right")
    return int(np.sum(below + not_above)) / 2 / (n_pos * n_neg)  # 2U / 2 / pair count


def log_loss(labels, probabilities) -> float:
    """Mean negative log-likelihood, one log per row: -log q for a +1 row, -log(1 - q) for a -1
    row, with probabilities clipped away from 0 and 1."""
    y, q = _check_pair(labels, probabilities)
    q = np.clip(q, PROB_CLIP, 1.0 - PROB_CLIP)
    return float(-np.mean(np.log(np.where(y == 1, q, 1.0 - q))))


METRICS = {"acc": accuracy, "f1": f1, "auc": auc, "log_loss": log_loss}  # each metric's name, in report order
METRIC_NAMES = tuple(METRICS)


def compute_metrics(labels, probabilities) -> dict:
    return {name: metric(labels, probabilities) for name, metric in METRICS.items()}


@dataclass
class MetricReport:
    """Per-fold metric vectors plus aggregate timing."""

    per_fold: dict
    wall_time_seconds: float
    fold_train_seconds: np.ndarray
    trust_seconds: float

    def mean(self, name: str) -> float:
        return float(np.mean(self.per_fold[name]))

    def std(self, name: str) -> float:
        return float(np.std(self.per_fold[name]))

    def total_train_seconds(self) -> float:
        return float(np.sum(self.fold_train_seconds))

    def to_csv(self, path) -> None:
        """One row per fold, then the mean row and the std row (whose train_seconds cell is empty)."""
        columns = [self.per_fold[m].tolist() for m in METRIC_NAMES] + [self.fold_train_seconds.tolist()]
        rows = [[i, *cells] for i, cells in enumerate(zip(*columns))]
        rows.append(["mean"] + [self.mean(m) for m in METRIC_NAMES] + [self.total_train_seconds()])
        rows.append(["std"] + [self.std(m) for m in METRIC_NAMES] + [""])
        write_rows(path, ["fold", *METRIC_NAMES, "train_seconds"], rows)


def split_fold(dataset: Dataset, folds: FoldPlan, fold: int) -> tuple[Dataset, Dataset]:
    """(train, test) subsets for one fold; row ids are preserved."""
    return dataset.subset(folds.train_indices(fold)), dataset.subset(folds.test_indices(fold))


def run_fold(
    dataset: Dataset,
    config: BoostConfig,
    folds: FoldPlan,
    fold: int,
    noise: NoiseSpec | None = None,
    undersample_train: bool = False,
) -> tuple[dict, float, float]:
    """Train on one (optionally corrupted) training split, evaluate on the clean test split:
    the fold's (metrics, train seconds, trust seconds), the fold job of :func:`cross_validate`."""
    train_ds, test_ds = split_fold(dataset, folds, fold)
    if undersample_train:
        train_ds = random_undersample(train_ds, seed=config.seed + fold)
    if noise is not None:
        train_ds, _ = inject(train_ds, replace(noise, seed=noise.seed + fold))
    t0 = time.perf_counter()
    model, trace = train(train_ds, config)
    train_dt = time.perf_counter() - t0
    probs = model.predict_proba(test_ds.features)
    return compute_metrics(test_ds.labels, probs), train_dt, trace.total_trust_seconds()


def cross_validate(
    dataset: Dataset,
    config: BoostConfig,
    folds: FoldPlan,
    noise: NoiseSpec | None = None,
    threads: int = 1,
    undersample_train: bool = False,
) -> MetricReport:
    """k-fold evaluation; noise (if any) corrupts training splits only.

    Test labels always come from the clean dataset.  With ``threads == 1``
    the folds run in fold order on the calling thread.  With ``threads > 1``
    they run in ``min(threads, k)`` worker processes forked from this one
    (the fork start method is POSIX-only), and every worker is joined before
    this returns.  Each fold seeds itself from its index, and results come
    back in fold order, so the report's metrics are the same either way.
    """
    if threads < 1:
        raise ValueError(f"cross_validate: threads must be at least 1, got {threads}")
    t0 = time.perf_counter()
    job = partial(run_fold, dataset, config, folds, noise=noise, undersample_train=undersample_train)
    workers = min(threads, folds.k)
    if workers == 1:
        results = list(map(job, range(folds.k)))
    else:
        # imported here, not at the top: a process that never starts a pool
        # (every serial run, and a CLI command that forks none) loads none of
        # the pool's modules
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(job, range(folds.k)))
    per_fold = {m: np.array([r[0][m] for r in results]) for m in METRIC_NAMES}
    return MetricReport(
        per_fold=per_fold,
        wall_time_seconds=time.perf_counter() - t0,
        fold_train_seconds=np.array([r[1] for r in results]),
        trust_seconds=float(sum(r[2] for r in results)),
    )


def write_sweep_csv(rows: list, path, first_column: str = "mode") -> None:
    """rows: (label, kind, rate, MetricReport) tuples -> rate-indexed CSV."""
    header = [first_column, "kind", "rate"]
    for m in METRIC_NAMES:
        header += [f"{m}_mean", f"{m}_std"]
    header.append("train_seconds")
    table = []
    for label, kind, rate, report in rows:
        cells = [label, kind, float(rate)]
        for m in METRIC_NAMES:
            cells += [report.mean(m), report.std(m)]
        cells.append(report.total_train_seconds())
        table.append(cells)
    write_rows(path, header, table)


def initial_margins(model: Model, dataset: Dataset, iteration: int) -> np.ndarray:
    """Margins y*F of ``dataset``'s rows under the model's first ``iteration - 1`` trees: the
    scores with which training entered 1-based round ``iteration``, when ``dataset`` is the
    training set.  ValueError if ``iteration`` is outside 1..M."""
    n_iterations = len(model.trees)
    if not 1 <= iteration <= n_iterations:
        raise ValueError(f"initial_margins: iteration {iteration} outside 1..{n_iterations}")
    prefix = replace(model, trees=model.trees[: iteration - 1])
    return dataset.labels * prefix.predict_score(dataset.features)


def trajectory_summary(trace: RunTrace, mask: NoiseMask, margins) -> dict:
    """Mean trust weight per iteration for noisy / hard / easy sample categories.

    Noisy rows come from the mask; among the remaining (clean) rows, hard and
    easy are the lowest and highest quartiles of the supplied early-training
    margins.  Categories with no members are omitted with a warning.
    """
    margins = np.asarray(margins, dtype=np.float64)
    n = trace.row_ids.size
    if margins.shape != (n,):
        raise ValueError("trajectory_summary: margins length does not match trace rows")
    noisy = mask.selects(trace.row_ids)
    clean = ~noisy
    curves: dict = {}
    members = {"noisy": noisy}
    if np.any(clean):
        clean_margins = margins[clean]
        q25, q75 = np.percentile(clean_margins, [25.0, 75.0])
        members["hard"] = clean & (margins <= q25)
        members["easy"] = clean & (margins >= q75)
    for name in ("noisy", "hard", "easy"):
        sel = members.get(name)
        if sel is None or not np.any(sel):
            warnings.warn(f"trajectory_summary: category {name!r} is empty, omitted")
            continue
        curves[name] = np.array([state.weights[sel].mean() for state in trace.trust])
    return curves


def write_trajectory_csv(curves: dict, path) -> None:
    """One row per iteration: its number, then each curve's mean weight."""
    columns = [curve.tolist() for curve in curves.values()]
    rows = [[m, *cells] for m, cells in enumerate(zip(*columns), start=1)]
    write_rows(path, ["iteration"] + [f"mean_weight_{name}" for name in curves], rows)

