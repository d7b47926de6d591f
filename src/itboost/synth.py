"""Seeded synthetic classification benchmarks: two Gaussians plus distractors."""

from __future__ import annotations

import numpy as np

from .data import Dataset


def make_gaussian_dataset(
    n_rows: int,
    n_informative: int,
    n_distractors: int = 0,
    separation: float = 2.0,
    seed: int = 42,
) -> Dataset:
    """Two unit-covariance Gaussian classes plus optional pure-noise features.

    The class means sit ``separation`` apart (Euclidean distance), spread
    evenly over the informative coordinates; distractor coordinates are
    standard normal regardless of class.  Classes are balanced up to one row
    and row order is shuffled.  Fully determined by the seed.
    """
    if n_rows < 2:
        raise ValueError("make_gaussian_dataset: need at least 2 rows")
    if n_informative < 1:
        raise ValueError("make_gaussian_dataset: need at least 1 informative feature")
    if n_distractors < 0:
        raise ValueError("make_gaussian_dataset: negative distractor count")
    if not 0 <= separation < np.inf:
        raise ValueError(f"make_gaussian_dataset: separation must be finite and nonnegative, got {separation}")
    if seed < 0:
        raise ValueError("make_gaussian_dataset: seed must be >= 0")

    rng = np.random.default_rng(seed)
    n_pos = n_rows // 2
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n_rows - n_pos, dtype=np.int64)])
    d_total = n_informative + n_distractors
    features = rng.standard_normal((n_rows, d_total))
    shift = separation / (2.0 * np.sqrt(n_informative))
    features[:, :n_informative] += labels[:, None] * shift
    perm = rng.permutation(n_rows)
    names = tuple(f"x{j}" for j in range(n_informative)) + tuple(
        f"noise{j}" for j in range(n_distractors)
    )
    return Dataset(
        features=features[perm],
        labels=labels[perm],
        row_ids=np.arange(n_rows, dtype=np.int64),
        feature_names=names,
    )
