"""Seeded, auditable corruption of labels and features for robustness experiments."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .data import DataError, Dataset

NOISE_KINDS = ("symmetric", "asymmetric", "feature")


@dataclass(frozen=True)
class NoiseSpec:
    kind: str
    rate: float
    seed: int

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"NoiseSpec: kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if self.kind == "feature":
            if not 0.0 <= self.rate <= 1.0:
                raise ValueError(f"NoiseSpec: feature noise rate must be in [0, 1], got {self.rate}")
        elif not 0.0 <= self.rate < 0.5:
            raise ValueError(f"NoiseSpec: label noise rate must be in [0, 0.5), got {self.rate}")


@dataclass(frozen=True)
class NoiseMask:
    """Which rows were corrupted; together with the spec this replays the corruption."""

    flipped_rows: frozenset
    spec: NoiseSpec

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["row_id", "kind"])
            for row_id in sorted(self.flipped_rows):
                writer.writerow([row_id, self.spec.kind])

    @staticmethod
    def read_rows(path) -> tuple[frozenset, str]:
        """Row-id set and kind from a mask CSV (spec rate/seed are not stored).

        Blank lines are skipped.  A record that is not two cells, a row id
        that is not an integer, a row id given twice and a second kind are
        rejected with :class:`DataError` naming the path and line.
        """
        rows = set()
        kind = None
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["row_id", "kind"]:
                raise DataError(f"NoiseMask.read_rows: unexpected header in {path}")

            def error(message: str) -> DataError:
                return DataError(f"NoiseMask.read_rows: {path} line {reader.line_num}: {message}")

            for record in reader:
                if not record:
                    continue
                if len(record) != 2:
                    raise error(f"expected 2 cells (row_id,kind), got {len(record)}")
                try:
                    row_id = int(record[0])
                except ValueError:
                    raise error(f"row id {record[0]!r} is not an integer") from None
                if row_id in rows:
                    raise error(f"row id {row_id} given twice")
                if kind is not None and record[1] != kind:
                    raise error(f"kind {record[1]!r} after {kind!r}; a mask has one kind")
                rows.add(row_id)
                kind = record[1]
        return frozenset(rows), kind or ""


def inject_symmetric(dataset: Dataset, rate: float, seed: int) -> tuple[Dataset, NoiseMask]:
    """Flip each label independently with probability ``rate``."""
    spec = NoiseSpec(kind="symmetric", rate=rate, seed=seed)
    rng = np.random.default_rng(seed)
    flip = rng.random(dataset.n_rows) < rate
    labels = dataset.labels.copy()
    labels[flip] = -labels[flip]
    mask = NoiseMask(flipped_rows=frozenset(int(r) for r in dataset.row_ids[flip]), spec=spec)
    return replace(dataset, labels=labels), mask


def inject_asymmetric(dataset: Dataset, rate: float, seed: int) -> tuple[Dataset, NoiseMask]:
    """Flip positive-class labels to -1, each with probability ``rate``.

    One-directional class-conditional flips; negative rows are never touched.
    """
    spec = NoiseSpec(kind="asymmetric", rate=rate, seed=seed)
    positive = dataset.labels == 1
    if not np.any(positive):
        raise DataError("inject_asymmetric: no positive-class rows to flip")
    rng = np.random.default_rng(seed)
    flip = positive & (rng.random(dataset.n_rows) < rate)
    labels = dataset.labels.copy()
    labels[flip] = -1
    mask = NoiseMask(flipped_rows=frozenset(int(r) for r in dataset.row_ids[flip]), spec=spec)
    return replace(dataset, labels=labels), mask


def inject_feature_noise(dataset: Dataset, rate: float, seed: int) -> tuple[Dataset, NoiseMask]:
    """Perturb an exact fraction of rows with Gaussian noise at 1x per-feature std.

    floor(rate * N) rows are chosen without replacement; every feature of a
    chosen row gets independent N(0, sigma_j^2) noise where sigma_j is that
    feature's standard deviation over the whole dataset.  Constant columns
    (sigma 0) are left untouched.  Labels are never modified.
    """
    spec = NoiseSpec(kind="feature", rate=rate, seed=seed)
    rng = np.random.default_rng(seed)
    n_perturb = int(np.floor(rate * dataset.n_rows))
    chosen = np.sort(rng.choice(dataset.n_rows, size=n_perturb, replace=False))
    features = dataset.features.copy()
    if n_perturb:
        sigma = np.std(dataset.features, axis=0)
        features[chosen] += rng.standard_normal((n_perturb, dataset.n_features)) * sigma
    mask = NoiseMask(flipped_rows=frozenset(int(r) for r in dataset.row_ids[chosen]), spec=spec)
    return replace(dataset, features=features), mask


def inject(dataset: Dataset, spec: NoiseSpec) -> tuple[Dataset, NoiseMask]:
    if spec.kind == "symmetric":
        return inject_symmetric(dataset, spec.rate, spec.seed)
    if spec.kind == "asymmetric":
        return inject_asymmetric(dataset, spec.rate, spec.seed)
    return inject_feature_noise(dataset, spec.rate, spec.seed)


def apply_label_mask(dataset: Dataset, mask: NoiseMask) -> Dataset:
    """Replay recorded label flips onto a clean dataset (label-noise kinds only)."""
    if mask.spec.kind == "feature":
        raise ValueError("apply_label_mask: feature noise cannot be replayed from the mask alone")
    flip = np.isin(dataset.row_ids, sorted(mask.flipped_rows))
    labels = dataset.labels.copy()
    labels[flip] = -labels[flip]
    return replace(dataset, labels=labels)
