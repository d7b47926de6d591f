"""Dataset container, CSV ingestion, stratified folding, and class rebalancing."""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import NoReturn

import numpy as np


class DataError(ValueError):
    """Raised for malformed input files or invalid dataset operations."""


@contextmanager
def open_input(reader: str, path):
    """Yield ``path`` open as UTF-8 text with ``newline=""`` (the mode :mod:`csv` needs).  A missing
    file, any other file the system cannot read (a directory, say), or a byte that is not UTF-8 met
    in the ``with`` body, is a :class:`DataError` naming the file; ``reader`` starts the message."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except FileNotFoundError:
        raise DataError(f"{reader}: file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"{reader}: cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{reader}: {path} is not UTF-8 text ({exc.reason})") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with labels in {-1, +1} and stable row identities.

    ``row_ids`` survive fold splitting and undersampling so that noise masks,
    which are keyed by row id, remain meaningful on any subset.  Without
    ``feature_names`` the columns are named ``x0``, ``x1``, ...
    """

    features: np.ndarray
    labels: np.ndarray
    row_ids: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        row_ids = np.asarray(self.row_ids, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError(f"Dataset: features must be a nonempty 2-D matrix, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise DataError("Dataset: features contain NaN or infinite values")
        if labels.shape != (feats.shape[0],):
            raise DataError("Dataset: labels length does not match feature rows")
        if not np.all(np.isin(labels, (-1, 1))):
            raise DataError("Dataset: labels must be -1 or +1")
        if row_ids.shape != (feats.shape[0],):
            raise DataError("Dataset: row_ids length does not match feature rows")
        sorted_ids = np.sort(row_ids, kind="stable")  # timsort: one linear pass over ids already in order
        if np.any(sorted_ids[1:] == sorted_ids[:-1]):
            raise DataError("Dataset: row_ids must be unique")
        if self.feature_names is None:
            names = tuple(f"x{j}" for j in range(feats.shape[1]))
        else:
            names = tuple(self.feature_names)
        if len(names) != feats.shape[1]:
            raise DataError("Dataset: feature_names length does not match feature columns")
        for name, count in Counter(names).items():
            if count > 1:
                raise DataError(f"Dataset: feature_names names {name!r} {count} times")
            if name != name.strip():  # load_csv strips header cells, so such a name cannot round-trip
                raise DataError(f"Dataset: feature name {name!r} has leading or trailing whitespace")
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labels))
        object.__setattr__(self, "row_ids", _frozen(row_ids))
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """Rows at the given positional indices, row ids preserved."""
        idx = np.asarray(indices)
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            row_ids=self.row_ids[idx],
            feature_names=self.feature_names,
        )


def load_csv(path, label_column, positive_label: str) -> Dataset:
    """Load a comma-separated, headered file into a Dataset.

    ``label_column`` selects the label column by header name (str) or
    zero-based index (int); header names must be distinct.  Labels map to +1
    iff the stripped token equals ``positive_label``, else -1.  Every
    non-label cell must parse with ``float()`` as a finite real number; blank
    lines are skipped, rows with missing cells (the label's included) are
    rejected, and the first bad record in file order is the one reported.
    """
    with open_input("load_csv", path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"load_csv: {path} is empty")
        header = [h.strip() for h in header]
        for name, count in Counter(header).items():
            if count > 1:
                raise DataError(f"load_csv: {path} header names column {name!r} {count} times")
        if isinstance(label_column, int):
            if not 0 <= label_column < len(header):
                raise DataError(
                    f"load_csv: {path} has {len(header)} columns, so label column index {label_column} is out of range"
                )
            label_idx = label_column
        else:
            try:
                label_idx = header.index(str(label_column))
            except ValueError:
                raise DataError(f"load_csv: label column {label_column!r} not in {path} header {header}") from None
        feature_names = tuple(name for i, name in enumerate(header) if i != label_idx)
        if not feature_names:
            raise DataError(f"load_csv: {path} has no feature columns besides the label")

        width = len(header)
        raw_labels: list[str] = []
        keep_label = raw_labels.append

        def feature_cells():
            # Streamed: holding every record costs more memory than the matrix itself.
            for record in reader:
                if record:
                    if len(record) != width:
                        raise ValueError
                    keep_label(record.pop(label_idx).strip())
                    yield record

        # Any bad record or byte stops the bulk parse; the walk below then names it.
        try:
            flat = np.fromiter(map(float, chain.from_iterable(feature_cells())), dtype=np.float64)
        except (ValueError, csv.Error):
            flat = None
    distinct = set(raw_labels)
    if flat is None or "" in distinct or not np.isfinite(flat).all():
        _raise_first_bad_record(path, header, label_idx)

    if not raw_labels:
        raise DataError(f"load_csv: {path} has no data rows")
    if len(distinct) < 2:
        raise DataError(f"load_csv: {path} has fewer than 2 distinct labels (found {sorted(distinct)})")
    if positive_label not in distinct:
        raise DataError(
            f"load_csv: positive label {positive_label!r} never occurs in {path} (labels: {sorted(distinct)})"
        )
    labels = np.array([1 if tok == positive_label else -1 for tok in raw_labels], dtype=np.int64)
    return Dataset(
        features=flat.reshape(len(raw_labels), len(feature_names)),
        labels=labels,
        row_ids=np.arange(len(raw_labels), dtype=np.int64),
        feature_names=feature_names,
    )


def _raise_first_bad_record(path, header: list[str], label_idx: int) -> NoReturn:
    """Walk the file cell by cell and raise the error of its first bad record.

    Error handling only: :func:`load_csv` calls this when its bulk parse or
    checks fail, so the message names the row and column as a per-cell reader
    would.
    """
    with open_input("load_csv", path) as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue
            row = f"load_csv: {path} row {line_no}"
            if len(record) != len(header):
                raise DataError(f"{row} has {len(record)} cells, expected {len(header)}")
            for col, cell in enumerate(record):
                token = cell.strip()
                name = header[col]
                if token == "":
                    raise DataError(f"{row}, column {name!r}: missing value")
                if col == label_idx:
                    continue
                try:
                    x = float(token)
                except ValueError:
                    raise DataError(f"{row}, column {name!r}: unparsable cell {token!r}") from None
                if not np.isfinite(x):
                    raise DataError(f"{row}, column {name!r}: non-finite value {token!r}")
    raise DataError(f"load_csv: {path} changed while it was read")


def write_rows(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` as one CSV record ending in ``\\n``.

    Cells are written with ``str``, which for a float is its ``repr``, so
    floats read back exactly.  Rows built from ``.tolist()`` columns format
    Python numbers rather than one numpy scalar per cell.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(dataset: Dataset, path, label_name: str = "label") -> None:
    """Write a Dataset to CSV with exact float round-trip (repr formatting).

    Rows are formatted and written one at a time; no line list is built.
    """
    names = dataset.feature_names
    if label_name in names:
        raise DataError(f"save_csv: label column name {label_name!r} clashes with a feature name")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(list(names) + [label_name])
        fh.writelines(
            ",".join(map(repr, row.tolist())) + f",{label}\n"
            for row, label in zip(dataset.features, dataset.labels.tolist())
        )


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic stratified fold assignment: fold index per row."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        if a.min() < 0 or a.max() >= self.k:
            raise DataError("FoldPlan: assignments out of range")
        counts = np.bincount(a, minlength=self.k)
        if np.any(counts == 0):
            raise DataError("FoldPlan: every fold must be nonempty")
        object.__setattr__(self, "assignments", _frozen(a))

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]


def stratified_kfold(dataset: Dataset, k: int, seed: int) -> FoldPlan:
    """Assign rows to k folds: seeded shuffle within each class, then round-robin.

    Deterministic for fixed (labels, k, seed); every fold receives a near-
    proportional share of each class.
    """
    n = dataset.n_rows
    if not 2 <= k <= n:
        raise DataError(f"stratified_kfold: need 2 <= k <= N, got k={k}, N={n}")
    rng = np.random.default_rng(seed)
    assignments = np.empty(n, dtype=np.int64)
    for cls in (-1, 1):
        idx = np.nonzero(dataset.labels == cls)[0]
        if idx.size < k:
            raise DataError(f"stratified_kfold: class {cls} has {idx.size} members, fewer than k={k}")
        perm = rng.permutation(idx)
        assignments[perm] = np.arange(perm.size) % k
    return FoldPlan(k=k, assignments=assignments)


def random_undersample(dataset: Dataset, seed: int) -> Dataset:
    """Subsample the majority class (seeded, without replacement) to minority size.

    Every minority-class row is retained; surviving rows keep their original
    order and row ids.  A balanced dataset is returned unchanged.
    """
    pos = np.nonzero(dataset.labels == 1)[0]
    neg = np.nonzero(dataset.labels == -1)[0]
    if pos.size == 0 or neg.size == 0:
        raise DataError("random_undersample: both classes must be present")
    if pos.size == neg.size:
        return dataset
    minority, majority = (pos, neg) if pos.size < neg.size else (neg, pos)
    rng = np.random.default_rng(seed)
    kept_majority = rng.choice(majority, size=minority.size, replace=False)
    keep = np.sort(np.concatenate([minority, kept_majority]))
    return dataset.subset(keep)
