"""Seeded, auditable corruption of labels and features for robustness experiments."""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .data import DataError, Dataset, open_input, write_rows

NOISE_KINDS = ("symmetric", "asymmetric", "feature")
MASK_HEADER = "row_id,kind"


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
        if self.seed < 0:
            raise ValueError("NoiseSpec: seed must be >= 0")


@dataclass(frozen=True)
class NoiseMask:
    """Which rows were corrupted, and how; this is exactly what the mask CSV stores."""

    flipped_rows: frozenset
    kind: str

    def selects(self, row_ids) -> np.ndarray:
        """Boolean selector of the corrupted rows among ``row_ids``."""
        return np.isin(row_ids, sorted(self.flipped_rows))

    def to_csv(self, path) -> None:
        write_rows(path, MASK_HEADER.split(","), [[row_id, self.kind] for row_id in sorted(self.flipped_rows)])

    @staticmethod
    def read_csv(path) -> NoiseMask:
        """The mask a :meth:`to_csv` file holds (a header-only file gives kind ``""``).

        Blank lines are skipped.  A record that is not two cells, a row id
        that is not an integer, a row id given twice, a kind not in
        :data:`NOISE_KINDS` and a second kind are rejected with
        :class:`DataError` naming the path and line.
        """
        rows = set()
        kind = None
        with open_input("NoiseMask.read_csv", path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != MASK_HEADER.split(","):
                raise DataError(f"NoiseMask.read_csv: unexpected header in {path}")

            def error(message: str) -> DataError:
                return DataError(f"NoiseMask.read_csv: {path} line {reader.line_num}: {message}")

            for record in reader:
                if not record:
                    continue
                if len(record) != 2:
                    raise error(f"expected 2 cells ({MASK_HEADER}), got {len(record)}")
                try:
                    row_id = int(record[0])
                except ValueError:
                    raise error(f"row id {record[0]!r} is not an integer") from None
                if row_id in rows:
                    raise error(f"row id {row_id} given twice")
                if record[1] not in NOISE_KINDS:
                    raise error(f"kind {record[1]!r} is not one of {NOISE_KINDS}")
                if kind is not None and record[1] != kind:
                    raise error(f"kind {record[1]!r} after {kind!r}; a mask has one kind")
                rows.add(row_id)
                kind = record[1]
        return NoiseMask(frozenset(rows), kind or "")


def inject(dataset: Dataset, spec: NoiseSpec) -> tuple[Dataset, NoiseMask]:
    """Corrupt ``dataset`` as ``spec`` says, drawing from ``default_rng(spec.seed)``.

    - ``symmetric``: flip each label independently with probability ``rate``.
    - ``asymmetric``: flip positive labels to -1, each with probability
      ``rate``; negative rows are never touched.
    - ``feature``: floor(rate * N) rows, chosen without replacement, get
      independent N(0, sigma_j^2) noise on every feature j, where sigma_j is
      that feature's standard deviation over the whole dataset (constant
      columns stay as they are).  Labels are never modified.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "feature":
        n_perturb = int(np.floor(spec.rate * dataset.n_rows))
        chosen = np.sort(rng.choice(dataset.n_rows, size=n_perturb, replace=False))
        features = dataset.features.copy()
        if n_perturb:
            sigma = np.std(dataset.features, axis=0)
            features[chosen] += rng.standard_normal((n_perturb, dataset.n_features)) * sigma
        noisy = replace(dataset, features=features)
    else:
        chosen = rng.random(dataset.n_rows) < spec.rate
        if spec.kind == "asymmetric":
            positive = dataset.labels == 1
            if not np.any(positive):
                raise DataError("inject: no positive-class rows to flip")
            chosen &= positive
        labels = dataset.labels.copy()
        labels[chosen] = -labels[chosen]
        noisy = replace(dataset, labels=labels)
    return noisy, NoiseMask(frozenset(int(r) for r in dataset.row_ids[chosen]), spec.kind)
