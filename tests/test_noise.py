import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itboost.data import DataError, Dataset
from itboost.noise import NoiseMask, NoiseSpec, inject


def make_dataset(n=100, d=3, pos_frac=0.5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    n_pos = int(n * pos_frac)
    labels = np.array([1] * n_pos + [-1] * (n - n_pos))
    return Dataset(X, labels, np.arange(n))


class TestSpec:
    def test_label_rate_range(self):
        with pytest.raises(ValueError):
            NoiseSpec("symmetric", 0.5, 0)
        with pytest.raises(ValueError):
            NoiseSpec("asymmetric", -0.1, 0)
        NoiseSpec("symmetric", 0.49, 0)

    def test_feature_rate_range(self):
        NoiseSpec("feature", 1.0, 0)
        with pytest.raises(ValueError):
            NoiseSpec("feature", 1.1, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec("adversarial", 0.1, 0)

    def test_negative_seed_rejected_naming_the_class(self):
        with pytest.raises(ValueError, match=r"^NoiseSpec: seed must be >= 0$"):
            NoiseSpec("symmetric", 0.1, -1)


class TestSymmetric:
    def test_zero_rate_identity(self):
        ds = make_dataset()
        noisy, mask = inject(ds, NoiseSpec("symmetric", 0.0, 1))
        assert np.array_equal(noisy.labels, ds.labels)
        assert mask.flipped_rows == frozenset()

    def test_deterministic(self):
        ds = make_dataset()
        _, m1 = inject(ds, NoiseSpec("symmetric", 0.2, 5))
        _, m2 = inject(ds, NoiseSpec("symmetric", 0.2, 5))
        assert m1.flipped_rows == m2.flipped_rows

    def test_flip_count_within_3_sigma(self):
        ds = make_dataset(n=1000)
        _, mask = inject(ds, NoiseSpec("symmetric", 0.2, 7))
        sigma = np.sqrt(1000 * 0.2 * 0.8)
        assert abs(len(mask.flipped_rows) - 200) <= 3 * sigma

    def test_features_untouched(self):
        ds = make_dataset()
        noisy, _ = inject(ds, NoiseSpec("symmetric", 0.3, 2))
        assert np.array_equal(noisy.features, ds.features)

    def test_mask_replays_exactly(self):
        ds = make_dataset()
        noisy, mask = inject(ds, NoiseSpec("symmetric", 0.25, 3))
        assert np.array_equal(noisy.labels != ds.labels, mask.selects(ds.row_ids))


class TestAsymmetric:
    def test_only_positives_flipped(self):
        ds = make_dataset(n=200, pos_frac=0.5)
        noisy, mask = inject(ds, NoiseSpec("asymmetric", 0.3, 4))
        for row_id in mask.flipped_rows:
            i = int(np.nonzero(ds.row_ids == row_id)[0][0])
            assert ds.labels[i] == 1
            assert noisy.labels[i] == -1
        untouched = ~mask.selects(ds.row_ids)
        assert np.array_equal(noisy.labels[untouched], ds.labels[untouched])

    def test_no_positives_rejected(self):
        ds = Dataset(np.ones((4, 1)), np.array([-1, -1, -1, -1]), np.arange(4))
        with pytest.raises(DataError):
            inject(ds, NoiseSpec("asymmetric", 0.3, 0))

    def test_flip_count_within_3_sigma(self):
        ds = make_dataset(n=1000, pos_frac=0.5)
        _, mask = inject(ds, NoiseSpec("asymmetric", 0.3, 6))
        sigma = np.sqrt(500 * 0.3 * 0.7)
        assert abs(len(mask.flipped_rows) - 150) <= 3 * sigma


class TestFeatureNoise:
    def test_zero_rate_identity(self):
        ds = make_dataset()
        noisy, mask = inject(ds, NoiseSpec("feature", 0.0, 1))
        assert np.array_equal(noisy.features, ds.features)
        assert mask.flipped_rows == frozenset()

    def test_exact_fraction_of_rows(self):
        ds = make_dataset(n=200)
        noisy, mask = inject(ds, NoiseSpec("feature", 0.5, 2))
        assert len(mask.flipped_rows) == 100
        changed = np.any(noisy.features != ds.features, axis=1)
        assert set(ds.row_ids[changed]) == mask.flipped_rows

    def test_constant_column_unchanged(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 2))
        X[:, 1] = 4.25
        ds = Dataset(X, np.array([1, -1] * 25), np.arange(50))
        noisy, _ = inject(ds, NoiseSpec("feature", 1.0, 3))
        assert np.array_equal(noisy.features[:, 1], ds.features[:, 1])
        assert not np.array_equal(noisy.features[:, 0], ds.features[:, 0])

    def test_labels_untouched(self):
        ds = make_dataset()
        noisy, _ = inject(ds, NoiseSpec("feature", 0.7, 4))
        assert np.array_equal(noisy.labels, ds.labels)

    def test_perturbation_scale_tracks_feature_std(self):
        rng = np.random.default_rng(5)
        X = np.hstack([rng.normal(0, 1, (4000, 1)), rng.normal(0, 10, (4000, 1))])
        ds = Dataset(X, np.array([1, -1] * 2000), np.arange(4000))
        noisy, _ = inject(ds, NoiseSpec("feature", 1.0, 5))
        deltas = noisy.features - ds.features
        assert np.std(deltas[:, 0]) == pytest.approx(1.0, rel=0.1)
        assert np.std(deltas[:, 1]) == pytest.approx(10.0, rel=0.1)


class TestMaskCsv:
    def test_round_trip(self, tmp_path):
        ds = make_dataset()
        _, mask = inject(ds, NoiseSpec("symmetric", 0.2, 9))
        path = tmp_path / "mask.csv"
        mask.to_csv(path)
        assert NoiseMask.read_csv(path) == mask
        assert mask.kind == "symmetric"

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "mask.csv"
        NoiseMask(frozenset({12, 3, 7}), "asymmetric").to_csv(path)
        assert path.read_text() == "row_id,kind\n3,asymmetric\n7,asymmetric\n12,asymmetric\n"
        NoiseMask(frozenset(), "").to_csv(path)
        assert path.read_text() == "row_id,kind\n"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("row_id,kind\n3,symmetric\n\n7,symmetric\n\n")
        assert NoiseMask.read_csv(path) == NoiseMask(frozenset({3, 7}), "symmetric")

    def test_header_only_gives_no_rows(self, tmp_path):
        path = tmp_path / "mask.csv"
        path.write_text("row_id,kind\n")
        assert NoiseMask.read_csv(path) == NoiseMask(frozenset(), "")

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("3,symmetric\n4\n", 3, "expected 2 cells"),
            ("3,symmetric,extra\n", 2, "expected 2 cells"),
            ("3,symmetric\nx,symmetric\n", 3, "not an integer"),
            ("3,symmetric\n\n3,symmetric\n", 4, "given twice"),
            ("3,symmetric\n4,asymmetric\n", 3, "one kind"),
            ("3,\n4,symmetric\n", 2, "kind '' is not one of"),
            ("3,bogus\n", 2, "kind 'bogus' is not one of"),
        ],
        ids=["one-cell", "three-cells", "non-integer-id", "repeated-id", "mixed-kinds", "empty-then-named-kind",
             "unknown-kind"],
    )
    def test_inconsistent_record_rejected(self, tmp_path, body, line, message):
        path = tmp_path / "mask.csv"
        path.write_text("row_id,kind\n" + body)
        with pytest.raises(DataError, match=rf"{re.escape(str(path))} line {line}: .*{message}"):
            NoiseMask.read_csv(path)

    @pytest.fixture(scope="class")
    def small_mask(self, tmp_path_factory):
        _, mask = inject(make_dataset(n=20), NoiseSpec("symmetric", 0.3, 3))
        path = tmp_path_factory.mktemp("mask") / "mask.csv"
        mask.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) > 4
        return lines

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_file_loads_its_own_records_or_is_a_data_error(self, small_mask, tmp_path_factory, data):
        lines = list(small_mask)
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
                # junk holds no digit and no quote, so it never reads as a number or joins two cells
                cells[j] = data.draw(st.sampled_from(["", "1.5"]) | st.text("xyz#:-", min_size=1))
                lines[i] = ",".join(cells)
            else:
                lines.insert(i, data.draw(st.sampled_from(["", " ", "\t"])))
        path = tmp_path_factory.mktemp("mutated") / "mask.csv"
        path.write_text("\n".join(lines) + "\n")
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("itboost.data.open", counting_open, raising=False)
            try:
                mask = NoiseMask.read_csv(path)
            except DataError as exc:
                assert str(path) in str(exc)
                mask = None
        assert opened == [path]
        if mask is None:
            return
        # a file that loads is read as exactly its own records: every row id once, and their one kind
        records = [line.split(",") for line in lines[1:] if line]
        assert sorted(mask.flipped_rows) == sorted(int(cells[0]) for cells in records)
        assert mask.kind == (records[0][1] if records else "")

    def test_inject_dispatch(self):
        ds = make_dataset()
        for kind in ("symmetric", "asymmetric", "feature"):
            noisy, mask = inject(ds, NoiseSpec(kind, 0.2, 1))
            assert mask.kind == kind


class TestPinnedDraws:
    """``inject`` reproduces, byte for byte, the draws of the three per-kind injectors it replaced."""

    DIGESTS = {
        ("symmetric", 0): "ddfd85e3be922d2dda6f3b5f50b4f8d6bce063ce02f64a34c18c033ba1f1a4ee",
        ("symmetric", 7): "7122bb7d85ca439094e5051b8a061e6993dbb8040c8d42f41713ace3ef6e49a8",
        ("asymmetric", 0): "c1426d1214ede3804e87a85a7f44df3e7ba0397f5bd9e036b9031a7c24a920b4",
        ("asymmetric", 7): "d791f08977f93999f45db4004bd61f0b8e6644c27b8963be404833a4a69b75ce",
        ("feature", 0): "172eee67ffa0eb1fec53796e83976ca5f1456c16c6c46bc040b48143d1c4ea6b",
        ("feature", 7): "4cdf8015b390e44b0772410bfd830a789afac39bf6d08a5c5af29b1f781ef7a2",
    }
    RATES = {"symmetric": 0.3, "asymmetric": 0.3, "feature": 0.4}

    @staticmethod
    def dataset():
        rng = np.random.default_rng(20261018)
        X = rng.normal(size=(60, 4))
        X[:, 3] = 2.5
        labels = np.where(rng.random(60) < 0.5, 1, -1)
        return Dataset(X, labels, np.arange(100, 160))

    @pytest.mark.parametrize("kind, seed", sorted(DIGESTS))
    def test_digest(self, kind, seed):
        noisy, mask = inject(self.dataset(), NoiseSpec(kind, self.RATES[kind], seed))
        h = hashlib.sha256()
        h.update(np.asarray(sorted(mask.flipped_rows), dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(noisy.labels, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(noisy.features, dtype=np.float64).tobytes())
        assert h.hexdigest() == self.DIGESTS[(kind, seed)]
