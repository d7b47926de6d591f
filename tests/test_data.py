import dataclasses
import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import per_cell_load_csv

from itboost.boosting import TRACE_HEADER, BoostConfig, load_model, load_trace_csv, parse_config_file, save_model, train
from itboost.data import (
    DataError,
    Dataset,
    FoldPlan,
    load_csv,
    random_undersample,
    save_csv,
    stratified_kfold,
)
from itboost.noise import MASK_HEADER, NoiseMask, NoiseSpec, inject
from itboost.synth import make_gaussian_dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDataset:
    def test_rejects_nan_features(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0, np.nan]]), np.array([1]), np.array([0]))

    def test_rejects_bad_labels(self):
        with pytest.raises(DataError):
            Dataset(np.ones((2, 1)), np.array([0, 1]), np.array([0, 1]))

    def test_rejects_duplicate_row_ids(self):
        with pytest.raises(DataError):
            Dataset(np.ones((2, 1)), np.array([1, -1]), np.array([3, 3]))

    def test_rejects_duplicate_row_ids_apart(self):
        with pytest.raises(DataError, match="row_ids must be unique"):
            Dataset(np.ones((5, 1)), np.array([1, -1, 1, -1, 1]), np.array([7, -2, 4, 0, -2]))

    def test_rejects_a_string_of_feature_names(self):
        with pytest.raises(DataError, match="^Dataset: feature_names must be a sequence of names, got the string 'abc'"):
            Dataset(np.zeros((2, 3)), np.array([1, -1]), np.array([0, 1]), feature_names="abc")

    @pytest.mark.parametrize("names, bad", [([1, 2, 3], "1"), ([None], "None")])
    def test_rejects_a_feature_name_that_is_not_a_string(self, names, bad):
        with pytest.raises(DataError, match=f"^Dataset: feature name {bad} is not a string$"):
            Dataset(np.zeros((2, len(names))), np.array([1, -1]), np.array([0, 1]), feature_names=names)

    def test_unsorted_distinct_row_ids_accepted(self):
        ds = Dataset(np.ones((4, 1)), np.array([1, -1, 1, -1]), np.array([9, -1, 4, 0]))
        assert ds.row_ids.tolist() == [9, -1, 4, 0]

    def test_immutable_after_construction(self):
        ds = Dataset(np.ones((2, 2)), np.array([1, -1]), np.array([0, 1]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.labels[0] = -1

    def test_subset_preserves_row_ids(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), np.array([1, -1, 1, -1]), np.array([10, 11, 12, 13]))
        sub = ds.subset([2, 0])
        assert list(sub.row_ids) == [12, 10]
        assert sub.features[0, 0] == 4.0


class TestLoadCsv:
    def test_token_label_mapping(self, tmp_path):
        path = write(tmp_path, "a,b,cls\n1,2,yes\n3,4,no\n5,6,yes\n")
        ds = load_csv(path, "cls", positive_label="yes")
        assert list(ds.labels) == [1, -1, 1]
        assert ds.feature_names == ("a", "b")
        assert list(ds.row_ids) == [0, 1, 2]

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,b,cls\n1,2,yes\n1,NaN,no\n")
        with pytest.raises(DataError, match=r"row 3.*'b'"):
            load_csv(path, "cls", positive_label="yes")

    def test_unparsable_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,b,cls\n1,2,yes\nfoo,4,no\n")
        with pytest.raises(DataError, match=r"row 3.*'a'"):
            load_csv(path, "cls", positive_label="yes")

    def test_missing_cell_rejected(self, tmp_path):
        path = write(tmp_path, "a,b,cls\n1,,yes\n2,3,no\n")
        with pytest.raises(DataError, match="missing value"):
            load_csv(path, "cls", positive_label="yes")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_csv(tmp_path / "absent.csv", "cls", positive_label="yes")

    def test_label_column_absent(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(path, "cls", positive_label="yes")

    def test_label_column_by_index(self, tmp_path):
        path = write(tmp_path, "cls,a\nyes,1\nno,2\n")
        ds = load_csv(path, 0, positive_label="yes")
        assert list(ds.labels) == [1, -1]
        assert ds.feature_names == ("a",)

    def test_single_distinct_label_rejected(self, tmp_path):
        path = write(tmp_path, "a,cls\n1,yes\n2,yes\n")
        with pytest.raises(DataError, match="distinct"):
            load_csv(path, "cls", positive_label="yes")

    def test_positive_token_must_occur(self, tmp_path):
        path = write(tmp_path, "a,cls\n1,no\n2,maybe\n")
        with pytest.raises(DataError, match="never occurs"):
            load_csv(path, "cls", positive_label="yes")

    def test_numeric_fixture_shape(self, tmp_path):
        path = write(tmp_path, "x0,x1,y\n0.5,1.5,1\n1.0,2.0,0\n1.5,2.5,0\n2.0,3.0,1\n")
        ds = load_csv(path, "y", positive_label="1")
        assert ds.n_rows == 4 and ds.n_features == 2
        assert list(ds.labels) == [1, -1, -1, 1]

    def test_empty_label_cell_rejected(self, tmp_path):
        path = write(tmp_path, "a,cls\n1,yes\n2,\n3,no\n")
        message = f"load_csv: {path} row 3, column 'cls': missing value"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv(path, "cls", positive_label="yes")

    def test_space_only_label_cell_rejected(self, tmp_path):
        path = write(tmp_path, "cls,a\nyes,1\n  ,2\nno,3\n")
        with pytest.raises(DataError, match=r"row 3, column 'cls': missing value"):
            load_csv(path, 0, positive_label="yes")

    @pytest.mark.parametrize("label", ["label", 0])
    def test_duplicated_header_name_rejected(self, tmp_path, label):
        path = write(tmp_path, "label,x,label\n1,2,3\n0,4,5\n")
        with pytest.raises(DataError, match=r"header names column 'label' 2 times"):
            load_csv(path, label, positive_label="1")

    def test_header_names_compared_after_stripping(self, tmp_path):
        path = write(tmp_path, "a, a,cls\n1,2,yes\n3,4,no\n")
        with pytest.raises(DataError, match=r"column 'a' 2 times"):
            load_csv(path, "cls", positive_label="yes")


class TestCsvParity:
    """Cases the reader must read as the per-cell loop in ``reference.py`` does."""

    @pytest.mark.parametrize(
        "text, features, labels",
        [
            ("a,b,cls\n\n1,2,yes\n\n\n3,4,no\n\n", [[1, 2], [3, 4]], [1, -1]),
            ("a,b,cls\n1,2,yes\n3,4,no", [[1, 2], [3, 4]], [1, -1]),
            ('a,b,cls\n"1.5",2,yes\n3," -4e1 ",no\n', [[1.5, 2], [3, -40]], [1, -1]),
            ("a,b,cls\n  1 ,\t2\t, yes \n3,4,no\n", [[1, 2], [3, 4]], [1, -1]),
            ("a,b,cls\n1_0,2_000.5,yes\n3,4,no\n", [[10, 2000.5], [3, 4]], [1, -1]),
            ("a,b,cls\n\u00a05\u00a0,+.5e-1,yes\n-0,1E2,no\n", [[5, 0.05], [-0.0, 100]], [1, -1]),
        ],
        ids=["blank-lines", "no-final-newline", "quoted", "space-padded", "underscores", "unicode-space"],
    )
    def test_reads_as_per_cell_loop(self, tmp_path, text, features, labels):
        path = write(tmp_path, text)
        ds = load_csv(path, "cls", positive_label="yes")
        ref_features, ref_labels, ref_names = per_cell_load_csv(path, "cls", "yes")
        assert ds.features.tobytes() == np.array(features, dtype=np.float64).tobytes() == ref_features.tobytes()
        assert list(ds.labels) == labels == list(ref_labels)
        assert ds.feature_names == ref_names == ("a", "b")

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan", " NaN "])
    def test_non_finite_parsed_then_rejected(self, tmp_path, cell):
        path = write(tmp_path, f"a,b,cls\n1,2,yes\n3,{cell},no\n")
        message = f"load_csv: {path} row 3, column 'b': non-finite value '{cell.strip()}'"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv(path, "cls", positive_label="yes")

    @pytest.mark.parametrize("cell", ["1__0", "_1", "0x10", "1e", "1,5"])
    def test_float_grammar_rejections(self, tmp_path, cell):
        path = write(tmp_path, f'a,b,cls\n1,2,yes\n3,"{cell}",no\n')
        with pytest.raises(DataError, match=r"row 3, column 'b': unparsable cell "):
            load_csv(path, "cls", positive_label="yes")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_files_match_per_cell_loop(self, tmp_path_factory, data):
        good = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.integers(-(10**20), 10**20).map(str),
            st.sampled_from(["1_0", "-0", "+.5", "1E3", "5e-324", "1.7e308"]),
        )
        bad = st.sampled_from(["", " ", "foo", "inf", "-inf", "nan", "1__0", "1e", "0x1"])
        cell = st.tuples(st.sampled_from(["", " ", "\t", "\u00a0"]), st.one_of(good, good, good, bad))
        d = data.draw(st.integers(1, 3), label="d")
        label_idx = data.draw(st.integers(0, d), label="label_idx")
        header = [f"x{j}" for j in range(d)]
        header.insert(label_idx, "cls")
        lines = [",".join(header)]
        for i in range(data.draw(st.integers(2, 6), label="rows")):
            cells = []
            for pad, token in data.draw(st.lists(cell, min_size=d, max_size=d)):
                text = pad + token + pad
                cells.append(f'"{text}"' if data.draw(st.booleans()) else text)
            cells.insert(label_idx, ("yes", "no")[i % 2])
            if data.draw(st.integers(0, 9)) == 0:
                cells = cells[:-1] if data.draw(st.booleans()) else cells + ["1"]
            lines.append(",".join(cells))
            if data.draw(st.integers(0, 4)) == 0:
                lines.append("")
        path = tmp_path_factory.mktemp("parity") / "random.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            expected = per_cell_load_csv(path, "cls", "yes")
        except DataError as exc:
            with pytest.raises(DataError) as got:
                load_csv(path, "cls", positive_label="yes")
            assert str(got.value) == str(exc)
        else:
            ds = load_csv(path, "cls", positive_label="yes")
            assert ds.features.tobytes() == expected[0].tobytes()
            assert np.array_equal(ds.labels, expected[1])
            assert ds.feature_names == expected[2]


BAD_RECORDS = {
    "width": ("1,2", "row {r} has 2 cells, expected 3"),
    "missing": ("1,,no", "row {r}, column 'b': missing value"),
    "unparsable": ("foo,2,no", "row {r}, column 'a': unparsable cell 'foo'"),
    "non-finite": ("1,inf,no", "row {r}, column 'b': non-finite value 'inf'"),
    "missing-label": ("1,2,", "row {r}, column 'cls': missing value"),
}


class TestFirstErrorWins:
    @pytest.mark.parametrize("first, second", list(itertools.product(BAD_RECORDS, repeat=2)))
    def test_earlier_bad_record_is_named(self, tmp_path, first, second):
        text = "a,b,cls\n1,2,yes\n{}\n3,4,no\n{}\n5,6,yes\n".format(BAD_RECORDS[first][0], BAD_RECORDS[second][0])
        path = write(tmp_path, text)
        message = f"load_csv: {path} " + BAD_RECORDS[first][1].format(r=3)
        with pytest.raises(DataError) as exc:
            load_csv(path, "cls", positive_label="yes")
        assert str(exc.value) == message

    def test_earlier_column_of_one_record_is_named(self, tmp_path):
        path = write(tmp_path, "a,b,cls\n1,2,yes\ninf,foo,no\n")
        message = f"load_csv: {path} row 3, column 'a': non-finite value 'inf'"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_csv(path, "cls", positive_label="yes")


class TestRoundTrip:
    def test_bit_exact_features_and_labels(self, tmp_path):
        rng = np.random.default_rng(77)
        X = rng.normal(size=(20, 3)) * np.array([1e-8, 1.0, 1e8])
        y = np.where(rng.random(20) < 0.5, 1, -1)
        y[:2] = [1, -1]
        ds = Dataset(X, y, np.arange(20))
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        back = load_csv(path, "label", positive_label="1")
        assert np.array_equal(back.features, ds.features)  # bit-exact
        assert np.array_equal(back.labels, ds.labels)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bit_exact_over_extreme_values(self, tmp_path_factory, data):
        value = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 1.7e308, -1.7e308, 1.7976931348623157e308]),
            st.integers(-(2**53), 2**53).map(float),
        )
        n = data.draw(st.integers(2, 8), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        X = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n)))
        y = np.array([1, -1] + data.draw(st.lists(st.sampled_from([1, -1]), min_size=n - 2, max_size=n - 2)))
        ds = Dataset(X, y, np.arange(n))
        path = tmp_path_factory.mktemp("round") / "round.csv"
        save_csv(ds, path)
        back = load_csv(path, "label", positive_label="1")
        assert back.features.tobytes() == ds.features.tobytes()  # -0.0 and subnormals included
        assert np.array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names == tuple(f"x{j}" for j in range(ds.n_features))

    def test_golden_bytes(self, tmp_path):
        ds = Dataset(
            features=np.array([
                [-0.0, 5e-324, 1.7e308, 3.0],
                [0.1, -2.2250738585072014e-308, -1.7e308, -7.0],
                [1 / 3, 1e-05, 123456789.125, 1e16],
            ]),
            labels=np.array([1, -1, 1]),
            row_ids=np.arange(3),
            feature_names=("a", "b c", "comma,name", 'say "q"'),
        )
        path = tmp_path / "golden.csv"
        save_csv(ds, path)
        raw = path.read_bytes()
        assert raw.startswith(b'a,b c,"comma,name","say ""q""",label\n-0.0,5e-324,1.7e+308,3.0,1\n')
        # whole-file sha256; every byte after the header line is what the former per-row csv.writer loop wrote
        assert hashlib.sha256(raw).hexdigest() == "31d989cf0f15033c96fcb8d6d199a6168315c6ea3b985678c6ae87e204e0eff2"
        back = load_csv(path, "label", positive_label="1")
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.feature_names == ds.feature_names

    def test_feature_named_label_rejected_on_save(self, tmp_path):
        ds = Dataset(np.ones((2, 2)), np.array([1, -1]), np.arange(2), feature_names=("a", "label"))
        with pytest.raises(DataError, match="^save_csv: label column name 'label' clashes with a feature name$"):
            save_csv(ds, tmp_path / "clash.csv")
        assert not (tmp_path / "clash.csv").exists()

    def test_duplicate_feature_names_rejected_before_save(self):
        # load_csv refuses a header that names a column twice, so such a Dataset must not exist to be saved
        with pytest.raises(DataError, match="^Dataset: feature_names names 'a' 2 times$"):
            Dataset(np.ones((2, 3)), np.array([1, -1]), np.arange(2), feature_names=("a", "b", "a"))

    @pytest.mark.parametrize("names", [(" a", "a"), (" b ",), ("c\t", "d")])
    def test_names_with_outer_whitespace_rejected_before_save(self, names):
        # load_csv strips header cells, so such a name would save to a file that reads back otherwise
        bad = next(name for name in names if name != name.strip())
        with pytest.raises(DataError, match=f"^Dataset: feature name {re.escape(repr(bad))} has leading or trailing"):
            Dataset(np.ones((2, len(names))), np.array([1, -1]), np.arange(2), feature_names=names)


# each reader, the first line of a file it accepts, and the i-th record of such a file
READERS = {
    "load_csv": (lambda path: load_csv(path, "label", "1"), "a,label", "{i}.5,{parity}"),
    "load_trace_csv": (load_trace_csv, TRACE_HEADER, "1,{i},3,0.5,0.5,1.0"),
    "load_model": (load_model, "itboost-model v1", "tree {i}: L 0.0"),
    "NoiseMask.read_csv": (NoiseMask.read_csv, MASK_HEADER, "{i},symmetric"),
    "parse_config_file": (parse_config_file, "# config", "# comment {i}"),
}


@pytest.mark.parametrize("good_records", [0, 5000], ids=["first-record", "past-the-first-read-buffer"])
@pytest.mark.parametrize("reader", READERS)
def test_non_utf8_byte_is_a_data_error_naming_the_path(tmp_path, reader, good_records):
    read, header, record = READERS[reader]
    lines = [header] + [record.format(i=i, parity=i % 2) for i in range(good_records)]
    path = tmp_path / "input.txt"
    path.write_bytes("\n".join(lines).encode() + b"\n1\xff,0\n")
    with pytest.raises(DataError, match=f"^{re.escape(reader)}: {re.escape(str(path))} is not UTF-8 text"):
        read(path)


@pytest.mark.parametrize("reader", READERS)
def test_missing_file_is_a_data_error_naming_the_path(tmp_path, reader):
    read = READERS[reader][0]
    path = tmp_path / "absent.txt"
    with pytest.raises(DataError, match=f"^{re.escape(reader)}: file not found: {re.escape(str(path))}$"):
        read(path)


@pytest.mark.parametrize("reader", READERS)
def test_directory_is_a_data_error_naming_the_path(tmp_path, reader):
    read = READERS[reader][0]
    with pytest.raises(DataError, match=f"^{re.escape(reader)}: cannot read {re.escape(str(tmp_path))}: "):
        read(tmp_path)


@pytest.fixture(scope="module")
def written_inputs(tmp_path_factory):
    """One file per reader, named after it, as the package's writers (or, for a config, a person) write it."""
    root = tmp_path_factory.mktemp("written")
    dataset = make_gaussian_dataset(30, 2, separation=3.0, seed=4)
    noisy, mask = inject(dataset, NoiseSpec("symmetric", 0.2, 1))
    model, trace = train(noisy, BoostConfig(iterations=3, max_depth=2))
    save_csv(dataset, root / "load_csv")
    trace.to_csv(root / "load_trace_csv")
    save_model(model, root / "load_model")
    mask.to_csv(root / "NoiseMask.read_csv")
    (root / "parse_config_file").write_text("# run\niterations = 7\nloss = squared\n\nlearning_rate = 0.2\n")
    return root


def plain(value):
    """``value`` as nested builtins, each array as its dtype and list, so two loads compare exactly."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tolist()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [plain(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


@pytest.mark.parametrize("reader", READERS)
def test_crlf_copy_loads_as_the_lf_file(written_inputs, tmp_path, reader):
    read = READERS[reader][0]
    lf = written_inputs / reader
    text = lf.read_bytes()
    assert text.count(b"\n") > 2 and b"\r" not in text
    crlf = tmp_path / reader
    crlf.write_bytes(text.replace(b"\n", b"\r\n"))
    assert plain(read(crlf)) == plain(read(lf))


def test_make_gaussian_dataset_rejects_negative_seed_naming_itself():
    with pytest.raises(ValueError, match=r"^make_gaussian_dataset: seed must be >= 0$"):
        make_gaussian_dataset(10, 2, seed=-1)


class TestStratifiedKFold:
    def test_perfectly_balanced_small_case(self):
        ds = Dataset(np.arange(10.0)[:, None], np.array([1, -1] * 5), np.arange(10))
        plan = stratified_kfold(ds, 5, seed=0)
        for f in range(5):
            fold_labels = ds.labels[plan.assignments == f]
            assert np.sum(fold_labels == 1) == 1
            assert np.sum(fold_labels == -1) == 1

    def test_deterministic(self):
        ds = Dataset(np.arange(30.0)[:, None], np.array([1, -1, -1] * 10), np.arange(30))
        a = stratified_kfold(ds, 3, seed=9).assignments
        b = stratified_kfold(ds, 3, seed=9).assignments
        assert np.array_equal(a, b)

    def test_thirty_percent_positives(self):
        labels = np.array([1] * 30 + [-1] * 70)
        rng = np.random.default_rng(1)
        rng.shuffle(labels)
        ds = Dataset(np.arange(100.0)[:, None], labels, np.arange(100))
        plan = stratified_kfold(ds, 5, seed=4)
        for f in range(5):
            assert np.sum(ds.labels[plan.assignments == f] == 1) == 6

    def test_partition_property(self):
        rng = np.random.default_rng(2)
        labels = np.where(rng.random(53) < 0.4, 1, -1)
        labels[:6] = [1, 1, 1, -1, -1, -1]
        ds = Dataset(rng.normal(size=(53, 2)), labels, np.arange(53))
        plan = stratified_kfold(ds, 4, seed=3)
        counts = np.bincount(plan.assignments, minlength=4)
        assert counts.sum() == 53 and np.all(counts > 0)

    def test_stratification_tolerance(self):
        rng = np.random.default_rng(6)
        labels = np.where(rng.random(97) < 0.35, 1, -1)
        ds = Dataset(rng.normal(size=(97, 2)), labels, np.arange(97))
        k = 5
        plan = stratified_kfold(ds, k, seed=8)
        global_frac = np.mean(ds.labels == 1)
        fold_sizes = np.bincount(plan.assignments, minlength=k)
        for f in range(k):
            frac = np.mean(ds.labels[plan.assignments == f] == 1)
            assert abs(frac - global_frac) <= 1.0 / fold_sizes.min()

    def test_class_too_small(self):
        ds = Dataset(np.arange(10.0)[:, None], np.array([1] * 8 + [-1] * 2), np.arange(10))
        with pytest.raises(DataError, match="fewer than k"):
            stratified_kfold(ds, 3, seed=0)

    def test_k_range_validated(self):
        ds = Dataset(np.arange(10.0)[:, None], np.array([1, -1] * 5), np.arange(10))
        with pytest.raises(DataError):
            stratified_kfold(ds, 1, seed=0)
        with pytest.raises(DataError):
            stratified_kfold(ds, 11, seed=0)


class TestUndersample:
    def _imbalanced(self, n_pos=20, n_neg=80, seed=5):
        rng = np.random.default_rng(seed)
        labels = np.array([1] * n_pos + [-1] * n_neg)
        return Dataset(rng.normal(size=(n_pos + n_neg, 2)), labels, np.arange(n_pos + n_neg))

    def test_counts(self):
        out = random_undersample(self._imbalanced(), seed=0)
        assert out.n_rows == 40
        assert np.sum(out.labels == 1) == 20
        assert np.sum(out.labels == -1) == 20

    def test_minority_rows_all_kept(self):
        ds = self._imbalanced()
        out = random_undersample(ds, seed=0)
        minority_ids = set(ds.row_ids[ds.labels == 1])
        assert minority_ids <= set(out.row_ids)

    def test_balanced_input_unchanged(self):
        ds = self._imbalanced(n_pos=30, n_neg=30)
        out = random_undersample(ds, seed=0)
        assert np.array_equal(out.row_ids, ds.row_ids)
        assert np.array_equal(out.features, ds.features)

    def test_seed_changes_retained_subset(self):
        ds = self._imbalanced()
        a = set(random_undersample(ds, seed=0).row_ids)
        b = set(random_undersample(ds, seed=1).row_ids)
        assert a != b
        assert len(a) == len(b) == 40

    def test_single_class_rejected(self):
        ds = Dataset(np.arange(4.0)[:, None], np.array([1, 1, 1, 1]), np.arange(4))
        with pytest.raises(DataError):
            random_undersample(ds, seed=0)


class TestFoldPlan:
    def test_requires_nonempty_folds(self):
        with pytest.raises(DataError):
            FoldPlan(k=3, assignments=np.array([0, 0, 1, 1]))
