import contextlib
import io
import re
import resource
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itboost import cli
from itboost.cli import _peak_memory_mb, build_parser, main
from itboost.boosting import ENCODINGS, LOSSES, TRUST_MODES, BoostConfig, load_model
from itboost.data import load_csv, save_csv
from itboost.noise import NOISE_KINDS
from itboost.synth import make_gaussian_dataset
from itboost.theory import required_group_size


def run(*argv):
    return main(list(argv))


@pytest.fixture
def small_csv(tmp_path):
    ds = make_gaussian_dataset(60, 3, separation=4.0, seed=0)
    path = tmp_path / "small.csv"
    save_csv(ds, path)
    return path


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("synth", "--n", "50", "--d", "4", "--distractors", "6", "--sep", "2.0",
                   "--seed", "7", "--out", str(a)) == 0
        assert run("synth", "--n", "50", "--d", "4", "--distractors", "6", "--sep", "2.0",
                   "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_seed_is_the_config_default(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("synth", "--n", "30", "--d", "2", "--out", str(a)) == 0
        assert run("synth", "--n", "30", "--d", "2", "--seed", str(BoostConfig.seed), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_loadable_with_distractors(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("synth", "--n", "40", "--d", "2", "--distractors", "3", "--out", str(out)) == 0
        ds = load_csv(out, "label", positive_label="1")
        assert ds.n_rows == 40
        assert ds.n_features == 5

    @pytest.mark.parametrize("flags", [
        ["--n", "1"], ["--d", "0"], ["--distractors", "-1"], ["--sep", "-1"], ["--sep", "nan"], ["--sep", "inf"],
    ], ids=lambda flags: " ".join(flags))
    def test_bad_flag_is_a_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "s.csv"
        assert run("synth", *flags, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("usage error: make_gaussian_dataset: ")
        assert not out.exists()


class TestTrain:
    def test_writes_model_and_trace(self, small_csv, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        trace_path = tmp_path / "trace.csv"
        code = run("train", "--data", str(small_csv), "--label", "label",
                   "--iterations", "5", "--loss", "squared",
                   "--out", str(model_path), "--trace", str(trace_path))
        assert code == 0
        model = load_model(model_path)
        assert len(model.trees) == 5
        assert trace_path.read_text().startswith("iteration,row_id,raw_C")
        printed = capsys.readouterr().out
        assert "(trust step: " in printed and ", tree fit: " in printed

    def test_config_file_with_flag_override(self, small_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 9\nloss = squared\nmax_depth = 2\n")
        model_path = tmp_path / "model.txt"
        code = run("train", "--data", str(small_csv), "--config", str(cfg),
                   "--iterations", "4", "--out", str(model_path))
        assert code == 0
        model = load_model(model_path)
        assert len(model.trees) == 4  # flag wins
        assert model.config.max_depth == 2  # file survives


class TestEvaluate:
    def test_report_structure(self, small_csv, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run("evaluate", "--data", str(small_csv), "--label", "label", "--k", "5",
                   "--iterations", "5", "--loss", "squared", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 8  # header + 5 folds + mean + std
        printed = capsys.readouterr().out
        assert "acc_mean=" in printed
        assert "trust_seconds=" in printed
        # the process-wide peak RSS, printed just before the closing line
        peak_line = printed.splitlines()[-2]
        assert re.fullmatch(r"peak_memory_mb=\d+\.\d", peak_line)
        assert float(peak_line.split("=")[1]) > 0

    def test_threads_flag(self, small_csv, tmp_path):
        out = tmp_path / "report.csv"
        code = run("evaluate", "--data", str(small_csv), "--k", "3", "--iterations", "3",
                   "--loss", "squared", "--threads", "3", "--out", str(out))
        assert code == 0

    def test_peak_memory_counts_worker_processes(self, monkeypatch):
        peaks = {resource.RUSAGE_SELF: 1024 * 100, resource.RUSAGE_CHILDREN: 1024 * 150}
        monkeypatch.setattr(resource, "getrusage", lambda who: type("Usage", (), {"ru_maxrss": peaks[who]}))
        assert _peak_memory_mb() == 150.0
        peaks[resource.RUSAGE_CHILDREN] = 0
        assert _peak_memory_mb() == 100.0

    def test_peak_memory_reads_bytes_on_macos(self, monkeypatch):
        peaks = {resource.RUSAGE_SELF: 1024 * 1024 * 100, resource.RUSAGE_CHILDREN: 1024 * 1024 * 150}
        monkeypatch.setattr(resource, "getrusage", lambda who: type("Usage", (), {"ru_maxrss": peaks[who]}))
        monkeypatch.setattr(sys, "platform", "darwin")
        assert _peak_memory_mb() == 150.0


class TestThreadsFlag:
    CV_COMMANDS = pytest.mark.parametrize("command, extra", [
        ("evaluate", []),
        ("noise-sweep", ["--kind", "symmetric", "--rates", "0.1"]),
        ("ablate", []),
    ])

    @CV_COMMANDS
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_is_a_usage_error_before_loading(self, tmp_path, capsys, command, extra, threads):
        out = tmp_path / "out.csv"
        missing = tmp_path / "absent.csv"  # a data error (exit 2) if the file were read first
        assert run(command, "--data", str(missing), *extra, "--threads", threads, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(
            f"usage error: argument --threads: must be at least 1, got {threads}")
        assert not out.exists()

    @CV_COMMANDS
    @pytest.mark.parametrize("k", ["1", "0"])
    def test_k_below_two_is_a_usage_error_before_loading(self, tmp_path, capsys, command, extra, k):
        out = tmp_path / "out.csv"
        missing = tmp_path / "absent.csv"  # a data error (exit 2) if the file were read first
        assert run(command, "--data", str(missing), *extra, "--k", k, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"usage error: argument --k: must be at least 2, got {k}")
        assert not out.exists()

    def test_more_folds_than_rows_is_a_data_error(self, small_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run("evaluate", "--data", str(small_csv), "--k", "61", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("data error: ")
        assert not out.exists()


class TestNoiseSweep:
    def test_rates_times_modes_rows(self, small_csv, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run("noise-sweep", "--data", str(small_csv), "--kind", "symmetric",
                   "--rates", "0.1,0.3,0.4", "--modes", "disabled,enabled",
                   "--k", "3", "--iterations", "4", "--loss", "squared", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 6  # header + 3 rates x 2 modes
        assert lines[0].startswith("mode,kind,rate")

    @pytest.mark.parametrize("rates, modes, message", [
        ("0.1,0.3,0.5", "enabled", "usage error: bad --rates value: NoiseSpec: label noise rate must be in [0, 0.5)"),
        ("-0.2,0.1", "enabled", "usage error: bad --rates value: NoiseSpec: label noise rate must be in [0, 0.5), "
                                "got -0.2\n"),
        ("0.1,nan", "enabled", "usage error: bad --rates value: NoiseSpec: label noise rate must be in [0, 0.5), "
                               "got nan\n"),
        ("0.1,0.3", "enabled,bogus", "usage error: bad --modes value: BoostConfig: trust must be one of "
                                     "('enabled', 'disabled', 'magnitude-only'), got 'bogus'\n"),
        ("0.1,0.3,0.10", "enabled", "usage error: bad --rates value: 0.1 given 2 times\n"),
        ("0.1,0.3", "enabled,disabled,enabled", "usage error: bad --modes value: 'enabled' given 2 times\n"),
    ])
    def test_bad_value_rejected_before_training(self, small_csv, tmp_path, capsys, monkeypatch, rates, modes,
                                                message):
        calls = []
        real = cli.cross_validate
        monkeypatch.setattr(cli, "cross_validate", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        out = tmp_path / "sweep.csv"
        code = run("noise-sweep", "--data", str(small_csv), "--kind", "symmetric", f"--rates={rates}",
                   "--modes", modes, "--k", "3", "--iterations", "2", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err.startswith(message)
        assert calls == []
        assert not out.exists()


class TestAblate:
    def test_two_encoding_rows(self, small_csv, tmp_path, capsys):
        out = tmp_path / "ablate.csv"
        code = run("ablate", "--data", str(small_csv), "--k", "3", "--iterations", "5",
                   "--loss", "squared", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("encoding,")
        assert lines[1].startswith("binary-sign")
        assert lines[2].startswith("quantized")
        assert "binary_vs_quantized_time_ratio=" in capsys.readouterr().out


class TestSweepAndAblateGolden:
    """noise-sweep and ablate on a fixed synth dataset: every CSV cell but train_seconds, and stdout
    with its timing values masked."""

    SWEEP_ROWS = [
        "mode,kind,rate,acc_mean,acc_std,f1_mean,f1_std,auc_mean,auc_std,log_loss_mean,log_loss_std",
        "enabled,symmetric,0.0,0.7833333333333333,0.023570226039551608,0.7766955266955268,0.029735109718607357,"
        "0.8816666666666667,0.06059886320899277,0.5842363920571895,0.011400981705726823",
        "enabled,symmetric,0.2,0.7000000000000001,0.07071067811865477,0.7201881515382659,0.0841733081704597,"
        "0.6983333333333333,0.09741092797468308,0.6534433004090158,0.024818710486922607",
        "disabled,symmetric,0.0,0.7833333333333333,0.023570226039551608,0.7933621933621934,0.02344955043667753,"
        "0.8283333333333333,0.02656229575084869,0.5874082698934714,0.006603387163844114",
        "disabled,symmetric,0.2,0.5666666666666668,0.11785113019775792,0.6024691358024691,0.1463262458274474,"
        "0.7233333333333333,0.12119772641798558,0.6606180315744687,0.032313364554756474",
    ]
    ABLATE_ROWS = [
        "encoding,kind,rate,acc_mean,acc_std,f1_mean,f1_std,auc_mean,auc_std,log_loss_mean,log_loss_std",
        "binary-sign,none,0.0,0.8166666666666668,0.023570226039551553,0.8200956937799043,0.017242592346717128,"
        "0.8783333333333333,0.02718251071716684,0.5851572311419011,0.011725128970263805",
        "quantized,none,0.0,0.8000000000000002,0.04082482904638629,0.8040555935292777,0.05011806323010878,"
        "0.8700000000000001,0.061779176642835464,0.5918213760121425,0.0213475852190163",
    ]
    ABLATE_STDOUT = (
        "encoding=binary-sign acc=0.816667 train_seconds=* trust_seconds=*\n"
        "encoding=quantized acc=0.800000 train_seconds=* trust_seconds=*\n"
        "binary_vs_quantized_time_ratio=*\n"
    )

    @pytest.fixture
    def data(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        assert run("synth", "--n", "60", "--d", "3", "--sep", "2.0", "--seed", "5", "--out", str(path)) == 0
        capsys.readouterr()
        return path

    @staticmethod
    def rows_without_train_seconds(path):
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",train_seconds")
        return [line.rsplit(",", 1)[0] for line in lines]

    @staticmethod
    def masked(stdout):
        return re.sub(r"(seconds|ratio)=[0-9.]+", r"\1=*", stdout)

    def test_noise_sweep(self, data, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("noise-sweep", "--data", str(data), "--kind", "symmetric", "--rates", "0,0.2",
                   "--modes", "enabled,disabled", "--k", "3", "--iterations", "6", "--loss", "squared",
                   "--encoding", "binary-delta", "--out", str(out)) == 0
        assert capsys.readouterr() == (f"4 sweep rows written to {out}\n", "")
        assert self.rows_without_train_seconds(out) == self.SWEEP_ROWS

    def test_ablate(self, data, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("loss = squared\n")
        out = tmp_path / "ablate.csv"
        assert run("ablate", "--data", str(data), "--config", str(cfg), "--k", "3", "--iterations", "6",
                   "--out", str(out)) == 0
        stdout, stderr = capsys.readouterr()
        assert (self.masked(stdout), stderr) == (self.ABLATE_STDOUT + f"ablation table written to {out}\n", "")
        assert self.rows_without_train_seconds(out) == self.ABLATE_ROWS


class TestTrajectoryAndBounds:
    def test_end_to_end_pipeline(self, small_csv, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        mask = tmp_path / "mask.csv"
        trace = tmp_path / "trace.csv"
        code = run("trajectory", "--data", str(small_csv), "--noise-kind", "symmetric",
                   "--noise-rate", "0.25", "--iterations", "10", "--loss", "squared",
                   "--out", str(curves), "--mask-out", str(mask), "--trace-out", str(trace))
        assert code == 0
        header = curves.read_text().splitlines()[0]
        assert header.startswith("iteration,")
        assert "mean_weight_noisy" in header

        report = tmp_path / "bounds.csv"
        code = run("verify-bounds", "--trace", str(trace), "--mask", str(mask),
                   "--eps", "0.1", "--delta", "0.05", "--out", str(report))
        assert code == 0
        printed = capsys.readouterr().out
        assert "required_group_size=185" in printed
        assert "jensen_satisfied=True" in printed
        assert "hoeffding_satisfied=True" in printed
        assert "ratio_bound_satisfied=True" in printed
        body = report.read_text()
        assert body.startswith("key,value")

    @pytest.mark.parametrize(
        "edit, code",
        [
            (lambda text: text + "\n", 0),
            (lambda text: text + text.splitlines()[1] + "\n", 2),
            (lambda text: text.replace("symmetric", "asymmetric", 1), 2),
            (lambda text: text + "12\n", 2),
            (lambda text: text.replace("symmetric", "bogus"), 2),
        ],
        ids=["trailing-blank-line", "repeated-row-id", "mixed-kinds", "one-cell-record", "unknown-kind"],
    )
    def test_verify_bounds_mask_reader(self, small_csv, tmp_path, capsys, edit, code):
        mask = tmp_path / "mask.csv"
        trace = tmp_path / "trace.csv"
        assert run("trajectory", "--data", str(small_csv), "--noise-rate", "0.25", "--iterations", "5",
                   "--loss", "squared", "--out", str(tmp_path / "curves.csv"),
                   "--mask-out", str(mask), "--trace-out", str(trace)) == 0
        mask.write_text(edit(mask.read_text()))
        capsys.readouterr()
        assert run("verify-bounds", "--trace", str(trace), "--mask", str(mask),
                   "--out", str(tmp_path / "bounds.csv")) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("data error: NoiseMask.read_csv: ")
        else:
            assert err == ""

    @pytest.mark.parametrize("rows", [[], list(range(60))], ids=["no-row-marked", "every-row-marked"])
    def test_verify_bounds_degenerate_mask(self, small_csv, tmp_path, capsys, rows):
        mask = tmp_path / "mask.csv"
        trace = tmp_path / "trace.csv"
        assert run("trajectory", "--data", str(small_csv), "--noise-rate", "0.25", "--iterations", "5",
                   "--loss", "squared", "--out", str(tmp_path / "curves.csv"),
                   "--mask-out", str(mask), "--trace-out", str(trace)) == 0
        mask.write_text("row_id,kind\n" + "".join(f"{r},symmetric\n" for r in rows))
        capsys.readouterr()
        assert run("verify-bounds", "--trace", str(trace), "--mask", str(mask),
                   "--out", str(tmp_path / "bounds.csv")) == 2
        assert capsys.readouterr().err == (
            f"data error: verify-bounds: mask {mask} must mark some but not all rows of trace {trace}\n")


class TestVerifyBoundsReport:
    """verify-bounds on a fixed synth -> trajectory trace and mask: every key, in order, with its value."""

    FINAL_ITERATION = [
        ("iteration", "12"),
        ("empirical_tau", "0.653945045454941"),
        ("mean_complexity", "0.525"),
        ("jensen_lower", "0.5915553643668151"),
        ("hoeffding_upper", "0.6703200460356393"),
        ("jensen_satisfied", "True"),
        ("hoeffding_satisfied", "True"),
        ("tau_clean", "0.6806420742340713"),
        ("tau_noisy", "0.573853959117551"),
        ("tau_ratio", "0.8431067970097362"),
        ("complexity_gap", "0.14444444444444443"),
        ("correction", "0.125"),
        ("ratio_bound", "0.9807433794185024"),
        ("ratio_bound_satisfied", "True"),
        ("gap_exceeds_correction", "True"),
        ("n_clean", "45"),
        ("n_noisy", "15"),
        ("mean_clean", "0.4888888888888889"),
        ("mean_noisy", "0.6333333333333333"),
        ("epsilon", "0.1"),
        ("delta", "0.05"),
        ("required_group_size", "185"),
        ("separable", "False"),
    ]
    ITERATION_7_EPS_02 = [
        ("iteration", "7"),
        ("empirical_tau", "0.7155457485271488"),
        ("mean_complexity", "0.45"),
        ("jensen_lower", "0.6376281516217733"),
        ("hoeffding_upper", "0.7225273536420722"),
        ("jensen_satisfied", "True"),
        ("hoeffding_satisfied", "True"),
        ("tau_clean", "0.7190575294095299"),
        ("tau_noisy", "0.7050104058800065"),
        ("tau_ratio", "0.980464534540013"),
        ("complexity_gap", "0.022222222222222254"),
        ("correction", "0.125"),
        ("ratio_bound", "1.108245105019899"),
        ("ratio_bound_satisfied", "True"),
        ("gap_exceeds_correction", "False"),
        ("n_clean", "45"),
        ("n_noisy", "15"),
        ("mean_clean", "0.4444444444444444"),
        ("mean_noisy", "0.4666666666666667"),
        ("epsilon", "0.2"),
        ("delta", "0.05"),
        ("required_group_size", "47"),
        ("separable", "False"),
    ]

    @pytest.fixture
    def trace_and_mask(self, tmp_path, capsys):
        data, trace, mask = tmp_path / "d.csv", tmp_path / "t.csv", tmp_path / "m.csv"
        assert run("synth", "--n", "60", "--d", "3", "--sep", "2.0", "--seed", "5", "--out", str(data)) == 0
        assert run("trajectory", "--data", str(data), "--noise-rate", "0.25", "--iterations", "12",
                   "--loss", "squared", "--trust", "enabled", "--encoding", "binary-delta",
                   "--out", str(tmp_path / "c.csv"), "--mask-out", str(mask), "--trace-out", str(trace)) == 0
        capsys.readouterr()
        return trace, mask

    @pytest.mark.parametrize("extra, pairs", [
        ([], FINAL_ITERATION),
        (["--iteration", "7", "--eps", "0.2"], ITERATION_7_EPS_02),
    ], ids=["final-iteration", "iteration-7"])
    def test_stdout_and_report_csv(self, trace_and_mask, tmp_path, capsys, extra, pairs):
        trace, mask = trace_and_mask
        report = tmp_path / "bounds.csv"
        assert run("verify-bounds", "--trace", str(trace), "--mask", str(mask), *extra, "--out", str(report)) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == "".join(f"{k}={v}\n" for k, v in pairs) + f"report written to {report}\n"
        assert report.read_text() == "key,value\n" + "".join(f"{k},{v}\n" for k, v in pairs)

    def test_mask_naming_a_row_the_trace_lacks_is_a_data_error(self, trace_and_mask, tmp_path, capsys):
        trace, mask = trace_and_mask
        mask.write_text(mask.read_text() + "9999,symmetric\n")
        report = tmp_path / "bounds.csv"
        assert run("verify-bounds", "--trace", str(trace), "--mask", str(mask), "--out", str(report)) == 2
        assert capsys.readouterr().err == (
            f"data error: verify-bounds: mask {mask} names row 9999, absent from trace {trace}\n"
        )
        assert not report.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda cells: cells[:5], "line 4: expected 6 cells, got 5"),
        (lambda cells: cells[:3] + ["nan"] + cells[4:], "line 4: normalized_C, tau and weight must be finite"),
        (lambda cells: cells[:5] + ["inf"], "line 4: normalized_C, tau and weight must be finite"),
        (lambda cells: cells[:2] + ["99999999999999999999"] + cells[3:], "column raw_C holds an integer outside int64"),
        (lambda cells: cells[:3] + ["1e10"] + cells[4:], "line 4: normalized_C must be in [0, 1]"),
        (lambda cells: cells[:3] + ["-800"] + cells[4:], "line 4: normalized_C must be in [0, 1]"),
    ], ids=["short-record", "nan-cell", "inf-cell", "int64-overflow", "complexity-above-1", "complexity-below-0"])
    def test_malformed_trace_is_a_data_error(self, trace_and_mask, tmp_path, capsys, edit, message):
        trace, mask = trace_and_mask
        lines = trace.read_text().splitlines()
        lines[3] = ",".join(edit(lines[3].split(",")))
        trace.write_text("\n".join(lines) + "\n")
        report = tmp_path / "bounds.csv"
        assert run("verify-bounds", "--trace", str(trace), "--mask", str(mask), "--out", str(report)) == 2
        assert capsys.readouterr().err.startswith(f"data error: load_trace_csv: {trace} {message}")
        assert not report.exists()


class TestExitCodes:
    def test_usage_error_unknown_flag(self, small_csv, tmp_path):
        assert run("evaluate", "--data", str(small_csv), "--bogus", "1",
                   "--out", str(tmp_path / "r.csv")) == 1

    def test_usage_error_missing_subcommand(self):
        assert run() == 1

    def test_usage_error_bad_trust_value(self, small_csv, tmp_path):
        assert run("evaluate", "--data", str(small_csv), "--trust", "never",
                   "--out", str(tmp_path / "r.csv")) == 1

    def test_data_error_missing_file(self, tmp_path):
        assert run("evaluate", "--data", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "r.csv")) == 2

    def test_data_error_bad_cell(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,label\nfoo,1\n2.0,0\n")
        assert run("evaluate", "--data", str(bad), "--out", str(tmp_path / "r.csv")) == 2

    def test_data_error_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,label\n1.0,1\n2.0\xff,0\n")
        assert run("evaluate", "--data", str(bad), "--out", str(tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: load_csv: ") and f"{bad} is not UTF-8 text" in err

    @pytest.mark.parametrize("reader, argv", [
        ("load_trace_csv", ["verify-bounds", "--trace", "{absent}", "--mask", "{absent}"]),
        ("NoiseMask.read_csv", ["verify-bounds", "--trace", "{trace}", "--mask", "{absent}"]),
        ("parse_config_file", ["train", "--data", "{data}", "--config", "{absent}"]),
    ], ids=["trace", "mask", "config"])
    def test_missing_input_file_is_a_data_error(self, small_csv, tmp_path, capsys, reader, argv):
        paths = {"data": small_csv, "trace": tmp_path / "trace.csv", "absent": tmp_path / "absent.csv"}
        assert run("train", "--data", str(small_csv), "--iterations", "2", "--out", str(tmp_path / "model.txt"),
                   "--trace", str(paths["trace"])) == 0
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert run(*(arg.format(**paths) for arg in argv), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"data error: {reader}: file not found: {paths['absent']}\n"
        assert not out.exists()

    def test_directory_input_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "model.txt"
        assert run("train", "--data", str(tmp_path), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"data error: load_csv: cannot read {tmp_path}: Is a directory\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, flags, message", [
        ("a,a,label\n1,2,1\n3,4,0\n", [], "{data} header names column 'a' 2 times"),
        ("a,b,label\n1,2,1\n3,4,0\n", ["--label", "99"], "{data} has 3 columns, so label column index 99 is out of range"),
        ("a,b,label\n1,2,1\n3,4,0\n", ["--label", "y"], "label column 'y' not in {data} header ['a', 'b', 'label']"),
        ("label\n1\n0\n", [], "{data} has no feature columns besides the label"),
        ("a,label\n1,1\n2,1\n", [], "{data} has fewer than 2 distinct labels (found ['1'])"),
        ("a,label\n1,0\n2,2\n", [], "positive label '1' never occurs in {data} (labels: ['0', '2'])"),
        ("a,label\n1,2,1\n2,0\n", [], "{data} row 2 has 3 cells, expected 2"),
        ("a,label\n,1\n2,0\n", [], "{data} row 2, column 'a': missing value"),
        ("a,label\nfoo,1\n2,0\n", [], "{data} row 2, column 'a': unparsable cell 'foo'"),
        ("a,label\n1,1\ninf,0\n", [], "{data} row 3, column 'a': non-finite value 'inf'"),
    ], ids=["repeated-header", "label-index", "label-name", "no-features", "one-label", "no-positive",
            "width", "missing", "unparsable", "non-finite"])
    def test_load_csv_rejections_name_the_file(self, tmp_path, capsys, text, flags, message):
        data = tmp_path / "d.csv"
        data.write_text(text)
        out = tmp_path / "model.txt"
        assert run("train", "--data", str(data), *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err == "data error: load_csv: " + message.format(data=data) + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--data=--", "--out", "{out}"],
        ["train", "--data", "{data}", "--label=--", "--out", "{out}"],
        ["train", "--data", "{data}", "--seed=--", "--out", "{out}"],
        ["evaluate", "--data", "{data}", "--k=--", "--out", "{out}"],
        ["verify-bounds", "--trace=--", "--mask", "{data}", "--out", "{out}"],
        ["synth", "--out=--"],
    ], ids=["data", "label", "config-field", "k", "trace", "out"])
    def test_dash_dash_value_is_a_usage_error(self, small_csv, tmp_path, capsys, argv):
        """argparse drops a ``--`` value and leaves an empty list, which reached the command as the flag's value."""
        out = tmp_path / "out.csv"
        assert run(*(arg.format(data=small_csv, out=out) for arg in argv)) == 1
        flag = next(arg for arg in argv if arg.endswith("=--"))[:-3]
        assert capsys.readouterr().err == f"usage error: argument {flag}: expected one argument\n"
        assert not out.exists()

    @pytest.mark.parametrize("label", ["--3", "²", "٣", "+1", "1 "])
    def test_label_other_than_ascii_digits_is_a_column_name(self, small_csv, tmp_path, capsys, label):
        """Only ASCII ``-?[0-9]+`` is a column index; ``--3`` and ``²`` once failed in ``int()`` as a plain error."""
        out = tmp_path / "model.txt"
        assert run("train", "--data", str(small_csv), f"--label={label}", "--out", str(out)) == 2
        header = small_csv.read_text().split("\n", 1)[0].split(",")
        assert capsys.readouterr().err == f"data error: load_csv: label column {label!r} not in {small_csv} header {header}\n"
        assert not out.exists()

    def test_fold_that_loses_a_class_is_a_data_error(self, tmp_path, capsys):
        data, out = tmp_path / "d.csv", tmp_path / "sweep.csv"
        assert run("synth", "--n", "12", "--d", "2", "--sep", "1", "--seed", "3", "--out", str(data)) == 0
        capsys.readouterr()
        # asymmetric noise flips every positive row of one fold's training split
        assert run("noise-sweep", "--data", str(data), "--kind", "asymmetric", "--rates", "0.49",
                   "--modes", "enabled", "--k", "2", "--iterations", "3", "--seed", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == "data error: init_score: logistic loss needs both classes present\n"
        assert not out.exists()

    def test_config_line_without_equals_is_a_data_error(self, small_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("iterations 5\n")
        out = tmp_path / "model.txt"
        assert run("train", "--data", str(small_csv), "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"data error: parse_config_file: {cfg} line 1: expected 'key = value'\n"
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("iterations = abc", "iterations must be int, got 'abc'"),
        ("max_depth = 2.5", "max_depth must be int, got '2.5'"),
        ("learning_rate = fast", "learning_rate must be float, got 'fast'"),
    ], ids=["int-word", "int-decimal", "float-word"])
    def test_config_value_that_does_not_parse_names_its_key(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "model.txt"
        missing = tmp_path / "absent.csv"  # a data error (exit 2) if the file were read first
        assert run("train", "--data", str(missing), "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"usage error: BoostConfig: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("present", [True, False], ids=["data-present", "data-absent"])
    def test_trajectory_bad_noise_rate_is_a_usage_error_before_loading(self, small_csv, tmp_path, capsys, present):
        data = small_csv if present else tmp_path / "absent.csv"
        out = tmp_path / "curves.csv"
        assert run("trajectory", "--data", str(data), "--noise-rate", "0.6", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "usage error: NoiseSpec: label noise rate must be in [0, 0.5), got 0.6\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--eps", "0"], "epsilon must be positive"),
        (["--delta", "1.5"], "delta must be in (0, 1)"),
        (["--delta", "0"], "delta must be in (0, 1)"),
        (["--eps", "nan"], "epsilon must be positive"),
        (["--eps", "inf"], "epsilon must be positive"),
        (["--iteration", "0"], "argument --iteration: must be at least 1, got 0"),
        (["--iteration", "-2"], "argument --iteration: must be at least 1, got -2"),
        (["--eps", "1e-200"], "group size log(2/delta) / (2*epsilon**2) is out of range"),
        (["--eps", "1e-160"], "group size log(2/delta) / (2*epsilon**2) is out of range"),
        (["--delta", "1e-310"], "group size log(2/delta) / (2*epsilon**2) is out of range"),
    ])
    def test_bad_eps_or_delta_is_a_usage_error_before_loading(self, tmp_path, capsys, flags, message):
        out = tmp_path / "bounds.csv"
        missing = tmp_path / "absent.csv"  # a data error (exit 2) if the file were read first
        assert run("verify-bounds", "--trace", str(missing), "--mask", str(missing), *flags, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command, message", [
        ("synth", "usage error: argument --seed: must be at least 0, got -1\n"),
        ("train", "usage error: BoostConfig: seed must be >= 0\n"),
        ("evaluate", "usage error: BoostConfig: seed must be >= 0\n"),
    ])
    def test_negative_seed_is_a_usage_error_naming_it(self, tmp_path, capsys, command, message):
        out = tmp_path / "out.csv"
        data = [] if command == "synth" else ["--data", str(tmp_path / "absent.csv")]  # never read
        assert run(command, *data, "--seed", "-1", "--out", str(out)) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_seed_defaults_to_42(self, small_csv, tmp_path):
        model_path = tmp_path / "m.txt"
        assert run("train", "--data", str(small_csv), "--iterations", "2",
                   "--loss", "squared", "--out", str(model_path)) == 0
        assert load_model(model_path).config.seed == 42


class TestBoostFlags:
    COMMANDS = ("train", "evaluate", "noise-sweep", "ablate", "trajectory")

    SETS_ITSELF = {"noise-sweep": {"trust"}, "ablate": {"encoding", "trust"}}

    def test_one_flag_per_config_field(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        choices = {"loss": LOSSES, "encoding": ENCODINGS, "trust": TRUST_MODES}
        names = {f.name for f in fields(BoostConfig)}
        for command in self.COMMANDS:
            actions = subparsers[command]._option_string_actions
            config_dests = {action.dest for action in actions.values()} & names
            assert config_dests == names - self.SETS_ITSELF.get(command, set()), command
            for f in fields(BoostConfig):
                if f.name not in config_dests:
                    assert "--" + f.name.replace("_", "-") not in actions, (command, f.name)
                    continue
                action = actions["--" + f.name.replace("_", "-")]
                assert action.dest == f.name
                assert action.type is type(f.default), (command, f.name)
                assert action.default is None
                assert action.choices == choices.get(f.name), (command, f.name)

    def test_seed_flag_and_config_file_reach_the_model(self, small_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\n")
        for source in (["--seed", "7"], ["--config", str(cfg)]):
            model_path = tmp_path / "m.txt"
            assert run("train", "--data", str(small_csv), "--iterations", "2", "--loss", "squared",
                       *source, "--out", str(model_path)) == 0
            assert load_model(model_path).config.seed == 7


class TestUnreadFlagsRejected:
    """Each subcommand declares only the flags it reads."""

    @pytest.mark.parametrize("command, flag, value", [
        ("verify-bounds", "--seed", "3"),
        ("verify-bounds", "--config", "run.cfg"),
        ("verify-bounds", "--threads", "2"),
        ("synth", "--config", "run.cfg"),
        ("synth", "--threads", "2"),
        ("train", "--threads", "2"),
        ("trajectory", "--threads", "2"),
        ("noise-sweep", "--trust", "disabled"),
        ("ablate", "--trust", "disabled"),
        ("ablate", "--encoding", "binary-delta"),
    ])
    def test_removed_flag_is_a_usage_error(self, small_csv, tmp_path, capsys, command, flag, value):
        missing = str(tmp_path / "absent.csv")  # a data error (exit 2) if the file were read first
        inputs = {
            "synth": [],
            "train": ["--data", str(small_csv), "--iterations", "2"],
            "trajectory": ["--data", str(small_csv), "--iterations", "2"],
            "verify-bounds": ["--trace", str(tmp_path / "t.csv"), "--mask", str(tmp_path / "m.csv")],
            "noise-sweep": ["--data", missing, "--kind", "symmetric", "--rates", "0.1"],
            "ablate": ["--data", missing],
        }[command]
        out = tmp_path / "out.csv"
        assert run(command, *inputs, flag, value, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"usage error: unrecognized arguments: {flag} {value}")
        assert not out.exists()

    @pytest.mark.parametrize("command, key, extra", [
        ("noise-sweep", "trust", ["--kind", "symmetric", "--rates", "0.1"]),
        ("ablate", "trust", []),
        ("ablate", "encoding", []),
    ])
    def test_config_key_the_command_sets_is_a_usage_error(self, tmp_path, capsys, command, key, extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"iterations = 2\n{key} = {getattr(BoostConfig, key)}\n")
        out = tmp_path / "out.csv"
        missing = tmp_path / "absent.csv"  # a data error (exit 2) if the file were read first
        assert run(command, "--data", str(missing), "--config", str(cfg), *extra, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"usage error: config file {cfg} sets {key!r}, which {command} sets itself\n")
        assert not out.exists()


class TestUndersampleFlag:
    def test_before_split_order(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        from itboost.data import Dataset

        labels = np.array([1] * 30 + [-1] * 90)
        ds = Dataset(rng.normal(size=(120, 3)) + labels[:, None], labels, np.arange(120))
        path = tmp_path / "imb.csv"
        save_csv(ds, path)
        out = tmp_path / "r.csv"
        code = run("evaluate", "--data", str(path), "--k", "3", "--iterations", "3",
                   "--loss", "squared", "--undersample", "before", "--out", str(out))
        assert code == 0

    def test_after_split_order(self, tmp_path):
        rng = np.random.default_rng(4)
        from itboost.data import Dataset

        labels = np.array([1] * 30 + [-1] * 90)
        ds = Dataset(rng.normal(size=(120, 3)) + labels[:, None], labels, np.arange(120))
        path = tmp_path / "imb.csv"
        save_csv(ds, path)
        out = tmp_path / "r.csv"
        code = run("evaluate", "--data", str(path), "--k", "3", "--iterations", "3",
                   "--loss", "squared", "--undersample", "after", "--out", str(out))
        assert code == 0


class TestAnyRunExitsCleanly:
    """Drawn train, CV and trajectory runs on small synthetic files: each one exits 0, or with a usage
    error (exit 1) or a data error (exit 2), and never with a plain ``error:`` or an exception.  A drawn
    flag may be given the value ``--`` (``--data=--``), which must be a usage error."""

    @pytest.mark.filterwarnings("ignore:trajectory_summary")
    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from(("train", "evaluate", "noise-sweep", "ablate", "trajectory")),
        n=st.integers(8, 40),
        d=st.integers(1, 3),
        sep=st.floats(0.0, 4.0),
        data_seed=st.integers(0, 1000),
        loss=st.sampled_from(LOSSES),
        encoding=st.sampled_from(ENCODINGS),
        trust=st.sampled_from(TRUST_MODES),
        k=st.integers(2, 4),
        kind=st.sampled_from(NOISE_KINDS),
        rates=st.lists(st.floats(0.0, 0.49), min_size=1, max_size=3),
        seed=st.integers(0, 1000),
        iterations=st.integers(1, 3),
        max_depth=st.integers(1, 4),
        min_samples_leaf=st.integers(1, 4),
        dashed=st.sampled_from((None, "--data", "--label", "--positive", "--config", "--out", "--seed", "--loss")),
    )
    # one fold's training split loses its positive rows to asymmetric noise
    @example(command="noise-sweep", n=12, d=2, sep=1.0, data_seed=3, loss="logistic", encoding="binary-sign",
             trust="enabled", k=2, kind="asymmetric", rates=[0.49], seed=1, iterations=3, max_depth=3,
             min_samples_leaf=1, dashed=None)
    def test_exit_is_success_or_a_named_error(self, tmp_path_factory, command, n, d, sep, data_seed, loss, encoding,
                                              trust, k, kind, rates, seed, iterations, max_depth, min_samples_leaf,
                                              dashed):
        work = tmp_path_factory.mktemp("cli")
        data = work / "d.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("synth", "--n", str(n), "--d", str(d), "--sep", repr(sep), "--seed", str(data_seed),
                       "--out", str(data)) == 0
        argv = [command, "--data", str(data), "--out", str(work / "out.csv"), "--loss", loss, "--seed", str(seed),
                "--iterations", str(iterations), "--max-depth", str(max_depth),
                "--min-samples-leaf", str(min_samples_leaf)]
        if command != "ablate":  # ablate sets encoding and trust itself
            argv += ["--encoding", encoding]
        if command in ("evaluate", "noise-sweep", "ablate"):
            argv += ["--k", str(k), "--threads", "1"]
        if command in ("train", "evaluate", "trajectory"):
            argv += ["--trust", trust]
        if command == "noise-sweep":
            argv += ["--modes", trust, "--kind", kind, "--rates", ",".join(map(repr, rates))]
        if command == "trajectory":
            argv += ["--noise-kind", kind, "--noise-rate", repr(rates[0])]
        if dashed:
            argv.append(f"{dashed}=--")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        prefix = {0: "", 1: "usage error: ", 2: "data error: "}
        assert code in prefix
        if dashed:
            assert err.getvalue() == f"usage error: argument {dashed}: expected one argument\n"
        assert err.getvalue().startswith(prefix[code]), err.getvalue()


class TestAnyVerifyBoundsExitsCleanly:
    """verify-bounds on one trajectory trace and mask with a drawn iteration, --eps and --delta, and at
    most one float cell of the checked iteration replaced by a drawn float: each run exits 0, or with a
    usage error (exit 1) or a data error (exit 2), and never with a plain ``error:`` or an exception.
    An --eps or --delta out of range is a usage error that names it, whatever float form it takes."""

    N_ROWS, ITERATIONS = 20, 3

    @pytest.fixture(scope="class")
    def trace_lines_and_mask(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("trajectory")
        data, trace, mask = work / "d.csv", work / "t.csv", work / "m.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("synth", "--n", str(self.N_ROWS), "--d", "2", "--seed", "4", "--out", str(data)) == 0
            assert run("trajectory", "--data", str(data), "--noise-rate", "0.25",
                       "--iterations", str(self.ITERATIONS), "--out", str(work / "c.csv"),
                       "--mask-out", str(mask), "--trace-out", str(trace)) == 0
        return trace.read_text().splitlines(), mask

    @settings(max_examples=100, deadline=None)
    @given(
        iteration=st.none() | st.integers(1, ITERATIONS + 1),
        eps=st.floats(0.0, 1.0) | st.floats(),
        delta=st.floats(0.0, 1.0) | st.floats(),
        cell=st.none() | st.tuples(st.integers(0, N_ROWS - 1), st.integers(3, 5), st.floats()),
    )
    # argparse's own negative-number pattern reads neither exponent forms nor -inf as a value
    @example(iteration=None, eps=-1e-3, delta=0.05, cell=None)
    @example(iteration=None, eps=0.1, delta=-1e-3, cell=None)
    @example(iteration=None, eps=-float("inf"), delta=0.05, cell=None)
    def test_exit_is_success_or_a_named_error(self, trace_lines_and_mask, tmp_path_factory, iteration, eps, delta,
                                              cell):
        lines, mask = trace_lines_and_mask
        lines = list(lines)
        if cell is not None:  # a normalized_C, tau or weight cell of the iteration verify-bounds checks
            row, column, value = cell
            line = 1 + (min(iteration or self.ITERATIONS, self.ITERATIONS) - 1) * self.N_ROWS + row
            cells = lines[line].split(",")
            cells[column] = repr(value)
            lines[line] = ",".join(cells)
        work = tmp_path_factory.mktemp("bounds")
        trace = work / "t.csv"
        trace.write_text("\n".join(lines) + "\n")
        argv = ["verify-bounds", "--trace", str(trace), "--mask", str(mask), "--eps", repr(eps),
                "--delta", repr(delta), "--out", str(work / "bounds.csv")]
        if iteration is not None:
            argv += ["--iteration", str(iteration)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        prefix = {0: "", 1: "usage error: ", 2: "data error: "}
        assert code in prefix
        assert err.getvalue().startswith(prefix[code]), err.getvalue()
        try:
            required_group_size(eps, delta)
        except ValueError as exc:  # checked before any file is read
            assert (code, err.getvalue()) == (1, f"usage error: {exc}\n")
