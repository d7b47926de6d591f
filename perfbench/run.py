"""itboost benchmark: end-to-end metrics from an untraced run, per-layer metrics from a traced one.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload cv-trust-noisy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics; ``--workload all`` runs every workload in both modes, each in a fresh
process.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md in this
directory defines every metric and the layer metric -> end-to-end metric map.
"""

from __future__ import annotations

import os

# One worker thread per native library; the only extra threads are the
# cross-validation pool's, at most nproc = 2.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("cv-trust-noisy", "cv-classic-wide", "score-artefacts")
SETUP_REPEATS = 3
ROW_CALLS = 1000  # the (printed) p99 needs ten samples beyond it
ROW_CHUNK = 100  # single-row calls between two calibration samples
IO_REPEATS = 5
TRACE_ROW_CALLS = 500  # per traced pass
MIN_FIT_SAMPLES = 1000  # for trees.fit_ms_p99 in the traced run
SCORE_ROWS = 100_000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def import_package():
    """The package from this checkout's src/, never an installed copy."""
    if not (SRC / "itboost" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'itboost'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import itboost

    if Path(itboost.__file__).resolve().parent != (SRC / "itboost").resolve():
        raise SystemExit(f"perfbench: imported itboost from {itboost.__file__}, not from {SRC}")
    return itboost


import_package()
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from itboost import boosting, cli, data, evaluation, noise, synth, trees  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer, tail_percentile  # noqa: E402


# ---------------------------------------------------------------------------
# Bookkeeping


class Ledger:
    """Operations attempted and failed; an operation fails if it raises or a check on it fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def attempt(self, what: str, fn, *args, clock=time.perf_counter):
        """(result, seconds on ``clock``) of fn(*args), or (None, None) if it raised (recorded as failed)."""
        try:
            t0 = clock()
            result = fn(*args)
            return result, clock() - t0
        except Exception:  # a failed operation is counted, and the run goes on
            self.record(False, f"{what} raised:\n{traceback.format_exc()}")
            return None, None


def seeds_for(seed: int) -> dict:
    """Independent sub-seeds for data, folds, noise, model and scoring rows."""
    state = np.random.SeedSequence(seed).generate_state(5)
    return dict(zip(("data", "folds", "noise", "model", "rows"), (int(s) for s in state)))


def fingerprint(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


def report_fingerprint(report) -> bytes:
    return fingerprint(*(report.per_fold[m] for m in evaluation.METRIC_NAMES))


def median(xs) -> float:
    return float(statistics.median(xs))


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Prepared:
    """What set-up leaves for the timed part."""

    model: object
    trace: object
    mask_path: Path
    rows: np.ndarray  # scored one row at a time
    dataset: object = None
    folds: object = None
    noise_spec: object = None
    config: object = None
    scoring: object = None  # score-artefacts: the 100k-row dataset written to csv_path
    csv_path: Path | None = None


def train_final_model(dataset, config, noise_spec, workdir: Path):
    """The model (and trace, mask) a user keeps after evaluating: trained on the whole noisy set."""
    noisy, mask = noise.inject(dataset, noise_spec)
    model, trace = boosting.train(noisy, config)
    mask_path = workdir / "mask.csv"
    mask.to_csv(mask_path)
    return model, trace, mask_path


class CrossValidationWorkload:
    """Two cross_validate arms on one seeded dataset, noise injected into training folds."""

    def __init__(self, name, n, informative, distractors, sep, noise_kind, noise_rate, config, arms, arms_agree,
                 min_pairs):
        self.name = name
        self.n, self.informative, self.distractors, self.sep = n, informative, distractors, sep
        self.noise_kind, self.noise_rate = noise_kind, noise_rate
        self.base_config = config
        self.arms = arms  # ((label, config overrides, threads), (...))
        self.arms_agree = arms_agree  # both arms must give identical fold metrics
        self.has_thread_arm = any(threads > 1 for _, _, threads in arms)
        self.min_pairs = min_pairs  # arm pairs per run however long they take

    def describe_arm(self, which: int) -> str:
        return "cross_validate " + self.arms[which][0]

    def setup(self, seed: int, workdir: Path) -> Prepared:
        s = seeds_for(seed)
        dataset = synth.make_gaussian_dataset(self.n, self.informative, self.distractors, self.sep, seed=s["data"])
        folds = data.stratified_kfold(dataset, 5, s["folds"])
        noise_spec = noise.NoiseSpec(kind=self.noise_kind, rate=self.noise_rate, seed=s["noise"])
        config = replace(self.base_config, seed=s["model"] % 2**31)
        model, trace, mask_path = train_final_model(dataset, config, noise_spec, workdir)
        rows = synth.make_gaussian_dataset(ROW_CALLS, self.informative, self.distractors, self.sep, seed=s["rows"])
        return Prepared(model, trace, mask_path, rows.features, dataset, folds, noise_spec, config)

    def run_arm(self, prep: Prepared, which: int):
        _, overrides, threads = self.arms[which]
        config = replace(prep.config, **overrides)
        return evaluation.cross_validate(prep.dataset, config, prep.folds, noise=prep.noise_spec, threads=threads)

    def output_fingerprint(self, which: int, report) -> bytes:
        return report_fingerprint(report)

    def expected_fingerprint(self, prep: Prepared, which: int, first: dict):
        """Fingerprint this arm's output must have, given the first output of each arm."""
        if self.arms_agree and which == 1:
            return first.get(0, first.get(1))
        return first.get(which)

    quality_note = "mean over folds of arm a's first report"

    def quality(self, prep: Prepared, first_outputs: dict) -> tuple[float, float]:
        report = first_outputs[0]
        return report.mean("acc"), report.mean("log_loss")

    def fold_ratio(self, output) -> float | None:
        secs = np.asarray(output.fold_train_seconds)
        return float(secs.max() / np.median(secs))


class ScoringWorkload:
    """Read a 100k-row CSV and score it with a model trained at set-up; no fitting is timed."""

    name = "score-artefacts"
    has_thread_arm = False
    min_pairs = 2

    def describe_arm(self, which: int) -> str:
        return ("load_csv of the 100k-row file", "Model.predict_proba on the 100k rows in memory")[which]

    def setup(self, seed: int, workdir: Path) -> Prepared:
        s = seeds_for(seed)
        dataset = synth.make_gaussian_dataset(400, 10, 0, 5.5, seed=s["data"])
        noise_spec = noise.NoiseSpec(kind="symmetric", rate=0.3, seed=s["noise"])
        config = boosting.BoostConfig(
            iterations=100, max_depth=3, loss="squared", trust="enabled", encoding="binary-sign", seed=s["model"] % 2**31
        )
        model, trace, mask_path = train_final_model(dataset, config, noise_spec, workdir)
        scoring = synth.make_gaussian_dataset(SCORE_ROWS, 10, 0, 5.5, seed=s["rows"])
        csv_path = workdir / "score.csv"
        data.save_csv(scoring, csv_path)
        return Prepared(model, trace, mask_path, scoring.features[:ROW_CALLS], scoring=scoring, csv_path=csv_path)

    def run_arm(self, prep: Prepared, which: int):
        if which == 0:
            return data.load_csv(prep.csv_path, "label", "1")
        return prep.model.predict_proba(prep.scoring.features)

    def output_fingerprint(self, which: int, output) -> bytes:
        if which == 0:
            return fingerprint(output.features, output.labels)
        return fingerprint(output)

    def expected_fingerprint(self, prep: Prepared, which: int, first: dict):
        if which == 0:  # the file must read back exactly what set-up wrote
            return fingerprint(prep.scoring.features, prep.scoring.labels)
        return first.get(which)

    quality_note = "over the 100k scored rows"

    def quality(self, prep: Prepared, first_outputs: dict) -> tuple[float, float]:
        probs = first_outputs[1]
        return evaluation.accuracy(prep.scoring.labels, probs), evaluation.log_loss(prep.scoring.labels, probs)

    def fold_ratio(self, output) -> float | None:
        return None


WORKLOADS = {
    "cv-trust-noisy": CrossValidationWorkload(
        "cv-trust-noisy",
        n=400, informative=10, distractors=0, sep=5.5,
        noise_kind="symmetric", noise_rate=0.3,
        config=boosting.BoostConfig(iterations=100, max_depth=3, loss="squared", trust="enabled"),
        arms=(("binary-sign, threads=1", {"encoding": "binary-sign"}, 1),
              ("quantized, threads=1", {"encoding": "quantized"}, 1)),
        arms_agree=False,
        min_pairs=2,
    ),
    "cv-classic-wide": CrossValidationWorkload(
        "cv-classic-wide",
        n=1000, informative=10, distractors=10, sep=3.0,
        noise_kind="feature", noise_rate=0.1,
        config=boosting.BoostConfig(iterations=25, max_depth=5, loss="logistic", trust="disabled"),
        arms=(("threads=1", {}, 1), ("threads=2", {}, 2)),
        arms_agree=True,
        min_pairs=3,  # the threads=2 arm varies most from call to call
    ),
    "score-artefacts": ScoringWorkload(),
}


# ---------------------------------------------------------------------------
# Timed blocks shared by every workload


class Runner:
    """Runs one workload's blocks, checking every output against its expected value."""

    def __init__(self, workload, prep: Prepared, workdir: Path, ledger: Ledger):
        self.w = workload
        self.prep = prep
        self.workdir = workdir
        self.ledger = ledger
        self.first_fp: dict[int, bytes] = {}
        self.first_out: dict[int, object] = {}
        self.batch_reference = prep.model.predict_proba(prep.rows)
        self.model_bytes = b""
        self.trace_bytes = 0

    def arm(self, which: int):
        what = self.w.describe_arm(which)
        out, dt = self.ledger.attempt(what, self.w.run_arm, self.prep, which)
        if out is None:
            return None, None
        fp = self.w.output_fingerprint(which, out)
        if which not in self.first_fp:
            self.first_fp[which] = fp
            self.first_out[which] = out
        expected = self.w.expected_fingerprint(self.prep, which, self.first_fp)
        self.ledger.record(fp == expected, f"{what}: output differs from the expected/first call")
        return out, dt

    def rows(self, lo: int = 0, hi: int = ROW_CALLS) -> list[float]:
        """Single-row predict_proba calls on rows lo..hi-1; each must equal its row of the batch.

        Each call is timed on the thread's CPU clock: on a shared machine the
        wall-clock tail measures when the OS gave the core to other processes,
        not the program.
        """
        model = self.prep.model
        singles = list(self.prep.rows[lo:hi])
        latencies = []
        for i, x in enumerate(singles, start=lo):
            p, dt = self.ledger.attempt("single-row predict_proba", model.predict_proba, x, clock=time.thread_time)
            if dt is None:
                continue
            latencies.append(dt)
            self.ledger.record(p == self.batch_reference[i], f"row {i} scored alone differs from the batch")
        return latencies

    def artefacts(self) -> float | None:
        """save_model/load_model, trace write/read, then the verify-bounds CLI; checked afterwards."""
        d = self.workdir
        model_path, trace_path, report_path = d / "model.txt", d / "trace.csv", d / "bounds.csv"
        argv = ["verify-bounds", "--trace", str(trace_path), "--mask", str(self.prep.mask_path),
                "--out", str(report_path)]

        def round_trip():
            boosting.save_model(self.prep.model, model_path)
            loaded = boosting.load_model(model_path)
            self.prep.trace.to_csv(trace_path)
            read_back = boosting.load_trace_csv(trace_path)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            return loaded, read_back, code

        out, dt = self.ledger.attempt("artefact round trip", round_trip)
        if out is None:
            return None
        loaded, (row_ids, states), code = out
        self.model_bytes = model_path.read_bytes()
        self.trace_bytes = trace_path.stat().st_size
        report = dict(line.split(",", 1) for line in report_path.read_text().splitlines()[1:]) if code == 0 else {}
        trace = self.prep.trace
        last = trace.trust[-1]
        ok = (
            code == 0
            and report.get("jensen_satisfied") == "True"
            and report.get("hoeffding_satisfied") == "True"
            and np.array_equal(loaded.predict_proba(self.prep.rows), self.batch_reference)
            and np.array_equal(row_ids, trace.row_ids)
            and sorted(states) == list(range(1, trace.n_iterations + 1))
            and np.array_equal(states[last.iteration].weights, last.weights)
        )
        self.ledger.record(ok, "artefact round trip: loaded model, trace or verify-bounds report is wrong")
        return dt

    def digest(self) -> str:
        """sha256 over the saved model and each arm's first output, for comparing commits."""
        h = hashlib.sha256(self.model_bytes)
        for which in sorted(self.first_fp):
            h.update(self.first_fp[which])
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def spread_jobs(n_rows: int, n_io: int) -> list:
    """Row chunks and artefact round trips in one list, round trips spaced evenly among the chunks."""
    rows = [((i + 0.5) / n_rows, "row", i * ROW_CHUNK) for i in range(n_rows)]
    ios = [((j + 0.5) / n_io, "io", None) for j in range(n_io)]
    return [(kind, lo) for _, kind, lo in sorted(rows + ios)]


def run_untraced(workload, seed: int, seconds: int, workdir: Path, ledger: Ledger):
    """Set-ups, then arm pairs for `seconds`, with the row chunks and round trips spread between arm calls.

    Spreading them lets every metric sample the whole run. Every timing is
    calibrated (hostspeed.py); raw medians are printed beside them.
    """
    host = HostSpeed()
    raw: dict[str, list] = {}
    cal: dict[str, list] = {}

    def keep(name, times, cpu_clock=False):
        factor = host.factors()[1 if cpu_clock else 0]  # taken even after a failed call: samples stay adjacent
        raw.setdefault(name, []).extend(times)
        cal.setdefault(name, []).extend(t * factor for t in times)

    prep = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prep = workload.setup(seed, workdir)
        keep("setup_s", [time.perf_counter() - t0])
    runner = Runner(workload, prep, workdir, ledger)

    def run_job(kind, lo):
        if kind == "row":
            keep("row", runner.rows(lo, lo + ROW_CHUNK), cpu_clock=True)
        else:
            dt = runner.artefacts()
            keep("artefact_io_s", [] if dt is None else [dt])

    jobs = spread_jobs(ROW_CALLS // ROW_CHUNK, IO_REPEATS)
    t_start = time.perf_counter()
    calls = pairs = 0
    while True:
        for which, name in enumerate(("arm_a_s", "arm_b_s")):
            _, dt = runner.arm(which)
            keep(name, [] if dt is None else [dt])
            calls += 1
            elapsed = time.perf_counter() - t_start
            calls_left = max(0, 2 * workload.min_pairs - calls, int((seconds - elapsed) * calls / elapsed))
            take = -(-len(jobs) // (calls_left + 1))
            for job in jobs[:take]:
                run_job(*job)
            del jobs[:take]
        pairs += 1
        elapsed = time.perf_counter() - t_start
        if pairs >= workload.min_pairs and elapsed * (pairs + 1) / pairs > seconds:
            break
    for job in jobs:
        run_job(*job)

    needed = ("setup_s", "row", "artefact_io_s", "arm_a_s", "arm_b_s")
    if not (all(cal.get(k) for k in needed) and set(runner.first_out) == {0, 1}):
        raise RuntimeError("every attempt of some timed operation failed; no metric can be reported")
    acc, ll = workload.quality(prep, runner.first_out)

    def timing(name, unit, label, scale=1.0):
        n = len(cal[name])
        return median(cal[name]) * scale, unit, f"median of {n} {label}; raw {median(raw[name]) * scale:.6g}"

    rows = cal["row"]
    metrics = {
        "setup_s": timing("setup_s", "s", "set-ups"),
        "arm_a_s": timing("arm_a_s", "s", workload.describe_arm(0)),
        "arm_b_s": timing("arm_b_s", "s", workload.describe_arm(1)),
        "acc_mean": (acc, "fraction", workload.quality_note),
        "log_loss_mean": (ll, "nats", workload.quality_note),
        "row_score_ms_p50": timing("row", "ms", "single-row calls, thread CPU time", 1e3),
        "row_score_ms_p90": (tail_percentile(rows, 90) * 1e3, "ms",
                             f"p90 of {len(rows)}; raw {tail_percentile(raw['row'], 90) * 1e3:.6g}"),
        "artefact_io_s": timing("artefact_io_s", "s", "round trips"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of this process, which ran only this workload"),
    }
    extra = {
        "row_score_ms_p99": tail_percentile(rows, 99) * 1e3,  # too unsteady on a shared host to gate on
        "kernel_wall_ms_median": median(w for w, _ in host.samples) * 1e3,
        "kernel_cpu_ms_median": median(c for _, c in host.samples) * 1e3,
        "kernel_samples": len(host.samples),
    }
    return metrics, runner, extra


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def install_spans(tracer: Tracer) -> None:
    """Wrap the public call sites the timed blocks reach, as the package looks them up."""

    def lz_after(args, result):
        tracer.count("lz_symbols", len(args[0]))

    def fit_after(args, result):
        tracer.count("fit_calls")
        tracer.count("fit_leaves", result.n_leaves())

    def predict_after(args, result):
        x = args[1]
        tracer.count("predict_rows", 1 if np.ndim(x) == 1 else len(x))

    def train_after(args, result):
        tracer.count("trust_seconds", result[1].total_trust_seconds())

    def load_csv_after(args, result):
        tracer.count("csv_rows", result.n_rows)

    for attr, name, after in (
        ("encode_gradients", "complexity.encode_gradients", None),
        ("lz76_complexity", "complexity.lz76_complexity", lz_after),
        ("normalize_complexities", "complexity.normalize_complexities", None),
        ("trust_weights", "complexity.trust_weights", None),
        ("fit_tree_weighted", "trees.fit_tree_weighted", fit_after),
        ("save_model", "boosting.save_model", None),
        ("load_model", "boosting.load_model", None),
        ("load_trace_csv", "boosting.load_trace_csv", None),
    ):
        tracer.patch(boosting, attr, name, after)
    tracer.patch(trees.RegressionTree, "predict", "trees.RegressionTree.predict", predict_after)
    tracer.patch(boosting.Model, "predict_proba", "boosting.Model.predict_proba")
    tracer.patch(boosting.RunTrace, "to_csv", "boosting.RunTrace.to_csv")
    for attr, name, after in (
        ("train", "boosting.train", train_after),
        ("inject", "noise.inject", None),
        ("split_fold", "evaluation.split_fold", None),
        ("compute_metrics", "evaluation.compute_metrics", None),
        ("cross_validate", "evaluation.cross_validate", None),
    ):
        tracer.patch(evaluation, attr, name, after)
    tracer.patch(data, "load_csv", "data.load_csv", load_csv_after)
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "load_trace_csv", "boosting.load_trace_csv")
    for attr in ("trust_bound_check", "ratio_bound_check", "separability_from_groups"):
        tracer.patch(cli, attr, "theory." + attr)


def one_pass(runner: Runner, arm_times=None, fold_ratios=None):
    """Both arms, TRACE_ROW_CALLS single-row calls and one artefact round trip; returns its wall time."""
    t0 = time.perf_counter()
    for which in (0, 1):
        out, dt = runner.arm(which)
        if arm_times is not None and dt is not None:
            arm_times[which].append(dt)
        if fold_ratios is not None and out is not None:
            ratio = runner.w.fold_ratio(out)
            if ratio is not None:
                fold_ratios.append(ratio)
    runner.rows(0, TRACE_ROW_CALLS)
    runner.artefacts()
    return time.perf_counter() - t0


def run_traced(workload, seed: int, seconds: int, workdir: Path, ledger: Ledger):
    """Traced passes for `seconds`, then one untraced pass whose outputs must equal theirs.

    The untraced pass runs last so that it is as warm as the traced ones; its
    time is the baseline of ``trace.overhead_s``.
    """
    prep = workload.setup(seed, workdir)
    runner = Runner(workload, prep, workdir, ledger)
    tracer = Tracer()
    install_spans(tracer)
    traced_passes, fold_ratios = [], []
    t_start = time.perf_counter()
    try:
        while True:
            traced_passes.append(one_pass(runner, fold_ratios=fold_ratios))
            fits = tracer.counts.get("fit_calls", 0)
            if time.perf_counter() - t_start >= seconds and not 0 < fits < MIN_FIT_SAMPLES:
                break
    finally:
        tracer.restore()
    untraced_arms = ([], [])
    untraced_pass = one_pass(runner, arm_times=untraced_arms)  # runner.arm checks its outputs

    summary = tracer.summary()
    n = len(traced_passes)

    def total(name):
        return summary[name]["total"] / n if name in summary else 0.0

    def self_time(name):
        return summary[name]["self"] / n if name in summary else 0.0

    def calls(name):
        return summary[name]["calls"] / n if name in summary else 0.0

    def per_pass(counter):
        return tracer.counts.get(counter, 0.0) / n

    lz, symbols = total("complexity.lz76_complexity"), per_pass("lz_symbols")
    encode = total("complexity.encode_gradients")
    weights = total("complexity.normalize_complexities") + total("complexity.trust_weights")
    trust_step = per_pass("trust_seconds")
    fit = summary.get("trees.fit_tree_weighted")
    predict_s, predict_calls = total("trees.RegressionTree.predict"), calls("trees.RegressionTree.predict")
    csv_total = summary["data.load_csv"]["total"] if "data.load_csv" in summary else 0.0
    speedup = 0.0
    if workload.has_thread_arm and all(untraced_arms):
        speedup = untraced_arms[0][0] / untraced_arms[1][0]
    per_pass_label = "per pass"
    metrics = {
        "complexity.lz_s": (lz, "s", per_pass_label),
        "complexity.lz_calls": (calls("complexity.lz76_complexity"), "count", per_pass_label),
        "complexity.lz_symbols": (symbols, "count", "history symbols parsed per pass"),
        "complexity.lz_ns_per_symbol": (lz / symbols * 1e9 if symbols else 0.0, "ns", "LZ time / symbols"),
        "complexity.encode_s": (encode, "s", per_pass_label),
        "complexity.weights_s": (weights, "s", "normalize + trust_weights, per pass"),
        "boosting.trust_step_s": (trust_step, "s", "RunTrace.trust_seconds summed, per pass"),
        "boosting.history_self_s": (trust_step - encode - lz - weights if trust_step else 0.0, "s",
                                    "trust step minus encode, LZ and weights"),
        "boosting.train_self_s": (self_time("boosting.train"), "s", "self time, per pass"),
        "boosting.predict_proba_self_s": (self_time("boosting.Model.predict_proba"), "s", "self time, per pass"),
        "boosting.save_model_s": (total("boosting.save_model"), "s", per_pass_label),
        "boosting.load_model_s": (total("boosting.load_model"), "s", per_pass_label),
        "boosting.trace_write_s": (total("boosting.RunTrace.to_csv"), "s", per_pass_label),
        "boosting.trace_read_s": (total("boosting.load_trace_csv"), "s", "benchmark and CLI reads, per pass"),
        "boosting.model_bytes": (float(len(runner.model_bytes)), "bytes", "saved model file"),
        "boosting.trace_bytes": (float(runner.trace_bytes), "bytes", "saved trace CSV"),
        "trees.fit_s": (total("trees.fit_tree_weighted"), "s", per_pass_label),
        "trees.fit_calls": (calls("trees.fit_tree_weighted"), "count", per_pass_label),
        "trees.fit_leaves": (per_pass("fit_leaves"), "count", "leaves fitted per pass"),
        "trees.fit_ms_p50": (median(fit["durations"]) * 1e3 if fit else 0.0, "ms",
                             f"median of {fit['calls'] if fit else 0} fits"),
        "trees.fit_ms_p99": (tail_percentile(fit["durations"], 99) * 1e3 if fit else 0.0, "ms",
                             f"p99 of {fit['calls'] if fit else 0} fits"),
        "trees.predict_s": (predict_s, "s", per_pass_label),
        "trees.predict_calls": (predict_calls, "count", per_pass_label),
        "trees.predict_rows": (per_pass("predict_rows"), "count", "rows routed per pass"),
        "trees.predict_us_per_call": (predict_s / predict_calls * 1e6 if predict_calls else 0.0, "us", "mean"),
        "evaluation.cv_self_s": (self_time("evaluation.cross_validate"), "s", "self time, per pass"),
        "evaluation.metrics_s": (total("evaluation.compute_metrics"), "s", per_pass_label),
        "evaluation.fold_max_over_median": (median(fold_ratios) if fold_ratios else 0.0, "ratio",
                                            f"slowest fold / median fold, median of {len(fold_ratios)} CVs"),
        "evaluation.thread_speedup": (speedup, "ratio", "threads=1 / threads=2 cross_validate, untraced"),
        "noise.inject_s": (total("noise.inject"), "s", per_pass_label),
        "data.split_s": (total("evaluation.split_fold"), "s", per_pass_label),
        "data.load_csv_s": (total("data.load_csv"), "s", per_pass_label),
        "data.load_csv_rows_per_s": (tracer.counts.get("csv_rows", 0.0) / csv_total if csv_total else 0.0,
                                     "rows/s", "rows parsed / load_csv time"),
        "theory.checks_s": (sum(total("theory." + a) for a in
                                ("trust_bound_check", "ratio_bound_check", "separability_from_groups")),
                            "s", per_pass_label),
        "cli.verify_self_s": (self_time("cli.main"), "s", "self time, per pass"),
        "trace.overhead_s": (median(traced_passes) - untraced_pass, "s",
                             f"median of {n} traced passes minus the untraced pass"),
        "trace.spans": (len(tracer) / n, "count", "spans recorded per pass"),
    }
    return metrics, runner, {}


# ---------------------------------------------------------------------------
# Entry points


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha() -> str:
    """sha256 of the package sources, which identifies the code in a checkout without .git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "itboost").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    work_parent = ROOT / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_parent) as tmp:
        run = run_traced if args.trace else run_untraced
        metrics, runner, extra = run(workload, args.seed, args.seconds, Path(tmp), ledger)
        digest = runner.digest()
    with contextlib.suppress(OSError):
        work_parent.rmdir()  # only if no other run is using it

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value!r:>24} {unit:9s} {note}")
    for problem in ledger.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"digest {workload.name} seed={args.seed} sha256={digest}")
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "digest": digest,
        "extra": extra,
    }
    print(json.dumps({"meta": meta}))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process (ru_maxrss is per process)."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"perfbench: {name} --trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                metrics[f"{name}:{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
