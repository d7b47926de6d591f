"""Command-line entry point for reproducible training, evaluation, and verification runs.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from collections import Counter
from dataclasses import fields, replace

from .boosting import CONFIG_TYPES, BoostConfig, load_trace_csv, parse_config_file, save_model, train
from .data import DataError, load_csv, random_undersample, save_csv, stratified_kfold, write_rows
from .evaluation import (
    METRIC_NAMES,
    cross_validate,
    initial_margins,
    trajectory_summary,
    write_sweep_csv,
    write_trajectory_csv,
)
from .noise import NOISE_KINDS, NoiseMask, NoiseSpec, inject
from .synth import make_gaussian_dataset
from .theory import ratio_bound_check, required_group_size, separability_from_groups, trust_bound_check


class UsageError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse knows only -1 and -0.5 as negative numbers, and would read -1e-3 or -inf as a flag
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    def error(self, message):
        raise UsageError(message)

    def _get_values(self, action, arg_strings):
        # argparse drops a "--" value (--data=--) and would hand a single-value option an empty list
        if action.nargs is None and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def _add_run_flags(p: argparse.ArgumentParser, sets_itself: tuple[str, ...] = ()) -> None:
    """Input data, a config file, and one --dashed-name flag per BoostConfig field, except the
    fields in ``sets_itself``, which the command sets itself and its config file may not set."""
    p.add_argument("--data", required=True, help="input CSV with a header row")
    p.add_argument("--label", default="label", help="label column name or zero-based index")
    p.add_argument("--positive", default="1", help="raw token mapped to the positive class")
    p.add_argument("--config", default=None, help="key=value config file; flags override it")
    for f in fields(BoostConfig):
        if f.name not in sets_itself:
            flag = "--" + f.name.replace("_", "-")
            p.add_argument(flag, type=CONFIG_TYPES[f.name], choices=f.metadata.get("choices"), default=None,
                           help=f"default {f.default}")
    p.set_defaults(sets_itself=sets_itself)


def at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def int_at_least(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return int_at_least


def _add_cv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=at_least(2), default=5, help="cross-validation folds")
    p.add_argument("--threads", type=at_least(1), default=1,
                   help="above 1, folds run in min(threads, k) forked worker processes (POSIX only)")


def _resolve_label(label: str):
    """A zero-based column index if ``label`` is ASCII ``-?[0-9]+``, else a header name."""
    return int(label) if re.fullmatch(r"-?[0-9]+", label) else label


def _build_config(args) -> BoostConfig:
    mapping = parse_config_file(args.config) if args.config else {}
    for key in args.sets_itself:
        if key in mapping:
            raise UsageError(f"config file {args.config} sets {key!r}, which {args.command} sets itself")
    for f in fields(BoostConfig):
        value = getattr(args, f.name, None)  # no attribute for a field the command sets itself
        if value is not None:
            mapping[f.name] = value
    try:
        return BoostConfig.from_mapping(mapping)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load(args):
    return load_csv(args.data, _resolve_label(args.label), args.positive)


def cmd_synth(args) -> int:
    try:
        dataset = make_gaussian_dataset(
            n_rows=args.n,
            n_informative=args.d,
            n_distractors=args.distractors,
            separation=args.sep,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    save_csv(dataset, args.out)
    print(f"wrote {dataset.n_rows} rows x {dataset.n_features} features to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _build_config(args)
    dataset = _load(args)
    t0 = time.perf_counter()
    model, trace = train(dataset, config)
    dt = time.perf_counter() - t0
    save_model(model, args.out)
    if args.trace:
        trace.to_csv(args.trace)
    print(
        f"trained {len(model.trees)} trees in {dt:.3f}s (trust step: {trace.total_trust_seconds():.3f}s, "
        f"tree fit: {sum(trace.fit_seconds):.3f}s)"
    )
    print(f"model written to {args.out}" + (f", trace to {args.trace}" if args.trace else ""))
    return 0


def cmd_evaluate(args) -> int:
    config = _build_config(args)
    dataset = _load(args)
    if args.undersample == "before":
        dataset = random_undersample(dataset, seed=config.seed)
    folds = stratified_kfold(dataset, args.k, config.seed)
    report = cross_validate(
        dataset,
        config,
        folds,
        threads=args.threads,
        undersample_train=(args.undersample == "after"),
    )
    peak_mb = _peak_memory_mb()
    report.to_csv(args.out)
    for m in METRIC_NAMES:
        print(f"{m}_mean={report.mean(m):.6f} {m}_std={report.std(m):.6f}")
    print(f"wall_time_seconds={report.wall_time_seconds:.3f}")
    print(f"train_seconds={report.total_train_seconds():.3f}")
    print(f"trust_seconds={report.trust_seconds:.3f}")
    per_iter = report.trust_seconds / (config.iterations * folds.k)
    print(f"trust_seconds_per_iteration={per_iter:.6f}")
    if peak_mb is not None:
        print(f"peak_memory_mb={peak_mb:.1f}")
    print(f"report written to {args.out}")
    return 0


def _peak_memory_mb():
    """Peak RSS of this process or of its largest finished child (a CV worker), whichever is larger."""
    try:
        import resource

        unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes on macOS, KiB elsewhere
        self_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(self_peak, children_peak) * unit / (1024.0 * 1024.0)
    except (ImportError, OSError):
        return None


def cmd_noise_sweep(args) -> int:
    config = _build_config(args)
    try:
        rates = sorted(float(r) for r in args.rates.split(","))
        specs = [None if rate == 0 else NoiseSpec(kind=args.kind, rate=rate, seed=config.seed) for rate in rates]
    except ValueError as exc:
        raise UsageError(f"bad --rates value: {exc}") from None
    modes = [m.strip() for m in args.modes.split(",")]
    try:
        configs = [replace(config, trust=mode) for mode in modes]
    except ValueError as exc:
        raise UsageError(f"bad --modes value: {exc}") from None
    for flag, values in (("--rates", rates), ("--modes", modes)):
        for value, count in Counter(values).items():
            if count > 1:
                raise UsageError(f"bad {flag} value: {value!r} given {count} times")
    dataset = _load(args)
    folds = stratified_kfold(dataset, args.k, config.seed)
    rows = [
        (mode_config.trust, args.kind, rate,
         cross_validate(dataset, mode_config, folds, noise=spec, threads=args.threads))
        for mode_config in configs
        for rate, spec in zip(rates, specs)
    ]
    write_sweep_csv(rows, args.out)
    print(f"{len(rows)} sweep rows written to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    config = _build_config(args)
    dataset = _load(args)
    folds = stratified_kfold(dataset, args.k, config.seed)
    rows = []
    for encoding in ("binary-sign", "quantized"):
        enc_config = replace(config, encoding=encoding, trust="enabled")
        report = cross_validate(dataset, enc_config, folds, threads=args.threads)
        rows.append((encoding, "none", 0.0, report))
        print(
            f"encoding={encoding} acc={report.mean('acc'):.6f} "
            f"train_seconds={report.total_train_seconds():.3f} trust_seconds={report.trust_seconds:.3f}"
        )
    write_sweep_csv(rows, args.out, first_column="encoding")
    binary_t = rows[0][3].total_train_seconds()
    quant_t = rows[1][3].total_train_seconds()
    print(f"binary_vs_quantized_time_ratio={binary_t / quant_t:.4f}")
    print(f"ablation table written to {args.out}")
    return 0


def cmd_trajectory(args) -> int:
    config = _build_config(args)
    try:
        spec = NoiseSpec(kind=args.noise_kind, rate=args.noise_rate, seed=config.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    dataset = _load(args)
    noisy, mask = inject(dataset, spec)
    model, trace = train(noisy, config)
    early = max(1, config.iterations // 10)
    margins = initial_margins(model, noisy, early)
    curves = trajectory_summary(trace, mask, margins)
    write_trajectory_csv(curves, args.out)
    if args.mask_out:
        mask.to_csv(args.mask_out)
    if args.trace_out:
        trace.to_csv(args.trace_out)
    print(f"categories: {', '.join(curves)}; curves written to {args.out}")
    return 0


def cmd_verify_bounds(args) -> int:
    try:
        required_group_size(args.eps, args.delta)  # check --eps and --delta before reading any file
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    row_ids, states = load_trace_csv(args.trace)
    mask = NoiseMask.read_csv(args.mask)
    foreign = mask.flipped_rows.difference(row_ids.tolist())
    if foreign:
        raise DataError(f"verify-bounds: mask {args.mask} names row {min(foreign)}, absent from trace {args.trace}")
    iteration = args.iteration if args.iteration is not None else max(states)
    if iteration not in states:
        raise DataError(f"verify-bounds: iteration {iteration} not present in trace {args.trace}")
    state = states[iteration]
    noisy = mask.selects(row_ids)
    if not noisy.any() or noisy.all():
        raise DataError(f"verify-bounds: mask {args.mask} must mark some but not all rows of trace {args.trace}")
    clean_values, noisy_values = state.normalized[~noisy], state.normalized[noisy]
    report = (
        {"iteration": iteration}
        | trust_bound_check(state.normalized)
        | ratio_bound_check(clean_values, noisy_values)
        | separability_from_groups(clean_values, noisy_values, args.eps, args.delta)
    )
    for key, value in report.items():
        print(f"{key}={value}")
    write_rows(args.out, ["key", "value"], report.items())
    print(f"report written to {args.out}")
    return 0


def build_parser() -> CliParser:
    parser = CliParser(prog="itboost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=True, help="primary output path")
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, "generate a seeded synthetic two-Gaussian dataset")
    p.add_argument("--seed", type=at_least(0), default=BoostConfig.seed, help="dataset seed (default %(default)s)")
    p.add_argument("--n", type=int, default=400, help="number of rows")
    p.add_argument("--d", type=int, default=10, help="informative feature count")
    p.add_argument("--distractors", type=int, default=0, help="pure-noise feature count")
    p.add_argument("--sep", type=float, default=2.0, help="distance between class means")

    p = command("train", cmd_train, "fit a model on a CSV, write model and trace")
    _add_run_flags(p)
    p.add_argument("--trace", default=None, help="optional trace CSV output path")

    p = command("evaluate", cmd_evaluate, "stratified k-fold cross-validation report")
    _add_run_flags(p)
    _add_cv_flags(p)
    p.add_argument("--undersample", choices=("off", "before", "after"), default="off",
                   help="rebalance classes before the CV split or per training fold")

    p = command("noise-sweep", cmd_noise_sweep, "cross-validate across noise rates and trust modes")
    _add_run_flags(p, sets_itself=("trust",))
    _add_cv_flags(p)
    p.add_argument("--kind", choices=NOISE_KINDS, required=True)
    p.add_argument("--rates", required=True, help="comma-separated noise rates")
    p.add_argument("--modes", default="enabled", help="comma-separated trust modes")

    p = command("ablate", cmd_ablate, "binary vs quantized encoding, metrics and timing")
    _add_run_flags(p, sets_itself=("encoding", "trust"))
    _add_cv_flags(p)

    p = command("trajectory", cmd_trajectory, "per-category mean weight curves from a noisy run")
    _add_run_flags(p)
    p.add_argument("--noise-kind", choices=NOISE_KINDS, default="symmetric", dest="noise_kind")
    p.add_argument("--noise-rate", type=float, default=0.2, dest="noise_rate")
    p.add_argument("--mask-out", default=None, dest="mask_out")
    p.add_argument("--trace-out", default=None, dest="trace_out")

    p = command("verify-bounds", cmd_verify_bounds, "trust-weight bound and separability reports from a trace")
    p.add_argument("--trace", required=True, help="trace CSV written by train/trajectory")
    p.add_argument("--mask", required=True, help="noise mask CSV")
    p.add_argument("--iteration", type=at_least(1), default=None)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
