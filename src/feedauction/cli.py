"""Command-line interface.

Subcommands: ``run`` (simulate and write JSONL ledgers), ``paired-deviation``
(profit of one misreporting agent against its truthful twin),
``report`` (aggregate run files into plot-ready CSVs), ``gen-data``
(synthetic labeled corpus), and ``validate-config``.

Errors print a single line ``error [category] message`` to stderr and exit
with a category-specific code: 2 for config problems, 3 for data problems,
4 for filesystem problems. Any other exception is a fault of the program and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .config import _IGNORED_KEYS, MECHANISMS, ConfigError, ExperimentConfig
from .core import ConfigurationError
from .dataio import (
    ConvergenceError,
    DataError,
    generate_synthetic_dataset,
    load_examples,
    read_run,
    write_examples,
    write_run,
)
from .experiment import paired_deviation_runs, prepare_dataset, run_metadata, run_single
from .metrics import build_series, estimation_error_trace, loglog_tail_slope, per_round_profit

__all__ = ["main", "write_histogram_csv", "write_regret_csv"]


def _mean_stderr(values) -> tuple[np.ndarray, np.ndarray]:
    # Mean and standard error across runs (axis 0 indexes runs).
    stacked = np.asarray(values, dtype=float)
    mean = stacked.mean(axis=0)
    if stacked.shape[0] < 2:
        return mean, np.zeros_like(mean)
    return mean, stacked.std(axis=0, ddof=1) / np.sqrt(stacked.shape[0])


def write_regret_csv(
    path: Path,
    welfare_mean: np.ndarray,
    welfare_stderr: np.ndarray,
    revenue_mean: np.ndarray,
    revenue_stderr: np.ndarray,
) -> None:
    """Plot-ready cumulative-regret curves: one row per round."""
    header = ["t", "welfare_mean", "welfare_stderr", "revenue_mean", "revenue_stderr"]
    rounds = np.arange(1, welfare_mean.shape[0] + 1)
    _write_csv(path, header, rounds, welfare_mean, welfare_stderr, revenue_mean, revenue_stderr)


def write_histogram_csv(path: Path, loss_mean: np.ndarray, loss_stderr: np.ndarray) -> None:
    """Per-agent welfare-loss histogram: one row per agent."""
    header = ["agent", "welfare_loss_mean", "welfare_loss_stderr"]
    _write_csv(path, header, np.arange(loss_mean.shape[0]), loss_mean, loss_stderr)


def _write_csv(path: Path, header: list[str], *columns: np.ndarray) -> None:
    # One row per element of the columns; csv writes a float as its repr.
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*(column.tolist() for column in columns)))


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    overrides: dict[str, Any] = {}
    if getattr(args, "master_seed", None) is not None:
        overrides["master_seed"] = args.master_seed
    if getattr(args, "seeds", None) is not None:
        overrides["n_seeds"] = args.seeds
    if getattr(args, "output_dir", None) is not None:
        overrides["output_dir"] = args.output_dir
    if overrides:
        config = config.replace(**overrides)
    return config


def _load_examples_if_needed(config: ExperimentConfig):
    if config.data_source != "csv":
        return None
    examples = load_examples(config.data_path)
    prefix = f"{config.data_path}: PCA to {config.pca_components} components"
    try:
        return prepare_dataset(examples, config.pca_components)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{prefix}: {exc}", exc.residual) from None
    except DataError as exc:
        raise DataError(f"{prefix}: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    examples = _load_examples_if_needed(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    finals_welfare, finals_revenue, min_net = [], [], []
    welfare_curves, revenue_curves = [], []
    for seed_index in range(config.n_seeds):
        run = run_single(config, seed_index, examples, keep_records=not args.skip_contexts)
        series = build_series(run)
        path = out_dir / f"{config.mechanism}_seed{seed_index:03d}.jsonl"
        write_run(path, run, series, run_metadata(run))
        welfare_curves.append(series.cumulative_welfare_regret)
        revenue_curves.append(series.cumulative_revenue_regret)
        finals_welfare.append(series.cumulative_welfare_regret[-1])
        finals_revenue.append(series.cumulative_revenue_regret[-1])
        min_net.append(series.net_utility.sum(axis=0).min())
        print(
            f"seed {seed_index:3d}: welfare_regret={finals_welfare[-1]:.3f} "
            f"revenue_regret={finals_revenue[-1]:.3f} "
            f"explored={run.explored.mean():.4f} -> {path}"
        )
    welfare_mean, _ = _mean_stderr(welfare_curves)
    revenue_mean, _ = _mean_stderr(revenue_curves)
    for label, finals in (("welfare", finals_welfare), ("revenue", finals_revenue)):
        mean, stderr = _mean_stderr(finals)
        print(f"final {label} regret: mean={mean:.3f} stderr={stderr:.3f}")
    print(f"tail slope welfare: {_slope_or_na(welfare_mean)}")
    print(f"tail slope revenue: {_slope_or_na(revenue_mean)}")
    print(f"worst final agent net utility: {min(min_net):.3f}")
    return 0


def _slope_or_na(curve: np.ndarray) -> str:
    try:
        return f"{loglog_tail_slope(curve):.4f}"
    except ValueError:
        return "n/a"


def _cmd_paired_deviation(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.mechanism not in ("feedback", "direct_regression"):
        raise ConfigError(
            f"paired-deviation needs a learning mechanism (feedback or direct_regression), "
            f"not {config.mechanism!r}: its profit bound is built from the value estimates"
        )
    examples = _load_examples_if_needed(config)
    # Opened before any seed is played, so that a bad path fails first.
    with Path(args.out).open("w", newline="") if args.out else nullcontext() as handle:
        pairs = paired_deviation_runs(config, args.agent, args.strategy, examples)
        profits, quartile_means, error_sums = [], [], []
        for truthful_run, deviant_run in pairs:
            profile = per_round_profit(truthful_run, deviant_run, args.agent)
            profits.append(float(profile.sum()))
            quartile_means.append(float(profile[3 * len(profile) // 4 :].mean()))
            errors = estimation_error_trace(truthful_run.true_means, truthful_run.estimates)
            error_sums.append(float(errors.sum()))
            print(
                f"seed {truthful_run.seed_index:3d}: profit={profits[-1]:+.4f} "
                f"last_quartile_per_round={quartile_means[-1]:+.6f}"
            )
        bound = 6.0 * float(np.mean(error_sums))
        profit_mean, profit_stderr = _mean_stderr(profits)
        quartile_mean, quartile_stderr = _mean_stderr(quartile_means)
        print(f"agent {args.agent} strategy {args.strategy}")
        print(f"mean profit: {profit_mean:+.4f} stderr={profit_stderr:.4f}")
        print(f"profit bound (6 x cumulative estimate error): {bound:.4f}")
        print(
            f"last-quartile per-round profit: mean={quartile_mean:+.6f} "
            f"stderr={quartile_stderr:.6f}"
        )
        if handle is not None:
            writer = csv.writer(handle)
            writer.writerow(["seed", "profit", "last_quartile_per_round"])
            for seed_index, (profit, quartile) in enumerate(zip(profits, quartile_means)):
                writer.writerow([seed_index, repr(profit), repr(quartile)])
    return 0


_COMPARABLE_EXEMPT = {
    "mechanism",
    "seeds.master",
    "seeds.count",
    "output.dir",
    "agents.deviant_index",
    "agents.deviant_strategy",
}


def _ledger_columns(file_path: str) -> tuple[tuple, str, np.ndarray, np.ndarray, np.ndarray, int]:
    # Config signature, mechanism, the winner, welfare and revenue increment
    # columns, and the agent count of one run file; its parsed rows are freed
    # on return. A ledger missing any of them, whose agents.count is not a JSON
    # integer >= 1 or whose mechanism is not a known one, naming a winner that
    # is not a JSON integer in [0, agents.count) or holding an increment that is
    # not a finite JSON number is a data error.
    metadata, rows = read_run(file_path)
    try:
        echo = metadata["config"]
        signature = tuple(
            (k, repr(v)) for k, v in sorted(echo.items()) if k not in _COMPARABLE_EXEMPT
        )
        mechanism = echo["mechanism"]
        allocated = [row["allocated_agent"] for row in rows]
        welfare = [row["welfare_regret_increment"] for row in rows]
        revenue = [row["revenue_regret_increment"] for row in rows]
        n_agents = echo["agents.count"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        raise DataError(f"{file_path}: malformed run ledger ({reason})") from None
    # ``type`` rather than ``isinstance``: a JSON true is no agent or number.
    if type(n_agents) is not int or n_agents < 1:
        raise DataError(f"{file_path}: agents.count {n_agents!r} is not an integer >= 1")
    if mechanism not in MECHANISMS:
        raise DataError(f"{file_path}: mechanism {mechanism!r} is not one of {MECHANISMS}")
    for t, winner in enumerate(allocated, start=1):
        if type(winner) is not int or not 0 <= winner < n_agents:
            raise DataError(
                f"{file_path}: round {t} allocates agent {winner!r}, not an integer "
                f"in [0, {n_agents}) for agents.count {n_agents}"
            )
    for name, column in (("welfare", welfare), ("revenue", revenue)):
        for t, value in enumerate(column, start=1):
            if type(value) not in (int, float) or not math.isfinite(value):
                raise DataError(f"{file_path}: round {t} has {name}_regret_increment {value!r}")
    return (
        signature,
        mechanism,
        np.array(allocated, dtype=int),
        np.array(welfare, dtype=float),
        np.array(revenue, dtype=float),
        n_agents,
    )


def _require_writable_dir(directory: Path, target: str) -> None:
    if not directory.is_dir() or not os.access(directory, os.W_OK | os.X_OK):
        raise OSError(f"cannot write {target}: {directory} is not a writable directory")


def _cmd_report(args: argparse.Namespace) -> int:
    # The output directory is checked before any ledger is parsed and made after every check.
    out_dir = Path(args.out)
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    _require_writable_dir(existing, f"CSVs to {out_dir}")
    groups: dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray, int]]] = {}
    signatures = set()
    for file_path in args.files:
        signature, mechanism, *columns = _ledger_columns(file_path)
        signatures.add(signature)
        groups.setdefault(mechanism, []).append(tuple(columns))
    if len(signatures) > 1 and not args.allow_mixed:
        raise ConfigError(
            "run files come from incompatible configs; pass --allow-mixed to force"
        )
    for mechanism, entries in groups.items():
        counts = sorted({n_agents for *_, n_agents in entries})
        if len(counts) > 1:
            raise ConfigError(
                f"{mechanism} run files differ in agents.count "
                f"({', '.join(map(str, counts))}), so their per-agent welfare-loss "
                "histograms cannot be averaged"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'mechanism':18s} {'runs':>4s} {'welfare_slope':>14s} {'revenue_slope':>14s}")
    for mechanism in sorted(groups):
        entries = groups[mechanism]
        horizon = min(allocated.shape[0] for allocated, *_ in entries)
        welfare = [np.cumsum(w[:horizon]) for _, w, _, _ in entries]
        revenue = [np.cumsum(r[:horizon]) for _, _, r, _ in entries]
        losses = [
            np.bincount(a[:horizon], weights=w[:horizon], minlength=n)
            for a, w, _, n in entries
        ]
        welfare_mean, welfare_stderr = _mean_stderr(welfare)
        revenue_mean, revenue_stderr = _mean_stderr(revenue)
        loss_mean, loss_stderr = _mean_stderr(losses)
        write_regret_csv(
            out_dir / f"regret_{mechanism}.csv",
            welfare_mean,
            welfare_stderr,
            revenue_mean,
            revenue_stderr,
        )
        write_histogram_csv(out_dir / f"histogram_{mechanism}.csv", loss_mean, loss_stderr)
        print(
            f"{mechanism:18s} {len(entries):4d} {_slope_or_na(welfare_mean):>14s} "
            f"{_slope_or_na(revenue_mean):>14s}"
        )
    print(f"wrote CSVs to {out_dir}")
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if out.is_dir():  # checked, as its parent is, before the corpus is generated
        raise OSError(f"cannot write {out}: it is a directory")
    _require_writable_dir(out.parent, args.out)
    examples = generate_synthetic_dataset(args.examples, args.features, args.seed)
    write_examples(args.out, examples)
    print(f"wrote {len(examples)} examples with {args.features} features to {args.out}")
    return 0


def _cmd_validate_config(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_file(args.config)
    print("ok")
    ignored = _IGNORED_KEYS[config.data_source]  # the other world's keys would not load back
    for key, value in sorted(config.echo().items()):
        if key not in ignored:
            print(f"{key} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feedauction",
        description="Repeated-auction simulator with binary comparison feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one mechanism and write JSONL ledgers")
    run_p.add_argument("--config", required=True, help="flat key=value config file")
    run_p.add_argument("--output-dir", help="override output.dir")
    run_p.add_argument("--master-seed", type=int, help="override seeds.master")
    run_p.add_argument("--seeds", type=int, help="override seeds.count")
    run_p.add_argument(
        "--skip-contexts",
        action="store_true",
        help="omit per-round context matrices from the ledgers",
    )
    run_p.set_defaults(func=_cmd_run)

    dev_p = sub.add_parser(
        "paired-deviation",
        help="profit of one misreporting agent against its truthful twin",
    )
    dev_p.add_argument("--config", required=True)
    dev_p.add_argument("--agent", type=int, required=True, help="deviating agent index")
    dev_p.add_argument(
        "--strategy", required=True, help="e.g. always_high or threshold_shift:-0.2"
    )
    dev_p.add_argument("--master-seed", type=int, help="override seeds.master")
    dev_p.add_argument("--seeds", type=int, help="override seeds.count")
    dev_p.add_argument("--out", help="optional per-seed profit CSV")
    dev_p.set_defaults(func=_cmd_paired_deviation)

    report_p = sub.add_parser("report", help="aggregate run files into plot-ready CSVs")
    report_p.add_argument("files", nargs="+", help="JSONL run files")
    report_p.add_argument("--out", required=True, help="directory for the CSVs")
    report_p.add_argument(
        "--allow-mixed",
        action="store_true",
        help="aggregate files even if their configs differ beyond the mechanism",
    )
    report_p.set_defaults(func=_cmd_report)

    gen_p = sub.add_parser("gen-data", help="generate a synthetic labeled corpus")
    gen_p.add_argument("--out", required=True, help="CSV path to write")
    gen_p.add_argument("--examples", type=int, default=2000)
    gen_p.add_argument("--features", type=int, default=60)
    gen_p.add_argument("--seed", type=int, default=7)
    gen_p.set_defaults(func=_cmd_gen_data)

    validate_p = sub.add_parser("validate-config", help="check a config file and echo it")
    validate_p.add_argument("--config", required=True)
    validate_p.set_defaults(func=_cmd_validate_config)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error [config] {exc}", file=sys.stderr)
        return 2
    except (DataError, ConvergenceError, UnicodeDecodeError) as exc:
        print(f"error [data] {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error [io] {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
