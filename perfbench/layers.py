"""Which program functions the traced run wraps, and the per-layer metrics.

Names are bound where the callers look them up: ``experiment`` imports
``run_round``, ``exploration_rate``, ``report`` and ``pca_fit`` with
``from .x import y``, ``baselines`` has its own ``run_round`` and
``second_price``, and ``cli`` its own ``run_single``, ``build_series``,
``write_run`` and ``read_run``. Wrapping only the defining module would miss
those calls.

Loop-layer metrics are per traced unit. Set-up-layer metrics
(``dataio.pca_fit``, ``dataio.load_examples``, ``experiment.prepare_dataset``)
are per prepared corpus, except ``dataio.pca_fit.failed``, which counts the
failed fits of the whole run.
"""

from __future__ import annotations

from pathlib import Path

from feedauction import baselines, cli, core, dataio, experiment, learner, mechanism, metrics
from feedauction.config import ExperimentConfig

SPAN_NAMES = (
    "experiment.run_single",
    "experiment.prepare_dataset",
    "dataio.pca_fit",
    "dataio.write_run",
    "dataio.read_run",
    "cli.run",
    "cli.report",
)

METRICS_FUNCTIONS = (
    "metrics.build_series",
    "metrics.per_round_profit",
    "metrics.estimation_error_trace",
    "metrics.oracle_prices",
    "metrics.welfare_regret",
    "metrics.per_agent_welfare_loss",
)


def _observe_predict(tracer, args, result) -> None:
    model = args[0]
    if model.sample_count < model.min_samples:
        tracer.tally("learner.predict.prior")
    elif result == 0.0 or result == 1.0:
        tracer.tally("learner.predict.clamped")


def _observe_round(tracer, args, record) -> None:
    if record.explored:
        tracer.tally("mechanism.run_round.explored")


def _observe_write(tracer, args, result) -> None:
    tracer.tally("dataio.write_run.bytes", Path(args[0]).stat().st_size)
    tracer.tally("dataio.write_run.rounds", len(args[1]))


def _cli_layer(args) -> str:
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def install(tracer) -> None:
    wrap = tracer.wrap
    wrap(learner.ValueModel, "predict", "learner.predict", _observe_predict)
    wrap(learner.ValueModel, "ingest", "learner.ingest")
    wrap(learner.ValueModel, "fit", "learner.fit")
    wrap(core.RngStream, "random", "core.rng.random")
    wrap(core.RngStream, "integers", "core.rng.integers")
    wrap(ExperimentConfig, "from_file", "config.from_file")
    wrap(ExperimentConfig, "validate", "config.validate")

    for owner in (experiment, baselines):
        wrap(owner, "run_round", "mechanism.run_round", _observe_round)
    for owner in (experiment, mechanism):
        wrap(owner, "exploration_rate", "mechanism.exploration_rate")
    for owner in (mechanism, baselines):
        wrap(owner, "second_price", "mechanism.second_price")
    wrap(experiment, "report", "agents.report")
    wrap(experiment, "sample_simplex", "agents.sample_simplex")
    wrap(experiment, "utility_from_uniform", "agents.utility_from_uniform")
    for name in ("uniform_round", "oracle_round", "direct_regression_round"):
        wrap(experiment, name, f"baselines.{name}")

    wrap(experiment, "pca_fit", "dataio.pca_fit")
    wrap(dataio, "load_examples", "dataio.load_examples")
    wrap(cli, "write_run", "dataio.write_run", _observe_write)
    wrap(cli, "read_run", "dataio.read_run")
    for owner in (experiment, cli):
        wrap(owner, "run_single", "experiment.run_single")
    wrap(experiment, "prepare_dataset", "experiment.prepare_dataset")
    wrap(experiment, "oracle_prices", "metrics.oracle_prices")
    wrap(cli, "build_series", "metrics.build_series")
    for name in ("per_round_profit", "estimation_error_trace", "oracle_prices",
                 "welfare_regret", "per_agent_welfare_loss"):
        wrap(metrics, name, f"metrics.{name}")
    wrap(cli, "main", _cli_layer)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(loop: dict, tallies: dict, units: int, setup: dict, corpora: int,
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``."""
    zero = [0, 0.0, 0.0, 0]

    def calls(name):
        return loop.get(name, zero)[0] / units

    def self_s(*names):
        return sum(loop.get(name, zero)[2] for name in names) / units

    def setup_self_s(name):
        return _ratio(setup.get(name, zero)[2], corpora)

    predict = loop.get("learner.predict", zero)[0]
    ingest = loop.get("learner.ingest", zero)[0]
    rounds = loop.get("mechanism.run_round", zero)[0]
    return {
        "learner.predict.calls": (calls("learner.predict"), "count"),
        "learner.predict.self_s": (self_s("learner.predict"), "s"),
        "learner.predict.prior_ratio": (_ratio(tallies.get("learner.predict.prior", 0), predict), "ratio"),
        "learner.predict.clamped_ratio": (_ratio(tallies.get("learner.predict.clamped", 0), predict), "ratio"),
        "learner.ingest.calls": (calls("learner.ingest"), "count"),
        "learner.ingest.self_s": (self_s("learner.ingest"), "s"),
        "learner.fit.calls": (calls("learner.fit"), "count"),
        "learner.fit.self_s": (self_s("learner.fit"), "s"),
        "learner.fit_per_ingest": (_ratio(loop.get("learner.fit", zero)[0], ingest), "ratio"),
        "mechanism.run_round.calls": (calls("mechanism.run_round"), "count"),
        "mechanism.run_round.self_s": (self_s("mechanism.run_round"), "s"),
        "mechanism.exploration_rate.calls_per_round": (
            _ratio(loop.get("mechanism.exploration_rate", zero)[0], rounds), "ratio"),
        "mechanism.exploration_rate.self_s": (self_s("mechanism.exploration_rate"), "s"),
        "mechanism.second_price.calls": (calls("mechanism.second_price"), "count"),
        "mechanism.second_price.self_s": (self_s("mechanism.second_price"), "s"),
        "mechanism.explored_ratio": (
            _ratio(tallies.get("mechanism.run_round.explored", 0), rounds), "ratio"),
        "agents.report.calls": (calls("agents.report"), "count"),
        "agents.report.self_s": (self_s("agents.report"), "s"),
        "agents.world.self_s": (self_s("agents.sample_simplex", "agents.utility_from_uniform"), "s"),
        "core.rng_draw.calls": (calls("core.rng.random") + calls("core.rng.integers"), "count"),
        "baselines.uniform_round.self_s": (self_s("baselines.uniform_round"), "s"),
        "baselines.oracle_round.self_s": (self_s("baselines.oracle_round"), "s"),
        "baselines.direct_regression_round.self_s": (self_s("baselines.direct_regression_round"), "s"),
        "metrics.self_s": (self_s(*METRICS_FUNCTIONS), "s"),
        "dataio.pca_fit.self_s": (setup_self_s("dataio.pca_fit"), "s"),
        "dataio.pca_fit.failed": (setup.get("dataio.pca_fit", zero)[3], "count"),
        "dataio.load_examples.self_s": (setup_self_s("dataio.load_examples"), "s"),
        "dataio.write_run.self_s": (self_s("dataio.write_run"), "s"),
        "dataio.write_run.bytes_per_round": (
            _ratio(tallies.get("dataio.write_run.bytes", 0), tallies.get("dataio.write_run.rounds", 0)),
            "bytes"),
        "dataio.read_run.self_s": (self_s("dataio.read_run"), "s"),
        "experiment.run_single.self_s": (self_s("experiment.run_single"), "s"),
        "experiment.prepare_dataset.self_s": (setup_self_s("experiment.prepare_dataset"), "s"),
        "config.self_s": (self_s("config.from_file", "config.validate"), "s"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "cli.report.self_s": (self_s("cli.report"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.units": (units, "count"),
    }
