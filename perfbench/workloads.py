"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and then
runs numbered *units*, each one complete job a user would wait for. The
loop in ``run.py`` calls ``unit(0)``, ``unit(1)``, ... one after the
other in one thread (a closed loop with a single caller) until the run's
time is up. A unit times its job, then checks the job's outputs outside the
timed span.

Why these three (README.md has the layer map):

- ``sweep-deviation``: criterion 5's paired-deviation sweep. The per-round
  learner and mechanism loop does nearly all the work and no file I/O runs,
  so an engine change shows here first.
- ``moderation``: criterion 8's corpus world. PCA lands in set-up, the
  learner runs at d=30, and half of the runs take the baseline paths that
  never touch the learner, so a feedback-loop change must show no cost here.
- ``ledger``: the CLI ``run``/``report`` round trip with per-round records
  kept and ledgers written and re-read, the only workload where the ledger
  format matters.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from feedauction import cli, dataio, metrics
from feedauction import experiment as ex
from feedauction.config import ExperimentConfig

import checks
import speed

# tests/test_acceptance.py::DEVIATIONS, the six misreports of criterion 5.
DEVIATIONS = (
    "always_high",
    "always_low",
    "inverted",
    "random:0.5",
    "threshold_shift:0.2",
    "threshold_shift:-0.2",
)
DEVIANT_AGENT = 0
MECHANISMS = ("feedback", "direct_regression", "uniform", "oracle")
# Corpora per moderation run; README.md says why eight.
CORPORA = 8

clock = time.perf_counter


class Outcome:
    """Operations attempted and failed, and output checks that failed.

    An operation is one ``prepare_dataset``, one ``run_single`` (with the
    metrics the workload derives from it) or one CLI call. An exception
    fails the operation; so does a failed output check on its result.
    Checks of the run as a whole (the stored digest, traced against
    untraced outputs, layers that never fired) make it incorrect without
    failing an operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def attempt(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, problems: list[str], operations: int = 1) -> None:
        """Fail the ``operations`` operations whose outputs have ``problems``."""
        if problems:
            self.failed += operations
            self.problems.extend(problems)

    def note(self, problems: list[str]) -> None:
        """Record problems of the run as a whole; no operation fails."""
        self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return not self.problems


@dataclass
class Unit:
    """One job's outputs and timing.

    ``pieces`` are the unit's timed pieces as (rounds, seconds, seconds at
    the reference's nominal speed; see speed.py). With ``rate_per_piece``
    each piece is one rate sample (the arms of a sweep, all alike);
    otherwise the whole unit is one.
    """

    digest: list
    pieces: list[tuple[int, float, float]]
    rate_per_piece: bool = False

    @property
    def seconds(self) -> float:
        return sum(p[1] for p in self.pieces)

    def rates(self, column: int = 2) -> list[float]:
        """Rounds per second, scaled (column 2) or raw (column 1)."""
        if self.rate_per_piece:
            return [p[0] / p[column] for p in self.pieces]
        return [sum(p[0] for p in self.pieces) / sum(p[column] for p in self.pieces)]


class Workload:
    """Set-up, then numbered units.

    ``reference``, when set, times one host-speed reference job, which runs
    after every timed piece, outside its timing.
    """

    reference = None

    def timed(self, fn, *args):
        """Run ``fn(*args)``; return (result, seconds, seconds at nominal speed)."""
        start = clock()
        result = fn(*args)
        seconds = clock() - start
        reference_s = self.reference() if self.reference else None
        return result, seconds, speed.at_nominal(seconds, reference_s)

    def setup(self) -> list[tuple[float, float]]:
        """Prepare inputs; time each repetition as (seconds, at nominal speed)."""
        return []

    def runnable(self) -> bool:
        return True


class SweepDeviation(Workload):
    """Per seed index: one truthful arm and six deviant arms, paired.

    Synthetic linear world, n=10, d=5, slow schedule, T=20k, feedback
    mechanism, ``keep_records=False``; config ``master_seed`` is the
    workload seed and unit ``k`` plays seed index ``k``.
    """

    name = "sweep-deviation"
    expected_layers = frozenset({
        "experiment.run_single", "config.validate",
        "learner.predict", "learner.ingest", "learner.fit",
        "mechanism.run_round", "mechanism.exploration_rate", "mechanism.second_price",
        "agents.report", "agents.sample_simplex", "agents.utility_from_uniform",
        "core.rng.random", "core.rng.integers",
        "metrics.per_round_profit", "metrics.estimation_error_trace",
        "metrics.per_agent_welfare_loss", "metrics.welfare_regret", "metrics.oracle_prices",
    })

    def __init__(self, seed: int, workdir: Path, outcome: Outcome) -> None:
        self.outcome = outcome
        self.config = ExperimentConfig(
            horizon=20_000, n_agents=10, dim=5, mechanism="feedback",
            schedule_kind="slow", master_seed=seed, n_seeds=1,
        )

    def _arm(self, config, k):
        run = ex.run_single(config, k, keep_records=False)
        losses = metrics.per_agent_welfare_loss(run.true_means, run.allocated)
        errors = metrics.estimation_error_trace(run.true_means, run.estimates)
        return run, losses, errors

    def _pair(self, config, k, truthful):
        run, losses, errors = self._arm(config, k)
        profit = metrics.per_round_profit(truthful, run, DEVIANT_AGENT)
        return run, losses, errors, profit

    def unit(self, k: int) -> Unit:
        pieces = []

        def arm(label, fn, *args):
            result, seconds, nominal_s = self.timed(self.outcome.attempt, label, fn, *args)
            if result is not None:
                pieces.append((self.config.horizon, seconds, nominal_s))
            return result

        truthful = arm(f"truthful seed_index {k}", self._arm, self.config, k)
        arms = {}
        for strategy in DEVIATIONS:
            if truthful is None:
                arms[strategy] = None
                continue
            config = self.config.replace(
                deviant_index=DEVIANT_AGENT, deviant_strategy=strategy
            )
            arms[strategy] = arm(
                f"{strategy} seed_index {k}", self._pair, config, k, truthful[0]
            )

        digest = []
        if truthful is not None:
            run, losses, errors = truthful
            self.outcome.check(checks.check_run(run, "feedback", losses))
            digest.append(checks.run_digest("truthful", run) + [float(errors.sum())])
        for strategy, result in arms.items():
            if result is None:
                continue
            run, losses, errors, profit = result
            self.outcome.check(
                checks.check_run(run, "feedback", losses)
                + checks.check_twins(truthful[0], run, strategy)
            )
            digest.append(
                checks.run_digest(strategy, run) + [float(errors.sum()), float(profit.sum())]
            )
        return Unit(digest, pieces, rate_per_piece=True)


class Moderation(Workload):
    """Corpus world: four mechanisms on a PCA-embedded labeled corpus.

    Set-up builds ``CORPORA`` corpora of 2,000 x 60, their corpus seeds
    drawn by the workload seed from those in ``corpora.json`` on which
    ``pca_fit`` converges (see record_corpora.py). Each is written to CSV,
    read back with ``load_examples`` and embedded once with
    ``prepare_dataset`` (PCA 60 -> 30). Every embedding is one operation: a
    ``ConvergenceError`` counts as a failure and that corpus is simply not
    simulated; nothing is retried or re-seeded. Unit ``k`` runs the four
    mechanisms at T=5k, seed index ``k``, on the next embedded corpus in turn.
    """

    name = "moderation"
    expected_layers = frozenset({
        "experiment.prepare_dataset", "dataio.pca_fit", "dataio.load_examples",
        "experiment.run_single", "config.validate",
        "learner.predict", "learner.ingest", "learner.fit",
        "mechanism.run_round", "mechanism.exploration_rate", "mechanism.second_price",
        "baselines.uniform_round", "baselines.oracle_round",
        "baselines.direct_regression_round",
        "agents.report", "core.rng.random", "core.rng.integers",
        "metrics.welfare_regret", "metrics.per_agent_welfare_loss", "metrics.oracle_prices",
    })

    def __init__(self, seed: int, workdir: Path, outcome: Outcome) -> None:
        self.seed = seed
        self.workdir = workdir
        self.outcome = outcome
        pool = json.loads((Path(__file__).parent / "corpora.json").read_text())["converged"]
        rng = np.random.Generator(np.random.PCG64(seed))
        self.corpus_seeds = [int(c) for c in rng.choice(pool, CORPORA, replace=False)]
        self.prepared: list[tuple[list[ExperimentConfig], ex.PreparedDataset]] = []

    def _prepare(self, corpus_seed: int, path: Path):
        examples = dataio.generate_synthetic_dataset(2000, 60, corpus_seed)
        dataio.write_examples(path, examples)
        loaded = dataio.load_examples(path)
        prepared = self.outcome.attempt(
            f"prepare_dataset corpus {corpus_seed}", ex.prepare_dataset, loaded, 30
        )
        return examples, loaded, prepared

    def setup(self) -> list[tuple[float, float]]:
        times = []
        for corpus_seed in self.corpus_seeds:
            path = self.workdir / f"corpus{corpus_seed}.csv"
            (examples, loaded, prepared), *timing = self.timed(self._prepare, corpus_seed, path)
            times.append(tuple(timing))
            problems = _check_corpus(examples, loaded, prepared, corpus_seed)
            if prepared is None:
                # The embedding already failed; the corpus itself is no operation.
                self.outcome.note(problems)
            else:
                self.outcome.check(problems)
                configs = [
                    ExperimentConfig(
                        horizon=5000, n_agents=10, mechanism=mechanism,
                        data_source="csv", data_path=str(path), pca_components=30,
                        master_seed=self.seed, n_seeds=1,
                    )
                    for mechanism in MECHANISMS
                ]
                self.prepared.append((configs, prepared))
        return times

    def runnable(self) -> bool:
        return bool(self.prepared)

    @staticmethod
    def _run(config, k, prepared):
        run = ex.run_single(config, k, prepared, keep_records=False)
        regret = metrics.welfare_regret(run.true_means, run.allocated)
        losses = metrics.per_agent_welfare_loss(run.true_means, run.allocated)
        return run, float(regret.sum()), losses

    def _mechanisms(self, k, configs, prepared):
        return [
            (config, self.outcome.attempt(
                f"{config.mechanism} seed_index {k}", self._run, config, k, prepared
            ))
            for config in configs
        ]

    def unit(self, k: int) -> Unit:
        # One piece per unit: a reference after each of the four short runs
        # would cost a third of the unit.
        configs, prepared = self.prepared[k % len(self.prepared)]
        results, seconds, nominal_s = self.timed(self._mechanisms, k, configs, prepared)

        digest = []
        for config, result in results:
            if result is None:
                continue
            run, regret, losses = result
            problems = checks.check_run(run, config.mechanism, losses)
            problems += checks.check_histogram(list(losses), regret, config.mechanism)
            self.outcome.check(problems)
            digest.append(checks.run_digest(config.mechanism, run) + [regret])
        return Unit(digest, [(5000 * len(digest), seconds, nominal_s)])


def _check_corpus(examples, loaded, prepared, corpus_seed) -> list[str]:
    label = f"corpus {corpus_seed}"
    if len(loaded) != len(examples) or any(
        a.labels != b.labels or not np.array_equal(a.features, b.features)
        for a, b in zip(examples, loaded)
    ):
        return [f"{label}: CSV round trip changed the corpus"]
    if prepared is not None:
        pool = prepared.contexts_pool
        if pool.shape != (len(examples), 30) or pool.min() < 0.0 or pool.max() > 1.0:
            return [f"{label}: embedding is not {len(examples)} x 30 in [0, 1]"]
    return []


class Ledger(Workload):
    """``feedauction run`` for a feedback and a uniform config, then ``report``.

    Both configs: synthetic world, n=10, d=5, T=5k, one seed, contexts
    written to the ledgers, ``seeds.master`` is the workload seed. Every
    unit repeats the same three CLI calls, so every unit must also rewrite
    byte-identical files (criterion 9).
    """

    name = "ledger"
    horizon = 5000
    n_agents = 10
    expected_layers = frozenset({
        "cli.run", "cli.report", "config.from_file", "config.validate",
        "experiment.run_single", "metrics.build_series",
        "dataio.write_run", "dataio.read_run",
        "learner.predict", "learner.ingest", "learner.fit",
        "mechanism.run_round", "mechanism.exploration_rate", "mechanism.second_price",
        "baselines.uniform_round", "agents.report",
        "agents.sample_simplex", "agents.utility_from_uniform",
        "core.rng.random", "core.rng.integers", "metrics.oracle_prices",
    })

    def __init__(self, seed: int, workdir: Path, outcome: Outcome) -> None:
        self.seed = seed
        self.workdir = workdir
        self.outcome = outcome
        self.runs_dir = workdir / "runs"
        self.report_dir = workdir / "report"
        self.config_paths = {m: workdir / f"{m}.cfg" for m in ("feedback", "uniform")}
        self.ledgers = {m: self.runs_dir / f"{m}_seed000.jsonl" for m in self.config_paths}
        self._parsed: dict[str, list] = {}

    def _write_configs(self) -> None:
        for mechanism, path in self.config_paths.items():
            path.write_text(
                f"horizon = {self.horizon}\n"
                f"agents.count = {self.n_agents}\n"
                "features.dim = 5\n"
                f"mechanism = {mechanism}\n"
                f"seeds.master = {self.seed}\n"
                "seeds.count = 1\n"
                f"output.dir = {self.runs_dir}\n"
            )

    def setup(self) -> list[tuple[float, float]]:
        _, *timing = self.timed(self._write_configs)
        return [tuple(timing)]

    @staticmethod
    def _cli(argv: list[str]) -> bool:
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return True

    def unit(self, k: int) -> Unit:
        # Fresh directories, so that a failed call cannot leave an earlier
        # unit's files to be checked in place of its own.
        for directory in (self.runs_dir, self.report_dir):
            shutil.rmtree(directory, ignore_errors=True)
        calls = [
            (f"cli run {mechanism}", ["run", "--config", str(path)], self.horizon)
            for mechanism, path in self.config_paths.items()
        ]
        calls.append(
            ("cli report", ["report", *map(str, self.ledgers.values()), "--out", str(self.report_dir)], 0)
        )
        pieces = []
        succeeded = 0
        with contextlib.redirect_stdout(io.StringIO()):
            for label, argv, rounds in calls:
                ok, seconds, nominal_s = self.timed(self.outcome.attempt, label, self._cli, argv)
                pieces.append((rounds if ok else 0, seconds, nominal_s))
                succeeded += bool(ok)
        digest, problems = self._check_outputs()
        # The three calls make the outputs together: wrong outputs fail
        # every call of this unit that did not already fail.
        self.outcome.check(problems, operations=succeeded)
        return Unit(digest, pieces)

    def _check_outputs(self) -> tuple[list, list[str]]:
        """The unit's digest and the problems its output files have."""
        # Every unit writes the same bytes, so full parsing is needed only
        # once per distinct set of file contents; its result is reused.
        outputs = list(self.ledgers.values()) + sorted(self.report_dir.glob("*.csv"))
        try:
            key = checks.array_hash(*(np.frombuffer(p.read_bytes(), np.uint8) for p in outputs))
        except OSError as exc:
            return [], [f"ledger outputs missing: {exc}"]
        if key not in self._parsed:
            self._parsed[key] = self._parse_and_check()
        digest, problems = self._parsed[key]
        if key != next(iter(self._parsed)):
            problems = problems + ["ledger: a rerun of the same config wrote different bytes"]
        return digest, problems

    def _parse_and_check(self) -> tuple[list, list[str]]:
        digest, problems = [], []
        for mechanism, path in self.ledgers.items():
            lines = path.read_text().splitlines()
            metadata, rows = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
            found = checks.check_ledger(metadata, rows, self.horizon, self.n_agents, mechanism)
            if not found:
                regret = [row["welfare_regret_increment"] for row in rows]
                histogram = _read_csv(self.report_dir / f"histogram_{mechanism}.csv")
                found += checks.check_histogram(
                    [float(r["welfare_loss_mean"]) for r in histogram],
                    float(np.sum(regret)),
                    f"report {mechanism}",
                )
                curve = _read_csv(self.report_dir / f"regret_{mechanism}.csv")
                if len(curve) != self.horizon:
                    found.append(f"report {mechanism}: {len(curve)} curve rows, horizon {self.horizon}")
                errors = [row["max_estimate_error"] or 0.0 for row in rows]
                digest.append([
                    mechanism,
                    checks.array_hash(
                        np.array([row["allocated_agent"] for row in rows], "<i8"),
                        np.array([row["explored"] for row in rows], bool),
                    ),
                    float(np.sum([row["payment"] for row in rows])),
                    float(np.sum(errors)),
                    float(curve[-1]["welfare_mean"]) if curve else 0.0,
                ])
            problems += found
        return digest, problems


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


WORKLOADS = {cls.name: cls for cls in (SweepDeviation, Moderation, Ledger)}
