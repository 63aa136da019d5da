"""Run driver: builds a world from a config and plays a mechanism over it.

Determinism contract: a run is a pure function of (config, seed index, data
file). Every random ingredient comes from a named substream of the per-seed
master, and streams are consumed in a fixed order, so two runs that share a
seed but differ only in one agent's reporting strategy see identical agents,
contexts, and realized utilities. That common-random-number alignment makes
paired deviation measurements low-variance, and lets a deviant arm reuse its
truthful twin's columns, kept in a one-entry cache. The cache never changes
a result: a run is still a pure function of (config, seed index, corpus).

The driver is also the only component that touches ground truth. It derives
every training target of a run in one batch (:func:`_training_targets`), and
mechanisms see agents through those targets alone; realized utilities and
oracle prices stay in the run's columns, next to each round's decisions.
Every run ends in one assembly that settles its payments and asks its
winners' reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .agents import Strategy, report, sample_simplex, utility_from_uniform
from .baselines import direct_regression_round, oracle_round, uniform_round
from .config import ExperimentConfig
from .core import CODE_VERSION, derive_seed, derive_stream
from .dataio import CATEGORIES, FeatureScaler, LabeledExample, pca_fit, pca_transform
from .learner import ValueModel
from .mechanism import (
    MechanismState, _clamped_scores, _explore, exploit_stretch, exploration_rate,
    frozen_estimates, run_round,
)
from .metrics import _row_max, oracle_prices

__all__ = [
    "PreparedDataset",
    "RunResult",
    "exploration_schedule",
    "paired_deviation_runs",
    "prepare_dataset",
    "run_metadata",
    "run_single",
]


@dataclass
class RunResult:
    """Per-round columns of one completed run; ``len()`` is its horizon.

    One assembly builds every run's result and derives its ``payments`` (0 in an explored
    round, else the comparison price) and ``reports`` from its other columns. ``contexts``,
    the world's (rounds, agents, dim) array, is needed only by the ledger; it is ``None`` for
    runs made with ``keep_records=False``. A csv world is gathered into it from its pool only
    for a run with records. A deviant learned arm's ``true_means``, ``utilities``,
    ``oracle_second_prices``, ``explored`` and ``eta`` are its truthful twin's, shared by
    every arm of that twin and read-only; its other columns are its own.
    """

    config: ExperimentConfig
    seed_index: int
    run_seed: int
    contexts: np.ndarray | None
    true_means: np.ndarray
    utilities: np.ndarray
    oracle_second_prices: np.ndarray
    estimates: np.ndarray | None
    allocated: np.ndarray
    payments: np.ndarray
    comparison_prices: np.ndarray
    explored: np.ndarray
    reports: np.ndarray
    eta: np.ndarray
    scaler_meta: dict[str, Any] | None
    final_models: list[dict[str, Any]] | None

    def __len__(self) -> int:
        return self.allocated.shape[0]


_TRUTHFUL = Strategy()

# The last truthful learned run made without records, for its deviant arms:
# read-only copies of its _SHARED columns, its draws, models and contexts (a csv world's pool
# and draw index, not a gathered world). Every deviant arm returns these columns themselves,
# but for "estimates", which it copies and writes. The first arm narrows the contexts to its
# "agent", a (rounds, dim) array, and adds the other agents' best estimate, its index and
# their second-best estimate per round ("top").
_TWIN: dict[str, Any] = {}
_SHARED = ("true_means", "utilities", "oracle_second_prices", "estimates", "explored", "eta")


def _training_targets(
    config: ExperimentConfig, strategy: Strategy, won: np.ndarray, prices: np.ndarray
) -> np.ndarray:
    """What explored winners whose utilities are ``won`` train on, at comparison ``prices``.

    The feedback mechanism trains on each winner's answer by ``strategy``, the
    direct-regression baseline on the realized utility itself. A ``random``
    strategy answers from a stream in query order, so feedback replays it
    round by round instead.
    """
    if config.mechanism == "direct_regression":
        return won
    return report(strategy, won, prices)


def _synthetic_world(
    config: ExperimentConfig, run_seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Linear agents: theta uniform on [0, 1]^dim, pinned across seed indices
    # when agents.theta_seed is set.
    theta_master = config.theta_seed if config.theta_seed is not None else run_seed
    thetas = derive_stream(theta_master, "population/theta").random((config.n_agents, config.dim))
    contexts = sample_simplex(
        derive_stream(run_seed, "world/contexts"),
        (config.horizon, config.n_agents),
        config.dim,
    )
    true_means = np.einsum("tnd,nd->tn", contexts, thetas)
    uniforms = derive_stream(run_seed, "world/utilities").random(
        (config.horizon, config.n_agents)
    )
    utilities = utility_from_uniform(true_means, uniforms, config.noise_kind, config.noise_width)
    return contexts, true_means, utilities


class _DrawnContexts:
    """A csv world's contexts: agent a's context in round t is ``pool[draws[t, a]]``.

    It is indexed like the (rounds, agents, dim) array it stands for, and gathers only the
    rows asked for; ``np.asarray`` gathers the whole world.
    """

    __slots__ = ("pool", "draws")

    def __init__(self, pool: np.ndarray, draws: np.ndarray) -> None:
        self.pool, self.draws = pool, draws

    @property
    def shape(self) -> tuple[int, int, int]:
        return (*self.draws.shape, self.pool.shape[1])

    def __getitem__(self, key) -> np.ndarray:
        return self.pool[self.draws[key]]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.pool[self.draws]


@dataclass
class PreparedDataset:
    """Deterministic dataset pipeline output, computed once and shared.

    Fitting the principal components and the feature scaler depends only on
    the corpus and the component count, so sweeps over seeds and mechanisms
    reuse one prepared instance instead of refitting per run.
    """

    contexts_pool: np.ndarray
    label_matrix: np.ndarray
    pca_components: int
    meta: dict[str, Any]

    @property
    def n_examples(self) -> int:
        return self.contexts_pool.shape[0]


def prepare_dataset(examples: list[LabeledExample], pca_components: int) -> PreparedDataset:
    """Embed a labeled corpus: principal components, then min-max to [0, 1]."""
    features = np.stack([example.features for example in examples])
    label_matrix = np.array([example.labels for example in examples])
    pca = pca_fit(features, pca_components)
    embedded = pca_transform(pca, features)
    scaler = FeatureScaler.fit(embedded)
    meta = dict(scaler.to_dict())
    meta["pca_components"] = pca_components
    meta["pca_explained_variance"] = pca.explained_variance.tolist()
    return PreparedDataset(
        contexts_pool=scaler.apply(embedded),
        label_matrix=label_matrix,
        pca_components=pca_components,
        meta=meta,
    )


def _dataset_world(
    config: ExperimentConfig, run_seed: int, prepared: PreparedDataset
) -> tuple[_DrawnContexts, np.ndarray, np.ndarray]:
    if prepared.pca_components != config.pca_components:
        raise ValueError(
            f"dataset was prepared with {prepared.pca_components} components, "
            f"config wants {config.pca_components}"
        )
    draws = derive_stream(run_seed, "world/examples").integers(
        prepared.n_examples, size=(config.horizon, config.n_agents)
    )
    world = _DrawnContexts(prepared.contexts_pool, draws)
    # Agent i is harmed by category i in CATEGORIES' fixed order, cycling, so
    # every category is covered once n_agents reaches six.
    sensitivity_index = np.arange(config.n_agents) % len(CATEGORIES)
    harmed = prepared.label_matrix[draws, sensitivity_index[None, :]]
    utilities = 1.0 - harmed.astype(float)
    # Utilities are deterministic given the drawn example, so the true
    # expected utility of showing it is the realized value: one array is both.
    return world, utilities, utilities


def exploration_schedule(state: MechanismState, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """The run's exploration rates and coins: ``(eta, explored)`` per round.

    The rates are one :func:`exploration_rate` call over every round, equal
    bit for bit to its scalar rates, so no coin flips. The coins are one
    batched draw from the state's coin stream, which gives the same values
    as one draw per round.
    """
    eta = exploration_rate(state.config, np.arange(1, horizon + 1))
    return eta, state.coin_stream.random(horizon) < eta


def run_single(
    config: ExperimentConfig,
    seed_index: int,
    prepared: PreparedDataset | None = None,
    *,
    keep_records: bool = True,
) -> RunResult:
    """Play one mechanism for one seed and collect every per-round array.

    ``prepared`` is the embedded corpus a ``data.source=csv`` world draws
    from; sweeps share one across seeds and mechanisms. ``keep_records=False``
    drops the contexts, which only the ledger reads; bulk sweeps use it. Each
    mechanism decides winners and prices; one assembly settles every run.
    """
    run_seed = derive_seed(config.master_seed, f"run/{seed_index}")
    horizon, n_agents = config.horizon, config.n_agents
    learned = config.mechanism in ("feedback", "direct_regression")
    deviant = config.deviant_index
    if learned and deviant is not None:
        twin_config = config.replace(deviant_index=None, deviant_strategy="truthful")
        key = (twin_config, seed_index, id(prepared))  # the cache holds prepared: ids stay unique
        if keep_records or _TWIN.get("key") != key or _TWIN.get("agent") not in (None, deviant):
            run_single(twin_config, seed_index, prepared, keep_records=False)
        return _deviant_arm(config, seed_index, run_seed, keep_records)
    _TWIN.clear()  # before the world is built, so that two worlds are never kept

    if config.data_source == "csv":
        if prepared is None:
            raise ValueError("data.source=csv needs the prepared examples")
        contexts, true_means, utilities = _dataset_world(config, run_seed, prepared)
    else:
        contexts, true_means, utilities = _synthetic_world(config, run_seed)

    # A copy: the column is a view of the partitioned (rounds, agents) matrix.
    oracle_second_prices = oracle_prices(true_means).copy()

    state = MechanismState.create(config, contexts.shape[2], run_seed)
    estimates = final_models = None
    if learned:
        learned_round = run_round if config.mechanism == "feedback" else direct_regression_round
        allocated = np.empty(horizon, dtype=int)
        comparison_prices = np.empty(horizon)
        estimates = np.empty((horizon, n_agents))
        eta, explored = exploration_schedule(state, horizon)
        # Every explored round's winner and price, drawn before round 1: they
        # come from the agent and price streams, whatever the models are.
        drawn_winners, drawn_prices = _explore(state, int(explored.sum()))
        allocated[explored], comparison_prices[explored] = drawn_winners, drawn_prices
        training, frozen = np.flatnonzero(explored), np.flatnonzero(~explored)
        targets = _training_targets(
            config, _TRUTHFUL, utilities[training, drawn_winners], drawn_prices
        )
        # An explored round trains only its winner's model: row i of ``kept`` is that model as
        # training round i left it, zeros until it is ready, and the last row is the prior.
        kept = np.zeros((training.size + 1, contexts.shape[2]))
        rounds = zip(training.tolist(), drawn_winners.tolist(), targets.tolist())
        for i, (ti, winner, target) in enumerate(rounds):
            round_contexts = contexts[ti]
            estimates[ti] = state.refresh_estimates(round_contexts)
            learned_round(state, round_contexts, winner, target)
            model = state.models[winner]
            if model.sample_count >= model.min_samples:  # train fitted it: not stale
                kept[i] = model.coefficients
        # Each agent's table: the rows of the training rounds it won, then the prior's.
        won = [np.flatnonzero(drawn_winners == agent) for agent in range(n_agents)]
        tables = [(training[rows], kept[np.append(rows, -1)]) for rows in won]
        estimates[frozen], allocated[frozen], comparison_prices[frozen] = exploit_stretch(
            tables, contexts, frozen
        )
        final_models = _model_records(state.models)
    else:
        uniform = config.mechanism == "uniform"
        eta = np.ones(horizon) if uniform else np.zeros(horizon)
        explored = np.full(horizon, uniform)
        if uniform:
            allocated, comparison_prices = uniform_round(state, horizon)
        else:  # oracle: allocates on the true means and leaves the state unused
            allocated, prices = oracle_round(true_means)
            # A copy: the prices are a view of the partitioned (rounds, agents) block.
            comparison_prices = prices.copy()

    result = _run_result(
        config, seed_index, run_seed, contexts, prepared, keep_records,
        true_means=true_means, utilities=utilities, oracle_second_prices=oracle_second_prices,
        estimates=estimates, allocated=allocated, comparison_prices=comparison_prices,
        explored=explored, eta=eta, final_models=final_models,
    )
    if learned and not keep_records:  # a twin; a learned run with a deviant returned above
        _TWIN.update(
            key=(config, seed_index, id(prepared)), prepared=prepared, models=state.models,
            contexts=contexts, winners=drawn_winners, prices=drawn_prices,
            **{name: getattr(result, name).copy() for name in _SHARED},
        )
        for name in _SHARED:  # every deviant arm shares them
            _TWIN[name].flags.writeable = False
    return result


def _run_result(
    config: ExperimentConfig, seed_index: int, run_seed: int, world: np.ndarray | _DrawnContexts,
    prepared: PreparedDataset | None, keep_records: bool, **columns: Any,
) -> RunResult:
    """Settle a played run and build its result; every run of every mechanism ends here.

    ``columns`` are the run's columns but ``payments`` and ``reports``, which follow from them:
    an explored round is free, any other pays its comparison price, and each winner answers
    one comparison at that price. The deviant answers by its strategy from a fresh
    ``agents/report/<i>`` stream, in round order, as a replay of its model read it; every
    other winner answers truthfully.
    """
    winners, prices = columns["allocated"], columns["comparison_prices"]
    won = columns["utilities"][np.arange(winners.size), winners]
    reports = report(_TRUTHFUL, won, prices)
    deviant = config.deviant_index
    if deviant is not None:
        rows = winners == deviant
        if rows.any():
            reports[rows] = report(
                Strategy.parse(config.deviant_strategy), won[rows], prices[rows],
                derive_stream(run_seed, f"agents/report/{deviant}"),
            )
    return RunResult(
        config=config, seed_index=seed_index, run_seed=run_seed,
        contexts=np.asarray(world) if keep_records else None,
        payments=np.where(columns["explored"], 0.0, prices), reports=reports,
        scaler_meta=dict(prepared.meta) if config.data_source == "csv" else None, **columns,
    )


def _model_records(models: list[ValueModel]) -> list[dict[str, Any]]:
    return [dict(sample_count=m.sample_count, coefficients=m.coefficients.tolist()) for m in models]


def _deviant_arm(
    config: ExperimentConfig, seed_index: int, run_seed: int, keep_records: bool
) -> RunResult:
    """A deviant learned arm: its truthful twin with the deviant's model replayed.

    Only the deviant's model differs from the twin's; round t reads the model left by the
    deviant's last explored win (event) before t. Every frozen round is an auction of the
    deviant's estimate against the other agents' best and second-best, which the first arm
    of a twin computes once. A ``random`` deviant gives its k-th query the k-th answer of its
    stream, so its exploitation wins between two events are counted; every other deviant
    answers each event alike in any order, so its model is replayed in closed form. The
    run's assembly asks the reports, the deviant's by its strategy.
    """
    twin, deviant, strategy = _TWIN, config.deviant_index, Strategy.parse(config.deviant_strategy)
    # The twin's read-only columns, shared by every arm, but for the one column the arm writes.
    arm = {name: twin[name] for name in _SHARED}
    arm["estimates"] = estimates = twin["estimates"].copy()
    utilities, explored = arm["utilities"], arm["explored"]
    world, won = twin["contexts"], twin["winners"] == deviant
    if twin.get("agent") != deviant:  # the first arm narrows the cache to its deviant
        others, rounds = estimates.copy(), np.arange(explored.size)
        others[:, deviant] = -np.inf
        leader = others.argmax(axis=1)
        best = others[rounds, leader]
        others[rounds, leader] = -np.inf  # leaves the second-best
        top = best, leader, _row_max(others)
        twin.update(contexts=world[:, deviant].copy(), agent=deviant, top=top)
    own, (best, leader, second) = twin["contexts"], twin["top"]
    events = np.flatnonzero(explored)[won]
    column = estimates[:, deviant]  # a view: the replay writes the arm's estimates
    if config.mechanism == "feedback" and strategy.kind == "random":
        # Answers in query order; a random answer reads neither argument.
        targets = report(
            strategy, utilities[:, deviant], utilities[:, deviant],
            derive_stream(run_seed, f"agents/report/{deviant}"),
        )
        model, coefficients, start, asked = ValueModel(own.shape[1]), None, 0, 0
        column[:] = ValueModel.prior_estimate  # until the model is ready
        for stop in (events + 1).tolist() + [None]:  # None: the rounds after the last event
            if coefficients is not None:
                column[start:stop] = _clamped_scores(coefficients, own[start:stop])
            if stop is None:
                break
            rows = slice(start, stop - 1)  # its exploitation wins since its last event
            asked += np.count_nonzero(
                ~explored[rows] & _wins(column[rows], best[rows], leader[rows], deviant)
            )
            model.ingest(own[stop - 1], targets[asked])
            asked += 1
            if model.sample_count >= model.min_samples:
                coefficients = model.fit()
            start = stop
        record = _model_records([model])[0]
    else:
        prices = twin["prices"][won]
        targets = _training_targets(config, strategy, utilities[events, deviant], prices)
        record = _closed_form_replay(own, events, targets, column)
    wins = _wins(column, best, leader, deviant)
    allocated = np.where(wins, deviant, leader)
    comparison_prices = np.where(wins, best, np.maximum(column, second))
    allocated[explored], comparison_prices[explored] = twin["winners"], twin["prices"]
    final_models = _model_records(twin["models"])
    final_models[deviant] = record
    return _run_result(
        config, seed_index, run_seed, world, twin["prepared"], keep_records, **arm,
        allocated=allocated, comparison_prices=comparison_prices, final_models=final_models,
    )


def _wins(column: np.ndarray, best: np.ndarray, leader: np.ndarray, deviant: int) -> np.ndarray:
    # The rounds second_price gives the deviant: it beats the others' best, or ties it ahead
    # of a leader with a higher index.
    return (column > best) | ((column == best) & (deviant < leader))


def _closed_form_replay(
    own: np.ndarray, events: np.ndarray, targets: np.ndarray, column: np.ndarray
) -> dict[str, Any]:
    """Write the deviant's estimates from its events' samples; return its final model record.

    Row k of the table is the model after event k, fitted as ``ValueModel`` would: the running
    sums add in ``ingest``'s order, and one batched solve makes the same LAPACK call as ``fit``
    on every row from the first ready one. One more row, last, is the prior.
    """
    count, dim = events.size, own.shape[1]
    samples = own[events]
    grams = np.cumsum(samples[:, :, None] * samples[:, None, :], axis=0)
    moments = np.cumsum(targets.astype(float)[:, None] * samples, axis=0)
    table = np.zeros((count + 1, dim))
    first = min(count, dim) - 1  # the first ready row, or the last row of a model never ready
    if count:
        table[first:count] = np.linalg.solve(
            grams[first:] + ValueModel.ridge * np.eye(dim), moments[first:, :, None]
        )[..., 0]
    column[:] = frozen_estimates(events, table, np.arange(column.size), own)
    # Row count - 1 holds the lazily fitted coefficients, or, with no event, the prior's zeros.
    return dict(sample_count=count, coefficients=table[count - 1].tolist())


def paired_deviation_runs(
    config: ExperimentConfig,
    deviant_index: int,
    deviant_strategy: str,
    prepared: PreparedDataset | None = None,
) -> list[tuple[RunResult, RunResult]]:
    """Run (truthful, deviant) twins for every seed under shared randomness.

    Only the ledger reads the contexts ``keep_records`` keeps, so the twins
    drop them.
    """
    truthful_config = config.replace(deviant_index=None, deviant_strategy="truthful")
    deviant_config = config.replace(
        deviant_index=deviant_index, deviant_strategy=deviant_strategy
    )
    pairs = []
    for seed_index in range(config.n_seeds):
        pairs.append(
            (
                run_single(truthful_config, seed_index, prepared, keep_records=False),
                run_single(deviant_config, seed_index, prepared, keep_records=False),
            )
        )
    return pairs


def run_metadata(run: RunResult) -> dict[str, Any]:
    """Metadata object for the first line of a run file."""
    meta: dict[str, Any] = {
        "code_version": CODE_VERSION,
        "config": run.config.echo(),
        "seed_index": run.seed_index,
        "run_seed": run.run_seed,
        "comparison_price_distribution": run.config.price_distribution,
        "identification_uniform_prices": run.config.price_distribution == "uniform",
    }
    if run.scaler_meta is not None:
        meta["feature_scaling"] = run.scaler_meta
    if run.final_models is not None:
        meta["final_models"] = run.final_models
    return meta
