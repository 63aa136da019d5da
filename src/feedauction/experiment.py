"""Run driver: builds a world from a config and plays a mechanism over it.

Determinism contract: a run is a pure function of (config, seed index, data
file). Every random ingredient comes from a named substream of the per-seed
master, and streams are consumed in a fixed order, so two runs that share a
seed but differ only in one agent's reporting strategy see identical agents,
contexts, and realized utilities. That common-random-number alignment is
what makes paired deviation measurements low-variance.

The driver is also the only component that touches ground truth. Mechanisms
see agents through the report oracle alone; realized utilities and oracle
prices stay in the run's columns, next to each round's decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .agents import Strategy, report, sample_simplex, utility_from_uniform
from .baselines import direct_regression_round, oracle_round, uniform_round
from .config import ExperimentConfig
from .core import CODE_VERSION, RngStream, RoundRecord, derive_seed, derive_stream
from .dataio import CATEGORIES, FeatureScaler, LabeledExample, pca_fit, pca_transform
from .mechanism import MechanismState, exploration_rate, run_round
from .metrics import oracle_prices

__all__ = [
    "PreparedDataset",
    "RunResult",
    "paired_deviation_runs",
    "prepare_dataset",
    "run_metadata",
    "run_single",
]


@dataclass
class RunResult:
    """Per-round columns of one completed run; ``len()`` is its horizon.

    ``contexts``, the world's (rounds, agents, dim) array, is needed only by
    the ledger; it is ``None`` for runs made with ``keep_records=False``.
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


class _PopulationOracle:
    """Answers per-round comparison queries on behalf of the agents.

    The driver points ``utilities_now`` at the current round's realized
    utilities before each mechanism call. Only the ``random`` reporting
    strategy consumes stream randomness, so truthful populations keep their
    report streams untouched.
    """

    __slots__ = ("strategies", "report_streams", "utilities_now")

    def __init__(self, strategies: list[Strategy], report_streams: list[RngStream]) -> None:
        self.strategies = strategies
        self.report_streams = report_streams
        self.utilities_now: np.ndarray | None = None

    def compare(self, agent: int, price: float) -> bool:
        return report(
            self.strategies[agent],
            float(self.utilities_now[agent]),
            price,
            self.report_streams[agent],
        )

    def utility(self, agent: int) -> float:
        return float(self.utilities_now[agent])


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, Any]]:
    if prepared.pca_components != config.pca_components:
        raise ValueError(
            f"dataset was prepared with {prepared.pca_components} components, "
            f"config wants {config.pca_components}"
        )
    draws = derive_stream(run_seed, "world/examples").integers(
        prepared.n_examples, size=(config.horizon, config.n_agents)
    )
    contexts = prepared.contexts_pool[draws]
    # Agent i is harmed by category i in CATEGORIES' fixed order, cycling, so
    # every category is covered once n_agents reaches six.
    sensitivity_index = np.arange(config.n_agents) % len(CATEGORIES)
    harmed = prepared.label_matrix[draws, sensitivity_index[None, :]]
    utilities = 1.0 - harmed.astype(float)
    # Utilities are deterministic given the drawn example, so the true
    # expected utility of showing it equals the realized value.
    return contexts, utilities.copy(), utilities, dict(prepared.meta)


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
    drops the contexts, which only the ledger reads; bulk sweeps use it.
    """
    # Built configs are already valid; this repeat is the run's entry check,
    # which the benchmark's layer map times as ``config.validate``.
    config.validate()
    run_seed = derive_seed(config.master_seed, f"run/{seed_index}")
    horizon, n_agents = config.horizon, config.n_agents

    if config.data_source == "csv":
        if prepared is None:
            raise ValueError("data.source=csv needs the prepared examples")
        contexts, true_means, utilities, scaler_meta = _dataset_world(
            config, run_seed, prepared
        )
    else:
        contexts, true_means, utilities = _synthetic_world(config, run_seed)
        scaler_meta = None

    deviant_strategy = Strategy.parse(config.deviant_strategy)
    oracle = _PopulationOracle(
        [deviant_strategy if i == config.deviant_index else Strategy() for i in range(n_agents)],
        [derive_stream(run_seed, f"agents/report/{i}") for i in range(n_agents)],
    )
    oracle_second_prices = oracle_prices(true_means)
    allocated = np.empty(horizon, dtype=int)
    payments = np.empty(horizon)
    comparison_prices = np.empty(horizon)
    explored = np.empty(horizon, dtype=bool)
    reports = np.empty(horizon, dtype=bool)
    estimates: np.ndarray | None = None
    final_models: list[dict[str, Any]] | None = None

    state = MechanismState.create(config, contexts.shape[2], run_seed)
    if config.mechanism in ("feedback", "direct_regression"):
        learned_round = run_round if config.mechanism == "feedback" else direct_regression_round
        estimates = np.empty((horizon, n_agents))
        eta = np.array([exploration_rate(config, t) for t in range(1, horizon + 1)])

        def play(ti: int) -> RoundRecord:
            record = learned_round(state, contexts[ti], oracle)
            estimates[ti] = state.last_estimates
            return record

    elif config.mechanism == "uniform":
        eta = np.ones(horizon)

        def play(ti: int) -> RoundRecord:
            return uniform_round(state, oracle)

    else:  # oracle: allocates on the true means and leaves the state unused
        eta = np.zeros(horizon)

        def play(ti: int) -> RoundRecord:
            return oracle_round(true_means[ti], oracle)

    for ti in range(horizon):
        oracle.utilities_now = utilities[ti]
        record = play(ti)
        allocated[ti] = record.allocated_agent
        payments[ti] = record.payment
        comparison_prices[ti] = record.comparison_price
        explored[ti] = record.explored
        reports[ti] = record.report
    if estimates is not None:
        final_models = [
            {"sample_count": m.sample_count, "coefficients": m.coefficients.tolist()}
            for m in state.models
        ]

    return RunResult(
        config=config,
        seed_index=seed_index,
        run_seed=run_seed,
        contexts=contexts if keep_records else None,
        true_means=true_means,
        utilities=utilities,
        # A copy: the column is a view of the partitioned (rounds, agents) matrix.
        oracle_second_prices=oracle_second_prices.copy(),
        estimates=estimates,
        allocated=allocated,
        payments=payments,
        comparison_prices=comparison_prices,
        explored=explored,
        reports=reports,
        eta=eta,
        scaler_meta=scaler_meta,
        final_models=final_models,
    )


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
