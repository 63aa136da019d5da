"""Repeated-auction simulator with binary comparison feedback.

A platform repeatedly allocates a content slot among agents whose value for
each round's context is unknown. Allocation is epsilon-greedy: explore
uniformly at a decaying rate and learn per-agent value models from yes/no
comparison reports, otherwise allocate to the highest estimate and charge
the runner-up estimate as a learned second price. The package bundles the
mechanism, agent populations (including misreporting strategies), oracle and
regression baselines, regret and incentive metrics, dataset tooling, and a
CLI for reproducible experiments.
"""

from .core import CODE_VERSION as __version__
from .core import (
    ConfigurationError,
    DimensionMismatchError,
    RngStream,
    RoundRecord,
    derive_seed,
    derive_stream,
)
from .agents import AgentSpec, NoiseModel, Strategy
from .config import ConfigError, ExperimentConfig
from .learner import ValueModel, estimate_mean_from_reports
from .mechanism import MechanismState, ScheduleSpec, exploration_rate, run_round, second_price
from .experiment import RunResult, paired_deviation_runs, run_single

__all__ = [
    "AgentSpec",
    "ConfigError",
    "ConfigurationError",
    "DimensionMismatchError",
    "ExperimentConfig",
    "MechanismState",
    "NoiseModel",
    "RngStream",
    "RoundRecord",
    "RunResult",
    "ScheduleSpec",
    "Strategy",
    "ValueModel",
    "derive_seed",
    "derive_stream",
    "estimate_mean_from_reports",
    "exploration_rate",
    "paired_deviation_runs",
    "run_round",
    "run_single",
    "second_price",
    "__version__",
]
