"""Epsilon-greedy auction loop with learned second-price payments.

Each round the mechanism flips a coin with the schedule's exploration rate.
On exploration it allocates uniformly at random for free and asks the winner
to compare its utility against a uniform random price; on exploitation it
allocates to the agent with the highest estimated value and charges the
runner-up estimate, which doubles as the comparison price. Reports from
exploration rounds feed each agent's value model (optionally reports from all
rounds, though non-uniform exploitation prices bias the identification).

The mechanism observes agents only through a :class:`RoundOracle`: a yes/no
comparison query. Realized utilities never enter any allocation, payment, or
training decision of the feedback mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .core import ConfigurationError, DimensionMismatchError, RngStream, RoundRecord, derive_stream
from .learner import ValueModel

__all__ = [
    "SCHEDULE_KINDS",
    "TRAINING_POLICIES",
    "MechanismState",
    "RoundOracle",
    "ScheduleSpec",
    "exploration_rate",
    "parse_price_distribution",
    "run_round",
    "second_price",
]

SCHEDULE_KINDS = ("slow", "fast", "constant")
TRAINING_POLICIES = ("exploration_only", "all_allocations")
REGRESSION_TARGETS = ("report", "utility")


@dataclass(frozen=True)
class ScheduleSpec:
    """Exploration-rate schedule for a population of ``n_agents``.

    ``slow`` decays like t^(-1/3) and ``fast`` like t^(-1/2), both carrying a
    polylog factor in ``n_agents * log(t)`` whose exponent is controlled by
    ``epsilon``. ``constant`` holds the rate at ``eta_constant``. All kinds
    return 1.0 for the first ``floor_rounds`` rounds so every agent can be
    sampled before the formulas (whose log factor vanishes at t = 1) engage.
    """

    kind: str
    n_agents: int
    epsilon: float = 0.05
    eta_constant: float = 0.1
    floor_rounds: int = 3

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigurationError(
                f"unknown schedule kind {self.kind!r}, expected one of {SCHEDULE_KINDS}"
            )
        if self.n_agents < 1:
            raise ConfigurationError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0.0 < self.eta_constant <= 1.0:
            raise ConfigurationError(
                f"eta_constant must be in (0, 1], got {self.eta_constant}"
            )
        if self.floor_rounds < 1:
            raise ConfigurationError(
                f"floor_rounds must be >= 1, got {self.floor_rounds}"
            )


def exploration_rate(spec: ScheduleSpec, t: int) -> float:
    """Probability of exploring in round ``t`` (1-based), always in [0, 1]."""
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if t <= spec.floor_rounds:
        return 1.0
    if spec.kind == "constant":
        return spec.eta_constant
    log_factor = spec.n_agents * math.log(t)
    if spec.kind == "slow":
        rate = t ** (-1.0 / 3.0) * log_factor ** ((1.0 + 2.0 * spec.epsilon) / 3.0)
    else:
        rate = t ** (-0.5) * log_factor ** ((1.0 + spec.epsilon) / 2.0)
    return min(1.0, rate)


def second_price(estimates: np.ndarray) -> tuple[int, float]:
    """Winner and runner-up value of a sealed-bid second-price auction.

    Returns the index of the highest estimate (lowest index wins ties) and
    the maximum over the remaining agents, which equals the second-largest
    order statistic.
    """
    values = np.asarray(estimates, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError(f"need a 1-d array of >= 2 estimates, got shape {values.shape}")
    winner = int(np.argmax(values))
    price = float(np.partition(values, -2)[-2])
    return winner, price


def parse_price_distribution(text: str) -> float | None:
    """The fixed exploration price of ``"fixed:<v>"``, or None for ``"uniform"``."""
    if text == "uniform":
        return None
    kind, _, arg = text.partition(":")
    if kind == "fixed":
        try:
            value = float(arg)
        except ValueError:
            value = -1.0
        if 0.0 <= value <= 1.0:
            return value
    raise ConfigurationError(
        f"unknown price distribution {text!r}; expected 'uniform' or 'fixed:<value in [0,1]>'"
    )


class RoundOracle(Protocol):
    """Per-round query interface to the agent population.

    ``compare`` is the only channel the feedback mechanism may use; it hides
    realized utilities behind a yes/no answer. ``utility`` exposes the
    realized value directly and exists solely for the exact-value regression
    baseline.
    """

    def compare(self, agent: int, price: float) -> bool: ...

    def utility(self, agent: int) -> float: ...


@dataclass
class MechanismState:
    """Mutable cross-round state: value models, schedule, and RNG streams.

    The three streams are consumed in a fixed order each round (one coin
    draw, then on exploration one winner draw and one price draw), so two
    runs sharing a master seed stay aligned round for round even when their
    agents report differently. The uniform baseline plays on the same state
    but draws no coin.
    """

    models: list[ValueModel]
    schedule: ScheduleSpec
    coin_stream: RngStream
    agent_stream: RngStream
    price_stream: RngStream
    training_policy: str = "exploration_only"
    regression_target: str = "report"
    price_distribution: str = "uniform"
    t: int = 1
    last_estimates: np.ndarray | None = field(default=None, repr=False)
    _fixed_price: float | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.training_policy not in TRAINING_POLICIES:
            raise ConfigurationError(
                f"unknown training policy {self.training_policy!r}"
            )
        if self.regression_target not in REGRESSION_TARGETS:
            raise ConfigurationError(
                f"unknown regression target {self.regression_target!r}"
            )
        if len(self.models) != self.schedule.n_agents:
            raise ConfigurationError(
                f"{len(self.models)} models for a schedule with "
                f"{self.schedule.n_agents} agents"
            )
        self._fixed_price = parse_price_distribution(self.price_distribution)

    @classmethod
    def create(
        cls,
        n_agents: int,
        dim: int,
        schedule: ScheduleSpec,
        master_seed: int,
        *,
        training_policy: str = "exploration_only",
        regression_target: str = "report",
        price_distribution: str = "uniform",
    ) -> "MechanismState":
        """Build fresh models and the named RNG substreams for one run."""
        return cls(
            models=[ValueModel(dim) for _ in range(n_agents)],
            schedule=schedule,
            coin_stream=derive_stream(master_seed, "mechanism/explore_coin"),
            agent_stream=derive_stream(master_seed, "mechanism/explore_agent"),
            price_stream=derive_stream(master_seed, "mechanism/comparison_price"),
            training_policy=training_policy,
            regression_target=regression_target,
            price_distribution=price_distribution,
        )

    def refresh_estimates(self, contexts: np.ndarray) -> np.ndarray:
        """Refit any stale model once and predict every agent's value."""
        estimates = np.empty(len(self.models))
        for i, model in enumerate(self.models):
            estimates[i] = model.predict(contexts[i])
        self.last_estimates = estimates
        return estimates

    def _draw_comparison_price(self) -> float:
        if self._fixed_price is None:
            return float(self.price_stream.random())
        return self._fixed_price


def _explore(state: MechanismState) -> tuple[int, float]:
    # The exploration draw: a uniformly random winner, then its comparison price.
    winner = int(state.agent_stream.integers(len(state.models)))
    return winner, state._draw_comparison_price()


def run_round(state: MechanismState, contexts: np.ndarray, oracle: RoundOracle) -> RoundRecord:
    """Play one auction round, updating ``state`` in place.

    ``contexts`` is the (n_agents, dim) block of request features for this
    round. Returns the round's decisions; ground truth stays with the caller.
    """
    contexts = np.asarray(contexts, dtype=float)
    n_agents = len(state.models)
    if contexts.ndim != 2 or contexts.shape[0] != n_agents:
        raise DimensionMismatchError(
            f"contexts have shape {contexts.shape}, expected ({n_agents}, dim)"
        )
    estimates = state.refresh_estimates(contexts)
    rate = exploration_rate(state.schedule, state.t)
    explored = bool(state.coin_stream.random() < rate)
    if explored:
        winner, comparison = _explore(state)
        payment = 0.0
    else:
        winner, price = second_price(estimates)
        payment = comparison = price
    answer = bool(oracle.compare(winner, comparison))
    if explored or state.training_policy == "all_allocations":
        if state.regression_target == "utility":
            target = float(oracle.utility(winner))
        else:
            target = float(answer)
        state.models[winner].ingest(contexts[winner], target)
    record = RoundRecord(
        allocated_agent=winner,
        explored=explored,
        comparison_price=comparison,
        report=answer,
        payment=payment,
    )
    state.t += 1
    return record
