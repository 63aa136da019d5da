"""Epsilon-greedy auction loop with learned second-price payments.

Each round the mechanism explores with the schedule's exploration rate. On
exploration it allocates uniformly at random for free and asks the winner to
compare its utility against a uniform random price; on exploitation it
allocates to the agent with the highest estimated value and charges the
runner-up estimate, which doubles as the comparison price. Only reports from
exploration rounds feed the agents' value models: with a uniform price, the
chance of a yes is the expected utility, which identifies the value.

Nothing about exploration depends on the models: the coins, and the winner
and price of every explored round, come from the schedule and the agent and
price streams, so a run draws all of them before its first round. A model
changes only in an explored round, so every other round is a second-price
auction on frozen models. :func:`run_round` trains one explored round's
winner on the target its report gave; :func:`exploit_stretch` plays many
frozen rounds at once, each agent read from a table of the models its
explored wins left (:func:`frozen_estimates`). The uniform baseline is this
mechanism at exploration rate 1 and makes the same exploration draw, for all
of a run's rounds at once.

The mechanism observes agents only through their yes/no answers to the
comparison query, which the driver asks. Realized utilities never enter any
allocation, payment, or training decision of the feedback mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .core import ConfigurationError, DimensionMismatchError, RngStream, RoundRecord, derive_stream
from .learner import ValueModel

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "SCHEDULE_KINDS",
    "MechanismState",
    "exploit_stretch",
    "exploration_rate",
    "frozen_estimates",
    "parse_price_distribution",
    "run_round",
    "second_price",
]

SCHEDULE_KINDS = ("slow", "fast", "constant")


def exploration_rate(config: ExperimentConfig, t):
    """Probability of exploring in round ``t`` (1-based), always in [0, 1].

    ``slow`` decays like t^(-1/3) and ``fast`` like t^(-1/2), both carrying a
    polylog factor in ``n_agents * log(t)`` whose exponent is controlled by
    ``epsilon``. ``constant`` holds the rate at ``eta_constant``. All kinds
    return 1.0 for the first ``floor_rounds`` rounds so every agent can be
    sampled before the formulas (whose log factor vanishes at t = 1) engage.

    ``t`` is one round, which gives a float, or an integer array of rounds,
    which gives the array of their rates, bit-identical to the rates of the
    rounds one at a time.
    """
    rounds = np.asarray(t)
    if (rounds < 1).any():
        raise ValueError(f"round indices must be >= 1, got {rounds.min()}")
    rates = np.minimum(1.0, _schedule_formula(config, rounds))
    rates = np.where(rounds <= config.floor_rounds, 1.0, rates)
    return rates if rates.ndim else float(rates)


def _exact_logs(rounds: np.ndarray) -> np.ndarray:
    # math.log of every round: np.log differs from it in the last bit on a
    # few rounds in 100,000, which can flip a coin.
    logs = np.fromiter(map(math.log, rounds.ravel().tolist()), float, rounds.size)
    return logs.reshape(rounds.shape)


def _schedule_formula(config: ExperimentConfig, rounds: np.ndarray):
    # The rate past the floor, before the cap at 1. np.float_power takes C's
    # pow per element, as Python floats do (np.power is off by one ulp on
    # some rounds).
    if config.schedule_kind == "constant":
        return config.eta_constant
    power, log_factor = np.float_power, config.n_agents * _exact_logs(rounds)
    if config.schedule_kind == "slow":
        return power(rounds, -1.0 / 3.0) * power(log_factor, (1.0 + 2.0 * config.epsilon) / 3.0)
    return power(rounds, -0.5) * power(log_factor, (1.0 + config.epsilon) / 2.0)


def second_price(estimates: np.ndarray):
    """Winner and runner-up value of a sealed-bid second-price auction.

    Returns the index of the highest estimate (lowest index wins ties) and
    the maximum over the remaining agents, which equals the second-largest
    order statistic. A 1-d array is one auction and gives ``(int, float)``;
    a 2-d array holds one auction per row and gives an index array and a
    price array.
    """
    values = np.asarray(estimates, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] < 2:
        raise ValueError(
            f"need >= 2 estimates per auction in a 1-d or 2-d array, got shape {values.shape}"
        )
    winners = values.argmax(axis=-1)
    prices = np.partition(values, -2, axis=-1)[..., -2]
    if values.ndim == 1:
        return int(winners), float(prices)
    return winners, prices


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


@dataclass
class MechanismState:
    """Mutable cross-round state: one value model per agent and the RNG streams.

    The schedule and price rule are read from ``config``.
    A run draws one coin per round from the coin stream, by its schedule, and
    one winner and one price per exploration round from the agent and price
    streams, all in one batch each before its first round.
    Two runs sharing a master seed therefore stay aligned round for round
    even when their agents report differently. The uniform baseline draws
    every round's winner and price from the same two streams in one batch,
    and no coin. The models are the only record of training: a caller that
    plays frozen rounds keeps each agent's table of them itself.
    """

    config: ExperimentConfig
    models: list[ValueModel]
    coin_stream: RngStream
    agent_stream: RngStream
    price_stream: RngStream
    _fixed_price: float | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._fixed_price = parse_price_distribution(self.config.price_distribution)

    @classmethod
    def create(cls, config: ExperimentConfig, dim: int, master_seed: int) -> "MechanismState":
        """Build fresh models and the named RNG substreams for one run."""
        return cls(
            config=config,
            models=[ValueModel(dim) for _ in range(config.n_agents)],
            coin_stream=derive_stream(master_seed, "mechanism/explore_coin"),
            agent_stream=derive_stream(master_seed, "mechanism/explore_agent"),
            price_stream=derive_stream(master_seed, "mechanism/comparison_price"),
        )

    def refresh_estimates(self, contexts: np.ndarray) -> np.ndarray:
        """Predict every agent's value for one round's contexts."""
        return np.array([model.predict(c) for model, c in zip(self.models, contexts)], float)

    def train(self, agent: int, context: np.ndarray, target: float) -> None:
        """Feed one sample to ``agent``'s model and fit the model once it is ready.

        The refit is eager, and made only for a ready model, so a run fits
        as often as the lazy refit inside ``ValueModel.predict`` would, and a
        ready model's ``coefficients`` are never stale.
        """
        model = self.models[agent]
        model.ingest(context, target)
        if model.sample_count >= model.min_samples:
            model.fit()


def _explore(state: MechanismState, size: int) -> tuple[np.ndarray, np.ndarray]:
    # The exploration draw of ``size`` rounds: uniformly random winners, then
    # their comparison prices, the values of as many one-round draws.
    winners = state.agent_stream.integers(len(state.models), size=size)
    fixed = state._fixed_price
    prices = state.price_stream.random(size) if fixed is None else np.full(size, fixed)
    return winners, prices


def run_round(
    state: MechanismState, contexts: np.ndarray, winner: int, target: float
) -> RoundRecord:
    """Play one explored round: train ``winner``'s model on ``target``, updating ``state``.

    ``contexts`` is the (n_agents, dim) block of request features for this
    round. ``winner`` is the round's drawn winner, and ``target`` what its
    model trains on, which the driver derived from the winner's answer at the
    drawn price. No decision reads an estimate, so the round predicts
    nothing. Returns the round's decision; ground truth stays with the caller.
    """
    contexts = np.asarray(contexts, dtype=float)
    n_agents = len(state.models)
    if contexts.ndim != 2 or contexts.shape[0] != n_agents:
        raise DimensionMismatchError(
            f"contexts have shape {contexts.shape}, expected ({n_agents}, dim)"
        )
    state.train(winner, contexts[winner], target)
    return RoundRecord(allocated_agent=winner, explored=True)


def frozen_estimates(
    events: np.ndarray, table: np.ndarray, rounds: np.ndarray, contexts: np.ndarray
) -> np.ndarray:
    """One agent's estimates in ``rounds``, at its ``contexts`` there, as ``predict`` gives them.

    Row k of ``table`` is the agent's model after the k-th of its training rounds ``events``,
    and the last row is the prior; both round arrays increase. Round t reads the row of the last
    event before t: the prior until the model has ``dim`` samples, then the clamped score.
    """
    starts = np.searchsorted(rounds, events, side="right")  # where each event's row is first read
    read = np.repeat(np.arange(-1, events.size), np.diff(starts, prepend=0, append=rounds.size))
    ready = read >= table.shape[1] - 1
    return np.where(ready, _clamped_scores(table[read], contexts), ValueModel.prior_estimate)


def exploit_stretch(tables: list[tuple], contexts, rounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every agent's :func:`frozen_estimates` in ``rounds``, and each round's winner and price.

    ``tables`` holds each agent's ``(events, table)``; ``contexts`` is indexed like the run's
    (rounds, n_agents, dim) world and read one agent at a time.
    """
    estimates = np.empty((rounds.size, len(tables)))
    for agent, (events, table) in enumerate(tables):
        estimates[:, agent] = frozen_estimates(events, table, rounds, contexts[rounds, agent])
    winners, prices = second_price(estimates)
    return estimates, winners, prices


def _clamped_scores(coefficients: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    # Stacked (1, dim) @ (dim, 1) products take the same dot product as
    # predict's ``coef.dot(context)``, bit for bit; ``contexts @ coef`` and
    # einsum sum in another order and differ in the last bit on many rows.
    scores = np.matmul(contexts[..., None, :], coefficients[..., None])[..., 0, 0]
    # predict's min(1.0, max(0.0, score)) maps -0.0 to 0.0, which
    # np.maximum(0.0, score) does not.
    return np.where(scores > 0.0, np.minimum(scores, 1.0), 0.0)
