"""Reference allocation rules the feedback mechanism is measured against.

Three baselines bracket the mechanism: an oracle that allocates and prices on
true expected utilities (zero regret by construction), an exact-value
regression that runs the identical auction loop but trains on realized
utilities instead of binary reports, and uniform random allocation with no
learning at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, RngStream, RoundRecord
from .mechanism import MechanismState, RoundOracle, run_round, second_price

__all__ = [
    "UniformState",
    "direct_regression_round",
    "oracle_round",
    "uniform_round",
]


def oracle_round(true_means: np.ndarray, oracle: RoundOracle, *, t: int = 1) -> RoundRecord:
    """Second-price auction on the round's true expected utilities.

    A truthful report at the charged price is still collected so the ledger
    schema matches the learned mechanisms.
    """
    winner, price = second_price(true_means)
    answer = bool(oracle.compare(winner, price))
    return RoundRecord(
        t=t,
        allocated_agent=winner,
        explored=False,
        comparison_price=price,
        report=answer,
        payment=price,
    )


def direct_regression_round(
    state: MechanismState, contexts: np.ndarray, oracle: RoundOracle
) -> RoundRecord:
    """One round of the exact-value regression baseline.

    Identical to the feedback mechanism's round in every pre- and
    post-condition except that model training targets the realized utility
    rather than the binary report, so the state must have been created with
    ``regression_target="utility"``.
    """
    if state.regression_target != "utility":
        raise ConfigurationError(
            "direct regression needs a state created with regression_target='utility'"
        )
    return run_round(state, contexts, oracle)


@dataclass
class UniformState:
    """Round counter and RNG streams for the no-learning baseline."""

    n_agents: int
    agent_stream: RngStream
    price_stream: RngStream
    t: int = 1

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ConfigurationError(f"n_agents must be >= 1, got {self.n_agents}")


def uniform_round(state: UniformState, oracle: RoundOracle) -> RoundRecord:
    """Allocate uniformly at random for free; collect a report for parity.

    Equivalent to running the feedback mechanism with its exploration rate
    pinned to 1, minus the bookkeeping of value models nobody reads.
    """
    winner = int(state.agent_stream.integers(state.n_agents))
    price = float(state.price_stream.random())
    answer = bool(oracle.compare(winner, price))
    record = RoundRecord(
        t=state.t,
        allocated_agent=winner,
        explored=True,
        comparison_price=price,
        report=answer,
        payment=0.0,
    )
    state.t += 1
    return record
