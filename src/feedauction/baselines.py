"""Reference allocation rules the feedback mechanism is measured against.

Three baselines bracket the mechanism: an oracle that allocates and prices on
true expected utilities (zero regret by construction), an exact-value
regression that runs the identical auction loop but trains on realized
utilities instead of binary reports, and uniform random allocation with no
learning at all. The oracle and uniform allocation never learn, so each
decides all of a run's rounds in one call; the driver collects their reports.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigurationError, RoundRecord
from .mechanism import MechanismState, RoundOracle, _explore, run_round, second_price

__all__ = [
    "direct_regression_round",
    "oracle_round",
    "uniform_round",
]


def oracle_round(true_means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Second-price auctions on the true expected utilities of a run's rounds.

    ``true_means`` is the (rounds, n_agents) block; returns each round's
    winner (lowest index on ties) and second-highest true mean, which is
    both the payment and the comparison price.
    """
    return second_price(true_means)


def direct_regression_round(
    state: MechanismState,
    contexts: np.ndarray,
    oracle: RoundOracle,
    draw: tuple[int, float] | None,
) -> RoundRecord:
    """One round of the exact-value regression baseline.

    Identical to the feedback mechanism's round in every pre- and
    post-condition except that model training targets the realized utility
    rather than the binary report, which :func:`run_round` does exactly when
    the state's config names this mechanism. ``draw`` is the round's
    exploration draw, or ``None`` on exploitation, as for ``run_round``.
    """
    if state.config.mechanism != "direct_regression":
        raise ConfigurationError(
            "direct regression needs a state whose config has mechanism = direct_regression"
        )
    return run_round(state, contexts, oracle, draw)


def uniform_round(state: MechanismState, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Free uniformly random winners and their comparison prices for ``rounds`` rounds.

    The feedback mechanism's exploration draw with the rate pinned to 1, made
    for all rounds at once: it draws no coin and leaves the value models
    untouched, and the comparison prices follow the state's price rule.
    """
    return _explore(state, rounds)
