"""Reference allocation rules the feedback mechanism is measured against.

Three baselines bracket the mechanism: an oracle that allocates and prices on
true expected utilities (zero regret by construction), an exact-value
regression that runs the identical auction loop but trains on realized
utilities instead of binary reports, and uniform random allocation with no
learning at all.
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


def oracle_round(true_means: np.ndarray, oracle: RoundOracle) -> RoundRecord:
    """Second-price auction on the round's true expected utilities.

    A truthful report at the charged price is still collected so the ledger
    schema matches the learned mechanisms.
    """
    winner, price = second_price(true_means)
    answer = bool(oracle.compare(winner, price))
    return RoundRecord(
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
    rather than the binary report, which :func:`run_round` does exactly when
    the state's config names this mechanism.
    """
    if state.config.mechanism != "direct_regression":
        raise ConfigurationError(
            "direct regression needs a state whose config has mechanism = direct_regression"
        )
    return run_round(state, contexts, oracle)


def uniform_round(state: MechanismState, oracle: RoundOracle) -> RoundRecord:
    """Allocate uniformly at random for free; collect a report for parity.

    The feedback mechanism's round with its exploration rate pinned to 1: it
    draws no coin and leaves the value models untouched, but makes the same
    exploration draw, so the comparison price follows the state's price
    distribution.
    """
    winner, price = _explore(state)
    return RoundRecord(
        allocated_agent=winner,
        explored=True,
        comparison_price=price,
        report=bool(oracle.compare(winner, price)),
        payment=0.0,
    )
