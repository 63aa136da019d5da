"""Regret, incentive, and participation metrics computed from run arrays.

All functions take plain arrays (true expected utilities per round and agent,
allocation indices, payments, estimates) rather than record objects, so they
work equally on in-memory runs and on runs read back from disk. Per-round
increments are returned alongside prefix sums where cumulative curves are the
usual object of study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricsSeries",
    "build_series",
    "estimation_error_trace",
    "loglog_tail_slope",
    "per_agent_net_utility",
    "per_agent_welfare_loss",
    "per_round_profit",
    "revenue_regret",
    "welfare_regret",
]


def _check_alloc_inputs(true_means: np.ndarray, allocated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    true_means = np.asarray(true_means, dtype=float)
    allocated = np.asarray(allocated, dtype=int)
    if true_means.ndim != 2:
        raise ValueError(f"true_means must be (rounds, agents), got shape {true_means.shape}")
    if allocated.shape != (true_means.shape[0],):
        raise ValueError(
            f"allocated has shape {allocated.shape}, expected ({true_means.shape[0]},)"
        )
    return true_means, allocated


def welfare_regret(
    true_means: np.ndarray,
    allocated: np.ndarray,
    explored: np.ndarray | None = None,
    *,
    count_exploration: bool = True,
) -> np.ndarray:
    """Per-round welfare shortfall against the best-agent allocation.

    Exploration rounds count toward welfare by default (the content is shown
    either way); with ``count_exploration=False`` the welfare produced on
    exploration rounds is discarded, for sensitivity analysis.
    """
    true_means, allocated = _check_alloc_inputs(true_means, allocated)
    rows = np.arange(true_means.shape[0])
    achieved = true_means[rows, allocated]
    if not count_exploration:
        if explored is None:
            raise ValueError("count_exploration=False needs the explored flags")
        achieved = np.where(np.asarray(explored, dtype=bool), 0.0, achieved)
    return true_means.max(axis=1) - achieved


def oracle_prices(true_means: np.ndarray) -> np.ndarray:
    """Second-highest true expected utility each round (the oracle's price)."""
    true_means = np.asarray(true_means, dtype=float)
    if true_means.shape[1] < 2:
        return np.zeros(true_means.shape[0])
    return np.partition(true_means, -2, axis=1)[:, -2]


def revenue_regret(true_means: np.ndarray, payments: np.ndarray) -> np.ndarray:
    """Per-round revenue shortfall against the oracle's second price.

    Exploration rounds pay nothing, so they contribute the full oracle price;
    exploitation rounds can contribute negative increments when the learned
    price overshoots.
    """
    true_means = np.asarray(true_means, dtype=float)
    payments = np.asarray(payments, dtype=float)
    if payments.shape != (true_means.shape[0],):
        raise ValueError(
            f"payments have shape {payments.shape}, expected ({true_means.shape[0]},)"
        )
    return oracle_prices(true_means) - payments


def estimation_error_trace(true_means: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """Worst-case absolute estimate error across agents, per round."""
    true_means = np.asarray(true_means, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if estimates.shape != true_means.shape:
        raise ValueError(
            f"estimates have shape {estimates.shape}, expected {true_means.shape}"
        )
    return np.abs(true_means - estimates).max(axis=1)


def per_agent_net_utility(
    true_means: np.ndarray, allocated: np.ndarray, payments: np.ndarray
) -> np.ndarray:
    """(rounds, agents) increments of expected utility minus payment.

    Non-allocated agents receive and pay nothing, so their column is zero.
    """
    true_means, allocated = _check_alloc_inputs(true_means, allocated)
    payments = np.asarray(payments, dtype=float)
    rows = np.arange(true_means.shape[0])
    net = np.zeros_like(true_means)
    net[rows, allocated] = true_means[rows, allocated] - payments
    return net


def per_agent_welfare_loss(true_means: np.ndarray, allocated: np.ndarray) -> np.ndarray:
    """Welfare-regret increments attributed to the agent that won each round.

    Summing over agents reproduces the total welfare regret exactly, which
    makes the per-agent histogram reconcile with the headline curve.
    """
    true_means, allocated = _check_alloc_inputs(true_means, allocated)
    increments = welfare_regret(true_means, allocated)
    losses = np.zeros(true_means.shape[1])
    np.add.at(losses, allocated, increments)
    return losses


def per_round_profit(run_truthful, run_deviant, agent: int) -> np.ndarray:
    """Per-round net-utility gain of the deviating agent over its truthful twin.

    Both runs must come from the same config and master seed so that agents,
    contexts, and realized utilities coincide; the only difference is the
    deviator's reporting strategy.
    """
    for name in ("horizon", "n_agents", "master_seed"):
        a = getattr(run_truthful.config, name)
        b = getattr(run_deviant.config, name)
        if a != b:
            raise ValueError(f"paired runs disagree on {name}: {a} != {b}")
    if run_truthful.seed_index != run_deviant.seed_index:
        raise ValueError(
            f"paired runs disagree on seed index: "
            f"{run_truthful.seed_index} != {run_deviant.seed_index}"
        )
    if not np.array_equal(run_truthful.true_means, run_deviant.true_means):
        raise ValueError("paired runs were not driven by common random numbers")
    truthful = per_agent_net_utility(
        run_truthful.true_means, run_truthful.allocated, run_truthful.payments
    )[:, agent]
    deviant = per_agent_net_utility(
        run_deviant.true_means, run_deviant.allocated, run_deviant.payments
    )[:, agent]
    return deviant - truthful


def loglog_tail_slope(cumulative: np.ndarray, tail_fraction: float = 0.5) -> float:
    """Least-squares slope of log(cumulative) against log(round) on the tail.

    A curve growing like t^a has slope a. Requires the cumulative values on
    the tail window to be strictly positive.
    """
    cumulative = np.asarray(cumulative, dtype=float)
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    horizon = cumulative.shape[0]
    start = int(np.floor(horizon * (1.0 - tail_fraction)))
    window = cumulative[start:]
    if window.size < 2:
        raise ValueError("tail window has fewer than 2 points")
    if np.any(window <= 0.0):
        raise ValueError("cumulative values must be positive on the tail window")
    rounds = np.arange(start + 1, horizon + 1, dtype=float)
    slope, _ = np.polyfit(np.log(rounds), np.log(window), 1)
    return float(slope)


@dataclass
class MetricsSeries:
    """Per-round metric columns for one run, all of length ``horizon``."""

    eta: np.ndarray
    welfare_regret_increment: np.ndarray
    revenue_regret_increment: np.ndarray
    max_estimate_error: np.ndarray | None
    net_utility: np.ndarray
    payment_by_agent: np.ndarray
    cumulative_welfare_regret: np.ndarray
    cumulative_revenue_regret: np.ndarray

    @property
    def horizon(self) -> int:
        return self.eta.shape[0]


def build_series(run) -> MetricsSeries:
    """Assemble the standard metric columns from a finished run."""
    welfare_inc = welfare_regret(run.true_means, run.allocated)
    revenue_inc = revenue_regret(run.true_means, run.payments)
    if run.estimates is None:
        errors = None
    else:
        errors = estimation_error_trace(run.true_means, run.estimates)
    net = per_agent_net_utility(run.true_means, run.allocated, run.payments)
    payment_by_agent = np.zeros_like(run.true_means)
    rows = np.arange(run.true_means.shape[0])
    payment_by_agent[rows, run.allocated] = run.payments
    return MetricsSeries(
        eta=np.asarray(run.eta, dtype=float),
        welfare_regret_increment=welfare_inc,
        revenue_regret_increment=revenue_inc,
        max_estimate_error=errors,
        net_utility=net,
        payment_by_agent=payment_by_agent,
        cumulative_welfare_regret=np.cumsum(welfare_inc),
        cumulative_revenue_regret=np.cumsum(revenue_inc),
    )
