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


def _row_max(values: np.ndarray) -> np.ndarray:
    """``values.max(axis=1)``, bit for bit, taken one column at a time.

    ``max(axis=1)`` walks a (rounds, agents) block one short row at a time;
    ``np.maximum`` over its columns runs along the rounds. The two agree on
    every row whose maximum is neither zero nor NaN. A zero's sign and a
    NaN's bits depend on the order numpy reduces a row in, so those rows are
    taken with ``max(axis=1)`` itself.
    """
    best = values[:, 0].copy()
    for j in range(1, values.shape[1]):
        np.maximum(best, values[:, j], out=best)
    odd = (best == 0.0) | np.isnan(best)
    if odd.any():
        best[odd] = values[odd].max(axis=1)
    return best


def welfare_regret(true_means: np.ndarray, allocated: np.ndarray) -> np.ndarray:
    """Per-round welfare shortfall against the best-agent allocation.

    Exploration rounds count toward welfare: the content is shown either way.
    """
    true_means, allocated = _check_alloc_inputs(true_means, allocated)
    rows = np.arange(true_means.shape[0])
    return _row_max(true_means) - true_means[rows, allocated]


def oracle_prices(true_means: np.ndarray) -> np.ndarray:
    """Second-highest true expected utility each round (the oracle's price)."""
    true_means = np.asarray(true_means, dtype=float)
    if true_means.shape[1] < 2:
        return np.zeros(true_means.shape[0])
    return np.partition(true_means, -2, axis=1)[:, -2]


def estimation_error_trace(true_means: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """Worst-case absolute estimate error across agents, per round."""
    true_means = np.asarray(true_means, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if estimates.shape != true_means.shape:
        raise ValueError(
            f"estimates have shape {estimates.shape}, expected {true_means.shape}"
        )
    errors = np.subtract(true_means, estimates)
    return _row_max(np.abs(errors, out=errors))


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
    return np.bincount(allocated, weights=increments, minlength=true_means.shape[1])


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
    # A deviant arm and its cached twin share one world: nothing to compare.
    if run_truthful.true_means is not run_deviant.true_means and not np.array_equal(
        run_truthful.true_means, run_deviant.true_means
    ):
        raise ValueError("paired runs were not driven by common random numbers")
    return _net_utility_column(run_deviant, agent) - _net_utility_column(run_truthful, agent)


def _net_utility_column(run, agent: int) -> np.ndarray:
    # Column ``agent`` of per_agent_net_utility, without the other agents' columns.
    true_means, allocated = _check_alloc_inputs(run.true_means, run.allocated)
    payments = np.asarray(run.payments, dtype=float)
    return np.where(allocated == agent, true_means[:, agent] - payments, 0.0)


def loglog_tail_slope(cumulative: np.ndarray) -> float:
    """Least-squares slope of log(cumulative) against log(round) on the back half.

    A curve growing like t^a has slope a. Requires the cumulative values on
    the tail window to be strictly positive.
    """
    cumulative = np.asarray(cumulative, dtype=float)
    horizon = cumulative.shape[0]
    start = horizon // 2
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
    """Per-round metric columns for one run, all of the run's length."""

    welfare_regret_increment: np.ndarray
    revenue_regret_increment: np.ndarray
    max_estimate_error: np.ndarray | None
    net_utility: np.ndarray
    cumulative_welfare_regret: np.ndarray
    cumulative_revenue_regret: np.ndarray


def build_series(run) -> MetricsSeries:
    """Assemble the standard metric columns from a finished run.

    Revenue regret is the shortfall against the oracle's second price.
    Exploration rounds pay nothing, so they contribute the full oracle price;
    exploitation rounds can contribute negative increments when the learned
    price overshoots.
    """
    welfare_inc = welfare_regret(run.true_means, run.allocated)
    revenue_inc = run.oracle_second_prices - run.payments
    if run.estimates is None:
        errors = None
    else:
        errors = estimation_error_trace(run.true_means, run.estimates)
    net = per_agent_net_utility(run.true_means, run.allocated, run.payments)
    return MetricsSeries(
        welfare_regret_increment=welfare_inc,
        revenue_regret_increment=revenue_inc,
        max_estimate_error=errors,
        net_utility=net,
        cumulative_welfare_regret=np.cumsum(welfare_inc),
        cumulative_revenue_regret=np.cumsum(revenue_inc),
    )
