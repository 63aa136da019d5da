import numpy as np
import pytest

from feedauction.config import ExperimentConfig
from feedauction.experiment import paired_deviation_runs, run_single
from feedauction.metrics import (
    build_series,
    estimation_error_trace,
    loglog_tail_slope,
    oracle_prices,
    per_agent_net_utility,
    per_agent_welfare_loss,
    per_round_profit,
    revenue_regret,
    welfare_regret,
)

# A tiny worked example used across several tests:
# round 0: means (0.8, 0.3), round 1: means (0.2, 0.6), round 2: means (0.5, 0.5)
MEANS = np.array([[0.8, 0.3], [0.2, 0.6], [0.5, 0.5]])
ALLOCATED = np.array([1, 1, 0])  # wrong, right, tied
PAYMENTS = np.array([0.0, 0.1, 0.5])
EXPLORED = np.array([True, False, False])


class TestWelfareRegret:
    def test_worked_example(self):
        np.testing.assert_allclose(
            welfare_regret(MEANS, ALLOCATED), [0.5, 0.0, 0.0]
        )

    def test_discarding_exploration_welfare(self):
        regret = welfare_regret(MEANS, ALLOCATED, EXPLORED, count_exploration=False)
        np.testing.assert_allclose(regret, [0.8, 0.0, 0.0])

    def test_discarding_needs_flags(self):
        with pytest.raises(ValueError):
            welfare_regret(MEANS, ALLOCATED, count_exploration=False)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            welfare_regret(MEANS, np.array([0, 1]))
        with pytest.raises(ValueError):
            welfare_regret(MEANS[:, 0], ALLOCATED)


class TestRevenueRegret:
    def test_worked_example(self):
        # Oracle prices are the per-round second-highest means: 0.3, 0.2, 0.5.
        np.testing.assert_allclose(oracle_prices(MEANS), [0.3, 0.2, 0.5])
        np.testing.assert_allclose(
            revenue_regret(MEANS, PAYMENTS), [0.3, 0.1, 0.0]
        )

    def test_overcharging_counts_negative(self):
        regret = revenue_regret(MEANS, np.array([0.0, 0.4, 0.5]))
        assert regret[1] == pytest.approx(-0.2)

    def test_single_agent_prices_are_zero(self):
        np.testing.assert_allclose(oracle_prices(np.array([[0.7], [0.2]])), [0.0, 0.0])


class TestEstimationError:
    def test_max_over_agents(self):
        estimates = np.array([[0.7, 0.3], [0.2, 0.9], [0.5, 0.5]])
        np.testing.assert_allclose(
            estimation_error_trace(MEANS, estimates), [0.1, 0.3, 0.0]
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            estimation_error_trace(MEANS, np.zeros((3, 3)))


class TestNetUtility:
    def test_only_winners_have_nonzero_entries(self):
        net = per_agent_net_utility(MEANS, ALLOCATED, PAYMENTS)
        np.testing.assert_allclose(net, [[0.0, 0.3], [0.0, 0.5], [0.0, 0.0]])

    def test_cumulative_per_agent(self):
        cumulative = np.cumsum(per_agent_net_utility(MEANS, ALLOCATED, PAYMENTS), axis=0)
        np.testing.assert_allclose(cumulative[:, 1], [0.3, 0.8, 0.8])
        np.testing.assert_allclose(cumulative[:, 0], [0.0, 0.0, 0.0])

    def test_overcharged_round_goes_negative(self):
        net = per_agent_net_utility(MEANS, ALLOCATED, np.array([0.9, 0.1, 0.5]))
        assert net[0, 1] == pytest.approx(-0.6)


class TestWelfareLossHistogram:
    def test_reconciles_with_total_regret(self):
        losses = per_agent_welfare_loss(MEANS, ALLOCATED)
        np.testing.assert_allclose(losses, [0.0, 0.5])
        assert losses.sum() == pytest.approx(welfare_regret(MEANS, ALLOCATED).sum())

    def test_reconciles_on_a_real_run(self):
        config = ExperimentConfig(horizon=800, n_agents=6, dim=4, master_seed=3)
        run = run_single(config, 0)
        losses = per_agent_welfare_loss(run.true_means, run.allocated)
        total = welfare_regret(run.true_means, run.allocated).sum()
        assert losses.sum() == pytest.approx(total, rel=1e-12)


class TestLoglogTailSlope:
    def test_exact_power_laws(self):
        t = np.arange(1, 5001, dtype=float)
        assert loglog_tail_slope(t**0.5) == pytest.approx(0.5, abs=1e-9)
        assert loglog_tail_slope(3.7 * t) == pytest.approx(1.0, abs=1e-9)
        assert loglog_tail_slope(0.2 * t**0.66) == pytest.approx(0.66, abs=1e-9)

    def test_tail_window_is_the_back_half_by_default(self):
        # A curve that switches exponent halfway should report the tail's.
        t = np.arange(1, 2001, dtype=float)
        front = t[:1000] ** 1.0
        back = front[-1] * (t[1000:] / t[1000]) ** 0.5
        assert loglog_tail_slope(np.concatenate([front, back])) == pytest.approx(
            0.5, abs=0.01
        )

    def test_input_validation(self):
        t = np.arange(1, 101, dtype=float)
        with pytest.raises(ValueError):
            loglog_tail_slope(t, tail_fraction=0.0)
        with pytest.raises(ValueError):
            loglog_tail_slope(np.zeros(100))
        with pytest.raises(ValueError):
            loglog_tail_slope(t[:1])


class TestPairedProfit:
    @staticmethod
    def twin_runs(strategy, *, seed_index=0, agent=1):
        config = ExperimentConfig(horizon=600, n_agents=4, dim=3, master_seed=12)
        truthful = run_single(config, seed_index)
        deviant = run_single(
            config.replace(deviant_index=agent, deviant_strategy=strategy), seed_index
        )
        return truthful, deviant

    def test_truthful_twin_profit_is_exactly_zero(self):
        truthful, twin = self.twin_runs("truthful")
        assert np.all(per_round_profit(truthful, twin, 1) == 0.0)

    def test_deviation_changes_the_ledger(self):
        truthful, deviant = self.twin_runs("always_high")
        assert per_round_profit(truthful, deviant, 1).sum() != 0.0

    def test_pairing_is_validated(self):
        config = ExperimentConfig(horizon=200, n_agents=3, dim=2, master_seed=1)
        other = ExperimentConfig(horizon=200, n_agents=3, dim=2, master_seed=2)
        a, b = run_single(config, 0), run_single(other, 0)
        with pytest.raises(ValueError):
            per_round_profit(a, b, 0)
        c = run_single(config, 1)
        with pytest.raises(ValueError):
            per_round_profit(a, c, 0)

    def test_paired_deviation_runs_share_the_world(self):
        config = ExperimentConfig(
            horizon=300, n_agents=3, dim=2, master_seed=77, n_seeds=2
        )
        pairs = paired_deviation_runs(config, 0, "always_low")
        assert len(pairs) == 2
        for truthful, deviant in pairs:
            np.testing.assert_array_equal(truthful.true_means, deviant.true_means)
            np.testing.assert_array_equal(truthful.utilities, deviant.utilities)
            assert deviant.config.deviant_index == 0
            assert truthful.config.deviant_index is None


class TestBuildSeries:
    def test_columns_and_prefix_sums(self):
        config = ExperimentConfig(horizon=400, n_agents=4, dim=3, master_seed=9)
        run = run_single(config, 0)
        series = build_series(run)
        assert series.horizon == 400
        np.testing.assert_allclose(
            series.cumulative_welfare_regret, np.cumsum(series.welfare_regret_increment)
        )
        np.testing.assert_allclose(
            series.cumulative_revenue_regret, np.cumsum(series.revenue_regret_increment)
        )
        assert series.max_estimate_error.shape == (400,)
        assert np.all(series.max_estimate_error >= 0.0)
        # Payments land in the winner's column.
        rows = np.arange(400)
        np.testing.assert_allclose(
            series.payment_by_agent[rows, run.allocated], run.payments
        )
        np.testing.assert_allclose(
            series.payment_by_agent.sum(axis=1), run.payments
        )

    def test_estimate_errors_absent_for_uniform(self):
        config = ExperimentConfig(
            mechanism="uniform", horizon=100, n_agents=3, dim=2, master_seed=9
        )
        series = build_series(run_single(config, 0))
        assert series.max_estimate_error is None
