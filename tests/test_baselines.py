import numpy as np
import pytest

from feedauction.baselines import direct_regression_round, oracle_round, uniform_round
from feedauction.core import ConfigurationError, derive_stream
from feedauction.experiment import exploration_schedule, run_metadata, run_single
from feedauction.config import ExperimentConfig
from feedauction.mechanism import MechanismState, _explore, run_round
from feedauction.metrics import build_series, loglog_tail_slope, welfare_regret


def new_state(n_agents, seed, **changes):
    config = ExperimentConfig(n_agents=n_agents, **changes)
    return MechanismState.create(config, 2, seed)


def coins(state, rounds):
    # The explored flags of the first ``rounds`` rounds, from the run's schedule.
    return exploration_schedule(state, rounds)[1]


def first_round_draw(state):
    # Round 1 explores (its rate is floored at 1), so it gets a draw.
    coin = coins(state, 1)[0]
    return _explore(state) if coin else None


class CountingOracle:
    """Answers a fixed comparison rule and counts utility() calls."""

    def __init__(self, utilities):
        self.utilities = np.asarray(utilities, dtype=float)
        self.utility_calls = 0

    def compare(self, agent, price):
        return bool(self.utilities[agent] >= price)

    def utility(self, agent):
        self.utility_calls += 1
        return float(self.utilities[agent])


class TestOracleRound:
    def test_allocates_on_true_means(self):
        winners, prices = oracle_round(np.array([[0.9, 0.2], [0.1, 0.6]]))
        np.testing.assert_array_equal(winners, [0, 1])
        np.testing.assert_array_equal(prices, [0.2, 0.1])  # the runner-up's true mean

    def test_true_means_override(self):
        # Dataset agents have 0/1 expected utilities; the means alone decide,
        # and a tie at the top goes to the lowest index at the tied price.
        winners, prices = oracle_round(np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]))
        np.testing.assert_array_equal(winners, [1, 0])
        np.testing.assert_array_equal(prices, [1.0, 1.0])

    def test_zero_welfare_regret_by_construction(self):
        thetas = derive_stream(17, "population/theta").random((4, 3))
        raw = derive_stream(17, "world/contexts").random((50, 4, 3))
        contexts = raw / raw.sum(axis=2, keepdims=True)
        means = np.einsum("tij,ij->ti", contexts, thetas)
        winners, _ = oracle_round(means)
        np.testing.assert_array_equal(means[np.arange(50), winners], means.max(axis=1))


class TestDirectRegressionRound:
    def test_requires_utility_target(self):
        state = new_state(2, 5)  # feedback: trains on the report
        with pytest.raises(ConfigurationError):
            direct_regression_round(
                state, np.full((2, 2), 0.5), CountingOracle([0.5, 0.5]), first_round_draw(state)
            )

    def test_trains_on_realized_utility(self):
        state = new_state(2, 5, mechanism="direct_regression")
        oracle = CountingOracle([0.73, 0.4])
        draw = first_round_draw(state)
        record = direct_regression_round(state, np.full((2, 2), 0.5), oracle, draw)
        assert record.explored  # t=1 is floored at full exploration
        assert oracle.utility_calls == 1
        model = state.models[record.allocated_agent]
        assert model.sample_count == 1
        # The ingested target is the utility itself, not a binarized report:
        # moment vector b = target * context = utility * [0.5, 0.5].
        expected = oracle.utilities[record.allocated_agent] * 0.5
        np.testing.assert_allclose(model.moment, [expected, expected])

    def test_feedback_state_never_reads_utilities(self):
        state = new_state(2, 5)
        oracle = CountingOracle([0.73, 0.4])
        for coin in coins(state, 40):
            run_round(state, np.full((2, 2), 0.5), oracle, _explore(state) if coin else None)
        assert oracle.utility_calls == 0


class TestUniformRound:
    def test_free_random_allocation(self):
        state = new_state(3, 8, mechanism="uniform")
        coin = state.coin_stream.gen.bit_generator.state
        winners, _ = uniform_round(state, 3000)
        # Every agent wins about a third of the rounds.
        np.testing.assert_allclose(np.bincount(winners, minlength=3) / 3000, 1 / 3, atol=0.03)
        # No coin is drawn and no model learns.
        assert state.coin_stream.gen.bit_generator.state == coin
        assert all(model.sample_count == 0 for model in state.models)
        # A run pays nothing for its explored winners.
        run = run_single(ExperimentConfig(n_agents=3, mechanism="uniform", horizon=300), 0)
        assert np.all(run.payments == 0.0)
        assert np.all(run.explored)

    def test_fixed_price_distribution(self):
        state = new_state(3, 8, mechanism="uniform", price_distribution="fixed:0.25")
        winners, prices = uniform_round(state, 20)
        np.testing.assert_array_equal(prices, np.full(20, 0.25))
        # The price rule does not touch the agent stream.
        default, _ = uniform_round(new_state(3, 8, mechanism="uniform"), 20)
        np.testing.assert_array_equal(winners, default)

    def test_matches_feedback_mechanism_at_full_exploration(self):
        # With the exploration rate pinned at 1 and the same master seed, the
        # uniform baseline and the feedback mechanism allocate identically:
        # they share the agent and price substreams by name.
        seed = 914
        contexts = np.full((3, 2), 0.5)
        oracle = CountingOracle([0.8, 0.5, 0.2])

        mech = new_state(3, seed, schedule_kind="constant", eta_constant=1.0)
        records = [
            run_round(mech, contexts, oracle, _explore(mech) if coin else None)
            for coin in coins(mech, 200)
        ]
        uni = new_state(3, seed, mechanism="uniform")
        winners, prices = uniform_round(uni, 200)
        np.testing.assert_array_equal(winners, [r.allocated_agent for r in records])
        np.testing.assert_array_equal(prices, [r.comparison_price for r in records])
        # The streams end where 200 single draws leave them.
        for stream in ("agent_stream", "price_stream"):
            assert (
                getattr(uni, stream).gen.bit_generator.state
                == getattr(mech, stream).gen.bit_generator.state
            )


class TestBaselineBehaviorOnRuns:
    """End-to-end sanity on small runs driven through the experiment layer."""

    def test_uniform_regret_grows_linearly(self):
        config = ExperimentConfig(
            mechanism="uniform", horizon=4000, n_agents=5, dim=3, master_seed=101
        )
        slopes = [
            loglog_tail_slope(build_series(run_single(config, i)).cumulative_welfare_regret)
            for i in range(3)
        ]
        assert np.mean(slopes) == pytest.approx(1.0, abs=0.05)

    def test_uniform_with_a_fixed_price_asks_at_that_price(self):
        # Only the price column moves: the winners come from the agent
        # substream, which the price distribution does not touch.
        config = ExperimentConfig(
            mechanism="uniform", horizon=500, n_agents=4, dim=3, master_seed=3
        )
        default = run_single(config, 0)
        fixed = run_single(config.replace(price_distribution="fixed:0.5"), 0)
        assert np.all(fixed.comparison_prices == 0.5)
        assert not np.all(default.comparison_prices == 0.5)
        np.testing.assert_array_equal(fixed.allocated, default.allocated)
        np.testing.assert_array_equal(fixed.payments, default.payments)
        rows = np.arange(500)
        np.testing.assert_array_equal(fixed.reports, fixed.utilities[rows, fixed.allocated] >= 0.5)
        meta = run_metadata(fixed)
        assert meta["comparison_price_distribution"] == "fixed:0.5"
        assert meta["identification_uniform_prices"] is False

    def test_oracle_run_has_zero_regret_and_zero_estimation_error(self):
        config = ExperimentConfig(
            mechanism="oracle", horizon=500, n_agents=4, dim=3, master_seed=7
        )
        series = build_series(run_single(config, 0))
        assert np.all(series.welfare_regret_increment == 0.0)
        assert np.all(series.revenue_regret_increment == 0.0)

    def test_bernoulli_noise_makes_feedback_and_direct_identical(self):
        # With 0/1 utilities every truthful report equals the realized
        # utility exactly (u >= c iff u = 1 for c in (0, 1)), so the two
        # regressions see identical targets and the runs coincide.
        base = dict(horizon=1500, n_agents=4, dim=3, noise_kind="bernoulli", master_seed=55)
        for seed_index in range(2):
            fb = run_single(ExperimentConfig(mechanism="feedback", **base), seed_index)
            dr = run_single(
                ExperimentConfig(mechanism="direct_regression", **base), seed_index
            )
            np.testing.assert_array_equal(fb.allocated, dr.allocated)
            np.testing.assert_array_equal(fb.payments, dr.payments)

    def test_feedback_regret_within_twice_direct_regression(self):
        # Training on binary reports instead of exact utilities costs some
        # regret on a noisy linear world, but stays within the same ballpark:
        # the exact-value learner is better, and by well under 2x.
        base = dict(horizon=4000, n_agents=10, dim=5, master_seed=42)
        finals = {}
        for mechanism in ("feedback", "direct_regression"):
            config = ExperimentConfig(mechanism=mechanism, **base)
            finals[mechanism] = np.mean(
                [
                    welfare_regret(run.true_means, run.allocated).sum()
                    for run in (
                        run_single(config, i, keep_records=False) for i in range(8)
                    )
                ]
            )
        assert finals["direct_regression"] <= finals["feedback"]
        assert finals["feedback"] <= 2.0 * finals["direct_regression"]

    def test_zero_width_noise_aligns_exploration_and_most_exploitation(self):
        # Noiseless utilities mean a truthful report reveals 1{mean >= c},
        # which matches the utility regression on exploration rounds only up
        # to binarization, so the runs agree everywhere early (shared
        # exploration draws) and on most, but not all, exploitation rounds.
        base = dict(
            horizon=2000, n_agents=4, dim=3,
            noise_kind="truncated_uniform", noise_width=0.0, master_seed=56,
        )
        fb = run_single(ExperimentConfig(mechanism="feedback", **base), 0)
        dr = run_single(ExperimentConfig(mechanism="direct_regression", **base), 0)
        np.testing.assert_array_equal(fb.explored, dr.explored)
        same = fb.allocated == dr.allocated
        assert np.all(same[fb.explored])
        assert 0.4 < np.mean(same[~fb.explored]) < 1.0
