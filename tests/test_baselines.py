import numpy as np
import pytest

from feedauction.baselines import direct_regression_round, oracle_round, uniform_round
from feedauction.core import ConfigurationError, derive_stream
from feedauction.experiment import run_metadata, run_single
from feedauction.config import ExperimentConfig
from feedauction.mechanism import MechanismState
from feedauction.metrics import build_series, loglog_tail_slope, welfare_regret


def new_state(n_agents, seed, **changes):
    config = ExperimentConfig(n_agents=n_agents, **changes)
    return MechanismState.create(config, 2, seed)


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
        record = oracle_round(np.array([0.9, 0.2]), CountingOracle([0.9, 0.2]))
        assert record.allocated_agent == 0
        assert record.payment == pytest.approx(0.2)  # the runner-up's true mean
        assert not record.explored

    def test_true_means_override(self):
        # Dataset agents have 0/1 expected utilities; the means alone decide,
        # and a tie at the top goes to the lowest index at the tied price.
        record = oracle_round(np.array([0.0, 1.0, 1.0]), CountingOracle([0.0, 1.0, 1.0]))
        assert record.allocated_agent == 1
        assert record.payment == 1.0

    def test_zero_welfare_regret_by_construction(self):
        thetas = derive_stream(17, "population/theta").random((4, 3))
        context_stream = derive_stream(17, "world/contexts")
        for _ in range(50):
            raw = context_stream.random((4, 3))
            contexts = raw / raw.sum(axis=1, keepdims=True)
            means = np.einsum("ij,ij->i", thetas, contexts)
            record = oracle_round(means, CountingOracle(means))
            assert means[record.allocated_agent] == means.max()


class TestDirectRegressionRound:
    def test_requires_utility_target(self):
        state = new_state(2, 5)  # feedback: trains on the report
        with pytest.raises(ConfigurationError):
            direct_regression_round(state, np.full((2, 2), 0.5), CountingOracle([0.5, 0.5]))

    def test_trains_on_realized_utility(self):
        state = new_state(2, 5, mechanism="direct_regression")
        oracle = CountingOracle([0.73, 0.4])
        record = direct_regression_round(state, np.full((2, 2), 0.5), oracle)
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
        from feedauction.mechanism import run_round

        for _ in range(40):
            run_round(state, np.full((2, 2), 0.5), oracle)
        assert oracle.utility_calls == 0


class TestUniformRound:
    def test_free_random_allocation(self):
        state = new_state(3, 8, mechanism="uniform")
        coin = state.coin_stream.gen.bit_generator.state
        seen = set()
        for _ in range(300):
            record = uniform_round(state, CountingOracle([0.5] * 3))
            assert record.payment == 0.0
            assert record.explored
            seen.add(record.allocated_agent)
        assert seen == {0, 1, 2}
        # No coin is drawn and no model learns.
        assert state.coin_stream.gen.bit_generator.state == coin
        assert all(model.sample_count == 0 for model in state.models)

    def test_fixed_price_distribution(self):
        state = new_state(3, 8, mechanism="uniform", price_distribution="fixed:0.25")
        oracle = CountingOracle([0.1, 0.5, 0.9])
        for _ in range(20):
            record = uniform_round(state, oracle)
            assert record.comparison_price == 0.25
            assert record.report == (oracle.utilities[record.allocated_agent] >= 0.25)

    def test_matches_feedback_mechanism_at_full_exploration(self):
        # With the exploration rate pinned at 1 and the same master seed, the
        # uniform baseline and the feedback mechanism allocate identically:
        # they share the agent and price substreams by name.
        seed = 914
        contexts = np.full((3, 2), 0.5)
        oracle = CountingOracle([0.8, 0.5, 0.2])

        mech = new_state(3, seed, schedule_kind="constant", eta_constant=1.0)
        uni = new_state(3, seed, mechanism="uniform")
        from feedauction.mechanism import run_round

        for _ in range(200):
            a = run_round(mech, contexts, oracle)
            b = uniform_round(uni, oracle)
            assert (a.allocated_agent, a.comparison_price, a.report) == (
                b.allocated_agent,
                b.comparison_price,
                b.report,
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
