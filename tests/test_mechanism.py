import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedauction.config import ConfigError, ExperimentConfig
from feedauction.core import DimensionMismatchError
from feedauction.experiment import exploration_schedule
from feedauction.learner import ValueModel
from feedauction.mechanism import (
    MechanismState,
    _explore,
    exploit_stretch,
    exploration_rate,
    run_round,
    second_price,
)


class ScriptedOracle:
    """Deterministic comparison answers, decoupled from any utility."""

    def __init__(self, answer_fn, utilities=None):
        self.answer_fn = answer_fn
        self.utilities = utilities

    def compare(self, agent, price):
        return self.answer_fn(agent, price)

    def utility(self, agent):
        return self.utilities[agent]


class PinnedModel:
    """Predicts a fixed value whatever it ingests; counts the samples."""

    min_samples = float("inf")  # never ready, so the state never refits it

    def __init__(self, value):
        self.value = value
        self.sample_count = 0

    def predict(self, context):
        return self.value

    def ingest(self, context, target):
        self.sample_count += 1


def schedule(kind, n_agents, **changes):
    # A config that differs from the defaults only in its schedule; a lone
    # agent is allowed only under the uniform mechanism.
    mechanism = "uniform" if n_agents == 1 else "feedback"
    return ExperimentConfig(
        schedule_kind=kind, n_agents=n_agents, mechanism=mechanism, **changes
    )


def new_state(n_agents, dim, seed, kind="slow", **changes):
    return MechanismState.create(schedule(kind, n_agents, **changes), dim, seed)


def coins(state, rounds):
    # The explored flags of the first ``rounds`` rounds, from the run's schedule.
    return exploration_schedule(state, rounds)[1]


def pinned_state(n_agents, priors, *, eta_constant=1e-12, seed=77, **changes):
    # Fixed predictions make the exploitation branch fully scripted.
    state = new_state(
        n_agents, 2, seed, "constant", eta_constant=eta_constant, floor_rounds=1, **changes
    )
    state.models = [PinnedModel(p) for p in priors]
    return state


def second_round_coin(state):
    # Round 2 is past the one-round floor, so the constant rate applies.
    return coins(state, 2)[1]


def play_second_round(state, contexts):
    # Round 2 of a pinned state, every report a yes.
    coin = second_round_coin(state)
    oracle = ScriptedOracle(lambda a, c: True)
    return run_round(state, contexts, oracle, _explore(state) if coin else None)


def flat_contexts(n_agents):
    return np.full((n_agents, 2), 0.5)


class TestScheduleSpec:
    """The schedule's config keys are checked when the config is built."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="schedule.kind"):
            schedule("geometric", 2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError, match="agents.count"):
            schedule("slow", 0)
        with pytest.raises(ConfigError, match="schedule.epsilon"):
            schedule("slow", 2, epsilon=0.0)
        with pytest.raises(ConfigError, match="schedule.eta"):
            schedule("constant", 2, eta_constant=0.0)
        with pytest.raises(ConfigError, match="schedule.eta"):
            schedule("constant", 2, eta_constant=1.2)
        with pytest.raises(ConfigError, match="schedule.floor_rounds"):
            schedule("slow", 2, floor_rounds=0)


class TestExplorationRate:
    def test_round_index_must_be_positive(self):
        with pytest.raises(ValueError):
            exploration_rate(schedule("slow", 2), 0)

    def test_floor_forces_full_exploration_for_every_kind(self):
        for kind in ("slow", "fast", "constant"):
            spec = schedule(kind, 10)
            for t in (1, 2, 3):
                assert exploration_rate(spec, t) == 1.0

    def test_constant_kind_returns_the_configured_rate(self):
        spec = schedule("constant", 5, eta_constant=0.1)
        assert exploration_rate(spec, 4) == 0.1
        assert exploration_rate(spec, 10**6) == 0.1

    def test_pinned_slow_value(self):
        # Frozen against a 40-digit arbitrary-precision evaluation of
        # min(1, t^(-1/3) (n ln t)^((1+2*0.05)/3)) at t=1000, n=10.
        spec = schedule("slow", 10)
        assert exploration_rate(spec, 1000) == pytest.approx(
            0.4725236455569643, rel=1e-12
        )

    def test_pinned_fast_value(self):
        # Same oracle, min(1, t^(-1/2) (n ln t)^((1+0.05)/2)) at t=1000, n=10.
        spec = schedule("fast", 10)
        assert exploration_rate(spec, 1000) == pytest.approx(
            0.2921809489772023, rel=1e-12
        )

    @staticmethod
    def scalar_rate(kind, n_agents, epsilon, floor_rounds, eta_constant, t):
        # The schedule written out in Python floats, apart from the library.
        if t <= floor_rounds:
            return 1.0
        if kind == "constant":
            return eta_constant
        if kind == "slow":
            rate = t ** (-1 / 3) * (n_agents * math.log(t)) ** ((1 + 2 * epsilon) / 3)
        else:
            rate = t ** (-1 / 2) * (n_agents * math.log(t)) ** ((1 + epsilon) / 2)
        return min(1.0, rate)

    @pytest.mark.parametrize("kind", ("slow", "fast", "constant"))
    @pytest.mark.parametrize("floor_rounds", (1, 7))
    def test_rounds_in_one_array_match_the_scalar_formula(self, kind, floor_rounds):
        rounds = np.arange(1, 20_001)
        for n_agents, epsilon in itertools.product((2, 10), (0.05, 0.5)):
            spec = schedule(
                kind, n_agents, epsilon=epsilon, floor_rounds=floor_rounds, eta_constant=0.3
            )
            rates = exploration_rate(spec, rounds)
            expected = [
                self.scalar_rate(kind, n_agents, epsilon, floor_rounds, 0.3, t)
                for t in rounds.tolist()
            ]
            assert rates.dtype == np.float64 and rates.shape == rounds.shape
            assert rates.tolist() == expected, (n_agents, epsilon)
            assert exploration_rate(spec, 12_345) == expected[12_344]

    def test_an_array_with_a_round_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            exploration_rate(schedule("slow", 2), np.array([3, 2, 0, 4]))

    def test_rate_capped_at_one_for_crowded_populations(self):
        spec = schedule("slow", 100)
        assert exploration_rate(spec, 1000) == 1.0

    @given(
        kind=st.sampled_from(["slow", "fast"]),
        n_agents=st.sampled_from([2, 10, 100]),
        t1=st.integers(min_value=3, max_value=10**6),
        t2=st.integers(min_value=3, max_value=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_rate_is_non_increasing_and_bounded(self, kind, n_agents, t1, t2):
        spec = schedule(kind, n_agents)
        low, high = sorted((t1, t2))
        r_low, r_high = exploration_rate(spec, low), exploration_rate(spec, high)
        assert 0.0 <= r_high <= r_low <= 1.0


class TestSecondPrice:
    def test_basic_winner_and_price(self):
        assert second_price(np.array([0.9, 0.5])) == (0, 0.5)

    def test_ties_go_to_the_lowest_index(self):
        winner, price = second_price(np.array([0.4, 0.4, 0.2]))
        assert winner == 0
        assert price == 0.4

    def test_fewer_than_two_estimates_rejected(self):
        with pytest.raises(ValueError):
            second_price(np.array([0.7]))

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=2,
            max_size=20,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sort_oracle(self, values):
        winner, price = second_price(np.array(values))
        assert winner == values.index(max(values))
        assert price == sorted(values)[-2]

    def test_rows_are_separate_auctions(self):
        values = np.array([[0.9, 0.5, 0.1], [0.4, 0.4, 0.2], [0.0, 0.3, 0.7]])
        winners, prices = second_price(values)
        np.testing.assert_array_equal(winners, [0, 0, 2])
        np.testing.assert_array_equal(prices, [0.5, 0.4, 0.3])
        for row, winner, price in zip(values, winners, prices):
            assert second_price(row) == (winner, price)


class TestExploitStretch:
    @staticmethod
    def trained_state(seed, n_agents=4, dim=3, samples=(0, 2, 3, 40)):
        # Models at and around min_samples (= dim): the first two stay on the prior.
        state = new_state(n_agents, dim, seed, "constant", eta_constant=1.0)
        rng = np.random.Generator(np.random.PCG64(seed))
        for agent, count in enumerate(samples):
            for _ in range(count):
                state.train(agent, rng.dirichlet(np.ones(dim)), float(rng.random() < 0.5))
        return state

    def test_estimates_equal_per_agent_predict_bit_for_bit(self):
        for seed in range(5):
            state = self.trained_state(seed)
            contexts = np.random.Generator(np.random.PCG64(100 + seed)).dirichlet(
                np.ones(3), size=(300, 4)
            )
            estimates, winners, prices = exploit_stretch(state.coefficients, state.ready, contexts)
            expected = np.array(
                [[m.predict(c) for m, c in zip(state.models, row)] for row in contexts]
            )
            assert estimates.tobytes() == expected.tobytes()
            for row, winner, price in zip(expected, winners, prices):
                assert second_price(row) == (winner, price)
        assert not state.ready[:2].any() and state.ready[2:].all()

    def test_per_round_models_equal_one_call_per_model_set(self):
        # Rounds that read different stacked models, gathered into one call,
        # get the estimates of one call per set of models.
        states = [self.trained_state(seed, samples=(0, 3, 5, 40)) for seed in range(3)]
        states[0].ready[:] = False
        rng = np.random.Generator(np.random.PCG64(7))
        contexts = rng.dirichlet(np.ones(3), size=(200, 4))
        which = rng.integers(len(states), size=200)
        coefficients = np.stack([state.coefficients for state in states])[which]
        ready = np.stack([state.ready for state in states])[which]
        estimates, winners, prices = exploit_stretch(coefficients, ready, contexts)
        for k, state in enumerate(states):
            rows = which == k
            expected = exploit_stretch(state.coefficients, state.ready, contexts[rows])
            assert estimates[rows].tobytes() == expected[0].tobytes()
            np.testing.assert_array_equal(winners[rows], expected[1])
            assert prices[rows].tobytes() == expected[2].tobytes()

    def test_prior_and_clamped_rows(self):
        state = new_state(3, 2, 5)
        for model in state.models[1:]:
            model.ingest_batch(np.eye(2), np.zeros(2))
        state.ready[1:] = True
        state.coefficients[1] = [3.0, -2.0]
        state.coefficients[2] = [-1.0, 0.25]
        # Agent 0 is on the prior. Agent 1 scores 3, -2 and 0.5; agent 2
        # scores -1, a sum of two -0.0 products, and 0.25.
        contexts = np.array([
            [[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]],
            [[0.5, 0.5], [0.0, 1.0], [0.0, -0.0]],
            [[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]],
        ])
        estimates, _, _ = exploit_stretch(state.coefficients, state.ready, contexts)
        for model, coefficients in zip(state.models[1:], state.coefficients[1:]):
            model._coef, model._stale = coefficients.copy(), False
        expected = np.array(
            [[m.predict(c) for m, c in zip(state.models, row)] for row in contexts]
        )
        np.testing.assert_array_equal(
            estimates, [[0.5, 1.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.5, 0.25]]
        )
        assert estimates.tobytes() == expected.tobytes()
        assert not np.signbit(estimates).any()

    def test_training_restacks_only_ready_models(self):
        state = new_state(2, 2, 3)
        state.train(0, np.array([0.5, 0.5]), 1.0)
        assert not state.ready[0] and state.models[0].sample_count == 1
        np.testing.assert_array_equal(state.coefficients[0], 0.0)
        state.train(0, np.array([0.2, 0.8]), 0.0)
        assert state.ready[0]
        np.testing.assert_array_equal(state.coefficients[0], state.models[0].coefficients)


class TestRunRound:
    def test_exploitation_allocates_argmax_and_charges_runner_up(self):
        state = pinned_state(2, [0.9, 0.5])
        explored = second_round_coin(state)
        coin = state.coin_stream.gen.bit_generator.state
        draw = _explore(state) if explored else None
        record = run_round(state, flat_contexts(2), ScriptedOracle(lambda a, c: True), draw)
        assert not record.explored
        assert record.allocated_agent == 0
        assert record.payment == 0.5
        assert record.comparison_price == 0.5
        # The coin comes from the schedule; the round draws none.
        assert state.coin_stream.gen.bit_generator.state == coin

    def test_exploitation_tie_break(self):
        state = pinned_state(3, [0.4, 0.4, 0.2])
        record = play_second_round(state, flat_contexts(3))
        assert record.allocated_agent == 0
        assert record.payment == 0.4

    def test_exploitation_does_not_train_by_default(self):
        state = pinned_state(2, [0.9, 0.5])
        play_second_round(state, flat_contexts(2))
        assert all(m.sample_count == 0 for m in state.models)

    def test_all_allocations_policy_trains_on_exploitation(self):
        state = pinned_state(2, [0.9, 0.5], training_policy="all_allocations")
        play_second_round(state, flat_contexts(2))
        assert state.models[0].sample_count == 1
        assert state.models[1].sample_count == 0

    def test_first_round_explores_for_free(self):
        state = new_state(3, 2, 123)
        oracle = ScriptedOracle(lambda a, c: c < 0.5)
        coin = coins(state, 1)[0]
        record = run_round(state, flat_contexts(3), oracle, _explore(state) if coin else None)
        assert record.explored
        assert record.payment == 0.0
        assert 0.0 <= record.comparison_price < 1.0
        assert state.models[record.allocated_agent].sample_count == 1
        untouched = [m.sample_count for i, m in enumerate(state.models) if i != record.allocated_agent]
        assert untouched == [0, 0]

    def test_single_agent_exploitation_rejected(self):
        state = pinned_state(1, [0.9])
        with pytest.raises(ValueError):
            play_second_round(state, flat_contexts(1))

    def test_context_shape_validated(self):
        state = pinned_state(2, [0.9, 0.5])
        with pytest.raises(DimensionMismatchError):
            play_second_round(state, np.ones((3, 2)))

    def test_exploration_winner_frequencies_are_uniform(self):
        rounds = 100_000
        state = new_state(3, 2, 2024, "constant", eta_constant=1.0)
        contexts = flat_contexts(3)
        oracle = ScriptedOracle(lambda a, c: c < 0.5)
        counts = np.zeros(3)
        for coin in coins(state, rounds):
            draw = _explore(state) if coin else None
            counts[run_round(state, contexts, oracle, draw).allocated_agent] += 1
        assert np.all(np.abs(counts / rounds - 1.0 / 3.0) < 0.02)

    def test_exploration_fraction_tracks_constant_rate(self):
        # 50 seeds of 2000 rounds at a constant rate; the first three rounds
        # are floored at 1, which the expectation accounts for.
        rate, horizon, seeds = 0.1, 2000, 50
        config = schedule("constant", 2, eta_constant=rate)
        oracle = ScriptedOracle(lambda a, c: c < 0.5)
        contexts = flat_contexts(2)
        explored = 0
        for seed in range(seeds):
            state = MechanismState.create(config, 2, seed)
            for coin in coins(state, horizon):
                draw = _explore(state) if coin else None
                explored += run_round(state, contexts, oracle, draw).explored
        total = seeds * horizon
        expected = (3 * 1.0 + (horizon - 3) * rate) / horizon
        stderr = np.sqrt(expected * (1 - expected) / total)
        assert abs(explored / total - expected) < 3 * stderr

    def test_payment_never_exceeds_winner_estimate(self):
        state = new_state(3, 3, 31, "constant", eta_constant=0.5)
        rng = np.random.Generator(np.random.PCG64(9))
        oracle = ScriptedOracle(lambda a, c: c < 0.4)
        for coin in coins(state, 600):
            contexts = rng.dirichlet(np.ones(3), size=3)
            record = run_round(state, contexts, oracle, _explore(state) if coin else None)
            if record.explored:
                assert record.payment == 0.0
            else:
                estimates = state.last_estimates
                assert record.payment <= estimates[record.allocated_agent] + 1e-12
                assert record.payment == sorted(estimates)[-2]

    def test_decisions_never_read_utilities(self):
        # Two worlds with wildly different utilities but identical scripted
        # answers must produce identical ledgers: the only agent channel the
        # mechanism has is the comparison report.
        def play(utilities):
            state = new_state(3, 3, 58)
            oracle = ScriptedOracle(
                lambda a, c: (a + int(c * 100)) % 3 == 0, utilities=utilities
            )
            rng = np.random.Generator(np.random.PCG64(4))
            rows = []
            for coin in coins(state, 400):
                contexts = rng.dirichlet(np.ones(3), size=3)
                record = run_round(state, contexts, oracle, _explore(state) if coin else None)
                rows.append(
                    (record.allocated_agent, record.explored, record.payment, record.report)
                )
            return rows

        assert play([0.01, 0.02, 0.03]) == play([0.99, 0.98, 0.97])

    def test_paired_seeds_stay_aligned_when_reports_differ(self):
        # The coins are drawn up front and winner/price only on exploration,
        # so two runs sharing a master seed explore at the same rounds with
        # the same winners and prices even if every report differs.
        def play(answer):
            state = new_state(3, 2, 99)
            oracle = ScriptedOracle(lambda a, c: answer)
            rows = []
            for coin in coins(state, 300):
                draw = _explore(state) if coin else None
                record = run_round(state, flat_contexts(3), oracle, draw)
                rows.append((record.explored, record.allocated_agent, record.comparison_price))
            return rows

        yes_rows = play(True)
        no_rows = play(False)
        for (e1, w1, c1), (e2, w2, c2) in zip(yes_rows, no_rows):
            assert e1 == e2
            if e1:
                assert w1 == w2
                assert c1 == c2


class TestMechanismState:
    def test_model_count_must_match_schedule(self):
        # The state takes its agent count from the config it plays, so the
        # models cannot disagree with the schedule's population.
        state = new_state(3, 4, 1)
        assert state.config.n_agents == 3
        assert len(state.models) == 3
        assert all(model.dim == 4 and model.sample_count == 0 for model in state.models)
        assert state.refresh_estimates(np.full((3, 4), 0.25)).shape == (3,)

    def test_bad_policy_and_target_rejected(self):
        # The training policy is checked when the config is built; the
        # training target follows the mechanism, so no bad target can exist.
        with pytest.raises(ConfigError, match="training.policy"):
            schedule("slow", 2, training_policy="sometimes")
        with pytest.raises(ConfigError, match="mechanism"):
            ExperimentConfig(mechanism="rank_regression")

    def test_fixed_price_distribution(self):
        state = pinned_state(2, [0.9, 0.5], eta_constant=1.0, price_distribution="fixed:0.3")
        record = play_second_round(state, flat_contexts(2))
        assert record.explored
        assert record.comparison_price == 0.3

    def test_bad_price_distribution_rejected(self):
        with pytest.raises(ConfigError, match="exploration.price_distribution"):
            schedule("slow", 2, price_distribution="fixed:1.5")
        with pytest.raises(ConfigError, match="exploration.price_distribution"):
            schedule("slow", 2, price_distribution="gaussian")
