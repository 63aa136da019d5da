import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedauction.config import ConfigError, ExperimentConfig
from feedauction.core import DimensionMismatchError
from feedauction.experiment import exploration_schedule, run_single
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


def explored_draws(state, rounds):
    # The explored flags of the first ``rounds`` rounds and, drawn in one
    # batch as the driver draws them, each explored round's (winner, price).
    explored = coins(state, rounds)
    winners, prices = _explore(state, int(explored.sum()))
    return explored, iter(zip(winners.tolist(), prices.tolist()))


def stream_states(state):
    return [
        stream.gen.bit_generator.state
        for stream in (state.coin_stream, state.agent_stream, state.price_stream)
    ]


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
    """An explored round trains its winner on the winner's report.

    Exploitation is ``second_price`` over ``exploit_stretch``'s estimates,
    which TestSecondPrice and TestExploitStretch check, and
    TestExploitationColumns checks in a run's columns.
    """

    def test_an_explored_round_trains_only_its_winner(self):
        state = new_state(3, 2, 123)
        _, draws = explored_draws(state, 1)  # round 1 is floored at full exploration
        winner, price = next(draws)
        before = stream_states(state)
        oracle = ScriptedOracle(lambda a, c: c < 0.5)
        record = run_round(state, flat_contexts(3), oracle, (winner, price))
        assert record.explored
        assert record.allocated_agent == winner
        assert record.report == (price < 0.5)
        assert state.models[winner].sample_count == 1
        untouched = [m.sample_count for i, m in enumerate(state.models) if i != winner]
        assert untouched == [0, 0]
        # The coin and the draw come before the round, which draws nothing.
        assert stream_states(state) == before

    def test_context_shape_validated(self):
        state = new_state(2, 2, 77)
        with pytest.raises(DimensionMismatchError):
            run_round(state, np.ones((3, 2)), ScriptedOracle(lambda a, c: True), (0, 0.5))

    def test_decisions_never_read_utilities(self):
        # Two worlds with wildly different utilities but identical scripted
        # answers must produce identical decisions: the only agent channel the
        # mechanism has is the comparison report. Explored rounds train
        # through run_round, and the others are auctions on the frozen models.
        def play(utilities):
            state = new_state(3, 3, 58)
            oracle = ScriptedOracle(
                lambda a, c: (a + int(c * 100)) % 3 == 0, utilities=utilities
            )
            rng = np.random.Generator(np.random.PCG64(4))
            explored, draws = explored_draws(state, 400)
            rows = []
            for coin in explored:
                contexts = rng.dirichlet(np.ones(3), size=3)
                if coin:
                    record = run_round(state, contexts, oracle, next(draws))
                    rows.append((record.allocated_agent, record.report))
                else:
                    _, winners, prices = exploit_stretch(
                        state.coefficients, state.ready, contexts[None]
                    )
                    rows.append((int(winners[0]), float(prices[0])))
            return rows

        assert play([0.01, 0.02, 0.03]) == play([0.99, 0.98, 0.97])

    def test_paired_seeds_stay_aligned_when_reports_differ(self):
        # The coins and every explored round's winner and price are drawn
        # before round 1, so two runs sharing a master seed explore at the
        # same rounds with the same winners and prices even if every report,
        # and so every model, differs.
        def play(answer):
            state = new_state(3, 2, 99)
            oracle = ScriptedOracle(lambda a, c: answer)
            explored, draws = explored_draws(state, 300)
            draws = list(draws)
            for draw in draws:
                assert run_round(state, flat_contexts(3), oracle, draw).allocated_agent == draw[0]
            return explored, draws, state

        yes_explored, yes_draws, yes_state = play(True)
        no_explored, no_draws, no_state = play(False)
        np.testing.assert_array_equal(yes_explored, no_explored)
        assert yes_draws == no_draws
        assert stream_states(yes_state) == stream_states(no_state)
        assert not np.array_equal(yes_state.coefficients, no_state.coefficients)


class TestExplorationColumns:
    """The exploration draw as a run's columns record it."""

    def test_explored_winners_are_uniform_and_free(self):
        config = schedule("constant", 3, eta_constant=0.5, horizon=20_000, dim=2)
        run = run_single(config, 0, keep_records=False)
        winners = run.allocated[run.explored]
        assert winners.size > 9000
        assert np.all(np.abs(np.bincount(winners, minlength=3) / winners.size - 1 / 3) < 0.02)
        assert np.all(run.payments[run.explored] == 0.0)

    def test_exploration_fraction_tracks_constant_rate(self):
        # 50 seeds of 2000 rounds at a constant rate; the first three rounds
        # are floored at 1, which the expectation accounts for.
        rate, horizon, seeds = 0.1, 2000, 50
        config = schedule("constant", 2, eta_constant=rate, horizon=horizon, dim=2)
        explored = sum(
            int(run_single(config, seed, keep_records=False).explored.sum())
            for seed in range(seeds)
        )
        total = seeds * horizon
        expected = (3 * 1.0 + (horizon - 3) * rate) / horizon
        stderr = np.sqrt(expected * (1 - expected) / total)
        assert abs(explored / total - expected) < 3 * stderr


LEARNED_ARMS = list(
    itertools.product(("feedback", "direct_regression"), ("truthful", "inverted", "random:0.5"))
)


def learned_run(mechanism_name, strategy, **changes):
    # A learned run with records; every strategy but truthful deviates as
    # agent 1, so its columns come from the twin's replay.
    base = dict(
        horizon=1500, n_agents=4, dim=3, master_seed=41, mechanism=mechanism_name,
        schedule_kind="constant", eta_constant=0.2,
    )
    if strategy != "truthful":
        base.update(deviant_index=1, deviant_strategy=strategy)
    base.update(changes)
    return run_single(ExperimentConfig(**base), 0)


class TestExploitationColumns:
    """A run's unexplored rounds are second-price auctions on its estimates.

    The truthful run plays them with ``exploit_stretch``; a deviant arm
    replays them from its twin, so both are checked.
    """

    @pytest.mark.parametrize("mechanism_name, strategy", LEARNED_ARMS)
    def test_exploitation_allocates_argmax_and_charges_runner_up(self, mechanism_name, strategy):
        run = learned_run(mechanism_name, strategy)
        frozen = ~run.explored
        assert frozen.sum() > 1000
        estimates = run.estimates[frozen]
        np.testing.assert_array_equal(run.allocated[frozen], estimates.argmax(axis=1))
        runner_up = np.sort(estimates, axis=1)[:, -2]
        np.testing.assert_array_equal(run.payments[frozen], runner_up)
        np.testing.assert_array_equal(run.comparison_prices[frozen], runner_up)

    def test_exploitation_tie_break(self):
        # Round 1 gives one model a sample, short of the dim it needs, so
        # every later round is an auction of three prior estimates.
        config = ExperimentConfig(
            horizon=50, n_agents=3, dim=2, schedule_kind="constant", eta_constant=1e-6,
            floor_rounds=1,
        )
        run = run_single(config, 0)
        assert run.explored[0] and not run.explored[1:].any()
        np.testing.assert_array_equal(run.estimates[1:], ValueModel.prior_estimate)
        np.testing.assert_array_equal(run.allocated[1:], 0)
        np.testing.assert_array_equal(run.payments[1:], ValueModel.prior_estimate)

    @pytest.mark.parametrize("mechanism_name, strategy", LEARNED_ARMS)
    def test_exploitation_does_not_train(self, mechanism_name, strategy):
        # Each model holds one sample per explored round its agent won.
        run = learned_run(mechanism_name, strategy)
        wins = np.bincount(run.allocated[run.explored], minlength=run.config.n_agents)
        assert [model["sample_count"] for model in run.final_models] == wins.tolist()
        assert wins.sum() < run.config.horizon / 2

    @pytest.mark.parametrize("kind", ("slow", "fast", "constant"))
    def test_first_round_explores_for_free(self, kind):
        run = learned_run("feedback", "truthful", schedule_kind=kind, eta_constant=0.01)
        assert run.explored[0] and run.eta[0] == 1.0
        assert run.payments[0] == 0.0
        assert 0.0 <= run.comparison_prices[0] < 1.0
        assert run.final_models[run.allocated[0]]["sample_count"] >= 1

    def test_single_agent_exploitation_rejected(self):
        # A lone agent has no runner-up to charge: a learned mechanism
        # refuses it when the config is built, and the auction itself too.
        with pytest.raises(ConfigError, match="agents.count"):
            ExperimentConfig(n_agents=1, mechanism="feedback")
        with pytest.raises(ValueError):
            exploit_stretch(np.zeros((1, 2)), np.zeros(1, dtype=bool), np.ones((4, 1, 2)))

    @pytest.mark.parametrize("mechanism_name, strategy", LEARNED_ARMS)
    def test_payment_never_exceeds_winner_estimate(self, mechanism_name, strategy):
        run = learned_run(mechanism_name, strategy)
        frozen = ~run.explored
        winner_estimates = run.estimates[np.arange(run.config.horizon), run.allocated]
        assert np.all(run.payments[frozen] <= winner_estimates[frozen])
        assert np.all(run.payments[run.explored] == 0.0)


class TestMechanismState:
    def test_model_count_must_match_schedule(self):
        # The state takes its agent count from the config it plays, so the
        # models cannot disagree with the schedule's population.
        state = new_state(3, 4, 1)
        assert state.config.n_agents == 3
        assert len(state.models) == 3
        assert all(model.dim == 4 and model.sample_count == 0 for model in state.models)
        assert state.refresh_estimates(np.full((3, 4), 0.25)).shape == (3,)

    def test_bad_training_target_rejected(self):
        # The training target follows the mechanism, so no bad target can exist.
        with pytest.raises(ConfigError, match="mechanism"):
            ExperimentConfig(mechanism="rank_regression")

    def test_fixed_price_distribution(self):
        state = new_state(2, 2, 77, price_distribution="fixed:0.3")
        before = state.price_stream.gen.bit_generator.state
        _, prices = _explore(state, 5)
        assert prices.tolist() == [0.3] * 5
        # A fixed price draws nothing from the price stream.
        assert state.price_stream.gen.bit_generator.state == before

    def test_bad_price_distribution_rejected(self):
        with pytest.raises(ConfigError, match="exploration.price_distribution"):
            schedule("slow", 2, price_distribution="fixed:1.5")
        with pytest.raises(ConfigError, match="exploration.price_distribution"):
            schedule("slow", 2, price_distribution="gaussian")
