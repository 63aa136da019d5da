import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedauction.core import ConfigurationError, DimensionMismatchError
from feedauction.learner import ValueModel
from feedauction.mechanism import (
    MechanismState,
    ScheduleSpec,
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

    def __init__(self, value):
        self.value = value
        self.sample_count = 0

    def predict(self, context):
        return self.value

    def ingest(self, context, target):
        self.sample_count += 1


def pinned_state(n_agents, priors, *, eta_constant=1e-12, seed=77, **kwargs):
    # Fixed predictions make the exploitation branch fully scripted.
    schedule = ScheduleSpec(
        kind="constant", n_agents=n_agents, eta_constant=eta_constant, floor_rounds=1
    )
    state = MechanismState.create(n_agents, 2, schedule, seed, **kwargs)
    state.models = [PinnedModel(p) for p in priors]
    state.t = 2  # past the floor, so the constant rate applies
    return state


def flat_contexts(n_agents):
    return np.full((n_agents, 2), 0.5)


class TestScheduleSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleSpec(kind="geometric", n_agents=2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ScheduleSpec(kind="slow", n_agents=0)
        with pytest.raises(ConfigurationError):
            ScheduleSpec(kind="slow", n_agents=2, epsilon=0.0)
        with pytest.raises(ConfigurationError):
            ScheduleSpec(kind="constant", n_agents=2, eta_constant=0.0)
        with pytest.raises(ConfigurationError):
            ScheduleSpec(kind="constant", n_agents=2, eta_constant=1.2)
        with pytest.raises(ConfigurationError):
            ScheduleSpec(kind="slow", n_agents=2, floor_rounds=0)


class TestExplorationRate:
    def test_round_index_must_be_positive(self):
        with pytest.raises(ValueError):
            exploration_rate(ScheduleSpec(kind="slow", n_agents=2), 0)

    def test_floor_forces_full_exploration_for_every_kind(self):
        for kind in ("slow", "fast", "constant"):
            spec = ScheduleSpec(kind=kind, n_agents=10)
            for t in (1, 2, 3):
                assert exploration_rate(spec, t) == 1.0

    def test_constant_kind_returns_the_configured_rate(self):
        spec = ScheduleSpec(kind="constant", n_agents=5, eta_constant=0.1)
        assert exploration_rate(spec, 4) == 0.1
        assert exploration_rate(spec, 10**6) == 0.1

    def test_pinned_slow_value(self):
        # Frozen against a 40-digit arbitrary-precision evaluation of
        # min(1, t^(-1/3) (n ln t)^((1+2*0.05)/3)) at t=1000, n=10.
        spec = ScheduleSpec(kind="slow", n_agents=10)
        assert exploration_rate(spec, 1000) == pytest.approx(
            0.4725236455569643, rel=1e-12
        )

    def test_pinned_fast_value(self):
        # Same oracle, min(1, t^(-1/2) (n ln t)^((1+0.05)/2)) at t=1000, n=10.
        spec = ScheduleSpec(kind="fast", n_agents=10)
        assert exploration_rate(spec, 1000) == pytest.approx(
            0.2921809489772023, rel=1e-12
        )

    def test_rate_capped_at_one_for_crowded_populations(self):
        spec = ScheduleSpec(kind="slow", n_agents=100)
        assert exploration_rate(spec, 1000) == 1.0

    @given(
        kind=st.sampled_from(["slow", "fast"]),
        n_agents=st.sampled_from([2, 10, 100]),
        t1=st.integers(min_value=3, max_value=10**6),
        t2=st.integers(min_value=3, max_value=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_rate_is_non_increasing_and_bounded(self, kind, n_agents, t1, t2):
        spec = ScheduleSpec(kind=kind, n_agents=n_agents)
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


class TestRunRound:
    def test_exploitation_allocates_argmax_and_charges_runner_up(self):
        state = pinned_state(2, [0.9, 0.5])
        record = run_round(state, flat_contexts(2), ScriptedOracle(lambda a, c: True))
        assert not record.explored
        assert record.allocated_agent == 0
        assert record.payment == 0.5
        assert record.comparison_price == 0.5
        assert state.t == 3

    def test_exploitation_tie_break(self):
        state = pinned_state(3, [0.4, 0.4, 0.2])
        record = run_round(state, flat_contexts(3), ScriptedOracle(lambda a, c: True))
        assert record.allocated_agent == 0
        assert record.payment == 0.4

    def test_exploitation_does_not_train_by_default(self):
        state = pinned_state(2, [0.9, 0.5])
        run_round(state, flat_contexts(2), ScriptedOracle(lambda a, c: True))
        assert all(m.sample_count == 0 for m in state.models)

    def test_all_allocations_policy_trains_on_exploitation(self):
        state = pinned_state(2, [0.9, 0.5], training_policy="all_allocations")
        run_round(state, flat_contexts(2), ScriptedOracle(lambda a, c: True))
        assert state.models[0].sample_count == 1
        assert state.models[1].sample_count == 0

    def test_first_round_explores_for_free(self):
        schedule = ScheduleSpec(kind="slow", n_agents=3)
        state = MechanismState.create(3, 2, schedule, 123)
        record = run_round(state, flat_contexts(3), ScriptedOracle(lambda a, c: c < 0.5))
        assert record.explored
        assert record.payment == 0.0
        assert 0.0 <= record.comparison_price < 1.0
        assert state.models[record.allocated_agent].sample_count == 1
        untouched = [m.sample_count for i, m in enumerate(state.models) if i != record.allocated_agent]
        assert untouched == [0, 0]

    def test_single_agent_exploitation_rejected(self):
        state = pinned_state(1, [0.9])
        with pytest.raises(ValueError):
            run_round(state, flat_contexts(1), ScriptedOracle(lambda a, c: True))

    def test_context_shape_validated(self):
        state = pinned_state(2, [0.9, 0.5])
        with pytest.raises(DimensionMismatchError):
            run_round(state, np.ones((3, 2)), ScriptedOracle(lambda a, c: True))

    def test_exploration_winner_frequencies_are_uniform(self):
        schedule = ScheduleSpec(kind="constant", n_agents=3, eta_constant=1.0)
        state = MechanismState.create(3, 2, schedule, 2024)
        contexts = flat_contexts(3)
        oracle = ScriptedOracle(lambda a, c: c < 0.5)
        counts = np.zeros(3)
        for _ in range(100_000):
            counts[run_round(state, contexts, oracle).allocated_agent] += 1
        assert np.all(np.abs(counts / 100_000 - 1.0 / 3.0) < 0.02)

    def test_exploration_fraction_tracks_constant_rate(self):
        # 50 seeds of 2000 rounds at a constant rate; the first three rounds
        # are floored at 1, which the expectation accounts for.
        rate, horizon, seeds = 0.1, 2000, 50
        schedule = ScheduleSpec(kind="constant", n_agents=2, eta_constant=rate)
        oracle = ScriptedOracle(lambda a, c: c < 0.5)
        contexts = flat_contexts(2)
        explored = 0
        for seed in range(seeds):
            state = MechanismState.create(2, 2, schedule, seed)
            for _ in range(horizon):
                explored += run_round(state, contexts, oracle).explored
        total = seeds * horizon
        expected = (3 * 1.0 + (horizon - 3) * rate) / horizon
        stderr = np.sqrt(expected * (1 - expected) / total)
        assert abs(explored / total - expected) < 3 * stderr

    def test_payment_never_exceeds_winner_estimate(self):
        schedule = ScheduleSpec(kind="constant", n_agents=3, eta_constant=0.5)
        state = MechanismState.create(3, 3, schedule, 31)
        rng = np.random.Generator(np.random.PCG64(9))
        oracle = ScriptedOracle(lambda a, c: c < 0.4)
        for _ in range(600):
            contexts = rng.dirichlet(np.ones(3), size=3)
            record = run_round(state, contexts, oracle)
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
            schedule = ScheduleSpec(kind="slow", n_agents=3)
            state = MechanismState.create(3, 3, schedule, 58)
            oracle = ScriptedOracle(
                lambda a, c: (a + int(c * 100)) % 3 == 0, utilities=utilities
            )
            rng = np.random.Generator(np.random.PCG64(4))
            rows = []
            for _ in range(400):
                contexts = rng.dirichlet(np.ones(3), size=3)
                record = run_round(state, contexts, oracle)
                rows.append(
                    (record.allocated_agent, record.explored, record.payment, record.report)
                )
            return rows

        assert play([0.01, 0.02, 0.03]) == play([0.99, 0.98, 0.97])

    def test_paired_seeds_stay_aligned_when_reports_differ(self):
        # The coin is drawn every round and winner/price only on exploration,
        # so two runs sharing a master seed explore at the same rounds with
        # the same winners and prices even if every report differs.
        def play(answer):
            schedule = ScheduleSpec(kind="slow", n_agents=3)
            state = MechanismState.create(3, 2, schedule, 99)
            oracle = ScriptedOracle(lambda a, c: answer)
            rows = []
            for _ in range(300):
                record = run_round(state, flat_contexts(3), oracle)
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
        schedule = ScheduleSpec(kind="slow", n_agents=3)
        with pytest.raises(ConfigurationError):
            MechanismState(
                models=[ValueModel(2)],
                schedule=schedule,
                coin_stream=None,
                agent_stream=None,
                price_stream=None,
            )

    def test_bad_policy_and_target_rejected(self):
        schedule = ScheduleSpec(kind="slow", n_agents=2)
        with pytest.raises(ConfigurationError):
            MechanismState.create(2, 2, schedule, 1, training_policy="sometimes")
        with pytest.raises(ConfigurationError):
            MechanismState.create(2, 2, schedule, 1, regression_target="rank")

    def test_fixed_price_distribution(self):
        state = pinned_state(2, [0.9, 0.5], eta_constant=1.0, price_distribution="fixed:0.3")
        record = run_round(state, flat_contexts(2), ScriptedOracle(lambda a, c: True))
        assert record.explored
        assert record.comparison_price == 0.3

    def test_bad_price_distribution_rejected(self):
        schedule = ScheduleSpec(kind="slow", n_agents=2)
        with pytest.raises(ConfigurationError):
            MechanismState.create(2, 2, schedule, 1, price_distribution="fixed:1.5")
        with pytest.raises(ConfigurationError):
            MechanismState.create(2, 2, schedule, 1, price_distribution="gaussian")
