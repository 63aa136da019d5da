import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from feedauction import experiment, mechanism
from feedauction.config import ExperimentConfig
from feedauction.core import derive_seed, derive_stream
from feedauction.dataio import CATEGORIES, generate_synthetic_dataset
from feedauction.experiment import (
    PreparedDataset,
    paired_deviation_runs,
    prepare_dataset,
    run_metadata,
    run_single,
)
from feedauction.learner import ValueModel
from feedauction.mechanism import MechanismState
from feedauction.metrics import estimation_error_trace
from helpers import per_round_baseline_reference, per_round_reference


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test; returns the list it appends one entry per call to."""
    calls, wrapped = [], getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return wrapped(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def small_config(**overrides):
    base = dict(horizon=400, n_agents=4, dim=3, master_seed=60, n_seeds=2)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestDeterminism:
    def test_identical_reruns(self):
        config = small_config()
        a, b = run_single(config, 0), run_single(config, 0)
        np.testing.assert_array_equal(a.allocated, b.allocated)
        np.testing.assert_array_equal(a.payments, b.payments)
        np.testing.assert_array_equal(a.true_means, b.true_means)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        assert a.run_seed == b.run_seed == derive_seed(60, "run/0")

    def test_seed_indices_differ(self):
        config = small_config()
        a, b = run_single(config, 0), run_single(config, 1)
        assert not np.array_equal(a.true_means, b.true_means)
        assert not np.array_equal(a.allocated, b.allocated)

    def test_mechanisms_share_the_world_for_one_seed(self):
        # Same seed, different mechanism: the population, contexts, and
        # realized utilities coincide; only decisions differ.
        runs = {
            name: run_single(small_config(mechanism=name), 0)
            for name in ("feedback", "direct_regression", "uniform", "oracle")
        }
        reference = runs["feedback"]
        for run in runs.values():
            np.testing.assert_array_equal(run.true_means, reference.true_means)
            np.testing.assert_array_equal(run.utilities, reference.utilities)

    @staticmethod
    def thetas(run):
        # The linear coefficients that explain the run's true means exactly.
        return np.stack(
            [
                np.linalg.lstsq(run.contexts[:, i], run.true_means[:, i], rcond=None)[0]
                for i in range(run.config.n_agents)
            ]
        )

    def test_theta_seed_pins_the_population_across_seed_indices(self):
        config = small_config(theta_seed=5)
        a, b = run_single(config, 0), run_single(config, 1)
        pinned = derive_stream(5, "population/theta").random((4, 3))
        np.testing.assert_allclose(self.thetas(a), pinned, atol=1e-12)
        np.testing.assert_allclose(self.thetas(b), pinned, atol=1e-12)
        # Contexts still vary by seed index.
        assert not np.array_equal(a.true_means, b.true_means)

    def test_default_population_varies_by_seed_index(self):
        config = small_config()
        a, b = run_single(config, 0), run_single(config, 1)
        assert not np.allclose(self.thetas(a), self.thetas(b), atol=1e-6)


class TestRunShapes:
    def test_arrays_and_records_are_complete(self):
        config = small_config()
        run = run_single(config, 0)
        horizon = config.horizon
        assert len(run) == horizon
        assert run.allocated.shape == (horizon,)
        assert run.payments.shape == (horizon,)
        assert run.explored.shape == (horizon,)
        assert run.eta.shape == (horizon,)
        assert run.estimates.shape == (horizon, config.n_agents)
        assert run.contexts.shape == (horizon, config.n_agents, config.dim)
        np.testing.assert_array_equal(
            run.oracle_second_prices, np.sort(run.true_means, axis=1)[:, -2]
        )
        assert len(run.final_models) == config.n_agents
        trained = sum(m["sample_count"] for m in run.final_models)
        assert trained == run.explored.sum()

    def test_keep_records_false_drops_only_the_ledger(self):
        kept = run_single(small_config(), 0)
        run = run_single(small_config(), 0, keep_records=False)
        assert run.contexts is None
        assert run.allocated.shape == (400,)
        for name in ("allocated", "payments", "comparison_prices", "explored", "reports",
                     "estimates", "true_means", "utilities", "oracle_second_prices", "eta"):
            np.testing.assert_array_equal(getattr(run, name), getattr(kept, name))

    def test_eta_matches_schedule(self):
        run = run_single(small_config(schedule_kind="constant"), 0)
        np.testing.assert_allclose(run.eta[:3], 1.0)
        np.testing.assert_allclose(run.eta[3:], 0.1)

    def test_metadata_contents(self):
        config = small_config()
        meta = run_metadata(run_single(config, 1))
        assert meta["config"]["seeds.master"] == 60
        assert meta["seed_index"] == 1
        assert meta["run_seed"] == derive_seed(60, "run/1")
        assert meta["identification_uniform_prices"] is True
        assert len(meta["final_models"]) == 4
        assert "feature_scaling" not in meta

    def test_fixed_price_flag_in_metadata(self):
        config = small_config(price_distribution="fixed:0.5")
        meta = run_metadata(run_single(config, 0))
        assert meta["identification_uniform_prices"] is False


class TestPairedRuns:
    def test_twins_differ_only_in_reports(self):
        config = small_config(n_seeds=2)
        pairs = paired_deviation_runs(config, 1, "always_high")
        for truthful, deviant in pairs:
            np.testing.assert_array_equal(truthful.true_means, deviant.true_means)
            np.testing.assert_array_equal(truthful.utilities, deviant.utilities)
            np.testing.assert_array_equal(truthful.explored, deviant.explored)
            # Exploration winners are stream-aligned even when reports differ.
            explored = truthful.explored
            np.testing.assert_array_equal(
                truthful.allocated[explored], deviant.allocated[explored]
            )

    def test_truthful_deviation_is_bit_identical(self):
        config = small_config(n_seeds=1)
        truthful, twin = paired_deviation_runs(config, 2, "truthful")[0]
        np.testing.assert_array_equal(truthful.allocated, twin.allocated)
        np.testing.assert_array_equal(truthful.payments, twin.payments)
        np.testing.assert_array_equal(truthful.reports, twin.reports)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_dataset(500, 8, 2)


@pytest.fixture(scope="module")
def prepared(corpus):
    return prepare_dataset(corpus, 4)


class TestBatchedEngine:
    """The engine replays the per-round loop.

    It plays the frozen rounds in one auction, each agent read from the table
    row of its last training round. So does a deviant arm, built from its
    truthful twin and a replay of the deviant's model.
    """

    STRATEGIES = ("truthful", "always_high", "inverted", "random:0.5", "threshold_shift:-0.2")

    @pytest.mark.parametrize(
        "mechanism_name, schedule_kind, world",
        itertools.product(
            ("feedback", "direct_regression"), ("slow", "fast", "constant"), ("synthetic", "csv")
        ),
    )
    def test_matches_the_per_round_loop(self, mechanism_name, schedule_kind, world, prepared):
        base = ExperimentConfig(
            horizon=1500, n_agents=4, dim=3, mechanism=mechanism_name,
            schedule_kind=schedule_kind, master_seed=61,
        )
        if world == "csv":
            base = base.replace(data_source="csv", data_path="corpus.csv", pca_components=4)
        for price, strategy in itertools.product(("uniform", "fixed:0.4"), self.STRATEGIES):
            config = base.replace(
                price_distribution=price, deviant_index=1, deviant_strategy=strategy
            )
            run = run_single(config, 0, prepared if world == "csv" else None)
            reference = per_round_reference(config, run)
            assert run.final_models == reference.pop("final_models"), (price, strategy)
            for column, expected in reference.items():
                found = getattr(run, column)
                assert found.dtype == expected.dtype, (column, price, strategy)
                assert np.array_equal(found, expected), (column, price, strategy)

    # A stretch of frozen rounds this long is far longer than most in the runs below.
    LONG = 256

    @staticmethod
    def assert_replays(config, prepared=None):
        run = run_single(config, 0, prepared)
        reference = per_round_reference(config, run)
        assert run.final_models == reference.pop("final_models")
        for column, expected in reference.items():
            found = getattr(run, column)
            assert found.dtype == expected.dtype, column
            assert np.array_equal(found, expected), column
        return run

    @staticmethod
    def arm_config(**overrides):
        base = dict(
            horizon=1500, n_agents=4, dim=3, master_seed=63,
            deviant_index=2, deviant_strategy="threshold_shift:-0.2",
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_a_long_frozen_stretch(self):
        # Forty rounds of exploration ready every model, then few train.
        config = self.arm_config(
            horizon=1024, schedule_kind="constant", eta_constant=0.0005, floor_rounds=40,
        )
        run = self.assert_replays(config)
        training = np.flatnonzero(run.explored)
        gaps = np.diff(np.concatenate([training, [config.horizon]]))
        assert gaps.max() > 2 * self.LONG
        assert all(model["sample_count"] >= config.dim for model in run.final_models)

    def test_a_model_becomes_ready_between_frozen_rounds(self):
        config = self.arm_config(
            horizon=768, dim=6, schedule_kind="constant", eta_constant=0.05
        )
        run = self.assert_replays(config)
        # An agent is ready at its dim-th training round; its column reads the
        # prior in the frozen rounds just before that round and its fitted
        # model in those just after.
        inside = []
        for agent in range(config.n_agents):
            won = np.flatnonzero(run.explored & (run.allocated == agent))
            ready_at = int(won[config.dim - 1])
            before = ~run.explored[ready_at - 5:ready_at]
            after = ~run.explored[ready_at + 1:ready_at + 6]
            inside.append(before.any() and after.any())
        assert any(inside)

    @pytest.mark.parametrize("strategy", ("random:0", "random:0.5", "random:1"))
    def test_random_deviants_answer_in_round_order(self, strategy):
        # The deviant first, in the middle and last, under both price rules.
        for deviant, price in itertools.product((0, 2, 3), ("uniform", "fixed:0.4")):
            self.assert_replays(
                self.arm_config(
                    deviant_index=deviant, deviant_strategy=strategy, price_distribution=price
                )
            )

    def test_a_random_deviant_among_one_round_stretches(self):
        # Nine rounds in ten explore, so the replay counts the deviant's
        # exploitation wins over many gaps of one frozen round between its
        # events.
        config = self.arm_config(
            horizon=2048, schedule_kind="constant", eta_constant=0.9,
            deviant_strategy="random:0.5",
        )
        run = self.assert_replays(config)
        frozen = np.flatnonzero(~run.explored)
        assert (run.allocated[frozen] == config.deviant_index).any()

    def test_a_random_deviant_waits_out_a_long_stretch(self):
        # Over LONG frozen rounds, some of them won by the deviant, lie
        # between two training rounds that the deviant wins, with training
        # rounds of other agents among them: the twin's models change within
        # them, and the replay counts the deviant's wins among them in one step.
        config = self.arm_config(
            horizon=1024, schedule_kind="constant", eta_constant=0.02,
            deviant_strategy="random:0.5",
        )
        run = self.assert_replays(config)
        deviant, explored = config.deviant_index, run.explored
        training = np.flatnonzero(explored)
        won = training[run.allocated[training] == deviant]
        waits = []
        for first, last in zip(won, won[1:]):
            frozen = np.flatnonzero(~explored[first + 1:last]) + first + 1
            if frozen.size >= self.LONG and (run.allocated[frozen] == deviant).any():
                waits.append(((training > first) & (training < last)).any())
        assert any(waits)

    def test_a_deviant_arm_trains_only_the_deviant(self, monkeypatch):
        # At W1's size, right after its twin (played without records, as only
        # such a run is cached), a random:0.5 arm plays no round through
        # run_round and feeds the deviant's model its explored wins.
        config = ExperimentConfig(
            horizon=20_000, n_agents=10, dim=5, schedule_kind="slow", master_seed=0,
            deviant_index=0, deviant_strategy="random:0.5",
        )
        truthful = config.replace(deviant_index=None, deviant_strategy="truthful")
        run_single(truthful, 0, keep_records=False)
        rounds = count_calls(monkeypatch, experiment, "run_round")
        ingested = count_calls(monkeypatch, ValueModel, "ingest")
        run = run_single(config, 0, keep_records=False)
        assert rounds == []
        assert len(ingested) == (run.explored & (run.allocated == 0)).sum() > 0

    @pytest.mark.parametrize(
        "mechanism_name, strategy",
        (
            *(("feedback", s) for s in ("always_high", "inverted", "threshold_shift:0.2")),
            ("direct_regression", "random:0.5"),
        ),
    )
    def test_a_replay_in_closed_form_fits_no_model(self, mechanism_name, strategy, monkeypatch):
        # Right after its twin, an arm whose answers do not depend on query order plays no
        # round and neither ingests nor fits: its model comes from running sums and one
        # batched solve.
        config = self.arm_config(
            mechanism=mechanism_name, deviant_index=0, deviant_strategy=strategy
        )
        truthful = config.replace(deviant_index=None, deviant_strategy="truthful")
        run_single(truthful, 0, keep_records=False)
        calls = [
            count_calls(monkeypatch, owner, name)
            for owner, name in ((experiment, "run_round"), (ValueModel, "ingest"),
                                (ValueModel, "fit"))
        ]
        run = run_single(config, 0, keep_records=False)
        assert calls == [[], [], []]
        assert run.final_models[0]["sample_count"] >= config.dim

    def test_many_one_round_stretches(self):
        # Nine rounds in ten explore, so most stretches of frozen rounds are
        # one round long, and each agent's column reads a new row in many of
        # them.
        config = self.arm_config(horizon=4096, schedule_kind="constant", eta_constant=0.9)
        run = self.assert_replays(config)
        frozen = np.flatnonzero(~run.explored)
        starts = np.flatnonzero(np.diff(frozen, prepend=-2) > 1)  # where each stretch starts
        lengths = np.diff(starts, append=frozen.size)
        assert starts.size > self.LONG
        assert (lengths == 1).sum() > 200

    def test_a_random_deviants_long_last_stretch(self):
        config = self.arm_config(
            horizon=1024, schedule_kind="constant", eta_constant=0.0005,
            floor_rounds=40, deviant_strategy="random:0.5",
        )
        run = self.assert_replays(config)
        last_training = np.flatnonzero(run.explored)[-1]
        assert config.horizon - 1 - last_training > 2 * self.LONG
        assert (run.allocated[last_training + 1:] == config.deviant_index).any()

    @pytest.mark.parametrize("master_seed", (3, 8, 9))
    def test_a_random_deviants_event_in_the_last_round_replays(self, master_seed):
        # The deviant wins the last round, an explored one: the replay still
        # feeds that event to the deviant's model, so its final model
        # counts every explored win.
        config = ExperimentConfig(
            horizon=300, n_agents=3, dim=2, schedule_kind="constant", eta_constant=0.5,
            master_seed=master_seed, deviant_index=1, deviant_strategy="random:0.5",
        )
        run = self.assert_replays(config)
        assert run.explored[-1] and run.allocated[-1] == config.deviant_index
        won = int((run.explored & (run.allocated == config.deviant_index)).sum())
        assert run.final_models[config.deviant_index]["sample_count"] == won

    @pytest.mark.parametrize("mechanism_name", ("feedback", "direct_regression"))
    @pytest.mark.parametrize(
        "overrides",
        (dict(schedule_kind="constant", eta_constant=1.0), dict(horizon=1), dict(horizon=2)),
        ids=("eta-1", "horizon-1", "horizon-2"),
    )
    def test_runs_without_a_frozen_round(self, mechanism_name, overrides):
        # Every round explores, at a constant rate of 1 or within the floor
        # rounds, so no frozen round is played.
        for strategy in ("truthful", "threshold_shift:-0.2", "random:0.5"):
            config = self.arm_config(
                mechanism=mechanism_name, deviant_strategy=strategy, **overrides
            )
            run = self.assert_replays(config)
            assert run.explored.all()

    @pytest.mark.parametrize(
        "mechanism_name, price", itertools.product(
            ("feedback", "direct_regression"), ("uniform", "fixed:0.4")
        ),
    )
    def test_deviant_arms_at_either_end_replay(self, mechanism_name, price):
        # The first and the last agent deviate, so the replay's win count
        # compares the deviant with agents on one side only.
        for deviant, strategy in itertools.product(
            (0, 3), ("always_low", "threshold_shift:0.2", "random:0", "random:1")
        ):
            self.assert_replays(
                self.arm_config(
                    mechanism=mechanism_name, price_distribution=price,
                    deviant_index=deviant, deviant_strategy=strategy,
                )
            )

    LEARNED_PRICES = tuple(
        itertools.product(("feedback", "direct_regression"), ("uniform", "fixed:0.4"))
    )
    REPLAYED = ("always_high", "inverted", "threshold_shift:0.2", "random:0.5")

    def few_events_config(self, deviant, wanted, **overrides):
        # The first master seed at which ``deviant`` wins ``wanted(count)`` explored rounds,
        # in short runs that explore about one round in twenty-five. The winners come from
        # the agent stream alone, so the count holds for every mechanism, price rule and
        # strategy.
        for seed in range(64, 400):
            config = self.arm_config(
                horizon=400, dim=4, schedule_kind="constant", eta_constant=0.04,
                floor_rounds=1, master_seed=seed, **overrides,
            )
            truthful = config.replace(deviant_index=None, deviant_strategy="truthful")
            run = run_single(truthful, 0, keep_records=False)
            if wanted(int((run.explored & (run.allocated == deviant)).sum())):
                return config
        raise AssertionError("no seed in range gives the wanted event count")

    @pytest.mark.parametrize("mechanism_name, price", LEARNED_PRICES)
    @pytest.mark.parametrize(
        "wanted",
        (lambda count: count == 0, lambda count: 0 < count < 4, lambda count: count == 4),
        ids=("none", "fewer-than-dim", "exactly-dim"),
    )
    def test_deviants_with_few_events_replay(self, mechanism_name, price, wanted):
        # A deviant that never trains, one that stays on the prior, and one that becomes
        # ready at its last event, first and last.
        for deviant in (0, 3):
            config = self.few_events_config(
                deviant, wanted, mechanism=mechanism_name, price_distribution=price
            )
            for strategy in self.REPLAYED:
                run = self.assert_replays(
                    config.replace(deviant_index=deviant, deviant_strategy=strategy)
                )
                count = int((run.explored & (run.allocated == deviant)).sum())
                assert wanted(count) and run.final_models[deviant]["sample_count"] == count
                on_prior = run.estimates[:, deviant] == ValueModel.prior_estimate
                assert on_prior.all() == (count < config.dim)

    @pytest.mark.parametrize("mechanism_name, price", LEARNED_PRICES)
    def test_ties_at_the_prior_replay(self, mechanism_name, price):
        # One round in three explores from round 2 on, so rounds where every agent is
        # still on the prior are auctioned: the lowest index wins the tie.
        for deviant, strategy in itertools.product((0, 3), self.REPLAYED):
            run = self.assert_replays(
                self.arm_config(
                    horizon=400, schedule_kind="constant", eta_constant=0.3, floor_rounds=1,
                    mechanism=mechanism_name, price_distribution=price,
                    deviant_index=deviant, deviant_strategy=strategy,
                )
            )
            tied = ~run.explored & (run.estimates == ValueModel.prior_estimate).all(axis=1)
            assert tied.any()
            assert np.all(run.allocated[tied] == 0)

    @pytest.mark.parametrize("mechanism_name", ("feedback", "direct_regression"))
    @pytest.mark.parametrize("price", ("fixed:0.0", "fixed:1.0"))
    def test_ties_at_clamped_estimates_replay(self, mechanism_name, price):
        # At the price 1.0 nearly every answer is no: feedback models fit zero and their
        # estimates clamp to 0.0, where an always_low deviant ties with the others.
        # direct_regression trains on utilities, which the price does not move.
        for deviant, strategy in itertools.product((0, 3), ("always_low", "always_high")):
            config = self.arm_config(
                mechanism=mechanism_name, price_distribution=price,
                deviant_index=deviant, deviant_strategy=strategy,
            )
            run = self.assert_replays(config)
            column = run.estimates[:, deviant]
            others = np.delete(run.estimates, deviant, axis=1).max(axis=1)
            tied = ~run.explored & (column == others) & ((column == 0.0) | (column == 1.0))
            if (mechanism_name, price, strategy) == ("feedback", "fixed:1.0", "always_low"):
                assert tied.any()
                assert np.all((run.allocated[tied] == deviant) == (deviant == 0))

    @pytest.mark.parametrize("mechanism_name, price", LEARNED_PRICES)
    def test_deviants_on_a_csv_world_at_dimension_30(self, mechanism_name, price):
        corpus_30 = generate_synthetic_dataset(300, 32, 3)
        prepared_30 = prepare_dataset(corpus_30, 30)
        for deviant, strategy in itertools.product((0, 5), ("inverted", "random:0.5")):
            config = self.arm_config(
                horizon=612, n_agents=6, mechanism=mechanism_name,
                price_distribution=price, deviant_index=deviant, deviant_strategy=strategy,
                data_source="csv", data_path="corpus.csv", pca_components=30,
            )
            run = self.assert_replays(config, prepared_30)
            assert run.final_models[deviant]["sample_count"] >= 30

    def test_a_csv_world_at_dimension_30(self):
        corpus_30 = generate_synthetic_dataset(300, 32, 3)
        config = self.arm_config(
            horizon=612, n_agents=6,
            data_source="csv", data_path="corpus.csv", pca_components=30,
        )
        run = self.assert_replays(config, prepare_dataset(corpus_30, 30))
        assert run.contexts.shape[2] == 30

    def test_the_schedule_is_computed_once_per_run(self, monkeypatch):
        # A learned run evaluates exploration_rate once, over all of its
        # rounds, in run_single; the rounds themselves only receive their draw.
        seen = []

        def counted(owner):
            rate = owner.exploration_rate

            def wrapper(config, t):
                seen.append(owner.__name__)
                return rate(config, t)

            return wrapper

        for owner in (experiment, mechanism):
            monkeypatch.setattr(owner, "exploration_rate", counted(owner))
        run_single(small_config(), 0, keep_records=False)
        assert seen == ["feedauction.experiment"]

    def test_state_has_no_round_counter(self):
        assert "t" not in {field.name for field in dataclasses.fields(MechanismState)}


class TestTwinCache:
    """A deviant arm reads its truthful twin from a one-entry cache that never changes a result.

    Arms without records hit it; an arm that keeps records plays its twin afresh. Only a
    truthful run without records fills it.
    """

    COLUMNS = (
        "contexts", "true_means", "utilities", "oracle_second_prices", "estimates", "allocated",
        "payments", "comparison_prices", "explored", "reports", "eta",
    )

    @classmethod
    def assert_same_run(cls, found, expected):
        for column in cls.COLUMNS:
            a, b = getattr(found, column), getattr(expected, column)
            if column == "contexts" and (a is None or b is None):
                continue
            assert a.dtype == b.dtype, column
            assert np.array_equal(a, b), column
        assert found.final_models == expected.final_models
        assert found.scaler_meta == expected.scaler_meta

    @staticmethod
    def twin(config):
        return config.replace(deviant_index=None, deviant_strategy="truthful")

    @pytest.mark.parametrize("strategy", ("inverted", "random:0.5"))
    def test_a_cold_cache_gives_the_run_made_after_the_twin(self, strategy, monkeypatch):
        config = small_config(deviant_index=3, deviant_strategy=strategy)
        run_single(small_config(mechanism="uniform"), 0)  # clears the cache
        cold = run_single(config, 1, keep_records=False)
        with_records = run_single(config, 1)
        # The arm returns its world; the cache keeps only the deviant's contexts.
        assert experiment._TWIN["contexts"].shape == (config.horizon, config.dim)
        assert with_records.contexts.shape == (config.horizon, config.n_agents, config.dim)
        run_single(self.twin(config), 1, keep_records=False)
        rounds = count_calls(monkeypatch, experiment, "run_round")
        self.assert_same_run(run_single(config, 1, keep_records=False), cold)
        assert rounds == []
        self.assert_same_run(with_records, cold)
        world = run_single(self.twin(config), 1).contexts
        np.testing.assert_array_equal(with_records.contexts, world)

    def test_a_truthful_run_with_records_is_not_kept(self, monkeypatch):
        # A run that keeps records, such as a CLI run, leaves no copy of its
        # world behind: the next deviant arm plays its twin afresh.
        config = small_config(deviant_index=3, deviant_strategy="inverted")
        run_single(self.twin(config), 0)
        rounds = count_calls(monkeypatch, experiment, "run_round")
        run_single(config, 0, keep_records=False)
        assert len(rounds) > 0

    def test_mutating_a_returned_run_leaves_later_arms_unchanged(self):
        # An arm's own columns and the truthful run's are writable copies. The columns an arm
        # keeps from its twin are the cache's read-only arrays, so writing one fails.
        own = ("estimates", "allocated", "payments", "comparison_prices", "reports")
        shared = ("true_means", "utilities", "oracle_second_prices", "explored", "eta")
        assert sorted(own + shared) == sorted(self.COLUMNS[1:])

        def mutate(array):
            if array.dtype == bool:
                np.logical_not(array, out=array)
            else:
                array += 1

        config = small_config(deviant_index=0, deviant_strategy="always_high")
        run_single(small_config(mechanism="oracle"), 0)
        expected = run_single(config, 0)
        truthful = run_single(self.twin(config), 0, keep_records=False)
        for column in self.COLUMNS[1:]:  # a run without records has no contexts
            mutate(getattr(truthful, column))
        truthful.final_models[0]["coefficients"][0] = 9.0
        first = run_single(config, 0, keep_records=False)
        self.assert_same_run(first, expected)
        for column in own:
            mutate(getattr(first, column))
        first.final_models[0]["coefficients"][0] = 9.0
        for column in shared:
            with pytest.raises(ValueError, match="read-only"):
                getattr(first, column)[...] = 0
        self.assert_same_run(run_single(config, 0, keep_records=False), expected)

    @pytest.mark.parametrize(
        "change",
        (
            "seed_index", "prepared", "price_distribution", "uniform run between",
            "another deviant agent", "records",
        ),
    )
    def test_a_call_that_is_not_a_hit_plays_the_twin_again(self, change, monkeypatch, corpus):
        config = small_config(
            deviant_index=1, deviant_strategy="threshold_shift:0.2",
            data_source="csv", data_path="corpus.csv", pca_components=4,
        )
        prepared = prepare_dataset(corpus, 4)
        seed_index, keep_records = 0, False
        run_single(self.twin(config), 0, prepared, keep_records=False)
        run_single(config, 0, prepared, keep_records=False)  # narrows the cache to agent 1
        if change == "seed_index":
            seed_index = 1
        elif change == "prepared":
            prepared = prepare_dataset(corpus, 4)
        elif change == "price_distribution":
            config = config.replace(price_distribution="fixed:0.4")
        elif change == "uniform run between":
            run_single(config.replace(mechanism="uniform"), 0, prepared)
        elif change == "another deviant agent":
            config = config.replace(deviant_index=2)
        else:
            keep_records = True
        rounds = count_calls(monkeypatch, experiment, "run_round")
        found = run_single(config, seed_index, prepared, keep_records=keep_records)
        assert len(rounds) > 0
        rounds.clear()
        again = run_single(config, seed_index, prepared, keep_records=False)
        assert rounds == []
        self.assert_same_run(again, found)
        assert found.scaler_meta["pca_components"] == 4


class TestBatchedBaselines:
    """``uniform`` and ``oracle``, decided in one call per run, replay the per-round loop."""

    STRATEGIES = (
        "truthful", "always_high", "always_low", "inverted", "random:0.3", "threshold_shift:-0.2",
    )

    @pytest.mark.parametrize(
        "mechanism_name, n_agents, price, world",
        [
            (*case, price, world)
            for case in (("uniform", 4), ("oracle", 4), ("uniform", 1))
            for price in ("uniform", "fixed:0.4")
            for world in ("synthetic", "csv")
        ],
    )
    def test_matches_the_per_round_loop(self, mechanism_name, n_agents, price, world, prepared):
        base = ExperimentConfig(
            horizon=1500, n_agents=n_agents, dim=3, mechanism=mechanism_name,
            price_distribution=price, master_seed=62,
        )
        if world == "csv":
            base = base.replace(data_source="csv", data_path="corpus.csv", pca_components=4)
        for strategy in self.STRATEGIES:
            config = base.replace(deviant_index=0, deviant_strategy=strategy)
            run = run_single(config, 0, prepared if world == "csv" else None)
            assert run.estimates is None and run.final_models is None
            for column, expected in per_round_baseline_reference(config, run).items():
                found = getattr(run, column)
                assert found.dtype == expected.dtype, (column, strategy)
                assert np.array_equal(found, expected), (column, strategy)


class TestLearningConcentration:
    def test_estimate_error_shrinks_relative_to_exploration_budget(self):
        # Cumulative worst-case estimate error over cumulative exploration
        # budget: binary reports carry about half a unit of noise per sample,
        # so the ratio starts near 0.5 and drifts down slowly. Pin that it
        # keeps falling across quarters and ends below 0.55 (seed mean).
        quarters = []
        config = ExperimentConfig(horizon=20_000, n_agents=10, dim=5, master_seed=42)
        for i in range(4):
            run = run_single(config, i, keep_records=False)
            errors = np.cumsum(estimation_error_trace(run.true_means, run.estimates))
            budget = np.cumsum(run.eta)
            ratio = errors / budget
            quarters.append([ratio[ratio.size * q // 4 - 1] for q in (1, 2, 3, 4)])
        mean_quarters = np.mean(quarters, axis=0)
        assert np.all(np.diff(mean_quarters) < 0.0)
        assert mean_quarters[-1] < 0.55


class TestDatasetWorlds:
    @staticmethod
    def toxic_config(**overrides):
        base = dict(
            horizon=300,
            n_agents=6,
            mechanism="feedback",
            data_source="csv",
            data_path="unused.csv",
            pca_components=4,
            master_seed=90,
            n_seeds=1,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_prepared_dataset_shapes(self, corpus, prepared):
        assert isinstance(prepared, PreparedDataset)
        assert prepared.n_examples == 500
        assert prepared.contexts_pool.shape == (500, 4)
        assert prepared.contexts_pool.min() >= 0.0
        assert prepared.contexts_pool.max() <= 1.0
        assert prepared.label_matrix.shape == (500, 6)
        assert prepared.meta["pca_components"] == 4

    def test_prepared_equals_on_the_fly(self, corpus, prepared):
        # A dataset prepared once and shared gives the runs that preparing it
        # afresh for each run gives.
        config = self.toxic_config()
        a = run_single(config, 0, prepare_dataset(corpus, config.pca_components))
        b = run_single(config, 0, prepared)
        np.testing.assert_array_equal(a.allocated, b.allocated)
        np.testing.assert_array_equal(a.true_means, b.true_means)

    def test_component_count_mismatch_rejected(self, prepared):
        with pytest.raises(ValueError, match="components"):
            run_single(self.toxic_config(pca_components=6), 0, prepared)

    def test_csv_source_requires_examples(self):
        with pytest.raises(ValueError, match="examples"):
            run_single(self.toxic_config(), 0)

    def test_sensitivity_population_cycles_categories(self, corpus, prepared):
        # Agent i is harmed by category i % 6, so agents 6 and 7 wrap around
        # to the first two categories, "toxic" and "severe_toxic".
        assert list(CATEGORIES[:2]) == ["toxic", "severe_toxic"]
        run = run_single(self.toxic_config(n_agents=8), 0, prepared)
        draws = derive_stream(run.run_seed, "world/examples").integers(
            500, size=(len(run), 8)
        )
        label_matrix = np.array([e.labels for e in corpus])
        for agent in range(8):
            harmed = label_matrix[draws[:, agent], agent % len(CATEGORIES)]
            np.testing.assert_array_equal(run.utilities[:, agent], 1.0 - harmed)

    def test_utilities_are_binary_and_equal_means(self, prepared):
        run = run_single(self.toxic_config(), 0, prepared)
        assert set(np.unique(run.utilities)) <= {0.0, 1.0}
        np.testing.assert_array_equal(run.utilities, run.true_means)

    def test_true_means_and_utilities_are_one_array(self, prepared):
        # A drawn example's realized utility is its expected utility, so a csv run keeps one
        # (rounds, agents) array for both columns.
        run = run_single(self.toxic_config(), 0, prepared)
        assert np.shares_memory(run.true_means, run.utilities)

    def test_utilities_reflect_label_membership(self, corpus, prepared):
        # Rebuild the harmed matrix directly from the corpus labels and the
        # pool indices the run drew, and compare against the run's utilities.
        config = self.toxic_config(horizon=50)
        run = run_single(config, 0, prepared)
        from feedauction.core import derive_stream

        draws = derive_stream(run.run_seed, "world/examples").integers(
            500, size=(50, 6)
        )
        label_matrix = np.array([e.labels for e in corpus])
        for ti in range(50):
            for agent in range(6):
                harmed = label_matrix[draws[ti, agent], agent % 6]
                assert run.utilities[ti, agent] == 1.0 - harmed

    def test_scaler_metadata_travels_with_the_run(self, prepared):
        meta = run_metadata(run_single(self.toxic_config(), 0, prepared))
        assert meta["feature_scaling"]["pca_components"] == 4
        assert len(meta["feature_scaling"]["feature_min"]) == 4

    @pytest.mark.parametrize("mechanism_name", ("feedback", "direct_regression", "uniform", "oracle"))
    def test_runs_read_through_the_index_match_the_gathered_world(self, mechanism_name, prepared):
        # A run reads its contexts through the draw index; only a run with records gathers
        # the world. Both give the same columns, and that world is pool[draws] itself.
        base = self.toxic_config(horizon=600, mechanism=mechanism_name)
        cases = [(None, "truthful")] + list(
            itertools.product((0, base.n_agents - 1), ("inverted", "random:0.5"))
        )
        for deviant, strategy in cases:
            config = base.replace(deviant_index=deviant, deviant_strategy=strategy)
            indexed = run_single(config, 0, prepared, keep_records=False)
            gathered = run_single(config, 0, prepared)
            assert indexed.contexts is None
            for column in TestTwinCache.COLUMNS[1:]:
                a, b = getattr(indexed, column), getattr(gathered, column)
                if a is None or b is None:
                    assert a is None and b is None, (column, deviant, strategy)
                    continue
                assert a.dtype == b.dtype, (column, deviant, strategy)
                assert np.array_equal(a, b), (column, deviant, strategy)
            assert indexed.final_models == gathered.final_models
            assert indexed.scaler_meta == gathered.scaler_meta
            draws = derive_stream(gathered.run_seed, "world/examples").integers(
                prepared.n_examples, size=(config.horizon, config.n_agents)
            )
            world = gathered.contexts
            assert world.dtype == np.float64 and world.flags["C_CONTIGUOUS"]
            assert world.tobytes() == prepared.contexts_pool[draws].tobytes()

    @pytest.mark.parametrize("mechanism_name", ("feedback", "direct_regression", "uniform", "oracle"))
    def test_only_a_run_with_records_holds_its_world(self, mechanism_name):
        # T = 5k rounds of 10 agents at d = 30: an 11.4 MiB world of float64 contexts.
        rng = np.random.default_rng(4)
        embedded = PreparedDataset(
            contexts_pool=rng.random((2000, 30)), label_matrix=rng.integers(0, 2, (2000, 6)),
            pca_components=30, meta={"pca_components": 30},
        )
        config = self.toxic_config(
            horizon=5000, n_agents=10, pca_components=30, mechanism=mechanism_name
        )
        world_bytes = 5000 * 10 * 30 * 8
        peaks = {}
        for keep_records in (False, True):
            experiment._TWIN.clear()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run_single(config, 0, embedded, keep_records=keep_records)
                peaks[keep_records] = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert peaks[False] < world_bytes / 2
        assert peaks[True] > world_bytes
