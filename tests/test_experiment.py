import numpy as np
import pytest

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
from feedauction.metrics import estimation_error_trace


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
