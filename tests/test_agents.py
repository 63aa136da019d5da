import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedauction.agents import Strategy, report, sample_simplex, utility_from_uniform
from feedauction.config import ConfigError, ExperimentConfig
from feedauction.core import ConfigurationError, derive_stream
from feedauction.experiment import run_single


def thetas_of(run):
    # The linear population a synthetic run draws, re-derived from its stream.
    config = run.config
    master = config.theta_seed if config.theta_seed is not None else run.run_seed
    return derive_stream(master, "population/theta").random((config.n_agents, config.dim))


class TestStrategy:
    def test_parse_bare_kind(self):
        assert Strategy.parse("always_high") == Strategy(kind="always_high")

    def test_parse_with_parameter(self):
        parsed = Strategy.parse("threshold_shift:-0.2")
        assert parsed.kind == "threshold_shift"
        assert parsed.param == -0.2

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            Strategy.parse("random:maybe")
        with pytest.raises(ConfigurationError):
            Strategy.parse("bluffing")

    def test_random_probability_validated(self):
        with pytest.raises(ConfigurationError):
            Strategy(kind="random", param=1.5)


class TestReport:
    def test_truth_table(self):
        # (strategy, utility, price) -> answer, for every deterministic kind.
        cases = [
            ("truthful", 0.7, 0.5, True),
            ("truthful", 0.3, 0.5, False),
            ("truthful", 0.5, 0.5, True),  # ties answer yes
            ("always_high", 0.0, 0.9, True),
            ("always_low", 1.0, 0.1, False),
            ("inverted", 0.7, 0.5, False),
            ("inverted", 0.3, 0.5, True),
        ]
        for kind, utility, price, expected in cases:
            assert report(Strategy(kind=kind), utility, price) is expected

    def test_threshold_shift_moves_the_cutoff(self):
        up = Strategy(kind="threshold_shift", param=0.2)
        assert report(up, 0.65, 0.5) is False  # would be True when truthful
        assert report(up, 0.75, 0.5) is True
        down = Strategy(kind="threshold_shift", param=-0.2)
        assert report(down, 0.35, 0.5) is True  # would be False when truthful

    def test_random_needs_a_stream(self):
        with pytest.raises(ConfigurationError):
            report(Strategy(kind="random", param=0.5), 0.7, 0.5)

    def test_random_hits_its_yes_rate(self):
        stream = derive_stream(7, "agents/report/0")
        strategy = Strategy(kind="random", param=0.3)
        answers = [report(strategy, 0.5, 0.5, stream) for _ in range(20_000)]
        assert np.mean(answers) == pytest.approx(0.3, abs=0.01)

    def test_deterministic_kinds_leave_the_stream_untouched(self):
        stream = derive_stream(7, "agents/report/0")
        baseline = derive_stream(7, "agents/report/0").random(4)
        for kind in ("truthful", "always_high", "always_low", "inverted"):
            report(Strategy(kind=kind), 0.6, 0.4, stream)
        report(Strategy(kind="threshold_shift", param=0.1), 0.6, 0.4, stream)
        assert np.array_equal(stream.random(4), baseline)


class TestAgentSpec:
    """A synthetic agent's expected utility is theta . w."""

    def test_linear_mean_is_the_dot_product(self):
        run = run_single(ExperimentConfig(horizon=20, n_agents=3, dim=2, master_seed=4), 0)
        thetas = thetas_of(run)
        np.testing.assert_allclose(
            run.true_means, (run.contexts * thetas).sum(axis=-1), rtol=1e-12
        )
        assert np.all(run.true_means >= 0.0) and np.all(run.true_means <= 1.0)


class TestNoise:
    def test_bernoulli_thresholds_the_uniform(self):
        assert utility_from_uniform(0.7, 0.69, "bernoulli", 0.2) == 1.0
        assert utility_from_uniform(0.7, 0.71, "bernoulli", 0.2) == 0.0

    def test_truncated_uniform_support(self):
        noise = ("truncated_uniform", 0.2)
        assert utility_from_uniform(0.5, 0.0, *noise) == pytest.approx(0.3)
        assert utility_from_uniform(0.5, 1.0, *noise) == pytest.approx(0.7)
        # Near the boundary the half-width shrinks to min(width, mean, 1-mean).
        assert utility_from_uniform(0.1, 0.0, *noise) == pytest.approx(0.0)
        assert utility_from_uniform(0.1, 1.0, *noise) == pytest.approx(0.2)
        assert utility_from_uniform(0.95, 0.0, *noise) == pytest.approx(0.9)
        assert utility_from_uniform(0.95, 1.0, *noise) == pytest.approx(1.0)

    def test_zero_width_is_deterministic(self):
        assert utility_from_uniform(0.42, 0.137, "truncated_uniform", 0.0) == 0.42

    def test_vectorized_matches_scalar(self):
        noise = ("truncated_uniform", 0.2)
        means = np.array([0.1, 0.5, 0.9])
        uniforms = np.array([0.25, 0.5, 0.75])
        vector = utility_from_uniform(means, uniforms, *noise)
        scalars = [utility_from_uniform(m, u, *noise) for m, u in zip(means, uniforms)]
        assert vector == pytest.approx(scalars)

    @pytest.mark.parametrize(
        "noise, tolerance",
        [
            (("bernoulli", 0.2), 0.005),
            (("truncated_uniform", 0.2), 0.003),
        ],
    )
    def test_noise_preserves_the_mean(self, noise, tolerance):
        stream = derive_stream(11, "world/utilities")
        for mean in (0.1, 0.37, 0.5, 0.92):
            draws = utility_from_uniform(mean, stream.random(100_000), *noise)
            assert np.all(draws >= 0.0) and np.all(draws <= 1.0)
            assert np.mean(draws) == pytest.approx(mean, abs=tolerance)

    def test_sample_utility_uses_the_agent_noise(self):
        config = ExperimentConfig(
            horizon=500, n_agents=4, dim=2, noise_kind="truncated_uniform",
            noise_width=0.1, master_seed=5,
        )
        run = run_single(config, 0)
        deviations = run.utilities - run.true_means
        assert np.all(np.abs(deviations) <= 0.1 + 1e-12)
        assert np.abs(deviations).max() > 0.05
        assert np.mean(deviations) == pytest.approx(0.0, abs=0.01)

    def test_bad_noise_rejected(self):
        with pytest.raises(ConfigError, match="agents.noise"):
            ExperimentConfig(noise_kind="gaussian")
        with pytest.raises(ConfigError, match="agents.noise_width"):
            ExperimentConfig(noise_width=-0.1)


class TestSampleSimplex:
    def test_rows_are_distributions(self):
        stream = derive_stream(3, "world/contexts")
        draws = sample_simplex(stream, (50, 4), 6)
        assert draws.shape == (50, 4, 6)
        assert np.all(draws >= 0.0)
        np.testing.assert_allclose(draws.sum(axis=-1), 1.0, atol=1e-12)

    def test_coordinates_are_exchangeable(self):
        stream = derive_stream(3, "world/contexts")
        draws = sample_simplex(stream, (200_000,), 3)
        np.testing.assert_allclose(draws.mean(axis=0), 1.0 / 3.0, atol=0.002)

    def test_dim_validated(self):
        with pytest.raises(ValueError):
            sample_simplex(derive_stream(3, "world/contexts"), (5,), 0)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_simplex_property(self, dim, seed):
        draws = sample_simplex(derive_stream(seed, "world/contexts"), (3,), dim)
        assert np.all(draws >= 0.0)
        np.testing.assert_allclose(draws.sum(axis=-1), 1.0, atol=1e-12)


class TestRandomPopulation:
    """The linear population a synthetic run draws: theta uniform on [0, 1]^dim."""

    @staticmethod
    def run(**overrides):
        config = ExperimentConfig(horizon=300, master_seed=1, **overrides)
        return run_single(config, 0)

    @staticmethod
    def truthful_answers(run):
        rounds = np.arange(len(run))
        return run.utilities[rounds, run.allocated] >= run.comparison_prices

    def test_shapes_and_defaults(self):
        run = self.run(n_agents=5, dim=3)
        thetas = thetas_of(run)
        assert thetas.shape == (5, 3)
        assert np.all(thetas >= 0.0) and np.all(thetas <= 1.0)
        np.testing.assert_allclose(
            run.true_means, np.einsum("tnd,nd->tn", run.contexts, thetas), rtol=1e-12
        )
        # Without a deviant every agent reports truthfully.
        np.testing.assert_array_equal(run.reports, self.truthful_answers(run))

    def test_deviant_gets_the_strategy(self):
        run = self.run(n_agents=4, dim=2, deviant_index=2, deviant_strategy="always_high")
        deviant = run.allocated == 2
        assert deviant.any() and not deviant.all()
        assert np.all(run.reports[deviant])
        np.testing.assert_array_equal(
            run.reports[~deviant], self.truthful_answers(run)[~deviant]
        )

    def test_deviant_does_not_change_thetas(self):
        truthful = self.run(n_agents=4, dim=2)
        deviating = self.run(
            n_agents=4, dim=2, deviant_index=1, deviant_strategy="always_low"
        )
        np.testing.assert_array_equal(thetas_of(truthful), thetas_of(deviating))
        np.testing.assert_array_equal(truthful.contexts, deviating.contexts)
        np.testing.assert_array_equal(truthful.true_means, deviating.true_means)

    def test_deviant_index_validated(self):
        with pytest.raises(ConfigError, match="agents.deviant_index"):
            ExperimentConfig(n_agents=3, dim=2, deviant_index=5, deviant_strategy="always_high")
