import re

import pytest

from feedauction.config import _KEY_SPECS, ConfigError, ExperimentConfig, parse_flat_text

CONFIG_KEY = {attr: key for key, (attr, _) in _KEY_SPECS.items()}

SAMPLE = """
# moderation experiment, slow schedule
horizon = 2000
mechanism = feedback
agents.count = 6          # one per category
schedule.kind = slow
schedule.epsilon = 0.05
seeds.master = 7
seeds.count = 4
agents.deviant_index = 2
agents.deviant_strategy = threshold_shift:-0.1
"""


class TestParseFlatText:
    def test_comments_and_blanks_are_skipped(self):
        mapping = parse_flat_text(SAMPLE)
        assert mapping["horizon"] == "2000"
        assert mapping["agents.count"] == "6"
        assert "#" not in "".join(mapping.values())

    def test_line_numbers_in_errors(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_flat_text("\nhorizon 2000\n")
        with pytest.raises(ConfigError, match="line 3"):
            parse_flat_text("a = 1\n\na = 2\n".replace("a", "horizon"))

    def test_missing_value_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_flat_text("horizon =\n")


class TestFromText:
    def test_full_round_trip(self):
        config = ExperimentConfig.from_text(SAMPLE)
        assert config.horizon == 2000
        assert config.n_agents == 6
        assert config.deviant_index == 2
        assert config.deviant_strategy == "threshold_shift:-0.1"
        assert config.master_seed == 7
        assert config.n_seeds == 4
        # Untouched keys keep their defaults.
        assert config.dim == 5
        assert config.price_distribution == "uniform"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="schedule.speed"):
            ExperimentConfig.from_text("schedule.speed = fast\n")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="horizon"):
            ExperimentConfig.from_text("horizon = soon\n")

    def test_optional_values(self):
        config = ExperimentConfig.from_text("agents.theta_seed = none\n")
        assert config.theta_seed is None
        config = ExperimentConfig.from_text("agents.theta_seed = 99\n")
        assert config.theta_seed == 99

    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(SAMPLE)
        assert ExperimentConfig.from_file(path) == ExperimentConfig.from_text(SAMPLE)


class TestValidate:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize(
        "changes",
        [
            dict(horizon=0),
            dict(mechanism="vcg"),
            dict(n_agents=1),  # feedback needs a runner-up
            dict(dim=0),
            dict(schedule_kind="sometimes"),
            dict(epsilon=0.0),
            dict(eta_constant=0.0),
            dict(eta_constant=1.5),
            dict(floor_rounds=0),
            dict(training_policy="never"),
            dict(noise_kind="gaussian"),
            dict(noise_width=-1.0),
            dict(deviant_index=10),
            dict(deviant_strategy="bluff"),
            dict(deviant_strategy="random:7"),
            dict(data_source="parquet"),
            dict(data_source="csv", data_path=None),
            dict(pca_components=0),
            dict(n_seeds=0),
            # What the schedule and noise types checked before the config
            # became their one owner.
            dict(mechanism="uniform", n_agents=0),
            dict(epsilon=-0.5),
            dict(schedule_kind="constant", eta_constant=-0.1),
            dict(floor_rounds=-3),
            dict(noise_kind="bernoulli", noise_width=-0.1),
            # NaN passed every ordered comparison: a nan epsilon explored every
            # round, and a nan noise width made every utility nan.
            dict(epsilon=float("nan")),
            dict(epsilon=float("inf")),
            dict(noise_width=float("nan")),
        ],
    )
    def test_rejections(self, changes):
        # Raised when the config is built, naming the key of the bad value
        # (the last one changed).
        key = CONFIG_KEY[list(changes)[-1]]
        with pytest.raises(ConfigError, match=re.escape(key)):
            ExperimentConfig(**changes)

    @pytest.mark.parametrize("rule", ["bogus", "fixed", "fixed:1.5", "fixed:nan", "gaussian:0.5"])
    @pytest.mark.parametrize("mechanism", ["feedback", "direct_regression", "uniform", "oracle"])
    def test_price_distribution_checked_for_every_mechanism(self, mechanism, rule):
        with pytest.raises(ConfigError, match="exploration.price_distribution"):
            ExperimentConfig(mechanism=mechanism, price_distribution=rule)

    def test_price_distributions_accepted(self):
        for rule in ("uniform", "fixed:0", "fixed:0.5", "fixed:1"):
            ExperimentConfig(price_distribution=rule).validate()

    def test_uniform_allows_a_single_agent(self):
        ExperimentConfig(mechanism="uniform", n_agents=1).validate()

    def test_csv_source_with_path_is_valid(self):
        ExperimentConfig(data_source="csv", data_path="corpus.csv").validate()


class TestEcho:
    def test_covers_every_field_and_round_trips(self):
        config = ExperimentConfig.from_text(SAMPLE)
        echo = config.echo()
        assert len(echo) == 21
        rebuilt = ExperimentConfig.from_mapping(
            {k: v for k, v in echo.items() if v is not None}
        )
        assert rebuilt == config

    def test_replace_returns_new_config(self):
        config = ExperimentConfig()
        other = config.replace(horizon=10)
        assert other.horizon == 10
        assert config.horizon == 5000
        assert other is not config
