import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from feedauction.config import (
    _IGNORED_KEYS,
    _KEY_SPECS,
    ConfigError,
    ExperimentConfig,
    parse_flat_text,
)

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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("features.dim", "3"),
            ("agents.noise", "bernoulli"),
            ("agents.noise_width", "0.1"),
            ("agents.theta_seed", "5"),
        ],
    )
    def test_a_csv_world_rejects_the_synthetic_keys(self, key, value):
        text = f"data.source = csv\ndata.path = corpus.csv\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=f"{key} does not apply to a data.source = csv"):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize("key, value", [("data.path", "corpus.csv"), ("data.pca_components", "4")])
    def test_a_synthetic_world_rejects_the_corpus_keys(self, key, value):
        for source in ("", "data.source = synthetic\n"):
            with pytest.raises(ConfigError, match=f"{key} does not apply to a data.source = synthetic"):
                ExperimentConfig.from_text(f"{source}{key} = {value}\n")

    def test_each_world_takes_its_own_keys(self):
        csv = ExperimentConfig.from_text(
            "data.source = csv\ndata.path = corpus.csv\ndata.pca_components = 4\n"
        )
        assert (csv.data_path, csv.pca_components, csv.dim) == ("corpus.csv", 4, 5)
        synthetic = ExperimentConfig.from_text(
            "features.dim = 3\nagents.noise = bernoulli\nagents.noise_width = 0.1\n"
            "agents.theta_seed = 5\n"
        )
        assert (synthetic.dim, synthetic.noise_kind, synthetic.theta_seed) == (3, "bernoulli", 5)
        # The echo still lists every key, whichever world reads it.
        assert csv.echo().keys() == synthetic.echo().keys() == ExperimentConfig().echo().keys()

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
            # A nan threshold answered "no" to every query.
            dict(deviant_strategy="threshold_shift:nan"),
            dict(deviant_strategy="threshold_shift:inf"),
            dict(deviant_strategy="threshold_shift:-inf"),
            dict(deviant_strategy="always_high:nan"),
        ],
    )
    def test_rejections(self, changes):
        # Raised when the config is built, naming the key of the bad value
        # (the last one changed).
        key = CONFIG_KEY[list(changes)[-1]]
        with pytest.raises(ConfigError, match=re.escape(key)):
            ExperimentConfig(**changes)

    @pytest.mark.parametrize(
        "changes, message",
        [
            # A string horizon ended in a bare TypeError from the range check,
            # and a float one was accepted and failed inside run_single.
            (dict(horizon="5"), "horizon must be an integer, got '5'"),
            (dict(horizon=2.5), "horizon must be an integer, got 2.5"),
            (dict(n_agents=True), "agents.count must be an integer, got True"),
            (dict(epsilon="0.1"), "schedule.epsilon must be a number, got '0.1'"),
            (dict(theta_seed=1.5), "agents.theta_seed must be an integer or none"),
            (dict(mechanism=None), "mechanism must be a string, got None"),
            (dict(data_source="csv", data_path=3), "data.path must be a string or none"),
        ],
    )
    def test_wrong_types_rejected_by_key(self, changes, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(**changes)

    def test_numeric_types_accepted(self):
        config = ExperimentConfig(horizon=np.int64(7), epsilon=1, noise_width=np.float64(0.1))
        assert config.horizon == 7 and config.epsilon == 1

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
        assert len(echo) == 20
        # The echo lists every key, also those of the csv world, which a
        # synthetic config may not set.
        ignored = {"data.path", "data.pca_components"}
        rebuilt = ExperimentConfig.from_mapping(
            {k: v for k, v in echo.items() if v is not None and k not in ignored}
        )
        assert rebuilt == config

    def test_replace_returns_new_config(self):
        config = ExperimentConfig()
        other = config.replace(horizon=10)
        assert other.horizon == 10
        assert config.horizon == 5000
        assert other is not config


class TestReadmeConfigTable:
    """README's config reference lists exactly the config's keys, defaults and worlds."""

    @staticmethod
    def rows():
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("### Config reference", 1)[1].splitlines()
        first = next(i for i, line in enumerate(section) if line.startswith("| `"))
        table = itertools.takewhile(lambda line: line.startswith("| `"), section[first:])
        cells = [[cell.strip() for cell in line.split("|")[1:4]] for line in table]
        return [(key.strip("`"), default.strip("`"), world) for key, default, world in cells]

    def test_the_table_has_every_key_once(self):
        assert sorted(key for key, _, _ in self.rows()) == sorted(_KEY_SPECS)

    def test_defaults_match_the_default_config(self):
        echo = ExperimentConfig().echo()
        for key, default, _ in self.rows():
            assert default == ("none" if echo[key] is None else str(echo[key])), key

    def test_world_column_matches_the_ignored_keys(self):
        for key, _, world in self.rows():
            if key in _IGNORED_KEYS["csv"]:
                assert world == "synthetic", key
            elif key in _IGNORED_KEYS["synthetic"]:
                assert world == "csv", key
            else:
                assert world == "any", key
