"""Experiment configuration: flat ``key = value`` files and validation.

Config files are plain text. Each non-blank line is ``key = value`` with
dotted lowercase keys; ``#`` starts a comment anywhere on a line. Unknown
keys, duplicate keys and keys that the chosen kind of world ignores are
rejected by name, and every effective parameter (explicit or defaulted) is
echoed into run metadata so a run file fully describes how it was produced.

An :class:`ExperimentConfig` is validated when it is built, so every config
that exists is one the mechanism, the world and the agents' reports can read
directly; a bad value raises :class:`ConfigError` naming its key.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any

from .agents import NOISE_KINDS, Strategy
from .core import ConfigurationError
from .mechanism import SCHEDULE_KINDS, parse_price_distribution

__all__ = ["ConfigError", "ExperimentConfig", "parse_flat_text"]

MECHANISMS = ("feedback", "direct_regression", "uniform", "oracle")
DATA_SOURCES = ("synthetic", "csv")


class ConfigError(ConfigurationError):
    """A config file or parameter set is invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs besides the data file itself; valid once built."""

    horizon: int = 5000
    n_agents: int = 10
    dim: int = 5
    mechanism: str = "feedback"
    schedule_kind: str = "slow"
    epsilon: float = 0.05
    eta_constant: float = 0.1
    floor_rounds: int = 3
    price_distribution: str = "uniform"
    noise_kind: str = "truncated_uniform"
    noise_width: float = 0.2
    theta_seed: int | None = None
    deviant_index: int | None = None
    deviant_strategy: str = "truthful"
    data_source: str = "synthetic"
    data_path: str | None = None
    pca_components: int = 30
    master_seed: int = 42
    n_seeds: int = 20
    output_dir: str = "runs"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for key, (attr, caster) in _KEY_SPECS.items():
            value = getattr(self, attr)
            kind, label = _VALUE_TYPES[caster]
            if value is None and caster in (_as_optional_int, _as_optional_str):
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{key} must be {label}, got {value!r}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.mechanism not in MECHANISMS:
            raise ConfigError(
                f"unknown mechanism {self.mechanism!r}, expected one of {MECHANISMS}"
            )
        min_agents = 1 if self.mechanism == "uniform" else 2
        if self.n_agents < min_agents:
            raise ConfigError(
                f"agents.count: mechanism {self.mechanism!r} needs at least "
                f"{min_agents} agents, got {self.n_agents}"
            )
        if self.dim < 1:
            raise ConfigError(f"features.dim must be >= 1, got {self.dim}")
        if self.schedule_kind not in SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule.kind {self.schedule_kind!r}")
        if not 0.0 < self.epsilon < math.inf:
            raise ConfigError(f"schedule.epsilon must be finite and > 0, got {self.epsilon}")
        if not 0.0 < self.eta_constant <= 1.0:
            raise ConfigError(f"schedule.eta must be in (0, 1], got {self.eta_constant}")
        if self.floor_rounds < 1:
            raise ConfigError(f"schedule.floor_rounds must be >= 1, got {self.floor_rounds}")
        try:
            parse_price_distribution(self.price_distribution)
        except ConfigurationError as exc:
            raise ConfigError(f"bad exploration.price_distribution: {exc}") from None
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(f"unknown agents.noise {self.noise_kind!r}")
        if not self.noise_width >= 0:
            raise ConfigError(f"agents.noise_width must be >= 0, got {self.noise_width}")
        if self.deviant_index is not None and not 0 <= self.deviant_index < self.n_agents:
            raise ConfigError(
                f"agents.deviant_index {self.deviant_index} outside [0, {self.n_agents})"
            )
        try:
            Strategy.parse(self.deviant_strategy)
        except ConfigurationError as exc:
            raise ConfigError(f"bad agents.deviant_strategy: {exc}") from None
        if self.data_source not in DATA_SOURCES:
            raise ConfigError(f"unknown data.source {self.data_source!r}")
        if self.data_source == "csv" and not self.data_path:
            raise ConfigError("data.source=csv requires data.path")
        if self.pca_components < 1:
            raise ConfigError(f"data.pca_components must be >= 1, got {self.pca_components}")
        if self.n_seeds < 1:
            raise ConfigError(f"seeds.count must be >= 1, got {self.n_seeds}")

    def echo(self) -> dict[str, Any]:
        """Complete flat mapping of every effective parameter."""
        return {key: getattr(self, attr) for key, (attr, _) in _KEY_SPECS.items()}

    def replace(self, **changes: Any) -> "ExperimentConfig":
        return replace(self, **changes)

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ExperimentConfig":
        unknown = sorted(set(mapping) - set(_KEY_SPECS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values: dict[str, Any] = {}
        for key, raw in mapping.items():
            attr, caster = _KEY_SPECS[key]
            try:
                values[attr] = caster(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None
        config = cls(**values)
        for key in _IGNORED_KEYS[config.data_source]:
            if key in mapping:
                raise ConfigError(
                    f"{key} does not apply to a data.source = {config.data_source} world"
                )
        return config

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_mapping(parse_flat_text(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_text(Path(path).read_text())


def _as_optional_int(raw: Any) -> int | None:
    if raw is None:
        return None
    text = str(raw).strip()
    if text.lower() == "none":
        return None
    return int(text)


def _as_optional_str(raw: Any) -> str | None:
    if raw is None:
        return None
    text = str(raw).strip()
    return text or None


# Dotted config key -> (ExperimentConfig attribute, caster).
_KEY_SPECS: dict[str, tuple[str, Any]] = {
    "horizon": ("horizon", int),
    "mechanism": ("mechanism", str),
    "agents.count": ("n_agents", int),
    "agents.noise": ("noise_kind", str),
    "agents.noise_width": ("noise_width", float),
    "agents.theta_seed": ("theta_seed", _as_optional_int),
    "agents.deviant_index": ("deviant_index", _as_optional_int),
    "agents.deviant_strategy": ("deviant_strategy", str),
    "features.dim": ("dim", int),
    "schedule.kind": ("schedule_kind", str),
    "schedule.epsilon": ("epsilon", float),
    "schedule.eta": ("eta_constant", float),
    "schedule.floor_rounds": ("floor_rounds", int),
    "exploration.price_distribution": ("price_distribution", str),
    "data.source": ("data_source", str),
    "data.path": ("data_path", _as_optional_str),
    "data.pca_components": ("pca_components", int),
    "seeds.master": ("master_seed", int),
    "seeds.count": ("n_seeds", int),
    "output.dir": ("output_dir", str),
}

# The keys each kind of world ignores, which a config file may not set for
# it. A csv world's contexts are its embedded corpus and its utilities its
# labels, so it has no dimension of its own, no noise and no linear
# population; a synthetic world reads no corpus.
_IGNORED_KEYS: dict[str, tuple[str, ...]] = {
    "csv": ("features.dim", "agents.noise", "agents.noise_width", "agents.theta_seed"),
    "synthetic": ("data.path", "data.pca_components"),
}

# The value type each caster yields, which a config built from keywords must
# match too; a bool is never taken for a number.
_VALUE_TYPES: dict[Any, tuple[type, str]] = {
    int: (numbers.Integral, "an integer"),
    _as_optional_int: (numbers.Integral, "an integer or none"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
    _as_optional_str: (str, "a string or none"),
}

_ATTRS = {attr for attr, _ in _KEY_SPECS.values()}
assert _ATTRS == {f.name for f in fields(ExperimentConfig)}, "config key map out of sync"


def parse_flat_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a string mapping.

    Raises :class:`ConfigError` with a line number for lines that are not
    comments, blank, or a single ``key = value`` assignment, and for keys
    assigned more than once.
    """
    mapping: dict[str, str] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        if key in mapping:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        mapping[key] = value
    return mapping
