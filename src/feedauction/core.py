"""Shared vocabulary for the simulator: seeded random substreams and round decisions.

Contexts are plain numpy arrays. A single agent's context is a vector of
``dim`` floats; a round's context block is an ``(n_agents, dim)`` matrix with
one row per agent. Functions that consume contexts validate shapes and raise
:class:`DimensionMismatchError` on mismatch rather than broadcasting silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CODE_VERSION",
    "ConfigurationError",
    "DimensionMismatchError",
    "RngStream",
    "RoundRecord",
    "derive_seed",
    "derive_stream",
]

CODE_VERSION = "0.1.0"


class DimensionMismatchError(ValueError):
    """An array argument had the wrong shape for the receiving object."""


class ConfigurationError(ValueError):
    """A parameter combination is invalid or out of its documented range."""


_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    # One output step of the splitmix64 generator; used purely as a bit mixer.
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state ^ (state >> 31)


def derive_seed(master_seed: int, name: str) -> int:
    """Mix a master seed with a stream name into a stable 64-bit seed.

    The mixing absorbs the UTF-8 bytes of ``name`` one at a time through
    splitmix64, so distinct names give unrelated seeds while equal
    ``(master_seed, name)`` pairs always give the same seed, independent of
    platform and process.
    """
    if not name:
        raise ValueError("stream name must be non-empty")
    state = _splitmix64(master_seed & _MASK64)
    for byte in name.encode("utf-8"):
        state = _splitmix64(state ^ byte)
    return state


@dataclass
class RngStream:
    """A named deterministic random substream.

    Two streams built from the same ``(master_seed, name)`` pair produce
    identical draw sequences; streams with different names are statistically
    independent. The underlying generator is mutable state with a single
    owner: do not share one stream between consumers whose draw order is not
    fixed.
    """

    master_seed: int
    name: str
    gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.gen = np.random.Generator(
            np.random.PCG64(derive_seed(self.master_seed, self.name))
        )

    def random(self, size: int | tuple[int, ...] | None = None):
        """Uniform draws on [0, 1)."""
        return self.gen.random(size)

    def integers(self, upper: int, size: int | tuple[int, ...] | None = None):
        """Uniform integer draws on {0, ..., upper - 1}."""
        return self.gen.integers(upper, size=size)


def derive_stream(master_seed: int, name: str) -> RngStream:
    """Create the named substream of ``master_seed``."""
    return RngStream(master_seed, name)


@dataclass(frozen=True)
class RoundRecord:
    """What one auction round decided: winner, price, report and payment.

    Ground truth (realized utilities, oracle prices) never passes through a
    round; the driver keeps it in the run's columns.
    """

    allocated_agent: int
    explored: bool
    comparison_price: float
    report: bool
    payment: float
