"""Agent populations: ground-truth utilities and reporting behavior.

Contexts live on the probability simplex (non-negative entries summing to 1)
and each agent's true expected utility is a linear score ``theta . w`` with
``theta`` in [0, 1]^dim, which keeps every expected utility inside [0, 1]
without rescaling. Realized utilities add mean-preserving noise around that
score. Reporting strategies answer (or misreport) the comparison query "is
your utility at least c?".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, RngStream

__all__ = [
    "NOISE_KINDS",
    "STRATEGY_KINDS",
    "Strategy",
    "report",
    "sample_simplex",
    "utility_from_uniform",
]

NOISE_KINDS = ("bernoulli", "truncated_uniform")
STRATEGY_KINDS = (
    "truthful",
    "always_high",
    "always_low",
    "inverted",
    "random",
    "threshold_shift",
)


@dataclass(frozen=True)
class Strategy:
    """How an agent answers the comparison query.

    ``param`` is the yes-probability for ``random`` and the threshold offset
    for ``threshold_shift``; other kinds ignore it.
    """

    kind: str = "truthful"
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigurationError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "random" and not 0.0 <= self.param <= 1.0:
            raise ConfigurationError(
                f"random strategy needs a probability in [0, 1], got {self.param}"
            )

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        """Parse ``"kind"`` or ``"kind:param"``, e.g. ``"threshold_shift:-0.2"``."""
        kind, _, arg = text.strip().partition(":")
        if not arg:
            return cls(kind=kind)
        try:
            param = float(arg)
        except ValueError as exc:
            raise ConfigurationError(f"bad strategy parameter in {text!r}") from exc
        return cls(kind=kind, param=param)


def utility_from_uniform(mean, uniform, kind: str, width: float):
    """Map uniform draws on [0, 1) to realized utilities with the given mean.

    The noise is mean-preserving around an expected utility in [0, 1]
    (``kind`` and ``width`` are the config's ``agents.noise`` and
    ``agents.noise_width``). ``bernoulli`` draws 1 with probability equal to
    the mean. For ``truncated_uniform`` the realized utility is uniform on
    [mean - a, mean + a] with the half-width ``a = min(width, mean, 1 - mean)``
    shrunk near the boundary so the support stays inside [0, 1] and the mean
    is preserved exactly.

    Vectorized: ``mean`` and ``uniform`` may be arrays of the same shape.
    Feeding pre-drawn uniforms through this function lets paired runs share
    identical realized utilities.
    """
    mean = np.asarray(mean, dtype=float)
    uniform = np.asarray(uniform, dtype=float)
    if kind == "bernoulli":
        out = (uniform < mean).astype(float)
    else:
        half_width = np.minimum(width, np.minimum(mean, 1.0 - mean))
        out = mean + (2.0 * uniform - 1.0) * half_width
    if out.ndim == 0:
        return float(out)
    return out


def report(strategy: Strategy, utility: float, price: float, stream: RngStream | None = None) -> bool:
    """Answer the comparison query "is your utility at least ``price``?".

    Only the ``random`` strategy consumes randomness; every other kind is a
    deterministic function of (utility, price), so truthful populations draw
    nothing here and stay aligned across paired runs.
    """
    kind = strategy.kind
    if kind == "truthful":
        return utility >= price
    if kind == "always_high":
        return True
    if kind == "always_low":
        return False
    if kind == "inverted":
        return utility < price
    if kind == "threshold_shift":
        return utility >= price + strategy.param
    if stream is None:
        raise ConfigurationError("random strategy needs an RNG stream")
    return bool(stream.random() < strategy.param)


def sample_simplex(stream: RngStream, shape: tuple[int, ...], dim: int) -> np.ndarray:
    """Uniform draws from the probability simplex, shaped ``shape + (dim,)``.

    Uses the standard construction: normalize independent exponentials.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    uniforms = stream.random(tuple(shape) + (dim,))
    exponentials = -np.log(np.maximum(uniforms, 1e-300))
    return exponentials / exponentials.sum(axis=-1, keepdims=True)
