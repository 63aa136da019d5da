"""Per-agent value estimation from binary comparison feedback.

When the comparison price is drawn uniformly on [0, 1], the probability that
an agent with realized utility ``u`` answers "yes" to "is your utility at
least c?" equals its expected utility, so regressing the 0/1 answers on the
request features recovers the same linear coefficients as regressing the
(unobserved) utilities themselves. The estimator below is ridge-regularized
least squares kept as incremental sufficient statistics, so ingesting a
sample is O(dim^2) and refitting is a single dense solve.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionMismatchError

__all__ = ["ValueModel", "estimate_mean_from_reports"]

_FLOAT64 = np.dtype(np.float64)


class ValueModel:
    """Incremental linear model of one agent's expected utility per context.

    Sufficient statistics are the Gram matrix ``sum(w w^T)`` and the moment
    vector ``sum(target * w)`` over ingested samples. Coefficients are
    refreshed lazily: ingesting marks the model stale and the next ``fit`` or
    ``predict`` call performs one dense symmetric solve of
    ``(Gram + ridge * I) coef = moment``; the ridge keeps that system
    positive definite, so it always has a solution.

    Until ``min_samples`` (= ``dim``) samples have been ingested, predictions
    fall back to ``prior_estimate``; afterwards they are the linear score
    clamped to [0, 1].
    """

    ridge = 1e-6
    prior_estimate = 0.5

    __slots__ = (
        "dim", "min_samples", "sample_count", "gram", "moment", "_coef", "_stale", "_ridge_eye",
    )

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.min_samples = dim
        self.sample_count = 0
        self.gram = np.zeros((dim, dim))
        self.moment = np.zeros(dim)
        self._coef = np.zeros(dim)
        self._stale = False
        self._ridge_eye = self.ridge * np.eye(dim)

    def _check_context(self, context: np.ndarray) -> np.ndarray:
        context = np.asarray(context, dtype=float)
        if context.shape != (self.dim,):
            raise DimensionMismatchError(
                f"context has shape {context.shape}, model dimension is {self.dim}"
            )
        return context

    def ingest(self, context: np.ndarray, target: float) -> None:
        """Absorb one (context, target) sample into the sufficient statistics.

        ``target`` is a boolean report in normal operation; the exact-value
        regression baseline passes realized utilities instead.
        """
        context = self._check_context(context)
        self.gram += context[:, None] * context[None, :]
        self.moment += float(target) * context
        self.sample_count += 1
        self._stale = True

    def ingest_batch(self, contexts: np.ndarray, targets: np.ndarray) -> None:
        """Absorb many samples at once (rows of ``contexts``)."""
        contexts = np.asarray(contexts, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if contexts.ndim != 2 or contexts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"contexts have shape {contexts.shape}, expected (m, {self.dim})"
            )
        if targets.shape != (contexts.shape[0],):
            raise DimensionMismatchError(
                f"targets have shape {targets.shape}, expected ({contexts.shape[0]},)"
            )
        self.gram += contexts.T @ contexts
        self.moment += contexts.T @ targets
        self.sample_count += contexts.shape[0]
        self._stale = True

    def fit(self) -> np.ndarray:
        """Solve the regularized normal equations and cache the coefficients."""
        self._coef = np.linalg.solve(self.gram + self._ridge_eye, self.moment)
        self._stale = False
        return self._coef

    @property
    def coefficients(self) -> np.ndarray:
        """Current coefficient vector, refitting first if stale."""
        if self._stale:
            self.fit()
        return self._coef

    def predict(self, context: np.ndarray) -> float:
        """Estimated expected utility for one context, clamped to [0, 1]."""
        # A float64 array of the model's shape is used as it is; anything
        # else is converted and checked.
        if (
            context.__class__ is not np.ndarray
            or context.dtype is not _FLOAT64
            or context.shape != (self.dim,)
        ):
            context = self._check_context(context)
        if self.sample_count < self.min_samples:
            return self.prior_estimate
        if self._stale:
            self.fit()
        score = float(self._coef.dot(context))
        # Not np.clip: this maps -0.0 and NaN to 0.0.
        return min(1.0, max(0.0, score))


def estimate_mean_from_reports(prices: np.ndarray, answers: np.ndarray) -> float:
    """Estimate a mean utility from comparison prices and the answers to them.

    Requires the comparison prices to have been drawn uniformly on [0, 1];
    under that condition the yes-frequency is an unbiased estimate of the
    mean of the utility distribution, whatever its shape.
    """
    prices = np.asarray(prices, dtype=float)
    answers = np.asarray(answers, dtype=bool)
    if prices.ndim != 1 or answers.shape != prices.shape:
        raise DimensionMismatchError(
            f"need two 1-d arrays of one length, got shapes {prices.shape} and {answers.shape}"
        )
    if prices.size == 0:
        raise ValueError("at least one sample is required")
    outside = prices[~((prices >= 0.0) & (prices <= 1.0))]
    if outside.size:
        raise ValueError(f"comparison price {outside[0]} outside [0, 1]")
    return np.count_nonzero(answers) / answers.size
