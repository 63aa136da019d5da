"""Dataset and run-file input/output.

Two file formats live here. Labeled example corpora are CSV with a header
row ``id, f0..f{D-1}, toxic, severe_toxic, obscene, threat, insult,
identity_hate``: one id column, D numeric feature columns, then the six
binary label columns in that fixed order. Run ledgers are JSONL: the first
line is a metadata object (config echo, seeds, code version, feature-scaling
constants), each following line is one round: its decisions, its ground
truth and its metric increments. Keys are sorted and floats serialized with
``repr`` round-trip fidelity, so identical runs produce byte-identical files.

Dimensionality reduction is principal components via power iteration with
deflation, which keeps the dependency surface small and the arithmetic easy
to cross-check against a dense eigensolver. The iteration runs in blocks of
steps: one matrix-vector product per step, then one pass of whole-array
arithmetic per block finds the step at which the step-by-step loop stops.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .core import ConfigurationError, DimensionMismatchError

__all__ = [
    "CATEGORIES",
    "ConvergenceError",
    "DataError",
    "FeatureScaler",
    "LabeledExample",
    "ParseError",
    "PcaModel",
    "generate_synthetic_dataset",
    "load_examples",
    "pca_fit",
    "pca_transform",
    "read_run",
    "write_examples",
    "write_run",
]

CATEGORIES = ("toxic", "severe_toxic", "obscene", "threat", "insult", "identity_hate")

RUN_SCHEMA = "feedauction.run.v1"


class DataError(ValueError):
    """The input data cannot serve the run: malformed, or too small for it."""


class ParseError(DataError):
    """A dataset file is malformed; the message names the offending line."""


class ConvergenceError(RuntimeError):
    """Power iteration failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float) -> None:
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class LabeledExample:
    """One corpus row: an id, a feature vector, and six binary labels."""

    example_id: str
    features: np.ndarray
    labels: tuple[int, ...]


def load_examples(path: str | Path) -> list[LabeledExample]:
    """Read a labeled-example CSV, validating header, width, and value domains."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        n_features = len(header) - 1 - len(CATEGORIES)
        expected = ["id"] + [f"f{i}" for i in range(n_features)] + list(CATEGORIES)
        if n_features < 1 or header != expected:
            raise ParseError(
                f"{path}: line 1: bad header; expected 'id,f0..f{{D-1}}," + ",".join(CATEGORIES) + "'"
            )
        examples = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: line {line_no}: {len(row)} columns, expected {len(header)}"
                )
            try:
                features = np.array([float(v) for v in row[1 : 1 + n_features]])
            except ValueError:
                raise ParseError(
                    f"{path}: line {line_no}: non-numeric feature value"
                ) from None
            if not np.isfinite(features).all():
                raise ParseError(f"{path}: line {line_no}: non-finite feature value")
            labels = []
            for name, value in zip(CATEGORIES, row[1 + n_features :]):
                if value not in ("0", "1"):
                    raise ParseError(
                        f"{path}: line {line_no}: label {name!r} is {value!r}, expected 0 or 1"
                    )
                labels.append(int(value))
            examples.append(
                LabeledExample(example_id=row[0], features=features, labels=tuple(labels))
            )
    if not examples:
        raise ParseError(f"{path}: no data rows")
    return examples


def write_examples(path: str | Path, examples: Iterable[LabeledExample]) -> None:
    """Write a labeled-example CSV in the format ``load_examples`` reads."""
    examples = list(examples)
    if not examples:
        raise ValueError("nothing to write")
    n_features = examples[0].features.shape[0]
    header = ["id"] + [f"f{i}" for i in range(n_features)] + list(CATEGORIES)
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for example in examples:
            row = [example.example_id]
            row += [repr(float(v)) for v in example.features]
            row += [str(int(flag)) for flag in example.labels]
            writer.writerow(row)


# Fixed internal seed for power-iteration start vectors: fitting the same
# matrix always walks the same path, with no caller-visible RNG state.
_PCA_SEED = 0x5CA1AB1E
# Power-iteration steps taken per block: one matrix-vector product each, then
# the block's norms, tests and residuals as whole arrays.
_BLOCK_STEPS = 64
# Iterates below this norm are near the end of the normal range, where their
# entries would lose precision; a block is cut before one, and the next block
# restarts from the last iterate before the cut, normalized.
_BLOCK_FLOOR = 2.0**-900


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Centered principal-component basis with per-component variances."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.explained_variance < -1e-9):
            raise ValueError("explained variances must be non-negative")
        if np.any(np.diff(self.explained_variance) > 1e-9 * (1.0 + self.explained_variance[0])):
            raise ValueError("explained variances must be non-increasing")


def _orthonormal_filler(basis: np.ndarray, dim: int) -> np.ndarray:
    # Deterministic unit vector orthogonal to everything found so far; used
    # when the deflated matrix is (numerically) zero and any completion of
    # the basis is equally valid.
    for axis in range(dim):
        vector = np.zeros(dim)
        vector[axis] = 1.0
        for other in basis:
            vector -= (other @ vector) * other
        norm = np.linalg.norm(vector)
        if norm > 1e-9:
            return vector / norm
    raise RuntimeError("could not complete orthonormal basis")


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def _fix_sign(vector: np.ndarray) -> np.ndarray:
    for value in vector:
        if abs(value) > 1e-12:
            return vector if value > 0 else -vector
    return vector


def pca_fit(
    data: np.ndarray,
    n_components: int,
    *,
    tol: float = 1e-9,
    max_iter: int = 10_000,
) -> PcaModel:
    """Fit principal components by power iteration with deflation.

    Components are extracted one at a time from the sample covariance
    (``ddof=1``); each converged component is deflated out, and every step
    projects all earlier components off the iterate to stop numerical drift.
    Each component's step operator (the deflated covariance with the earlier
    components projected off) is built once and scaled by an exact power of
    two so that no iterate can overflow. The iterate then advances in blocks
    of ``_BLOCK_STEPS`` steps, one matrix-vector product each; a block's
    norms, zero-eigenvalue tests, normalized iterates and residuals are taken
    as whole arrays, and the fit stops at the first step where a
    step-by-step loop would. The start vectors, the filler for a zero
    eigenvalue, ``tol``, the ``max_iter`` budget counted in steps, the
    variance formula and the order check are those of that loop. The sign
    convention makes each component's first non-zero coordinate positive.
    Raises :class:`ConvergenceError` (with the final residual) if an iterate
    is still moving after ``max_iter`` steps.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-d, got shape {data.shape}")
    n_samples, dim = data.shape
    if n_samples < 2:
        raise DataError(f"need at least 2 samples, got {n_samples}")
    if not 1 <= n_components <= min(n_samples, dim):
        raise DataError(
            f"n_components must be in [1, {min(n_samples, dim)}], got {n_components}"
        )
    mean = data.mean(axis=0)
    centered = data - mean
    working = centered.T @ centered / (n_samples - 1)
    scale = max(1.0, float(np.trace(working)))
    rng = np.random.Generator(np.random.PCG64(_PCA_SEED))

    basis = np.empty((n_components, dim))
    variances = np.empty(n_components)
    rows = np.empty((_BLOCK_STEPS + 1, dim))
    for j in range(n_components):
        earlier = basis[:j]
        vector = rng.standard_normal(dim)
        for other in earlier:
            vector -= (other @ vector) * other
        norm = np.linalg.norm(vector)
        vector = _orthonormal_filler(earlier, dim) if norm < 1e-12 else vector / norm
        # Scaled by 2**-shift, at least its Frobenius norm, the operator
        # shrinks every iterate; the zero-eigenvalue test undoes the scaling.
        step = working - earlier.T @ (earlier @ working)
        shift = math.frexp(float(np.linalg.norm(step)))[1]
        advance = np.ldexp(step, -shift).dot
        variance = None
        residual = np.inf
        taken = 0
        while variance is None and taken < max_iter:
            length = min(_BLOCK_STEPS, max_iter - taken)
            rows[0] = vector
            for i in range(length):
                advance(rows[i], out=rows[i + 1])
            norms = _row_norms(rows[: length + 1])
            # The block is cut at its first zero step (an image norm of at
            # most 1e-15 * scale, unscaled) or where an iterate falls below
            # the floor; its first step is always kept, so it makes progress.
            zero = np.ldexp(norms[1:], shift) <= 1e-15 * scale * norms[:-1]
            tiny = norms[1:] < _BLOCK_FLOOR
            tiny[0] = False
            cut = int(np.argmax(np.append(zero | tiny, True)))
            units = rows[: cut + 1] / norms[: cut + 1, None]
            residuals = _row_norms(units[1:] - units[:-1])
            settled = np.flatnonzero(residuals < tol)
            if settled.size:
                vector = units[settled[0] + 1]
                variance = float(vector @ working @ vector)
            elif cut < length and zero[cut]:
                vector = _orthonormal_filler(earlier, dim)
                variance = 0.0
            else:
                residual = float(residuals[-1])
                vector = units[cut]
                taken += cut
        if variance is None:
            raise ConvergenceError(
                f"component {j} did not converge within {max_iter} iterations "
                f"(residual {residual:.3e})",
                residual,
            )
        variances[j] = variance
        basis[j] = vector
        working = working - variances[j] * (vector[:, None] * vector[None, :])

    components = np.array([_fix_sign(v) for v in basis])
    variances = np.maximum(variances, 0.0)
    for j in range(1, n_components):
        if variances[j] > variances[j - 1] + 1e-9 * scale:
            raise ConvergenceError(
                f"explained variances out of order at component {j} "
                f"({variances[j]:.6e} > {variances[j - 1]:.6e})",
                float(variances[j] - variances[j - 1]),
            )
    # Iron out sub-tolerance ordering jitter between near-equal eigenvalues.
    variances = np.minimum.accumulate(variances)
    return PcaModel(mean=mean, components=components, explained_variance=variances)


def pca_transform(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """Project the rows of a matrix onto the component basis."""
    data = np.asarray(data, dtype=float)
    dim = model.mean.shape[0]
    if data.ndim != 2 or data.shape[1] != dim:
        raise DimensionMismatchError(f"data has shape {data.shape}, expected (rows, {dim})")
    return (data - model.mean) @ model.components.T


@dataclass(frozen=True, eq=False)
class FeatureScaler:
    """Per-coordinate min-max rescaling to [0, 1], fitted on a training set.

    Coordinates that were constant in training map to 0.5.
    """

    low: np.ndarray
    high: np.ndarray

    @classmethod
    def fit(cls, data: np.ndarray) -> "FeatureScaler":
        data = np.asarray(data, dtype=float)
        return cls(low=data.min(axis=0), high=data.max(axis=0))

    def apply(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=float)
        span = self.high - self.low
        safe_span = np.where(span > 0.0, span, 1.0)
        scaled = (data - self.low) / safe_span
        scaled = np.where(span > 0.0, scaled, 0.5)
        return np.clip(scaled, 0.0, 1.0)

    def to_dict(self) -> dict[str, Any]:
        return {"feature_min": self.low.tolist(), "feature_max": self.high.tolist()}


# Marginal label frequencies for the synthetic corpus, in CATEGORIES order,
# loosely shaped like real moderation data: the broad categories are common,
# the severe ones rare.
_LABEL_RATES = (0.15, 0.03, 0.08, 0.03, 0.08, 0.03)
# Feature-space distance each carried label adds along its category direction.
_SIGNAL_SCALE = 2.5


def generate_synthetic_dataset(n_examples: int, feature_dim: int, seed: int) -> list[LabeledExample]:
    """Generate a labeled corpus with documented, recoverable ground truth.

    Each category is assigned a fixed random unit direction in feature
    space. Labels are independent Bernoulli draws at ``_LABEL_RATES``; an
    example's features are isotropic Gaussian noise plus ``_SIGNAL_SCALE``
    times the direction of each label it carries. Linear models can
    therefore separate each category, and principal components recover the
    label directions among the top components.
    """
    if n_examples < 1:
        raise ConfigurationError(f"n_examples must be >= 1, got {n_examples}")
    if feature_dim < len(CATEGORIES):
        raise ConfigurationError(
            f"feature_dim must be >= {len(CATEGORIES)}, got {feature_dim}"
        )
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    directions = rng.standard_normal((len(CATEGORIES), feature_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    labels = (rng.random((n_examples, len(CATEGORIES))) < np.array(_LABEL_RATES)).astype(int)
    features = rng.standard_normal((n_examples, feature_dim))
    features += _SIGNAL_SCALE * (labels @ directions)
    return [
        LabeledExample(
            example_id=f"ex{i:06d}",
            features=features[i],
            labels=tuple(int(v) for v in labels[i]),
        )
        for i in range(n_examples)
    ]


def _json_line(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_run(path: str | Path, run, series, metadata: dict[str, Any]) -> None:
    """Write one run as JSONL: a metadata line, then one line per round.

    ``run`` is an :class:`~feedauction.experiment.RunResult` and ``series``
    its :class:`~feedauction.metrics.MetricsSeries`. The metadata object is
    the caller's mapping plus the schema tag, the round count and whether
    the per-round context matrices are included: they are exactly when the
    run kept them (``keep_records=True``). Output is deterministic: identical
    inputs give byte-identical files. The file is written under a temporary
    name in the same directory and renamed into place, so a failed write
    leaves no partial ledger.
    """
    path = Path(path)
    n_rounds = len(run)
    if series.welfare_regret_increment.shape != (n_rounds,):
        raise ValueError(
            f"{n_rounds} rounds but metric series of shape {series.welfare_regret_increment.shape}"
        )
    head = dict(metadata)
    head["schema"] = RUN_SCHEMA
    head["n_rounds"] = n_rounds
    head["contexts_included"] = run.contexts is not None
    errors = series.max_estimate_error
    # Each column becomes native Python values in one call and rows zip
    # them; contexts, the bulkiest, are converted one round at a time.
    columns = {
        "t": range(1, n_rounds + 1),
        "contexts": repeat(None) if run.contexts is None else (c.tolist() for c in run.contexts),
        "allocated_agent": run.allocated.tolist(),
        "explored": run.explored.tolist(),
        "comparison_price": run.comparison_prices.tolist(),
        "report": run.reports.tolist(),
        "payment": run.payments.tolist(),
        "true_utility": run.utilities[np.arange(n_rounds), run.allocated].tolist(),
        "oracle_second_price": run.oracle_second_prices.tolist(),
        "eta": run.eta.tolist(),
        "welfare_regret_increment": series.welfare_regret_increment.tolist(),
        "revenue_regret_increment": series.revenue_regret_increment.tolist(),
        "max_estimate_error": repeat(None) if errors is None else errors.tolist(),
        "net_utility": series.net_utility.tolist(),
    }
    keys = tuple(columns)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w", newline="\n") as handle:
            handle.write(_json_line(head))
            for values in zip(*columns.values()):
                handle.write(_json_line(dict(zip(keys, values))))
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def read_run(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Read a JSONL run ledger back as (metadata, per-round rows)."""
    path = Path(path)
    with path.open() as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: file is empty")
    records = []
    number = 0
    try:
        for number, line in enumerate(lines, 1):
            records.append(json.loads(line))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {number}: bad JSON: {exc.msg} (column {exc.colno})"
        ) from None
    metadata, rows = records[0], records[1:]
    if not isinstance(metadata, dict):
        raise ParseError(f"{path}: line 1: the metadata is not a JSON object")
    if metadata.get("schema") != RUN_SCHEMA:
        raise ParseError(f"{path}: unknown schema {metadata.get('schema')!r}")
    if metadata.get("n_rounds") != len(rows):
        raise ParseError(
            f"{path}: metadata says {metadata.get('n_rounds')} rounds, file has {len(rows)}"
        )
    return metadata, rows
