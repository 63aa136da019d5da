import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedauction.agents import sample_simplex, utility_from_uniform
from feedauction.core import DimensionMismatchError, derive_stream
from feedauction.learner import ValueModel, estimate_mean_from_reports

from helpers import dense_ridge_solve


def test_orthogonal_two_point_fit_is_exact():
    model = ValueModel(2)
    model.ingest(np.array([1.0, 0.0]), True)
    model.ingest(np.array([0.0, 1.0]), False)
    expected = dense_ridge_solve(np.eye(2), np.array([1.0, 0.0]), ValueModel.ridge)
    assert model.fit() == pytest.approx(expected, abs=1e-12)
    assert model.fit() == pytest.approx([1.0, 0.0], abs=1e-5)


def test_empty_model_with_ridge_gives_zero_coefficients():
    model = ValueModel(3)
    assert model.fit() == pytest.approx([0.0, 0.0, 0.0], abs=0.0)


def test_predictions_fall_back_to_prior_until_enough_samples():
    model = ValueModel(2)
    assert model.min_samples == 2
    context = np.array([0.5, 0.5])
    assert model.predict(context) == 0.5
    model.ingest(context, True)
    assert model.predict(context) == 0.5  # one sample, min_samples is dim
    model.ingest(np.array([1.0, 0.0]), False)
    assert model.predict(context) == pytest.approx(1.0, abs=1e-5)  # coefficients about (0, 2)


def test_predictions_clamped_to_unit_interval():
    model = ValueModel(1)
    model.ingest(np.array([1.0]), 3.0)
    assert model.predict(np.array([1.0])) == 1.0
    model2 = ValueModel(1)
    model2.ingest(np.array([1.0]), -2.0)
    assert model2.predict(np.array([1.0])) == 0.0


def test_rank_deficient_design_is_solved_at_the_fixed_ridge():
    # The ridge keeps the normal equations positive definite: a rank-1 design
    # still has the unique ridge solution.
    model = ValueModel(2)
    model.ingest(np.array([1.0, 0.0]), True)
    expected = dense_ridge_solve(np.array([[1.0, 0.0]]), np.array([1.0]), ValueModel.ridge)
    assert model.fit() == pytest.approx(expected, abs=1e-12)


def test_dimension_mismatch_rejected():
    model = ValueModel(3)
    with pytest.raises(DimensionMismatchError):
        model.ingest(np.array([1.0, 2.0]), True)
    with pytest.raises(DimensionMismatchError):
        model.predict(np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        model.ingest_batch(np.ones((4, 2)), np.ones(4))
    with pytest.raises(DimensionMismatchError):
        model.ingest_batch(np.ones((4, 3)), np.ones(5))


def test_batch_ingestion_matches_incremental():
    rng = np.random.Generator(np.random.PCG64(5))
    contexts = rng.random((40, 4))
    targets = rng.random(40)
    one = ValueModel(4)
    for w, y in zip(contexts, targets):
        one.ingest(w, y)
    other = ValueModel(4)
    other.ingest_batch(contexts, targets)
    assert one.sample_count == other.sample_count == 40
    assert np.allclose(one.gram, other.gram, atol=1e-12)
    assert np.allclose(one.fit(), other.fit(), atol=1e-12)


def test_coefficients_match_dense_oracle_on_random_instances():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(10):
        design = rng.random((12, 3))
        targets = (rng.random(12) < 0.5).astype(float)
        model = ValueModel(3)
        model.ingest_batch(design, targets)
        expected = dense_ridge_solve(design, targets, model.ridge)
        assert model.fit() == pytest.approx(expected, abs=1e-8)


def test_scaling_contexts_scales_coefficients_inversely():
    rng = np.random.Generator(np.random.PCG64(3))
    design = rng.random((6, 4)) + 0.1
    targets = rng.random(6)
    base = ValueModel(4)
    base.ingest_batch(design, targets)
    scaled = ValueModel(4)
    scaled.ingest_batch(design * 10.0, targets)
    assert base.fit() == pytest.approx(dense_ridge_solve(design, targets, ValueModel.ridge), abs=1e-10)
    assert scaled.fit() == pytest.approx(
        dense_ridge_solve(design * 10.0, targets, ValueModel.ridge), abs=1e-10
    )
    # Exact without a ridge; the fixed ridge pulls the unscaled fit by ~2e-5.
    assert scaled.fit() == pytest.approx(base.fit() / 10.0, rel=1e-4)


def test_held_out_error_improves_as_samples_double():
    # Mean held-out squared error over 20 seeds should not increase when the
    # training set doubles.
    sizes = [100, 200, 400, 800]
    errors = np.zeros(len(sizes))
    for seed in range(20):
        theta = derive_stream(seed, "theta").random(4)
        contexts = sample_simplex(derive_stream(seed, "w"), (sizes[-1],), 4)
        means = contexts @ theta
        utilities = utility_from_uniform(
            means, derive_stream(seed, "u").random(sizes[-1]), "truncated_uniform", 0.2
        )
        prices = derive_stream(seed, "c").random(sizes[-1])
        answers = (utilities >= prices).astype(float)
        held_out = sample_simplex(derive_stream(seed, "held"), (400,), 4)
        true_held = held_out @ theta
        for k, size in enumerate(sizes):
            model = ValueModel(4)
            model.ingest_batch(contexts[:size], answers[:size])
            predictions = np.clip(held_out @ model.fit(), 0.0, 1.0)
            errors[k] += np.mean((predictions - true_held) ** 2)
    errors /= 20
    assert np.all(np.diff(errors) <= 1e-12), errors


def test_report_and_utility_regressions_agree_closely():
    # With uniform comparison prices the yes/no answers have the same
    # conditional mean as the utilities, so the two fits converge together.
    theta = derive_stream(0, "theta").random(5)
    contexts = sample_simplex(derive_stream(0, "w"), (20_000,), 5)
    means = contexts @ theta
    utilities = utility_from_uniform(
        means, derive_stream(0, "u").random(20_000), "truncated_uniform", 0.2
    )
    prices = derive_stream(0, "c").random(20_000)
    answers = (utilities >= prices).astype(float)
    from_reports = ValueModel(5)
    from_reports.ingest_batch(contexts, answers)
    from_values = ValueModel(5)
    from_values.ingest_batch(contexts, utilities)
    grid = sample_simplex(derive_stream(99, "grid"), (1000,), 5)
    gap = np.abs(
        np.clip(grid @ from_reports.fit(), 0, 1) - np.clip(grid @ from_values.fit(), 0, 1)
    ).max()
    assert gap < 0.05


class TestEstimateMeanFromReports:
    def test_exact_fraction(self):
        prices = np.array([0.1, 0.9, 0.5, 0.3])
        answers = np.array([True, False, True, True])
        assert estimate_mean_from_reports(prices, answers) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_mean_from_reports(np.array([]), np.array([], dtype=bool))

    def test_price_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            estimate_mean_from_reports(np.array([1.2]), np.array([True]))
        with pytest.raises(ValueError):
            estimate_mean_from_reports(np.array([np.nan]), np.array([True]))

    def test_lengths_must_match(self):
        with pytest.raises(DimensionMismatchError):
            estimate_mean_from_reports(np.array([0.2, 0.4]), np.array([True]))

    def test_recovers_mean_of_constant_utility(self):
        stream = derive_stream(21, "prices")
        prices = stream.random(50_000)
        assert estimate_mean_from_reports(prices, 0.4 >= prices) == pytest.approx(0.4, abs=0.01)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_estimate_stays_in_unit_interval(prices):
    prices = np.array(prices)
    assert 0.0 <= estimate_mean_from_reports(prices, prices < 0.5) <= 1.0
