"""Properties every run must have, over configs drawn by hypothesis.

Each drawn config is valid by construction: any mechanism, schedule, price
rule, noise law and deviant strategy, on a synthetic or a small CSV-style
corpus world. Runs are short (at most 200 rounds, 2-5
agents, at most 30 corpus examples), and the draws are derandomized so the
suite is deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from feedauction.agents import STRATEGY_KINDS
from feedauction.config import ExperimentConfig
from feedauction.dataio import generate_synthetic_dataset
from feedauction.experiment import prepare_dataset, run_single
from feedauction.metrics import per_agent_welfare_loss, welfare_regret
from helpers import per_round_baseline_reference, per_round_reference

MECHANISMS = ("feedback", "direct_regression", "uniform", "oracle")
LEARNED = ("feedback", "direct_regression")
RUN_COLUMNS = (
    "contexts", "true_means", "utilities", "oracle_second_prices", "estimates",
    "allocated", "payments", "comparison_prices", "explored", "reports", "eta",
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def strategies(draw):
    kind = draw(st.sampled_from(STRATEGY_KINDS))
    if kind == "random":
        return f"random:{draw(unit)}"
    if kind == "threshold_shift":
        return f"threshold_shift:{draw(st.floats(min_value=-0.5, max_value=0.5))}"
    return kind


@st.composite
def worlds(draw):
    """A valid config and, for a corpus world, its prepared dataset."""
    n_agents = draw(st.integers(min_value=2, max_value=5))
    schedule_kind = draw(st.sampled_from(("slow", "fast", "constant")))
    config = dict(
        horizon=draw(st.integers(min_value=1, max_value=200)),
        n_agents=n_agents,
        dim=draw(st.integers(min_value=1, max_value=4)),
        mechanism=draw(st.sampled_from(MECHANISMS)),
        schedule_kind=schedule_kind,
        epsilon=draw(st.floats(min_value=0.01, max_value=0.5)),
        eta_constant=draw(st.floats(min_value=0.05, max_value=1.0)),
        floor_rounds=draw(st.integers(min_value=1, max_value=10)),
        price_distribution=draw(
            st.one_of(st.just("uniform"), unit.map(lambda v: f"fixed:{v}"))
        ),
        noise_kind=draw(st.sampled_from(("bernoulli", "truncated_uniform"))),
        noise_width=draw(st.floats(min_value=0.0, max_value=0.5)),
        theta_seed=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=99))),
        deviant_index=draw(st.integers(min_value=0, max_value=n_agents - 1)),
        deviant_strategy=draw(strategies()),
        master_seed=draw(st.integers(min_value=0, max_value=2**31)),
    )
    prepared = None
    if draw(st.booleans()):
        components = draw(st.integers(min_value=1, max_value=3))
        corpus = generate_synthetic_dataset(
            draw(st.integers(min_value=6, max_value=30)),
            draw(st.integers(min_value=6, max_value=10)),
            draw(st.integers(min_value=0, max_value=99)),
        )
        prepared = prepare_dataset(corpus, components)
        config.update(data_source="csv", data_path="corpus.csv", pca_components=components)
    return ExperimentConfig(**config), prepared


def second_highest(matrix):
    return np.partition(matrix, -2, axis=1)[:, -2]


@given(worlds(), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_every_run_keeps_the_mechanism_invariants(world, seed_index):
    config, prepared = world
    run = run_single(config, seed_index, prepared)
    horizon, n_agents = config.horizon, config.n_agents

    assert len(run) == horizon
    assert np.all((run.allocated >= 0) & (run.allocated < n_agents))
    assert np.all(run.payments[run.explored] == 0.0)

    exploit = ~run.explored
    rounds = np.flatnonzero(exploit)
    winners = run.allocated[exploit]
    if config.mechanism in LEARNED:
        estimates = run.estimates[exploit]
        assert np.array_equal(winners, np.argmax(estimates, axis=1))
        np.testing.assert_array_equal(run.payments[exploit], second_highest(estimates))
        assert np.all(run.payments[exploit] <= estimates[np.arange(rounds.size), winners])
        np.testing.assert_array_equal(run.comparison_prices[exploit], run.payments[exploit])
    elif config.mechanism == "oracle":
        assert rounds.size == horizon
        np.testing.assert_array_equal(run.payments, second_highest(run.true_means))
        assert np.all(run.true_means[rounds, winners] == run.true_means.max(axis=1))
    else:
        assert rounds.size == 0

    losses = per_agent_welfare_loss(run.true_means, run.allocated)
    assert losses.shape == (n_agents,)
    assert abs(losses.sum() - welfare_regret(run.true_means, run.allocated).sum()) <= 1e-9


@given(worlds())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_a_truthful_twin_is_bit_identical_to_no_deviant(world):
    config, prepared = world
    no_deviant = run_single(config.replace(deviant_index=None), 0, prepared)
    twin = run_single(config.replace(deviant_strategy="truthful"), 0, prepared)
    for column in RUN_COLUMNS:
        a, b = getattr(no_deviant, column), getattr(twin, column)
        if a is None:
            assert b is None, column
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), column
    assert no_deviant.final_models == twin.final_models


@given(worlds())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_every_run_equals_the_per_round_loop(world):
    # The decision columns and final models against the per-round loops, and
    # the world columns, which those loops read from the run, against the run
    # of the same seed without the deviant: the world is the same whoever
    # deviates.
    config, prepared = world
    run = run_single(config, 0, prepared)
    if config.mechanism in LEARNED:
        expected = per_round_reference(config, run)
    else:
        expected = per_round_baseline_reference(config, run)
        expected.update(estimates=None, final_models=None)
    assert run.final_models == expected.pop("final_models")
    truthful = run_single(config.replace(deviant_index=None), 0, prepared)
    for column in RUN_COLUMNS:
        a = getattr(run, column)
        b = expected[column] if column in expected else getattr(truthful, column)
        if b is None:
            assert a is None, column
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), column
    np.testing.assert_array_equal(run.oracle_second_prices, second_highest(run.true_means))
