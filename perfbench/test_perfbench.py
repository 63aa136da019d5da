"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import types

import numpy as np
import pytest

import run

run.load_program()

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from feedauction import experiment  # noqa: E402
from feedauction.config import ExperimentConfig  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_self_time_on_a_toy_call_tree():
    now = [0.0]

    def advance(seconds):
        now[0] += seconds

    ns = types.SimpleNamespace()
    ns.leaf = lambda: advance(2.0)

    def mid():
        advance(1.0)
        ns.leaf()
        advance(3.0)

    def top():
        advance(5.0)
        ns.mid()
        ns.leaf()
        advance(0.5)

    def broken():
        advance(1.0)
        raise ValueError("boom")

    ns.mid, ns.top, ns.broken = mid, top, broken
    tracer = Tracer(clock=lambda: now[0], span_names=("top", "mid"))
    for name in ("leaf", "mid", "top", "broken"):
        tracer.wrap(ns, name, name)
    ns.top()
    with pytest.raises(ValueError):
        ns.broken()
    tracer.uninstall()

    assert tracer.stats[("leaf", "mid")] == [1, 2.0, 2.0, 0]
    assert tracer.stats[("leaf", "top")] == [1, 2.0, 2.0, 0]
    assert tracer.stats[("mid", "top")] == [1, 6.0, 4.0, 0]
    assert tracer.stats[("top", None)] == [1, 13.5, 5.5, 0]
    assert tracer.stats[("broken", None)] == [1, 1.0, 1.0, 1]
    assert tracer.by_name()["leaf"] == [2, 4.0, 4.0, 0]
    top_span, mid_span = tracer.spans
    assert (top_span["name"], top_span["parent"], top_span["end"] - top_span["start"]) == ("top", None, 13.5)
    assert (mid_span["name"], mid_span["parent"], mid_span["end"] - mid_span["start"]) == ("mid", 0, 6.0)
    assert ns.leaf is not None and not hasattr(ns.leaf, "__wrapped__")


def _small_run(mechanism="feedback"):
    config = ExperimentConfig(horizon=400, n_agents=4, dim=3, mechanism=mechanism, n_seeds=1)
    return experiment.run_single(config, 0, keep_records=False)


@pytest.mark.parametrize("mechanism", ["feedback", "direct_regression", "uniform", "oracle"])
def test_real_runs_pass_the_output_checks(mechanism):
    assert checks.check_run(_small_run(mechanism), mechanism) == []


def test_one_corrupted_allocation_fails_the_output_check():
    run_result = _small_run()
    outcome = workloads.Outcome()
    exploit = np.flatnonzero(~run_result.explored)
    t = exploit[len(exploit) // 2]
    run_result.allocated[t] = (run_result.allocated[t] + 1) % run_result.config.n_agents
    outcome.check(checks.check_run(run_result, "feedback"))
    assert outcome.failed == 1 and not outcome.correct
    assert "not the highest estimate" in outcome.problems[0]


def test_corpus_seed_8_is_counted_as_a_failure_not_a_crash(tmp_path):
    # The benchmark draws only converging corpora (corpora.json); corpora
    # 8..15 include four on which pca_fit fails: 8, 9, 12 and 14.
    outcome = workloads.Outcome()
    workload = workloads.Moderation(1, tmp_path, outcome)
    workload.corpus_seeds = list(range(8, 16))
    tracer = Tracer()
    layers.install(tracer)
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    assert (outcome.attempted, outcome.failed) == (8, 4)
    assert [error.split(":")[0] for error in outcome.errors] == [
        f"prepare_dataset corpus {seed}" for seed in (8, 9, 12, 14)
    ]
    assert all("ConvergenceError" in error for error in outcome.errors)
    assert outcome.correct and workload.runnable()
    assert tracer.by_name()["dataio.pca_fit"][3] == 4


def test_wrong_ledger_outputs_fail_every_unit(tmp_path, monkeypatch):
    outcome = workloads.Outcome()
    ledger = workloads.Ledger(0, tmp_path, outcome)
    ledger.horizon = 200
    ledger.setup()
    monkeypatch.setattr(checks, "check_ledger", lambda *args: ["corrupted"])
    for k in range(2):
        ledger.unit(k)
    assert (outcome.attempted, outcome.failed) == (6, 6)
    assert not outcome.correct


def test_two_workload_seeds_give_different_inputs(tmp_path):
    worlds = [
        experiment.run_single(
            workloads.SweepDeviation(seed, tmp_path, workloads.Outcome()).config.replace(horizon=20),
            0, keep_records=False,
        ).true_means
        for seed in (0, 1)
    ]
    assert not np.array_equal(*worlds)

    corpora = [workloads.Moderation(seed, tmp_path, workloads.Outcome()).corpus_seeds for seed in (0, 1)]
    assert corpora[0] != corpora[1]

    texts = []
    for seed in (0, 1):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        ledger = workloads.Ledger(seed, workdir, workloads.Outcome())
        ledger.setup()
        texts.append(ledger.config_paths["feedback"].read_text().replace(str(workdir), ""))
    assert texts[0] != texts[1]
