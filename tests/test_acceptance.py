"""Acceptance suite: the ten headline guarantees, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines with their measured margins. The long-horizon fixtures are
shared across criteria, so the whole suite stays within a few minutes.
"""

import time

import mpmath as mp
import numpy as np
import pytest

from feedauction.agents import sample_simplex, utility_from_uniform
from feedauction.cli import main, write_histogram_csv
from feedauction.config import ExperimentConfig
from feedauction.core import derive_seed, derive_stream
from feedauction.dataio import generate_synthetic_dataset, pca_fit, read_run
from feedauction.experiment import prepare_dataset, run_single
from feedauction.learner import ValueModel, estimate_mean_from_reports
from feedauction.mechanism import exploration_rate
from feedauction.metrics import (
    build_series,
    estimation_error_trace,
    loglog_tail_slope,
    per_agent_net_utility,
    per_agent_welfare_loss,
    per_round_profit,
    welfare_regret,
)

from helpers import dense_ridge_solve, jacobi_eigenvalues

H_LONG = 20_000
N_SEEDS = 20
DEVIANT_AGENT = 0
DEVIATIONS = (
    "always_high",
    "always_low",
    "inverted",
    "random:0.5",
    "threshold_shift:0.2",
    "threshold_shift:-0.2",
)


def _report(number, label, ok, detail):
    print(f"\n[criterion {number:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number:02d} {label}: {detail}"


def _stderr(values):
    values = np.asarray(values, dtype=float)
    return float(values.std(ddof=1) / np.sqrt(values.size))


def _slow_config(**overrides):
    base = dict(
        horizon=H_LONG,
        n_agents=10,
        dim=5,
        mechanism="feedback",
        schedule_kind="slow",
        master_seed=42,
        n_seeds=N_SEEDS,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def slow_truthful():
    start = time.perf_counter()
    runs = [run_single(_slow_config(), i, keep_records=False) for i in range(N_SEEDS)]
    return {"runs": runs, "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def fast_truthful():
    config = _slow_config(schedule_kind="fast")
    return [run_single(config, i, keep_records=False) for i in range(N_SEEDS)]


@pytest.fixture(scope="module")
def uniform_runs():
    config = _slow_config(mechanism="uniform")
    return [run_single(config, i, keep_records=False) for i in range(N_SEEDS)]


@pytest.fixture(scope="module")
def deviation_results(slow_truthful):
    """Per-strategy paired profits against the shared truthful runs."""
    start = time.perf_counter()
    truthful = slow_truthful["runs"]
    per_strategy = {}
    for strategy in DEVIATIONS:
        config = _slow_config(deviant_index=DEVIANT_AGENT, deviant_strategy=strategy)
        profits, quartiles = [], []
        for i in range(N_SEEDS):
            deviant = run_single(config, i, keep_records=False)
            profile = per_round_profit(truthful[i], deviant, DEVIANT_AGENT)
            profits.append(float(profile.sum()))
            quartiles.append(float(profile[3 * profile.size // 4 :].mean()))
        per_strategy[strategy] = (np.array(profits), np.array(quartiles))
    # Seed-mean cumulative worst-case estimation error of the truthful arm,
    # the scale that bounds what any single misreporter can gain.
    error_sum = float(
        np.mean(
            [
                estimation_error_trace(run.true_means, run.estimates).sum()
                for run in truthful
            ]
        )
    )
    elapsed = time.perf_counter() - start
    return {"per_strategy": per_strategy, "error_sum": error_sum, "elapsed": elapsed}


@pytest.fixture(scope="module")
def toxicity_runs():
    start = time.perf_counter()
    corpus = generate_synthetic_dataset(2000, 60, 7)
    prepared = prepare_dataset(corpus, 30)

    def config(mechanism):
        return ExperimentConfig(
            horizon=5000,
            n_agents=10,
            mechanism=mechanism,
            data_source="csv",
            data_path="synthetic-toxicity.csv",
            pca_components=30,
            master_seed=42,
            n_seeds=N_SEEDS,
        )

    runs = {
        mechanism: [
            run_single(config(mechanism), i, prepared, keep_records=False)
            for i in range(N_SEEDS)
        ]
        for mechanism in ("feedback", "direct_regression", "uniform", "oracle")
    }
    return {"runs": runs, "elapsed": time.perf_counter() - start}


def test_criterion_01_identification_from_uniform_comparisons():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(20260813))
    n = 200_000
    cases = {
        "constant(0.4)": (np.full(n, 0.4), 0.4),
        "bernoulli(0.7)": ((rng.random(n) < 0.7).astype(float), 0.7),
        "uniform[0,1]": (rng.random(n), 0.5),
        "beta(2,5)": (rng.beta(2.0, 5.0, n), 2.0 / 7.0),
    }
    worst = 0.0
    for utilities, true_mean in cases.values():
        prices = rng.random(n)
        answers = utilities >= prices
        estimate = estimate_mean_from_reports(prices, answers)
        worst = max(worst, abs(estimate - true_mean))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "yes-frequency recovers the mean of four utility laws",
        worst < 0.01 and elapsed < 5.0,
        f"worst |error| {worst:.5f} < 0.01, runtime {elapsed:.1f}s < 5s",
    )


def test_criterion_02_report_regression_equals_utility_regression():
    start = time.perf_counter()
    dim, n_samples = 5, 20_000
    grid = sample_simplex(derive_stream(777, "acceptance/heldout_grid"), (1000,), dim)
    gaps = []
    for i in range(N_SEEDS):
        seed = derive_seed(777, f"identification/{i}")
        theta = derive_stream(seed, "population/theta").random(dim)
        contexts = sample_simplex(derive_stream(seed, "world/contexts"), (n_samples,), dim)
        means = contexts @ theta
        uniforms = derive_stream(seed, "world/utilities").random(n_samples)
        utilities = utility_from_uniform(means, uniforms, "truncated_uniform", 0.2)
        prices = derive_stream(seed, "mechanism/comparison_price").random(n_samples)
        answers = (utilities >= prices).astype(float)
        report_model, utility_model = ValueModel(dim), ValueModel(dim)
        report_model.ingest_batch(contexts, answers)
        utility_model.ingest_batch(contexts, utilities)
        gaps.append(
            max(
                abs(report_model.predict(x) - utility_model.predict(x))
                for x in grid
            )
        )
    mean_gap = float(np.mean(gaps))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "binary-report regression tracks exact-value regression",
        mean_gap < 0.05 and elapsed < 60.0,
        f"mean max-abs prediction gap {mean_gap:.4f} < 0.05, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_03_least_squares_matches_dense_oracle():
    rng = np.random.Generator(np.random.PCG64(20260813))
    worst = 0.0
    for _ in range(50):
        n_samples = int(rng.integers(10, 201))
        dim = int(rng.integers(3, 9))
        design = rng.standard_normal((n_samples, dim))
        targets = rng.random(n_samples)
        model = ValueModel(dim)
        model.ingest_batch(design, targets)
        expected = dense_ridge_solve(design, targets, 1e-6)
        worst = max(worst, float(np.max(np.abs(model.fit() - expected))))
    _report(
        3,
        "incremental ridge solve matches dense normal equations",
        worst <= 1e-8,
        f"worst coefficient deviation {worst:.2e} <= 1e-8 over 50 instances",
    )


def test_criterion_04_pca_matches_dense_eigensolver():
    rng = np.random.Generator(np.random.PCG64(20260813))
    worst_variance, worst_orthonormality = 0.0, 0.0
    for _ in range(50):
        data = rng.standard_normal((50, 8)) * rng.uniform(0.5, 3.0, 8)
        model = pca_fit(data, 8)
        eigenvalues = jacobi_eigenvalues(np.cov(data, rowvar=False))
        worst_variance = max(
            worst_variance,
            float(np.max(np.abs(model.explained_variance - eigenvalues[:8]))),
        )
        gram = model.components @ model.components.T
        worst_orthonormality = max(
            worst_orthonormality, float(np.max(np.abs(gram - np.eye(8))))
        )
    _report(
        4,
        "power-iteration spectra match a Jacobi eigensolver",
        worst_variance <= 1e-6 and worst_orthonormality <= 1e-8,
        f"worst variance deviation {worst_variance:.2e} <= 1e-6, "
        f"worst orthonormality defect {worst_orthonormality:.2e} <= 1e-8",
    )


def test_criterion_05_misreporting_never_pays(slow_truthful, deviation_results):
    bound_term = 6.0 * deviation_results["error_sum"]
    failures, details = [], []
    for strategy, (profits, quartiles) in deviation_results["per_strategy"].items():
        profit_ok = profits.mean() <= bound_term + 2.0 * _stderr(profits)
        quartile_ok = quartiles.mean() <= 0.0 + 2.0 * _stderr(quartiles)
        if not (profit_ok and quartile_ok):
            failures.append(strategy)
        details.append(f"{strategy} {profits.mean():+.1f}/{quartiles.mean():+.2e}")
    runtime = slow_truthful["elapsed"] + deviation_results["elapsed"]
    _report(
        5,
        "six misreporting strategies gain nothing (paired seeds)",
        not failures and runtime < 600.0,
        f"mean profit / last-quartile per-round: {', '.join(details)}; "
        f"bound {bound_term:.0f}; runtime {runtime:.0f}s < 600s"
        + (f"; FAILING: {failures}" if failures else ""),
    )


def test_criterion_06_truthful_participation_pays(slow_truthful):
    finals = np.stack(
        [
            per_agent_net_utility(run.true_means, run.allocated, run.payments).sum(axis=0)
            for run in slow_truthful["runs"]
        ]
    )
    fraction = float((finals >= 0.0).mean())
    _report(
        6,
        "final net utility nonnegative for truthful agents",
        fraction >= 0.90,
        f"{fraction:.1%} of {finals.size} (agent, seed) pairs >= 0, need >= 90%",
    )


def test_criterion_07_regret_grows_sublinearly(slow_truthful, fast_truthful, uniform_runs):
    def mean_slopes(runs):
        series = [build_series(run) for run in runs]
        welfare = np.stack([s.cumulative_welfare_regret for s in series]).mean(axis=0)
        revenue = np.stack([s.cumulative_revenue_regret for s in series]).mean(axis=0)
        return loglog_tail_slope(welfare), loglog_tail_slope(revenue)

    slow_w, slow_r = mean_slopes(slow_truthful["runs"])
    fast_w, fast_r = mean_slopes(fast_truthful)
    uni_w, uni_r = mean_slopes(uniform_runs)
    ok = (
        0.5 <= slow_w <= 0.9
        and 0.5 <= slow_r <= 0.9
        and 0.95 <= uni_w <= 1.05
        and 0.95 <= uni_r <= 1.05
        and fast_w <= slow_w + 0.05
        and fast_r <= slow_r + 0.05
    )
    _report(
        7,
        "regret tail slopes: learned sublinear, unlearned linear",
        ok,
        f"slow w/r {slow_w:.3f}/{slow_r:.3f} in [0.5,0.9], "
        f"uniform {uni_w:.3f}/{uni_r:.3f} in [0.95,1.05], "
        f"fast {fast_w:.3f}/{fast_r:.3f} <= slow + 0.05",
    )


def test_criterion_08_toxicity_world_ordering(toxicity_runs, tmp_path):
    runs = toxicity_runs["runs"]
    finals = {
        mechanism: np.array(
            [welfare_regret(r.true_means, r.allocated).sum() for r in mechanism_runs]
        )
        for mechanism, mechanism_runs in runs.items()
    }
    gap_uniform = finals["uniform"] - finals["feedback"]
    gap_oracle = finals["feedback"] - finals["oracle"]
    ordering_ok = (
        gap_uniform.mean() > 2.0 * _stderr(gap_uniform)
        and gap_oracle.mean() > 2.0 * _stderr(gap_oracle)
    )
    ratio = finals["feedback"].mean() / finals["direct_regression"].mean()
    ratio_ok = ratio <= 2.0

    losses = np.stack(
        [per_agent_welfare_loss(r.true_means, r.allocated) for r in runs["feedback"]]
    )
    mismatch = float(
        np.max(np.abs(losses.sum(axis=1) - finals["feedback"]))
    )
    histogram_path = tmp_path / "histogram_feedback.csv"
    write_histogram_csv(
        histogram_path,
        losses.mean(axis=0),
        losses.std(axis=0, ddof=1) / np.sqrt(N_SEEDS),
    )
    elapsed = toxicity_runs["elapsed"]
    _report(
        8,
        "moderation proxy: uniform > feedback > oracle, histogram reconciles",
        ordering_ok and ratio_ok and mismatch <= 1e-9 and histogram_path.exists() and elapsed < 120.0,
        f"means u/f/d/o {finals['uniform'].mean():.0f}/{finals['feedback'].mean():.0f}/"
        f"{finals['direct_regression'].mean():.0f}/{finals['oracle'].mean():.0f}, "
        f"gaps {gap_uniform.mean():.0f}>{2 * _stderr(gap_uniform):.1f} and "
        f"{gap_oracle.mean():.0f}>{2 * _stderr(gap_oracle):.1f}, "
        f"feedback/direct ratio {ratio:.2f} <= 2, histogram mismatch {mismatch:.1e} <= 1e-9, "
        f"runtime {elapsed:.0f}s < 120s",
    )


def test_criterion_09_reruns_are_byte_identical(tmp_path):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        "horizon = 300\n"
        "agents.count = 3\n"
        "features.dim = 2\n"
        "mechanism = feedback\n"
        "seeds.master = 5\n"
        "seeds.count = 2\n"
    )
    out_dir = tmp_path / "runs"
    arguments = ["run", "--config", str(config_path), "--output-dir", str(out_dir)]
    assert main(arguments) == 0
    names = sorted(p.name for p in out_dir.glob("*.jsonl"))
    first_pass = {name: (out_dir / name).read_bytes() for name in names}
    assert main(arguments) == 0  # overwrite in place with the identical config
    identical = bool(names) and all(
        (out_dir / name).read_bytes() == first_pass[name] for name in names
    )
    read_run(out_dir / names[0])  # the artifacts are real, parseable ledgers
    _report(
        9,
        "identical config and seed give byte-identical ledgers",
        identical,
        f"{len(names)} run files compared byte for byte",
    )


def test_criterion_10_schedule_matches_arbitrary_precision_oracle():
    mp.mp.dps = 50

    def oracle_rate(kind, n_agents, t):
        if t <= 3:
            return mp.mpf(1)
        log_factor = mp.mpf(n_agents) * mp.log(mp.mpf(t))
        if kind == "slow":
            rate = mp.mpf(t) ** (mp.mpf(-1) / 3) * log_factor ** (
                (1 + 2 * mp.mpf("0.05")) / 3
            )
        else:
            rate = mp.mpf(t) ** (mp.mpf(-1) / 2) * log_factor ** (
                (1 + mp.mpf("0.05")) / 2
            )
        return min(mp.mpf(1), rate)

    worst_rel = 0.0
    for kind in ("slow", "fast"):
        for n_agents in (2, 10, 100):
            spec = ExperimentConfig(schedule_kind=kind, n_agents=n_agents)
            for t in (10, 10**3, 10**6):
                mine = exploration_rate(spec, t)
                reference = oracle_rate(kind, n_agents, t)
                if reference > 0:
                    worst_rel = max(
                        worst_rel, float(abs(mine - reference) / reference)
                    )
    precision_ok = worst_rel <= 5e-10  # nine significant digits

    monotone_ok = True
    for kind in ("slow", "fast"):
        for n_agents in (2, 10, 100):
            spec = ExperimentConfig(schedule_kind=kind, n_agents=n_agents)
            previous = 1.0
            for t in range(3, 10**6 + 1):
                rate = exploration_rate(spec, t)
                if not 0.0 <= rate <= previous + 1e-15:
                    monotone_ok = False
                    break
                previous = rate
            if not monotone_ok:
                break
        if not monotone_ok:
            break
    _report(
        10,
        "exploration schedule: precise and non-increasing",
        precision_ok and monotone_ok,
        f"worst relative error {worst_rel:.1e} <= 5e-10 (18 grid points), "
        f"monotone on every t in [3, 1e6] for both decay kinds: {monotone_ok}",
    )
