import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from feedauction import dataio
from feedauction.config import ExperimentConfig
from feedauction.core import ConfigurationError, DimensionMismatchError
from feedauction.dataio import (
    ConvergenceError,
    FeatureScaler,
    ParseError,
    PcaModel,
    generate_synthetic_dataset,
    load_examples,
    pca_fit,
    pca_transform,
    read_run,
    write_examples,
    write_run,
)
from feedauction.experiment import run_metadata, run_single
from feedauction.metrics import build_series

from helpers import jacobi_eigenvalues, power_iteration_reference


def write_csv(path, text):
    path.write_text(text)
    return path


GOOD_CSV = (
    "id,f0,f1,toxic,severe_toxic,obscene,threat,insult,identity_hate\n"
    "a,0.5,-1.25,1,0,0,0,1,0\n"
    "b,2.0,3.5,0,0,0,0,0,0\n"
)


class TestLoadExamples:
    def test_round_trip(self, tmp_path):
        examples = load_examples(write_csv(tmp_path / "ok.csv", GOOD_CSV))
        assert len(examples) == 2
        assert examples[0].example_id == "a"
        np.testing.assert_allclose(examples[0].features, [0.5, -1.25])
        assert examples[0].labels == (1, 0, 0, 0, 1, 0)
        assert examples[1].labels == (0, 0, 0, 0, 0, 0)

        out = tmp_path / "copy.csv"
        write_examples(out, examples)
        reread = load_examples(out)
        for original, copy in zip(examples, reread):
            assert original.example_id == copy.example_id
            np.testing.assert_array_equal(original.features, copy.features)
            assert original.labels == copy.labels

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            load_examples(write_csv(tmp_path / "empty.csv", ""))

    def test_header_only(self, tmp_path):
        header = GOOD_CSV.splitlines()[0] + "\n"
        with pytest.raises(ParseError, match="no data rows"):
            load_examples(write_csv(tmp_path / "hdr.csv", header))

    def test_bad_header(self, tmp_path):
        bad = GOOD_CSV.replace("severe_toxic", "very_toxic")
        with pytest.raises(ParseError, match="line 1"):
            load_examples(write_csv(tmp_path / "bad.csv", bad))

    def test_ragged_row_names_its_line(self, tmp_path):
        bad = GOOD_CSV + "c,1.0,0,0,0,0,0,0\n"  # 8 columns, expected 9
        with pytest.raises(ParseError, match="line 4"):
            load_examples(write_csv(tmp_path / "ragged.csv", bad))

    def test_non_numeric_feature(self, tmp_path):
        bad = GOOD_CSV.replace("-1.25", "n/a")
        with pytest.raises(ParseError, match="line 2.*non-numeric"):
            load_examples(write_csv(tmp_path / "nan.csv", bad))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_names_its_line(self, tmp_path, value):
        bad = GOOD_CSV.replace("2.0,3.5", f"2.0,{value}")
        with pytest.raises(ParseError, match="line 3: non-finite"):
            load_examples(write_csv(tmp_path / "inf.csv", bad))

    def test_non_binary_label(self, tmp_path):
        bad = GOOD_CSV.replace("a,0.5,-1.25,1", "a,0.5,-1.25,2")
        with pytest.raises(ParseError, match="line 2.*toxic"):
            load_examples(write_csv(tmp_path / "label.csv", bad))


class TestPca:
    def test_two_point_cloud(self):
        # Two points define one direction; the single component is the
        # normalized difference with the positive-first-coordinate convention.
        data = np.array([[0.0, 0.0], [2.0, 2.0]])
        model = pca_fit(data, 1)
        np.testing.assert_allclose(model.mean, [1.0, 1.0])
        np.testing.assert_allclose(model.components[0], [np.sqrt(0.5), np.sqrt(0.5)])
        np.testing.assert_allclose(model.explained_variance, [4.0])  # ddof=1

    def test_line_recovers_direction_and_zero_second_component(self):
        t = np.linspace(-1.0, 1.0, 21)
        data = np.stack([t, 2.0 * t], axis=1)
        model = pca_fit(data, 2)
        direction = np.array([1.0, 2.0]) / np.sqrt(5.0)
        np.testing.assert_allclose(model.components[0], direction, atol=1e-9)
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-12)
        # The filler second component is still orthonormal.
        np.testing.assert_allclose(
            model.components @ model.components.T, np.eye(2), atol=1e-9
        )

    def test_matches_dense_eigensolver(self):
        rng = np.random.Generator(np.random.PCG64(404))
        data = rng.standard_normal((60, 7)) * rng.uniform(0.5, 3.0, 7)
        model = pca_fit(data, 7)
        covariance = np.cov(data, rowvar=False)
        np.testing.assert_allclose(
            model.explained_variance,
            jacobi_eigenvalues(covariance)[:7],
            rtol=1e-9,
            atol=1e-9,
        )

    def test_reconstruction_with_full_basis(self):
        rng = np.random.Generator(np.random.PCG64(11))
        data = rng.standard_normal((40, 5))
        model = pca_fit(data, 5)
        projected = pca_transform(model, data)
        reconstructed = projected @ model.components + model.mean
        np.testing.assert_allclose(reconstructed, data, atol=1e-6)

    def test_deterministic_across_calls(self):
        rng = np.random.Generator(np.random.PCG64(12))
        data = rng.standard_normal((30, 6))
        a, b = pca_fit(data, 4), pca_fit(data, 4)
        np.testing.assert_array_equal(a.components, b.components)
        np.testing.assert_array_equal(a.explained_variance, b.explained_variance)

    def test_sign_convention(self):
        rng = np.random.Generator(np.random.PCG64(13))
        data = rng.standard_normal((30, 4))
        for vector in pca_fit(data, 4).components:
            leading = vector[np.abs(vector) > 1e-12][0]
            assert leading > 0

    def test_transform_shapes_and_validation(self):
        data = np.array([[0.0, 0.0], [2.0, 2.0]])
        model = pca_fit(data, 1)
        assert pca_transform(model, data).shape == (2, 1)
        with pytest.raises(DimensionMismatchError):
            pca_transform(model, np.ones((2, 3)))
        with pytest.raises(DimensionMismatchError):
            pca_transform(model, np.array([2.0, 2.0]))  # rows only, not one vector

    def test_input_validation(self):
        data = np.zeros((5, 3))
        with pytest.raises(ValueError):
            pca_fit(data, 0)
        with pytest.raises(ValueError):
            pca_fit(data, 4)
        with pytest.raises(ValueError):
            pca_fit(data[:1], 1)

    def test_variance_ordering_enforced(self):
        with pytest.raises(ValueError):
            PcaModel(
                mean=np.zeros(2),
                components=np.eye(2),
                explained_variance=np.array([1.0, 2.0]),
            )



# Hashes the 2,000 x 60 -> 30 fit of the benchmark's corpus shape, in a child
# process whose BLAS thread count is set before numpy loads.
_HASH_WORKLOAD_FIT = """
import hashlib
import numpy as np
from feedauction.dataio import generate_synthetic_dataset, pca_fit
features = np.stack([example.features for example in generate_synthetic_dataset(2000, 60, 0)])
model = pca_fit(features, 30)
print(hashlib.sha256(model.components.tobytes() + model.explained_variance.tobytes()).hexdigest())
"""


class TestPcaAgainstReference:
    """``pca_fit`` against the per-component power iteration in ``helpers``."""

    @pytest.mark.parametrize("n_samples, dim, n_components", [(50, 6, 6), (200, 12, 8), (400, 30, 15)])
    def test_matches_the_reference(self, n_samples, dim, n_components):
        rng = np.random.Generator(np.random.PCG64(7))
        data = rng.standard_normal((n_samples, dim)) * np.geomspace(4.0, 0.5, dim)
        model = pca_fit(data, n_components)
        components, variances = power_iteration_reference(data, n_components)
        np.testing.assert_allclose(model.components, components, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.explained_variance, variances, rtol=0, atol=1e-12)

    def test_rank_deficient_input_takes_the_filler_path(self, monkeypatch):
        filled = []
        filler = dataio._orthonormal_filler

        def spy(basis, dim):
            filled.append(len(basis))
            return filler(basis, dim)

        monkeypatch.setattr(dataio, "_orthonormal_filler", spy)
        rng = np.random.Generator(np.random.PCG64(8))
        base = rng.standard_normal((40, 3))
        data = np.hstack([base, base @ rng.standard_normal((3, 3))])  # rank 3 of 6
        model = pca_fit(data, 6)
        assert filled == [3, 4, 5]
        components, variances = power_iteration_reference(data, 6)
        np.testing.assert_allclose(model.components, components, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(model.explained_variance[3:], 0.0)
        np.testing.assert_allclose(model.explained_variance, variances, rtol=0, atol=1e-12)

    def test_small_budget_fails_at_the_same_component(self):
        rng = np.random.Generator(np.random.PCG64(21))
        data = rng.standard_normal((300, 8)) * np.array([6.0, 4.0, 2.5, 1.0, 0.95, 0.5, 0.3, 0.2])
        with pytest.raises(ConvergenceError, match=r"^component 3 did not converge within 100 "):
            pca_fit(data, 6, max_iter=100)
        with pytest.raises(ConvergenceError, match=r"^component 3 did not converge"):
            power_iteration_reference(data, 6, max_iter=100)

    @pytest.mark.parametrize("mix", [True, False], ids=["rank-2-mixed", "one-axis"])
    def test_zero_step_cuts_its_block(self, mix):
        # After a zero step its block still holds the later iterates; the
        # one-axis corpus deflates to an exactly zero matrix, so they are
        # exact zeros. With RuntimeWarning an error, dividing any of them by
        # its norm fails the test.
        rng = np.random.Generator(np.random.PCG64(9))
        if mix:
            base = rng.standard_normal((40, 2))
            data = np.hstack([base, base @ rng.standard_normal((2, 4))])
        else:
            data = np.zeros((40, 6))
            data[:, 1] = 3.0 * rng.standard_normal(40)
        model = pca_fit(data, 6)
        components, variances = power_iteration_reference(data, 6)
        np.testing.assert_allclose(model.components, components, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.explained_variance, variances, rtol=0, atol=1e-12)
        assert np.count_nonzero(model.explained_variance) == (2 if mix else 1)

    @pytest.mark.parametrize("edge", ["last", "first"])
    def test_converges_on_a_block_edge(self, edge):
        # Step ``k`` (1-based) is the last of the first block; ``k + 1`` the
        # first of the second. ``tol`` is set between the reference's
        # residuals around the chosen step, so the fit stops exactly there.
        k = dataio._BLOCK_STEPS
        stop = k if edge == "last" else k + 1
        rng = np.random.Generator(np.random.PCG64(31))
        data = rng.standard_normal((300, 5)) * np.array([3.0, 2.5, 1.5, 1.0, 0.5])

        def residual_after(steps):
            with pytest.raises(ConvergenceError) as failure:
                power_iteration_reference(data, 1, tol=0.0, max_iter=steps)
            return failure.value.residual

        tol = np.sqrt(residual_after(stop - 1) * residual_after(stop))
        with pytest.raises(ConvergenceError, match=r"^component 0 "):
            pca_fit(data, 1, tol=tol, max_iter=stop - 1)
        model = pca_fit(data, 3, tol=tol, max_iter=stop)
        components, variances = power_iteration_reference(data, 3, tol=tol, max_iter=stop)
        np.testing.assert_allclose(model.components, components, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.explained_variance, variances, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("floor", [None, 2.0**-4], ids=["default-floor", "raised-floor"])
    @pytest.mark.parametrize("max_iter", [45, 100, 141])
    def test_budget_off_the_block_grid_fails_like_the_reference(self, monkeypatch, max_iter, floor):
        # A raised floor cuts most blocks after a few steps, so the budget
        # is also counted across blocks that restart from a cut.
        if floor is not None:
            monkeypatch.setattr(dataio, "_BLOCK_FLOOR", floor)
        assert max_iter % dataio._BLOCK_STEPS
        rng = np.random.Generator(np.random.PCG64(21))
        data = rng.standard_normal((300, 8)) * np.array([6.0, 4.0, 2.5, 1.0, 0.95, 0.5, 0.3, 0.2])
        with pytest.raises(ConvergenceError) as fit:
            pca_fit(data, 6, max_iter=max_iter)
        with pytest.raises(ConvergenceError) as reference:
            power_iteration_reference(data, 6, max_iter=max_iter)
        component = str(reference.value).split(" did not")[0]
        assert str(fit.value).startswith(f"{component} did not converge within {max_iter} ")
        assert fit.value.residual == pytest.approx(reference.value.residual, rel=1e-12)

    def test_blocks_cut_at_the_floor_still_follow_the_reference(self, monkeypatch):
        # Raised, the floor cuts most blocks after a few steps, and each cut
        # block's successor restarts from the last iterate before the cut.
        monkeypatch.setattr(dataio, "_BLOCK_FLOOR", 2.0**-4)
        rng = np.random.Generator(np.random.PCG64(7))
        data = rng.standard_normal((400, 30)) * np.geomspace(4.0, 0.5, 30)
        model = pca_fit(data, 15)
        components, variances = power_iteration_reference(data, 15)
        np.testing.assert_allclose(model.components, components, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.explained_variance, variances, rtol=0, atol=1e-12)

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.Generator(np.random.PCG64(7))
        data = rng.standard_normal((400, 30)) * np.geomspace(4.0, 0.5, 30)
        model, scaled = pca_fit(data, 15), pca_fit(data * 2.0**100, 15)
        np.testing.assert_array_equal(scaled.components, model.components)
        np.testing.assert_array_equal(scaled.explained_variance, model.explained_variance * 2.0**200)

    def test_variances_spanning_twelve_decades_match_the_reference(self):
        rng = np.random.Generator(np.random.PCG64(12))
        data = rng.standard_normal((400, 12)) * np.geomspace(1.0, 1e-6, 12)
        model = pca_fit(data, 12)
        components, variances = power_iteration_reference(data, 12)
        np.testing.assert_allclose(model.components, components, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.explained_variance, variances, rtol=0, atol=1e-12)

    def test_workload_shape_is_orthonormal_and_matches_eigvalsh(self):
        features = np.stack([e.features for e in generate_synthetic_dataset(2000, 60, 0)])
        model = pca_fit(features, 30)
        np.testing.assert_allclose(
            model.components @ model.components.T, np.eye(30), rtol=0, atol=1e-12
        )
        expected = np.linalg.eigvalsh(np.cov(features, rowvar=False, ddof=1))[::-1][:30]
        np.testing.assert_allclose(model.explained_variance, expected, rtol=0, atol=1e-9)

    def test_fit_does_not_depend_on_blas_threads(self):
        src = str(Path(dataio.__file__).resolve().parents[2])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _HASH_WORKLOAD_FIT],
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
                stdout=subprocess.PIPE,
                text=True,
            )
            for threads in ("1", "2")
        ]
        hashes = [child.communicate(timeout=120)[0].strip() for child in children]
        assert [child.returncode for child in children] == [0, 0]
        assert len(hashes[0]) == 64
        assert hashes[0] == hashes[1]


class TestFeatureScaler:
    def test_maps_training_range_to_unit_interval(self):
        data = np.array([[0.0, 10.0], [5.0, 20.0], [2.5, 15.0]])
        scaler = FeatureScaler.fit(data)
        scaled = scaler.apply(data)
        np.testing.assert_allclose(scaled.min(axis=0), [0.0, 0.0])
        np.testing.assert_allclose(scaled.max(axis=0), [1.0, 1.0])
        np.testing.assert_allclose(scaled[2], [0.5, 0.5])

    def test_constant_coordinate_maps_to_half(self):
        data = np.array([[3.0, 1.0], [3.0, 2.0]])
        scaled = FeatureScaler.fit(data).apply(data)
        np.testing.assert_allclose(scaled[:, 0], [0.5, 0.5])

    def test_out_of_range_inputs_are_clipped(self):
        scaler = FeatureScaler.fit(np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(
            scaler.apply(np.array([[-0.5], [1.5]])), [[0.0], [1.0]]
        )

    def test_to_dict_is_json_friendly(self):
        scaler = FeatureScaler.fit(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert scaler.to_dict() == {"feature_min": [0.0, 1.0], "feature_max": [2.0, 3.0]}


class TestSyntheticDataset:
    def test_shapes_ids_and_determinism(self):
        a = generate_synthetic_dataset(50, 8, 123)
        b = generate_synthetic_dataset(50, 8, 123)
        assert len(a) == 50
        assert a[0].example_id == "ex000000"
        assert a[0].features.shape == (8,)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
            assert x.labels == y.labels
        c = generate_synthetic_dataset(50, 8, 124)
        assert any(
            not np.array_equal(x.features, y.features) for x, y in zip(a, c)
        )

    def test_label_rates_are_respected(self):
        examples = generate_synthetic_dataset(30_000, 8, 7)
        labels = np.array([e.labels for e in examples])
        rates = labels.mean(axis=0)
        np.testing.assert_allclose(
            rates, [0.15, 0.03, 0.08, 0.03, 0.08, 0.03], atol=0.01
        )

    def test_out_of_range_sizes_rejected(self):
        for args in ((0, 6, 7), (10, 3, 7), (10, 6, -1)):
            with pytest.raises(ConfigurationError):
                generate_synthetic_dataset(*args)

    def test_labels_are_linearly_visible_in_features(self):
        # The toxic direction should separate toxic from clean examples.
        examples = generate_synthetic_dataset(4000, 10, 99)
        features = np.stack([e.features for e in examples])
        toxic = np.array([e.labels[0] for e in examples], dtype=bool)
        assert toxic.any() and (~toxic).any()
        direction = features[toxic].mean(axis=0) - features[~toxic].mean(axis=0)
        scores = features @ direction
        assert scores[toxic].mean() > scores[~toxic].mean() + 1.0


class TestRunFiles:
    @staticmethod
    def make_run(**overrides):
        config = ExperimentConfig(
            horizon=120, n_agents=3, dim=2, master_seed=31, **overrides
        )
        run = run_single(config, 0)
        return run, build_series(run)

    def test_round_trip(self, tmp_path):
        run, series = self.make_run()
        path = tmp_path / "run.jsonl"
        write_run(path, run, series, run_metadata(run))
        metadata, rows = read_run(path)
        assert metadata["schema"] == "feedauction.run.v1"
        assert metadata["n_rounds"] == 120
        assert metadata["config"]["horizon"] == 120
        assert metadata["identification_uniform_prices"] is True
        assert len(rows) == 120

        for ti, row in enumerate(rows):
            winner = run.allocated[ti]
            assert row["t"] == ti + 1
            assert row["allocated_agent"] == winner
            assert row["explored"] == run.explored[ti]
            assert row["comparison_price"] == run.comparison_prices[ti]
            assert row["report"] == run.reports[ti]
            assert row["payment"] == run.payments[ti]
            assert row["true_utility"] == run.utilities[ti, winner]
            assert row["oracle_second_price"] == sorted(run.true_means[ti])[-2]
            np.testing.assert_array_equal(row["contexts"], run.contexts[ti])

    def test_rows_carry_metric_columns(self, tmp_path):
        run, series = self.make_run()
        path = tmp_path / "run.jsonl"
        write_run(path, run, series, run_metadata(run))
        _, rows = read_run(path)
        for i, row in enumerate(rows):
            assert row["eta"] == run.eta[i]
            assert row["welfare_regret_increment"] == series.welfare_regret_increment[i]
            assert row["max_estimate_error"] == series.max_estimate_error[i]
            assert row["net_utility"] == [float(v) for v in series.net_utility[i]]

    def test_byte_identical_rewrites(self, tmp_path):
        run, series = self.make_run()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_run(first, run, series, run_metadata(run))
        write_run(second, run, series, run_metadata(run))
        assert first.read_bytes() == second.read_bytes()

        rerun = run_single(run.config, 0)
        third = tmp_path / "c.jsonl"
        write_run(third, rerun, build_series(rerun), run_metadata(rerun))
        assert first.read_bytes() == third.read_bytes()

    def test_contexts_can_be_dropped(self, tmp_path):
        # A run made with keep_records=False writes every column but contexts.
        run, series = self.make_run()
        lean = run_single(run.config, 0, keep_records=False)
        assert lean.contexts is None
        full_path, slim_path = tmp_path / "full.jsonl", tmp_path / "slim.jsonl"
        write_run(full_path, run, series, run_metadata(run))
        write_run(slim_path, lean, build_series(lean), run_metadata(lean))
        full_meta, full_rows = read_run(full_path)
        slim_meta, slim_rows = read_run(slim_path)
        assert full_meta.pop("contexts_included") is True
        assert slim_meta.pop("contexts_included") is False
        assert slim_meta == full_meta
        assert len(slim_rows) == len(full_rows) == 120
        for full, slim in zip(full_rows, slim_rows):
            assert full.pop("contexts") is not None
            assert slim.pop("contexts") is None
            assert slim == full

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        class FailingRows:
            # Contexts that run out partway through the rows.
            def __init__(self, contexts):
                self.contexts = contexts

            def __iter__(self):
                yield from self.contexts[:60]
                raise RuntimeError("disk gone")

        run, series = self.make_run()
        broken = dataclasses.replace(run, contexts=FailingRows(run.contexts))
        fresh = tmp_path / "fresh.jsonl"
        with pytest.raises(RuntimeError, match="disk gone"):
            write_run(fresh, broken, series, run_metadata(run))
        assert list(tmp_path.iterdir()) == []

        kept = tmp_path / "kept.jsonl"
        write_run(kept, run, series, run_metadata(run))
        before = kept.read_bytes()
        with pytest.raises(RuntimeError, match="disk gone"):
            write_run(kept, broken, series, run_metadata(run))
        assert kept.read_bytes() == before
        assert list(tmp_path.iterdir()) == [kept]

    def test_length_mismatch_rejected(self, tmp_path):
        run, _ = self.make_run()
        shorter = run_single(run.config.replace(horizon=119), 0)
        with pytest.raises(ValueError, match="119"):
            write_run(tmp_path / "x.jsonl", run, build_series(shorter), {})

    def test_read_rejects_foreign_files(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"something.else","n_rounds":0}\n')
        with pytest.raises(ParseError, match="schema"):
            read_run(bad)
        bad.write_text("not json\n")
        with pytest.raises(ParseError, match="JSON"):
            read_run(bad)
        truncated = tmp_path / "short.jsonl"
        truncated.write_text('{"schema":"feedauction.run.v1","n_rounds":5}\n')
        with pytest.raises(ParseError, match="5 rounds"):
            read_run(truncated)
