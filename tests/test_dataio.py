import numpy as np
import pytest

from feedauction.config import ExperimentConfig
from feedauction.dataio import (
    CATEGORIES,
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

from helpers import jacobi_eigenvalues


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
        assert pca_transform(model, np.array([2.0, 2.0])).shape == (1,)
        assert pca_transform(model, data).shape == (2, 1)
        with pytest.raises(ValueError):
            pca_transform(model, np.array([1.0, 2.0, 3.0]))

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

    def test_rate_overrides_and_validation(self):
        examples = generate_synthetic_dataset(
            5000, 6, 7, label_rates={"threat": 0.5}
        )
        labels = np.array([e.labels for e in examples])
        assert labels[:, CATEGORIES.index("threat")].mean() == pytest.approx(0.5, abs=0.03)
        with pytest.raises(ValueError):
            generate_synthetic_dataset(10, 6, 7, label_rates={"spam": 0.1})
        with pytest.raises(ValueError):
            generate_synthetic_dataset(10, 3, 7)

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
            assert row["eta"] == series.eta[i]
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
        run, series = self.make_run()
        path = tmp_path / "slim.jsonl"
        write_run(path, run, series, run_metadata(run), include_contexts=False)
        metadata, rows = read_run(path)
        assert metadata["contexts_included"] is False
        assert all(row["contexts"] is None for row in rows)

    def test_runs_without_records_are_refused(self, tmp_path):
        lean = run_single(self.make_run()[0].config, 0, keep_records=False)
        for include_contexts in (True, False):
            with pytest.raises(ValueError, match="keep_records"):
                write_run(
                    tmp_path / "x.jsonl", lean, build_series(lean), {},
                    include_contexts=include_contexts,
                )

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
