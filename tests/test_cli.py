import csv
import json

import pytest

from feedauction import cli, experiment
from feedauction.cli import main
from feedauction.config import ExperimentConfig
from feedauction.dataio import load_examples, read_run


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def small_config(tmp_path, out_dir, **extra):
    entries = {
        "horizon": 200,
        "agents.count": 3,
        "features.dim": 2,
        "mechanism": "feedback",
        "seeds.master": 5,
        "seeds.count": 2,
        "output.dir": out_dir,
    }
    entries.update(extra)
    if entries.get("data.source") == "csv":
        del entries["features.dim"]  # a csv world takes its dimension from the corpus
    lines = [f"{key} = {value}" for key, value in entries.items()]
    return write_config(tmp_path, "\n".join(lines) + "\n")


class TestRunCommand:
    def test_writes_one_ledger_per_seed(self, tmp_path, capsys):
        out_dir = tmp_path / "runs"
        config = small_config(tmp_path, out_dir)
        assert main(["run", "--config", config]) == 0
        captured = capsys.readouterr().out
        assert "final welfare regret" in captured
        assert "worst final agent net utility" in captured
        files = sorted(p.name for p in out_dir.glob("*.jsonl"))
        assert files == ["feedback_seed000.jsonl", "feedback_seed001.jsonl"]
        metadata, rows = read_run(out_dir / "feedback_seed000.jsonl")
        assert metadata["n_rounds"] == 200
        assert len(rows) == 200

    def test_reruns_are_byte_identical(self, tmp_path):
        out_dir = tmp_path / "runs"
        config = small_config(tmp_path, out_dir)
        assert main(["run", "--config", config]) == 0
        first = (out_dir / "feedback_seed000.jsonl").read_bytes()
        assert main(["run", "--config", config]) == 0
        assert (out_dir / "feedback_seed000.jsonl").read_bytes() == first

    def test_cli_overrides(self, tmp_path):
        out_dir = tmp_path / "runs"
        other_dir = tmp_path / "elsewhere"
        config = small_config(tmp_path, out_dir)
        assert main(
            ["run", "--config", config, "--output-dir", str(other_dir), "--seeds", "1"]
        ) == 0
        assert not out_dir.exists()
        assert sorted(p.name for p in other_dir.glob("*.jsonl")) == [
            "feedback_seed000.jsonl"
        ]

    def test_skip_contexts_slims_the_ledger(self, tmp_path):
        out_dir = tmp_path / "runs"
        config = small_config(tmp_path, out_dir)
        assert main(["run", "--config", config, "--seeds", "1", "--skip-contexts"]) == 0
        metadata, rows = read_run(out_dir / "feedback_seed000.jsonl")
        assert metadata["contexts_included"] is False
        assert all(row["contexts"] is None for row in rows)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "mechanism = vcg\n")
        assert main(["run", "--config", config]) == 2
        assert capsys.readouterr().err.startswith("error [config]")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("data.source = csv\ndata.path = corpus.csv\nfeatures.dim = 3\n", "features.dim"),
            ("horizon = 50\ndata.pca_components = 4\n", "data.pca_components"),
        ],
    )
    def test_a_key_the_world_ignores_exits_2(self, tmp_path, capsys, text, key):
        out_dir = tmp_path / "runs"
        config = write_config(tmp_path, text)
        assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error [config]") and key in error
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    def test_a_training_policy_key_exits_2(self, tmp_path, capsys, command):
        # training.policy is no longer a config key, so a file that names it
        # is refused like any unknown key.
        out_dir = tmp_path / "runs"
        config = small_config(tmp_path, out_dir, **{"training.policy": "exploration_only"})
        assert main([command, "--config", config]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error [config]")
        assert "unknown config keys: training.policy" in error
        assert not out_dir.exists()

    def test_missing_config_file_exits_4(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 4
        assert capsys.readouterr().err.startswith("error [io]")


class TestGenDataAndCsvRuns:
    def test_gen_data_writes_loadable_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus.csv"
        assert main(
            ["gen-data", "--out", str(out), "--examples", "300", "--features", "8", "--seed", "3"]
        ) == 0
        assert "300 examples" in capsys.readouterr().out
        examples = load_examples(out)
        assert len(examples) == 300
        assert examples[0].features.shape == (8,)

    def test_run_on_csv_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.csv"
        main(["gen-data", "--out", str(corpus), "--examples", "200", "--features", "8", "--seed", "3"])
        out_dir = tmp_path / "runs"
        config = small_config(
            tmp_path,
            out_dir,
            **{
                "agents.count": 6,
                "data.source": "csv",
                "data.path": str(corpus),
                "data.pca_components": 4,
                "seeds.count": 1,
            },
        )
        assert main(["run", "--config", config]) == 0
        metadata, _ = read_run(out_dir / "feedback_seed000.jsonl")
        assert metadata["feature_scaling"]["pca_components"] == 4

    def test_malformed_corpus_exits_3(self, tmp_path, capsys):
        corpus = tmp_path / "bad.csv"
        corpus.write_text("id,f0,not_a_label\nx,1.0,0\n")
        out_dir = tmp_path / "runs"
        config = small_config(
            tmp_path,
            out_dir,
            **{"data.source": "csv", "data.path": str(corpus)},
        )
        assert main(["run", "--config", config]) == 3
        assert capsys.readouterr().err.startswith("error [data]")

    def test_undecodable_corpus_exits_3(self, tmp_path, capsys):
        corpus = tmp_path / "binary.csv"
        corpus.write_bytes(b"id,f0\n\xff\xfe,1\n")
        config = small_config(
            tmp_path,
            tmp_path / "runs",
            **{"data.source": "csv", "data.path": str(corpus)},
        )
        assert main(["run", "--config", config]) == 3
        assert capsys.readouterr().err.startswith("error [data]")

    @pytest.mark.parametrize(
        "out_name, reason",
        [
            ("missing/corpus.csv", "{parent} is not a writable directory"),
            ("a_file/corpus.csv", "{parent} is not a writable directory"),
            ("a_directory", "it is a directory"),
        ],
        ids=["missing", "a_file", "a_directory"],
    )
    def test_unwritable_gen_data_out_exits_4_before_generating(
        self, tmp_path, capsys, monkeypatch, out_name, reason
    ):
        # A bad path fails before the corpus is generated, not after.
        generated = []
        monkeypatch.setattr(cli, "generate_synthetic_dataset", lambda *args: generated.append(args))
        (tmp_path / "a_file").write_text("")
        (tmp_path / "a_directory").mkdir()
        out = tmp_path / out_name
        argv = ["gen-data", "--out", str(out), "--examples", "200000", "--features", "60"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        reason = reason.format(parent=out.parent)
        assert captured.err == f"error [io] cannot write {out}: {reason}\n"
        assert captured.out == "" and generated == []

    @pytest.mark.parametrize(
        "argv",
        [["--examples", "0"], ["--features", "5"], ["--seed", "-1"]],
        ids=["examples", "features", "seed"],
    )
    def test_out_of_range_gen_data_arguments_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "corpus.csv"
        assert main(["gen-data", "--out", str(out), *argv]) == 2
        assert capsys.readouterr().err.startswith("error [config]")
        assert not out.exists()

    def test_more_components_than_corpus_features_exits_3(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.csv"
        main(["gen-data", "--out", str(corpus), "--examples", "50", "--features", "8"])
        config = small_config(
            tmp_path,
            tmp_path / "runs",
            **{"data.source": "csv", "data.path": str(corpus), "data.pca_components": 9},
        )
        assert main(["run", "--config", config]) == 3
        assert capsys.readouterr().err == (
            f"error [data] {corpus}: PCA to 9 components: n_components must be in [1, 8], got 9\n"
        )

    @pytest.fixture(scope="class")
    def unconverging_corpus(self, tmp_path_factory):
        # Power iteration to 30 components stalls at component 13 on this corpus.
        corpus = tmp_path_factory.mktemp("corpus") / "seed3.csv"
        assert main(["gen-data", "--out", str(corpus), "--seed", "3"]) == 0
        return corpus

    @pytest.mark.parametrize(
        "command",
        [["run"], ["paired-deviation", "--agent", "0", "--strategy", "always_high"]],
        ids=["run", "paired-deviation"],
    )
    def test_pca_failure_names_the_corpus_and_exits_3(
        self, tmp_path, capsys, unconverging_corpus, command
    ):
        config = small_config(
            tmp_path,
            tmp_path / "runs",
            **{
                "data.source": "csv",
                "data.path": str(unconverging_corpus),
                "data.pca_components": 30,
            },
        )
        assert main([command[0], "--config", config, *command[1:]]) == 3
        assert capsys.readouterr().err.startswith(
            f"error [data] {unconverging_corpus}: PCA to 30 components: "
            "component 13 did not converge within 10000 iterations (residual "
        )


class TestPairedDeviationCommand:
    def test_prints_profit_summary_and_csv(self, tmp_path, capsys):
        config = small_config(tmp_path, tmp_path / "runs")
        out = tmp_path / "profits.csv"
        assert main(
            [
                "paired-deviation",
                "--config", config,
                "--agent", "1",
                "--strategy", "always_high",
                "--out", str(out),
            ]
        ) == 0
        captured = capsys.readouterr().out
        assert "mean profit:" in captured
        assert "profit bound (6 x cumulative estimate error):" in captured
        assert "last-quartile per-round profit:" in captured
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert [row["seed"] for row in rows] == ["0", "1"]
        for row in rows:
            float(row["profit"])  # parses

    def test_bad_strategy_exits_2(self, tmp_path, capsys):
        config = small_config(tmp_path, tmp_path / "runs")
        assert main(
            ["paired-deviation", "--config", config, "--agent", "0", "--strategy", "bluff"]
        ) == 2
        assert capsys.readouterr().err.startswith("error [config]")

    @pytest.mark.parametrize("mechanism", ["uniform", "oracle"])
    def test_mechanism_without_estimates_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, mechanism
    ):
        def no_runs(*args, **kwargs):
            raise AssertionError("a seed ran before the config was rejected")

        monkeypatch.setattr(cli, "paired_deviation_runs", no_runs)
        config = small_config(tmp_path, tmp_path / "runs", mechanism=mechanism)
        assert main(
            ["paired-deviation", "--config", config, "--agent", "0", "--strategy", "always_high"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error [config]")
        assert mechanism in captured.err
        assert captured.out == ""

    def test_unwritable_out_exits_4_before_any_run(self, tmp_path, capsys, monkeypatch):
        # A bad path fails before the sweep, not after every seed has run and printed.
        played, run_single = [], experiment.run_single

        def counted_run(*args, **kwargs):
            played.append(args)
            return run_single(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_single", counted_run)
        config = small_config(tmp_path, tmp_path / "runs")
        out = tmp_path / "missing" / "profits.csv"
        assert main(
            ["paired-deviation", "--config", config, "--agent", "0", "--strategy", "always_high",
             "--out", str(out)]
        ) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error [io]")
        assert captured.out == "" and played == []


class TestReportCommand:
    @staticmethod
    def run_mechanisms(tmp_path, mechanisms, **extra):
        out_dir = tmp_path / "runs"
        files = []
        for mechanism in mechanisms:
            config = small_config(
                tmp_path, out_dir, mechanism=mechanism, **extra
            )
            assert main(["run", "--config", config]) == 0
            files += [str(p) for p in sorted(out_dir.glob(f"{mechanism}_seed*.jsonl"))]
        return files

    def test_aggregates_into_csvs(self, tmp_path, capsys):
        files = self.run_mechanisms(tmp_path, ["feedback", "uniform"])
        report_dir = tmp_path / "report"
        assert main(["report", *files, "--out", str(report_dir)]) == 0
        captured = capsys.readouterr().out
        assert "feedback" in captured and "uniform" in captured
        regret = report_dir / "regret_feedback.csv"
        histogram = report_dir / "histogram_feedback.csv"
        assert regret.exists() and histogram.exists()
        assert (report_dir / "regret_uniform.csv").exists()
        with regret.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 200
        assert rows[0]["t"] == "1"
        with histogram.open() as handle:
            rows = list(csv.DictReader(handle))
        assert [row["agent"] for row in rows] == ["0", "1", "2"]

    def test_unwritable_out_exits_4_before_any_ledger_is_parsed(
        self, tmp_path, capsys, monkeypatch
    ):
        files = self.run_mechanisms(tmp_path, ["feedback"])
        parsed = []
        monkeypatch.setattr(cli, "read_run", lambda path: parsed.append(path))
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        assert main(["report", *files, "--out", str(blocker / "report")]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error [io]")
        assert parsed == []

    def test_mixed_configs_rejected_unless_forced(self, tmp_path, capsys):
        files_a = self.run_mechanisms(tmp_path, ["feedback"])
        files_b = self.run_mechanisms(tmp_path, ["uniform"], horizon=100)
        report_dir = tmp_path / "report"
        assert main(["report", *files_a, *files_b, "--out", str(report_dir)]) == 2
        assert "incompatible" in capsys.readouterr().err
        assert main(
            ["report", *files_a, *files_b, "--out", str(report_dir), "--allow-mixed"]
        ) == 0

    def test_seed_variation_is_compatible(self, tmp_path):
        out_dir = tmp_path / "runs_a"
        config_a = small_config(tmp_path, out_dir)
        assert main(["run", "--config", config_a, "--master-seed", "9"]) == 0
        files = [str(p) for p in sorted(out_dir.glob("*.jsonl"))]
        config_b = small_config(tmp_path, tmp_path / "runs_b")
        # Same knobs except master seed and output dir: still comparable.
        assert main(["run", "--config", config_b]) == 0
        files += [str(p) for p in sorted((tmp_path / "runs_b").glob("*.jsonl"))]
        assert main(["report", *files, "--out", str(tmp_path / "rep")]) == 0

    @pytest.mark.parametrize(
        "lines, missing",
        [
            ([{"schema": "feedauction.run.v1", "n_rounds": 0}], "config"),
            (
                [
                    {
                        "schema": "feedauction.run.v1",
                        "n_rounds": 1,
                        "config": {"mechanism": "feedback", "agents.count": 3},
                    },
                    {"t": 1},
                ],
                "allocated_agent",
            ),
        ],
        ids=["metadata", "row"],
    )
    def test_ledger_missing_a_key_exits_3(self, tmp_path, capsys, lines, missing):
        ledger = tmp_path / "partial.jsonl"
        ledger.write_text("".join(json.dumps(line) + "\n" for line in lines))
        report_dir = tmp_path / "report"
        assert main(["report", str(ledger), "--out", str(report_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error [data]")
        assert str(ledger) in err and repr(missing) in err
        assert not report_dir.exists()

    @pytest.mark.parametrize("first_line", ["[1]", '"x"', "3", "null"])
    def test_metadata_that_is_not_an_object_exits_3(self, tmp_path, capsys, first_line):
        # Valid JSON that is not an object used to end in an AttributeError traceback.
        ledger = tmp_path / "not_an_object.jsonl"
        ledger.write_text(first_line + "\n")
        report_dir = tmp_path / "report"
        assert main(["report", str(ledger), "--out", str(report_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error [data]")
        assert f"{ledger}: line 1" in err
        assert not report_dir.exists()

    def test_bad_json_names_the_file_line(self, tmp_path, capsys):
        # A decode error used to be placed inside the line's own text ("line 1
        # column 2") whatever line of the file held it.
        ledger = tmp_path / "bad_row.jsonl"
        meta = {"schema": "feedauction.run.v1", "n_rounds": 2}
        ledger.write_text(json.dumps(meta) + "\n" + json.dumps({"t": 1}) + "\n{bad\n")
        report_dir = tmp_path / "report"
        assert main(["report", str(ledger), "--out", str(report_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error [data]")
        assert f"{ledger}: line 3: bad JSON" in err
        assert "line 1" not in err
        assert not report_dir.exists()

    @staticmethod
    def report_on_second_row(tmp_path, **row):
        # A two-round ledger whose second row takes ``row``'s values.
        second = {"t": 2, "allocated_agent": 1, "welfare_regret_increment": 0.1,
                  "revenue_regret_increment": 0.0}
        second.update(row)
        lines = [
            {
                "schema": "feedauction.run.v1",
                "n_rounds": 2,
                "config": {"mechanism": "feedback", "agents.count": 3},
            },
            {"t": 1, "allocated_agent": 0, "welfare_regret_increment": 0.0,
             "revenue_regret_increment": 0.0},
            second,
        ]
        ledger = tmp_path / "bad_value.jsonl"
        ledger.write_text("".join(json.dumps(line) + "\n" for line in lines))
        report_dir = tmp_path / "report"
        code = main(["report", str(ledger), "--out", str(report_dir)])
        assert not report_dir.exists()
        return code, str(ledger)

    @pytest.mark.parametrize(
        "winner",
        [-1, 3, 1.5, "2", True],
        ids=["negative", "agents.count", "float", "string", "bool"],
    )
    def test_winner_outside_the_population_exits_3(self, tmp_path, capsys, winner):
        # -1 used to end in an np.bincount traceback, and agents.count used to
        # widen the welfare-loss histogram by a phantom agent; 1.5, "2" and
        # true used to be cast to agents 1, 2 and 1 with exit 0.
        code, ledger = self.report_on_second_row(tmp_path, allocated_agent=winner)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error [data]")
        assert ledger in err and f"round 2 allocates agent {winner!r}" in err

    @pytest.mark.parametrize(
        "column, value",
        [
            ("welfare_regret_increment", float("nan")),
            ("revenue_regret_increment", float("inf")),
            ("welfare_regret_increment", "0.1"),
            ("revenue_regret_increment", False),
            ("welfare_regret_increment", None),
        ],
    )
    def test_non_finite_increment_exits_3(self, tmp_path, capsys, column, value):
        # These used to be averaged into nan and inf CSV rows, or cast to
        # numbers, with exit 0.
        code, ledger = self.report_on_second_row(tmp_path, **{column: value})
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error [data]")
        assert ledger in err and f"round 2 has {column} {value!r}" in err

    def test_mixed_agent_counts_exit_2_even_when_forced(self, tmp_path, capsys):
        # The per-agent histograms of 3 and 4 agents used to end in a ragged
        # array ValueError and a traceback.
        files = self.run_mechanisms(tmp_path, ["uniform"])
        out_dir = tmp_path / "runs4"
        config = small_config(tmp_path, out_dir, mechanism="uniform", **{"agents.count": 4})
        assert main(["run", "--config", config]) == 0
        files += [str(p) for p in sorted(out_dir.glob("*.jsonl"))]
        report_dir = tmp_path / "report"
        assert main(["report", *files, "--out", str(report_dir), "--allow-mixed"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [config]") and "agents.count (3, 4)" in err
        assert not report_dir.exists()


class TestErrorCategories:
    @pytest.mark.parametrize("mechanism", ["feedback", "direct_regression", "uniform", "oracle"])
    def test_bad_price_distribution_exits_2_for_every_mechanism(self, tmp_path, capsys, mechanism):
        config = small_config(
            tmp_path,
            tmp_path / "runs",
            mechanism=mechanism,
            **{"exploration.price_distribution": "bogus"},
        )
        assert main(["validate-config", "--config", config]) == 2
        assert main(["run", "--config", config]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("error [config]") for line in err)
        assert all("exploration.price_distribution" in line for line in err)
        assert not (tmp_path / "runs").exists()

    def test_program_faults_are_not_reported_as_data_errors(self, tmp_path, monkeypatch):
        def broken_run(*args, **kwargs):
            raise ValueError("shape mismatch inside the program")

        monkeypatch.setattr(cli, "run_single", broken_run)
        config = small_config(tmp_path, tmp_path / "runs")
        with pytest.raises(ValueError, match="inside the program"):
            main(["run", "--config", config])


class TestValidateConfigCommand:
    def test_echoes_effective_parameters(self, tmp_path, capsys):
        config = small_config(tmp_path, tmp_path / "runs")
        assert main(["validate-config", "--config", config]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ok"
        assert "horizon = 200" in lines
        assert "schedule.kind = slow" in lines  # defaulted, still echoed
        assert len(lines) == 19  # "ok" + every parameter a synthetic world reads
        assert not any(line.startswith("data.p") for line in lines)

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_the_echo_loads_back_as_the_same_config(self, tmp_path, capsys, source):
        # A synthetic config used to echo data.path and data.pca_components,
        # which a synthetic config file may not set.
        extra = {"data.source": "csv", "data.path": "corpus.csv"} if source == "csv" else {}
        config = small_config(tmp_path, tmp_path / "runs", **extra)
        assert main(["validate-config", "--config", config]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "ok"
        echo = write_config(tmp_path, "\n".join(lines[1:]) + "\n", name="echo.cfg")
        assert ExperimentConfig.from_file(echo) == ExperimentConfig.from_file(config)

    def test_invalid_file_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, "horizon = 0\n")
        assert main(["validate-config", "--config", config]) == 2
        assert capsys.readouterr().err.startswith("error [config]")
