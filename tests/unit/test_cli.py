"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.observability import validate_metrics_document


class TestParser:
    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.command == "experiment"
        assert args.message_bytes == 200
        assert args.semantics == "at_least_once"

    def test_experiment_options(self):
        args = build_parser().parse_args([
            "experiment", "--loss", "0.19", "--delay-ms", "100",
            "--semantics", "at_most_once", "--batch-size", "4",
        ])
        assert args.loss == 0.19
        assert args.delay_ms == 100
        assert args.semantics == "at_most_once"
        assert args.batch_size == 4

    def test_train_options(self):
        args = build_parser().parse_args([
            "train", "--epochs", "10", "--registry", "/tmp/r", "--name", "m",
        ])
        assert args.epochs == 10
        assert args.registry == "/tmp/r"

    def test_dynamic_options(self):
        args = build_parser().parse_args(["dynamic", "--gamma", "0.9"])
        assert args.gamma == 0.9

    def test_experiment_telemetry_flags(self):
        args = build_parser().parse_args([
            "experiment", "--metrics", "--trace-file", "out.jsonl",
        ])
        assert args.metrics is True
        assert args.trace_file == "out.jsonl"

    def test_inspect_requires_a_path(self):
        args = build_parser().parse_args(["inspect", "trace.jsonl"])
        assert args.command == "inspect"
        assert args.trace_file == "trace.jsonl"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inspect"])

    def test_unknown_semantics_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--semantics", "telepathy"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_experiment_command_runs(self, capsys):
        code = main([
            "experiment", "--messages", "200", "--message-bytes", "200",
            "--seed", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "P_l (loss)" in out
        assert "Table I case" in out

    def test_experiment_with_faults(self, capsys):
        code = main([
            "experiment", "--messages", "150", "--loss", "0.2",
            "--delay-ms", "50", "--bursty-loss", "--seed", "5",
        ])
        assert code == 0
        assert "95% CI" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option", [["--timeout-s", "-1"], ["--timeout-s", "nan"], ["--loss", "1.5"]]
    )
    def test_out_of_range_option_is_a_usage_error(self, capsys, option):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "--messages", "10", *option])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("repro: error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--messages", "0"],
            ["train", "--epochs", "0"],
            ["train", "--normal-rows", "-1"],
            ["train", "--abnormal-rows", "-1"],
            ["chaos", "--cap", "0"],
            ["chaos", "--cap", "-5"],
            ["dynamic", "--cap", "0"],
            # Durations are rejected while parsing, before the quick model is trained.
            *(
                ["dynamic", f"{option}={value}"]
                for option in ("--duration", "--interval", "--reconfigure-every")
                for value in ("0", "-1", "nan", "inf", "soon")
            ),
        ],
    )
    def test_count_below_one_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith(f"repro {argv[0]}: error: ")

    @pytest.mark.parametrize("command", ["dynamic", "chaos"])
    @pytest.mark.parametrize("manifest", [None, "{not json"])
    def test_unloadable_registry_model_is_an_error(
        self, capsys, tmp_path, command, manifest
    ):
        # No model of that name (OSError), or one whose manifest does not
        # parse (ValueError): reported before any work starts.
        if manifest is not None:
            (tmp_path / "m").mkdir()
            (tmp_path / "m" / "manifest.json").write_text(manifest)
        code = main([command, "--registry", str(tmp_path), "--name", "m"])
        assert code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.strip().splitlines()[-1].startswith("error: ")
        assert captured.out == ""

    def test_train_command_small(self, capsys, tmp_path):
        code = main([
            "train", "--messages", "150", "--normal-rows", "24",
            "--abnormal-rows", "32", "--epochs", "8",
            "--registry", str(tmp_path), "--name", "tiny",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hold-out MAE" in out
        assert (tmp_path / "tiny" / "manifest.json").exists()


class TestObservabilityCommands:
    ARGS = ["experiment", "--messages", "200", "--loss", "0.1", "--seed", "6"]

    def test_metrics_emits_schema_valid_json(self, capsys):
        code = main(self.ARGS + ["--metrics"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert validate_metrics_document(document) == []
        manifest = document["manifest"]
        # Acceptance: the per-case counts sum to the scenario's messages.
        total = sum(manifest["case_counts"].values()) + manifest["unresolved"]
        assert total == manifest["produced"] == 200
        assert document["metrics"]["producer.ingested"]["value"] == 200

    def test_trace_file_then_inspect_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code = main(self.ARGS + ["--trace-file", str(trace)])
        assert code == 0
        assert trace.exists()
        capsys.readouterr()  # discard the experiment table
        code = main(["inspect", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        assert summary["ok"] is True
        assert summary["violations"] == []
        assert summary["events"] == summary["manifest"]["trace_events"]
        assert "transition" in summary["kinds"]

    def test_inspect_tampered_trace_exits_nonzero(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        main(self.ARGS + ["--trace-file", str(trace)])
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        victim = next(
            i for i, line in enumerate(lines) if '"kind":"transition"' in line
        )
        trace.write_text("\n".join(lines[:victim] + lines[victim + 1 :]) + "\n")
        code = main(["inspect", str(trace)])
        out = capsys.readouterr().out
        assert code == 1
        summary = json.loads(out)
        assert summary["ok"] is False
        assert summary["violations"]

    def test_inspect_missing_file_exits_two(self, capsys, tmp_path):
        code = main(["inspect", str(tmp_path / "absent.jsonl")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
