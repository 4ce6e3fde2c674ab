"""Unit tests for the command-line interface."""

import threading

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.plan == "ZDG+ZS+ZM"
        assert args.num_points == 20_000

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_registered_experiment_is_parseable(self):
        for name in EXPERIMENTS:
            args = build_parser().parse_args(["experiment", name])
            assert args.name == name


class TestCommands:
    def test_run_prints_summary(self, capsys):
        code = main(
            ["run", "-n", "400", "-d", "3", "--groups", "4",
             "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skyline" in out
        assert "total_s" in out

    def test_run_exports_trace_and_metrics(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            ["run", "-n", "400", "-d", "3", "--groups", "4",
             "--workers", "2",
             "--trace-out", str(trace), "--metrics-out", str(metrics)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out
        assert f"wrote {metrics}" in out
        from repro.observability import load_trace_jsonl

        names = {row["name"] for row in load_trace_jsonl(str(trace))}
        assert {"run", "preprocess", "phase1", "phase2"} <= names

    def test_supervised_run_exports_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["run", "-n", "400", "-d", "3", "--groups", "4",
             "--workers", "2",
             "--checkpoint-dir", str(tmp_path / "ckpt"),
             "--trace-out", str(trace)]
        )
        assert code == 0
        assert trace.exists()

    def test_run_reports_a_terminal_fault_without_a_traceback(
        self, capsys
    ):
        # Every task fails and no retry is allowed: the run fails the
        # same way with or without the supervisor's options.
        code = main(
            ["run", "-n", "2000", "-d", "4",
             "--faults", "seed=3,task=0.9,attempts=1"]
        )
        assert code == 1
        assert "run failed" in capsys.readouterr().err

    def test_run_gpmrs_plan(self, capsys):
        code = main(
            ["run", "--plan", "MR-GPMRS", "-n", "400", "-d", "3",
             "--groups", "4", "--workers", "2"]
        )
        assert code == 0
        assert "MR-GPMRS" in capsys.readouterr().out

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out
        assert "fig13" in out

    def test_experiment_with_csv_output(self, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
        code = main(
            ["experiment", "pruning", "--csv-dir", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "pruning.csv").exists()
        out = capsys.readouterr().out
        assert "Pruning analysis" in out

    def test_analyze_command(self, capsys):
        code = main(["analyze", "-n", "500", "-d", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended plan" in out
        assert "skyline_fraction" in out

    def test_analyze_csv_input(self, capsys, tmp_path):
        from repro.data.io import save_csv
        from repro.data.synthetic import independent

        path = str(tmp_path / "d.csv")
        save_csv(independent(300, 3, seed=0), path)
        code = main(["analyze", "--csv", path])
        assert code == 0
        assert "recommended plan" in capsys.readouterr().out

    def test_estimate_command(self, capsys):
        code = main(["estimate", "-n", "2000", "-d", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "independence formula" in out
        assert "capture-recapture" in out

    def test_stream_bench_command(self, capsys, tmp_path):
        latency = tmp_path / "latency.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        code = main(
            ["stream-bench", "-n", "300", "-d", "3", "--bits", "8",
             "--records", "400", "--batch-size", "32", "--window", "200",
             "--subscribers", "1", "--slow-subscribers", "1",
             "--readers", "1",
             "--latency-out", str(latency),
             "--metrics-out", str(metrics)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ingest_records_per_s" in out
        assert "replay_sound        : True" in out
        assert latency.exists() and metrics.exists()

    def test_stream_bench_gate_failure_exits_nonzero(self, capsys):
        code = main(
            ["stream-bench", "-n", "200", "-d", "3", "--bits", "8",
             "--records", "100", "--batch-size", "50",
             "--subscribers", "1", "--slow-subscribers", "0",
             "--readers", "0",
             "--min-ingest-per-sec", "1e9"]
        )
        assert code == 1
        assert "GATE FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "0"), ("--subscribers", "0"), ("--window", "-5"),
        ("--records", "-1"),
    ])
    def test_stream_bench_bad_flag_exits_2_without_threads(
        self, capsys, flag, value
    ):
        code = main(
            ["stream-bench", "-n", "200", "-d", "3", "--bits", "8",
             "--records", "100", flag, value]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not [
            t.name for t in threading.enumerate()
            if "consume" in t.name or "read_loop" in t.name
        ]
