"""Command-line interface: every subcommand end to end."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli, obs
from repro.cli import build_parser, main
from repro.traces import deterministic_trace, write_crawdad


@pytest.fixture
def trace_file(tmp_path):
    p = tmp_path / "trace.dat"
    write_crawdad(deterministic_trace(), p)
    return str(p)


@pytest.fixture(autouse=True)
def _clean_global_ledger():
    obs.disable_ledger()
    yield
    obs.disable_ledger()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("generate", "stats", "schedule", "simulate",
                    "protosim", "experiment", "bench", "report"):
            args = {
                "generate": [cmd, "x.dat"],
                "stats": [cmd, "x.dat"],
                "schedule": [cmd, "x.dat"],
                "simulate": [cmd, "x.dat"],
                "protosim": [cmd, "x.dat"],
                "experiment": [cmd, "fig4"],
                "bench": [cmd],
                "report": [cmd, "run.ndjson"],
            }[cmd]
            assert parser.parse_args(args).command == cmd

    def test_logging_flags_accepted_by_every_command(self):
        parser = build_parser()
        args = parser.parse_args(["schedule", "x.dat", "-v"])
        assert args.verbose
        args = parser.parse_args(["simulate", "x.dat", "--log-level", "debug"])
        assert args.log_level == "debug"


class TestCommands:
    def test_generate_and_stats(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["generate", str(out), "--nodes", "6", "--horizon", "2000",
                     "--seed", "3"]) == 0
        assert out.exists()
        assert main(["stats", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "num_nodes" in captured and "6" in captured

    def test_schedule(self, trace_file, capsys):
        rc = main(["schedule", trace_file, "--delay", "100", "--source", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "feasible: True" in out
        assert "normalized energy" in out

    def test_schedule_auto_source(self, trace_file, capsys):
        assert main(["schedule", trace_file, "--delay", "100"]) == 0

    def test_schedule_infeasible_errors(self, trace_file, capsys):
        rc = main(["schedule", trace_file, "--delay", "5"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_simulate(self, trace_file, capsys):
        rc = main([
            "simulate", trace_file, "--algorithm", "fr-eedcb",
            "--delay", "100", "--source", "0", "--trials", "50",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delivery" in out

    def test_simulate_static(self, trace_file, capsys):
        rc = main([
            "simulate", trace_file, "--algorithm", "greed",
            "--delay", "100", "--source", "0", "--trials", "10",
        ])
        assert rc == 0

    @pytest.mark.parametrize("trials", ["0", "-3"])
    @pytest.mark.parametrize("engine", [[], ["--protocol"]])
    def test_simulate_rejects_no_trials(self, trace_file, capsys, trials,
                                        engine):
        rc = main([
            "simulate", trace_file, "--algorithm", "fr-greed",
            "--delay", "100", "--source", "0", f"--trials={trials}", *engine,
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error: num_trials must be at least 1" in captured.err
        assert "delivery" not in captured.out

    def test_simulate_protocol(self, trace_file, capsys):
        rc = main([
            "simulate", trace_file, "--algorithm", "fr-eedcb",
            "--delay", "100", "--source", "0", "--trials", "20",
            "--protocol",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delivery" in out
        assert "data sent" in out

    def test_protosim(self, trace_file, capsys):
        rc = main([
            "protosim", trace_file, "--algorithm", "fr-eedcb",
            "--delay", "100", "--source", "0", "--trials", "20",
            "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "delivery" in out
        assert "retransmission" in out

    def test_protosim_check_parity(self, trace_file, capsys):
        rc = main([
            "protosim", trace_file, "--algorithm", "eedcb",
            "--channel", "static", "--delay", "100", "--source", "0",
            "--trials", "5", "--parity", "--check-parity",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ok (informed=" in out

    def test_protosim_knobs(self, trace_file, capsys):
        rc = main([
            "protosim", trace_file, "--algorithm", "fr-eedcb",
            "--delay", "100", "--source", "0", "--trials", "10",
            "--max-retries", "1", "--backoff", "2.0", "--no-ack",
            "--queue-capacity", "4", "--clock-jitter", "0.5",
            "--seed", "2", "--workers", "2",
        ])
        assert rc == 0
        assert "delivery" in capsys.readouterr().out

    def test_missing_trace_errors(self, capsys):
        rc = main(["stats", "/nonexistent/trace.dat"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_schedule_ledger_and_manifest_roundtrip(self, trace_file, tmp_path):
        ledger = tmp_path / "run.ndjson"
        manifest = tmp_path / "m.json"
        rc = main(["schedule", trace_file, "--delay", "100", "--source", "0",
                   "--ledger-out", str(ledger), "--manifest-out", str(manifest)])
        assert rc == 0
        events = obs.read_ledger_ndjson(ledger)
        assert events[0].type == obs.EV_MANIFEST
        assert events[0].fields["config_hash"]
        types = {e.type for e in events}
        assert obs.EV_TRANSMISSION_SCHEDULED in types
        assert obs.EV_NODE_INFORMED in types
        assert obs.EV_RUN_SUMMARY in types
        m = obs.read_manifest(manifest)
        assert m["config_hash"] == events[0].fields["config_hash"]
        # The CLI tears the global ledger down afterwards.
        assert not obs.ledger_enabled()

    def test_schedule_trace_and_metrics_roundtrip(self, trace_file, tmp_path):
        trace_out = tmp_path / "trace.jsonl"
        metrics_out = tmp_path / "metrics.json"
        rc = main(["schedule", trace_file, "--delay", "100", "--source", "0",
                   "--trace-out", str(trace_out),
                   "--metrics-out", str(metrics_out)])
        assert rc == 0
        assert trace_out.exists() and trace_out.read_text().strip()
        metrics = metrics_out.read_text()
        assert metrics.startswith("kind,name,count")  # aggregate CSV
        # the trace's constant distances select the implicit numpy graph
        assert "auxgraph.numpy_build" in metrics

    def test_simulate_ledger_roundtrip(self, trace_file, tmp_path):
        ledger = tmp_path / "sim.ndjson"
        rc = main(["simulate", trace_file, "--algorithm", "greed",
                   "--delay", "100", "--source", "0", "--trials", "5",
                   "--ledger-out", str(ledger)])
        assert rc == 0
        types = [e.type for e in obs.read_ledger_ndjson(ledger)]
        assert types[0] == obs.EV_MANIFEST
        assert obs.EV_ENERGY_DEBITED in types
        assert obs.EV_RUN_SUMMARY in types

    def test_experiment_writes_manifest_into_csv_dir(self, tmp_path, capsys):
        rc = main(["experiment", "fig5", "--repetitions", "1", "--trials", "5",
                   "--nodes", "8", "--seed", "1", "--csv-dir", str(tmp_path)])
        assert rc == 0
        manifest = obs.read_manifest(tmp_path / "manifest.json")
        assert manifest["config_hash"]
        assert manifest["config"]["figure"] == "fig5"

    def test_verbose_streams_events(self, trace_file, capsys):
        rc = main(["schedule", trace_file, "--delay", "100", "--source", "0",
                   "-v"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "transmission_scheduled" in err
        assert "run_summary" in err

    def test_default_run_is_silent(self, trace_file, capsys):
        rc = main(["schedule", trace_file, "--delay", "100", "--source", "0"])
        assert rc == 0
        assert capsys.readouterr().err == ""


class TestReportCommand:
    def test_schedule_then_report(self, trace_file, tmp_path, capsys):
        ledger = tmp_path / "run.ndjson"
        out = tmp_path / "report.html"
        assert main(["schedule", trace_file, "--delay", "100", "--source", "0",
                     "--ledger-out", str(ledger)]) == 0
        assert main(["report", str(ledger), "-o", str(out)]) == 0
        doc = out.read_text()
        assert doc.startswith("<!doctype html>")
        assert "<svg" in doc and "config_hash" in doc
        assert "Per-node energy" in doc

    def test_report_missing_ledger_errors(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "missing.ndjson")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestBenchCommand:
    BENCH = ["bench", "--quick", "--nodes", "8", "--repeats", "1"]

    def test_bench_writes_doc_and_skips_gate_without_baseline(
        self, tmp_path, capsys
    ):
        out = tmp_path / "bench.json"
        rc = main([*self.BENCH, "--out", str(out),
                   "--baseline", str(tmp_path / "none.json")])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.bench/1"
        assert doc["quick"] is True
        assert "eedcb_run" in doc["results"]
        assert doc["results"]["eedcb_run"]["min_ms"] > 0
        # each op carries the calibration measured right before it
        assert all(r["calibration_ms"] > 0 for r in doc["results"].values())
        assert doc["overhead"]["estimated_fraction_of_eedcb"] < 0.01
        captured = capsys.readouterr()
        assert "gate skipped" in captured.out + captured.err

    def test_bench_gate_pass_and_fail(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        out = tmp_path / "bench.json"
        assert main([*self.BENCH, "--out", str(out),
                     "--baseline", str(baseline), "--write-baseline"]) == 0
        assert baseline.exists()
        # Generous tolerance: same-process reruns only jitter a little.
        assert main([*self.BENCH, "--out", str(out),
                     "--baseline", str(baseline), "--tolerance", "30"]) == 0
        # Doctor the baseline so every op looks like a huge regression.
        doc = json.loads(baseline.read_text())
        for entry in doc["results"].values():
            entry["min_ms"] = 1e-6
            entry["p50_ms"] = 1e-6
        baseline.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main([*self.BENCH, "--out", str(out), "--baseline", str(baseline)])
        assert rc == 3
        assert "REGRESSION" in capsys.readouterr().err


class TestExperimentCommand:
    def test_fig5_tiny(self, capsys):
        rc = main([
            "experiment", "fig5", "--repetitions", "1", "--trials", "10",
            "--nodes", "8", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "EEDCB" in out and "FR-EEDCB" in out


class TestServeBootFailures:
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_timeout_is_a_usage_error_before_any_shard(self, value,
                                                           capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--synthetic", "8", "--shards", "1",
                  f"--timeout={value}"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--workers", "-5", "invalid worker count -5"),
        ("--max-queue", "-1", "max_queue must be >= 0, got -1"),
        ("--cache-capacity", "-1", "cache capacity must be >= 1, got -1"),
        ("--max-inflight", "0", "max_inflight must be >= 1, got 0"),
    ])
    def test_bad_size_is_a_usage_error_before_any_trace_loads(
        self, flag, value, message, capsys, monkeypatch
    ):
        """Each size runs the service's own check as its argparse type,
        so a bad one exits 2 naming it instead of a traceback after
        boot."""
        def no_trace(*args, **kwargs):
            raise AssertionError("loaded a trace before checking the flags")

        monkeypatch.setattr(cli, "haggle_like_trace", no_trace)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--synthetic", "4", "--port", "0", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {message}" in err

    def test_taken_port_exits_and_leaves_no_worker(self):
        """A shard pool whose front-end cannot bind is drained: the
        command fails with ``error:`` and no process of its session
        outlives it (the shard worker ignores SIGTERM)."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--synthetic", "12",
                 "--shards", "1", "--host", "127.0.0.1",
                 "--port", str(port)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": src},
                start_new_session=True,
            )
            try:
                _, err = proc.communicate(timeout=30)
                assert proc.returncode != 0
                assert "error:" in err
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    try:
                        os.killpg(proc.pid, 0)
                    except ProcessLookupError:
                        break
                    time.sleep(0.05)
                with pytest.raises(ProcessLookupError):
                    os.killpg(proc.pid, 0)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
