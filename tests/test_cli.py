"""Tests for the command-line interface (python -m repro ...)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ParameterError
from repro.graph import generators
from repro.graph.io import read_edge_list, write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    graph = generators.union_of_random_forests(128, arboricity=3, seed=5)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path, graph


class TestGenerate:
    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "forest", "32", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "# vertices 32" in out
        assert len(out.strip().splitlines()) == 32  # header + 31 edges

    def test_generate_to_file_roundtrips(self, tmp_path):
        path = tmp_path / "gen.txt"
        assert main(["generate", "union_forests", "64", "--seed", "2", "--output", str(path)]) == 0
        graph = read_edge_list(path)
        assert graph.num_vertices == 64


class TestOrient:
    def test_orient_prints_every_edge(self, graph_file, capsys):
        path, graph = graph_file
        assert main(["orient", str(path), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == graph.num_edges
        assert "->" in out

    def test_orient_summary_on_stderr(self, graph_file, capsys):
        path, _graph = graph_file
        assert main(["orient", str(path)]) == 0
        err = capsys.readouterr().err
        assert "max outdegree" in err

    def test_orient_to_file(self, graph_file, tmp_path):
        path, graph = graph_file
        out_path = tmp_path / "orientation.txt"
        assert main(["orient", str(path), "--quiet", "--output", str(out_path)]) == 0
        assert len(out_path.read_text().strip().splitlines()) == graph.num_edges


class TestColor:
    def test_color_outputs_one_line_per_vertex(self, graph_file, capsys):
        path, graph = graph_file
        assert main(["color", str(path), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == graph.num_vertices

    def test_colors_are_proper(self, graph_file, capsys):
        path, graph = graph_file
        assert main(["color", str(path), "--quiet"]) == 0
        out = capsys.readouterr().out
        colors = {}
        for line in out.strip().splitlines():
            vertex, value = line.split()
            colors[int(vertex)] = int(value)
        assert all(colors[u] != colors[v] for (u, v) in graph.edges)


class TestLayersAndCoreness:
    def test_layers_command(self, graph_file, capsys):
        path, graph = graph_file
        assert main(["layers", str(path), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == graph.num_vertices

    def test_layers_with_explicit_k(self, graph_file, capsys):
        path, _graph = graph_file
        assert main(["layers", str(path), "--k", "8"]) == 0
        err = capsys.readouterr().err
        assert "k=8" in err

    def test_layers_rejects_a_nan_delta(self, graph_file):
        path, _graph = graph_file
        with pytest.raises(ParameterError, match="delta must be a positive finite number"):
            main(["layers", str(path), "--delta", "nan"])

    def test_coreness_command(self, graph_file, capsys):
        path, graph = graph_file
        assert main(["coreness", str(path), "--exact"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == graph.num_vertices
        assert "ratio" in captured.err


class TestWorkersAndStream:
    def test_orient_accepts_workers(self, graph_file, capsys):
        path, graph = graph_file
        assert main(["orient", str(path), "--quiet", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == graph.num_edges

    def test_orient_workers_do_not_change_the_output(self, graph_file, capsys):
        path, _graph = graph_file
        assert main(["orient", str(path), "--quiet"]) == 0
        serial = capsys.readouterr().out
        assert main(["orient", str(path), "--quiet", "--workers", "4"]) == 0
        assert capsys.readouterr().out == serial

    def test_stream_prints_one_row_per_batch(self, capsys):
        assert main([
            "stream", "uniform_churn", "96", "--batches", "3",
            "--batch-size", "40", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# batch")
        assert len(out.strip().splitlines()) == 4  # header + 3 batch rows

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "uniform_churn", "96", "--workers", "2"],
            ["stream-multi", "--smoke", "--workers", "2"],
        ],
        ids=["stream", "stream-multi"],
    )
    def test_streaming_commands_have_no_workers_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_color_workers_do_not_change_the_output(self, graph_file, capsys):
        path, _graph = graph_file
        assert main(["color", str(path), "--quiet"]) == 0
        serial = capsys.readouterr().out
        assert main(["color", str(path), "--quiet", "--workers", "4"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize(
        "argv",
        [
            ["orient", "--workers", "0"],
            ["color", "--workers", "-5"],
            ["experiment", "E1", "--workers", "0"],
            ["orient", "--workers", "two"],
        ],
        ids=["orient-0", "color-negative", "experiment-0", "orient-not-an-int"],
    )
    def test_nonpositive_workers_is_a_parser_error(self, graph_file, argv, capsys):
        """Regression: ``--workers 0`` used to run a small-λ graph silently."""
        path, _graph = graph_file
        if argv[0] != "experiment":
            argv = [argv[0], str(path), *argv[1:]]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--quiet"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestStreamMulti:
    def test_stream_multi_prints_one_row_per_tick(self, capsys):
        assert main([
            "stream-multi", "96", "--tenants", "3", "--batches", "3",
            "--batch-size", "40", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# tick")
        assert len(out.strip().splitlines()) == 4  # header + 3 tick rows

    def test_stream_multi_summary_reports_the_round_fold(self, capsys):
        assert main([
            "stream-multi", "96", "--tenants", "2", "--batches", "2",
            "--batch-size", "30",
        ]) == 0
        err = capsys.readouterr().err
        assert "max-over-tenants" in err
        assert "policy: serve-all, round budget: unbounded" in err
        assert "uniform_churn-t0" in err
        assert "sliding_window-t1" in err

    def test_stream_multi_budgeted_policy_defers_tenants(self, capsys):
        assert main([
            "stream-multi", "96", "--tenants", "3", "--batches", "2",
            "--batch-size", "30", "--policy", "top-k-backlog", "--topk", "1",
            "--round-budget", "8",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("# tick served deferred backlog")
        assert "policy: top-k-backlog, round budget: 8" in captured.err
        # K=1 under a tight budget must defer somebody and stretch the drain.
        rows = captured.out.strip().splitlines()[1:]
        assert len(rows) > 2
        assert any(int(row.split()[2]) > 0 for row in rows)

    def test_stream_multi_quota_flag_caps_every_tenant(self, capsys):
        from repro.errors import QuotaExceededError

        with pytest.raises(QuotaExceededError):
            main([
                "stream-multi", "96", "--tenants", "2", "--batches", "2",
                "--batch-size", "30", "--quota", "10", "--quiet",
            ])

    def test_stream_multi_checkpoint_then_restore_pins_the_fingerprint(
        self, tmp_path, capsys
    ):
        """The crash-recovery smoke: snapshot a drained fleet, restore it in
        a fresh engine, and require the identical fingerprint digest."""
        ckdir = str(tmp_path / "ck")
        assert main([
            "stream-multi", "--smoke", "--checkpoint-dir", ckdir,
            "--output", str(tmp_path / "t1.txt"),
        ]) == 0
        first = capsys.readouterr().err
        assert (tmp_path / "ck" / "checkpoint.json").exists()
        assert main([
            "stream-multi", "--smoke", "--restore", "--checkpoint-dir", ckdir,
            "--output", str(tmp_path / "t2.txt"),
        ]) == 0
        second = capsys.readouterr().err
        def digest(err):
            for line in err.splitlines():
                if "fingerprint" in line:
                    return line.rsplit(" ", 1)[-1]
            raise AssertionError(f"no fingerprint line in {err!r}")
        assert digest(first) == digest(second)
        assert "restored from" in second

    def test_stream_multi_restore_requires_a_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(["stream-multi", "--smoke", "--restore"])


class TestTraceFlag:
    def test_stream_multi_smoke_trace_writes_a_perfetto_payload(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        assert main([
            "stream-multi", "--smoke", "--quiet", "--trace", str(trace_path),
            "--output", str(tmp_path / "ticks.txt"),
        ]) == 0
        payload = json.loads(trace_path.read_text())
        events = payload["traceEvents"]
        assert events
        assert all(
            key in event for event in events for key in ("name", "ph", "ts", "pid", "tid")
        )
        names = {event["name"] for event in events}
        assert {"tick", "tenant", "batch"} <= names
        assert payload["metrics"]["counters"]["engine.ticks"] > 0

    def test_stream_multi_requires_vertices_unless_smoke(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stream-multi", "--quiet"])

    def test_smoke_preset_yields_to_explicit_flags(self, capsys):
        assert main(["stream-multi", "--smoke", "--tenants", "2", "--batches", "2"]) == 0
        err = capsys.readouterr().err
        assert "tenants: 2 (n=96 each)" in err

    def test_stream_trace_does_not_change_the_batch_rows(self, tmp_path, capsys):
        argv = ["stream", "uniform_churn", "96", "--batches", "2", "--batch-size", "30", "--quiet"]
        assert main(argv) == 0
        untraced = capsys.readouterr().out
        trace_path = tmp_path / "trace.json"
        assert main(argv + ["--trace", str(trace_path)]) == 0
        assert capsys.readouterr().out == untraced
        assert trace_path.exists()

    def test_orient_trace_writes_kernel_spans(self, graph_file, tmp_path, capsys):
        import json

        path, _graph = graph_file
        trace_path = tmp_path / "trace.json"
        assert main(["orient", str(path), "--quiet", "--trace", str(trace_path)]) == 0
        names = {
            event["name"]
            for event in json.loads(trace_path.read_text())["traceEvents"]
        }
        assert any(name.startswith("orient:") for name in names)


class TestReportCommands:
    def test_trace_report_renders_span_and_metrics_tables(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main([
            "stream-multi", "--smoke", "--quiet", "--trace", str(trace_path),
            "--output", str(tmp_path / "ticks.txt"),
        ]) == 0
        assert main(["trace-report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "trace spans" in out
        assert "tick" in out
        assert "engine.ticks" in out

    def test_bench_report_renders_a_trend_table(self, tmp_path, capsys):
        import json

        for stamp, speedup in (("20260101T000000Z", 1.0), ("20260102T000000Z", 3.0)):
            (tmp_path / f"BENCH_demo_{stamp}.json").write_text(
                json.dumps(
                    {
                        "schema": 1,
                        "bench": "demo",
                        "timestamp_utc": stamp,
                        "results": {"speedup": speedup},
                    }
                )
            )
        assert main(["bench-report", str(tmp_path), "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "3.000" in out

    def test_bench_report_fails_on_an_empty_directory(self, tmp_path, capsys):
        assert main(["bench-report", str(tmp_path)]) == 1
        assert "no benchmark snapshots" in capsys.readouterr().err


class TestExperimentCommand:
    def test_experiment_e3_prints_the_table(self, capsys):
        # S2's registry sweep is sized for benchmarks; the CLI path is the
        # same for every id, so exercise the cheapest harness-backed one.
        assert main(["experiment", "E3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "rounds_ours" in out
        assert "union_forests" in out

    def test_experiment_markdown_output(self, tmp_path, capsys):
        out_path = tmp_path / "table.md"
        assert main([
            "experiment", "E3", "--markdown", "--quiet", "--output", str(out_path),
        ]) == 0
        content = out_path.read_text()
        assert content.startswith("### E3")
        assert "| workload |" in content

    def test_experiment_s3_prints_the_table(self, capsys):
        assert main(["experiment", "S3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "round_savings" in out
        assert "multi_tenant" in out

    @pytest.mark.parametrize("experiment_id", ["S1", "S2", "S3", "S4"])
    def test_streaming_experiments_reject_workers(self, experiment_id, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", experiment_id, "--quiet", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "E1/E2/E3 only" in capsys.readouterr().err

    def test_experiment_rejects_unrunnable_ids(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "E4"])

    def test_experiment_trace_covers_the_whole_sweep(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        assert main(["experiment", "E3", "--quiet", "--trace", str(trace_path)]) == 0
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]
        assert payload["metrics"]["counters"]["mpc.rounds"] > 0
