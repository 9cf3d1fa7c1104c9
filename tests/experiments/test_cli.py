"""Tests for the `python -m repro` command-line interface."""

import json

import pytest

import repro.__main__ as cli
from repro.__main__ import FIGURES, build_parser, main
from repro.obs import read_trace


class TestParser:
    def test_run_requires_workload_and_policy(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run"])

    def test_valid_run_args(self):
        args = build_parser().parse_args(
            ["--preset", "tiny", "run", "--workload", "pr", "--policy", "ndpext"]
        )
        assert args.preset == "tiny"
        assert args.workload == "pr"

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "doom", "--policy", "ndpext"])

    def test_figure_choices_cover_all_panels(self):
        expected = {
            "fig2", "fig4b", "fig5", "fig6", "fig7", "fig8a", "fig8b",
            "fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f", "sec5d",
            "faults",
        }
        assert set(FIGURES) == expected


class TestCommands:
    def test_run_command(self, capsys):
        assert main(["--preset", "tiny", "run", "--workload", "pr", "--policy", "ndpext-static"]) == 0
        out = capsys.readouterr().out
        assert "runtime cycles" in out
        assert "hit rate" in out

    def test_compare_command(self, capsys):
        assert main(["--preset", "tiny", "compare", "--workload", "hotspot"]) == 0
        out = capsys.readouterr().out
        assert "ndpext" in out
        assert "jigsaw" in out
        # Normalized against the explicit host baseline row.
        assert "host" in out
        assert "speedup vs host" in out

    def test_figure_command(self, capsys):
        assert main(["--preset", "tiny", "figure", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "latency breakdown" in out

    def test_report_command(self, tmp_path, capsys, monkeypatch):
        # The full report regenerates every figure; pin it to two cheap
        # ones so the test exercises the capture/write path, not the suite.
        subset = {name: FIGURES[name] for name in ("fig2", "fig4b")}
        monkeypatch.setattr(cli, "FIGURES", subset)
        out_path = tmp_path / "results.md"
        assert main(["--preset", "tiny", "report", "--output", str(out_path)]) == 0
        body = out_path.read_text()
        assert body.startswith("# NDPExt reproduction results")
        assert "## fig2" in body and "## fig4b" in body
        assert "latency breakdown" in body
        assert f"wrote {out_path}" in capsys.readouterr().out


class TestTraceCommands:
    def test_trace_then_stats_round_trip(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        csv_path = tmp_path / "timeline.csv"
        assert main([
            "--preset", "tiny", "run",
            "--workload", "pr", "--policy", "ndpext",
            "--trace-out", str(trace_path),
        ]) == 0
        capsys.readouterr()

        # Every line is valid JSON with the documented framing.
        lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[-1]["kind"] == "footer"

        trace = read_trace(str(trace_path))
        assert trace.header["workload"] == "pr"
        assert trace.header["policy"] == "ndpext"
        assert len(trace.report.timeline) > 0

        # Acceptance: the trace carries at least one reconfiguration
        # decision with predicted per-stream hit rates, and the realized
        # rates to compare them against.
        reconfigs = trace.events_of("reconfig")
        assert reconfigs
        assert all(
            0.0 <= s["predicted_hit_rate"] <= 1.0
            for e in reconfigs
            for s in e["streams"]
        )
        accuracy = trace.events_of("hit_accuracy")
        assert accuracy
        assert all(
            {"predicted", "realized"} <= set(s)
            for e in accuracy
            for s in e["streams"]
        )

        assert main(["stats", str(trace_path), "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "cache_hit_rate" in out
        assert "mean_hit_prediction_error" in out
        assert "self-profile" in out
        assert len(csv_path.read_text().splitlines()) == len(trace.report.timeline) + 1

    def test_stats_profile_time_counts_each_span_once(self, tmp_path, capsys):
        """``profile_s`` sums exclusive time, which is the root spans'
        wall time: it fits inside the command's own wall clock, where
        the sum of inclusive totals counts every nested span again."""
        import time

        from repro.obs import summarize

        trace_path = tmp_path / "t.jsonl"
        start = time.perf_counter()
        assert main([
            "--preset", "tiny", "run",
            "--workload", "pr", "--policy", "ndpext",
            "--trace-out", str(trace_path),
        ]) == 0
        wall_s = time.perf_counter() - start
        trace = read_trace(str(trace_path))
        profile_s = summarize(trace)["profile_s"]
        assert profile_s == pytest.approx(
            sum(row["exclusive_s"] for row in trace.profile)
        )
        assert profile_s <= wall_s
        assert profile_s < sum(row["total_s"] for row in trace.profile)
        capsys.readouterr()
        assert main(["stats", str(trace_path)]) == 0
        out = capsys.readouterr().out
        table = out[out.index("self-profile"):].splitlines()[3:]
        exclusive = [float(line.split()[2]) for line in table if line.strip()]
        assert exclusive and exclusive == sorted(exclusive, reverse=True)

    def test_stats_diff_two_traces(self, tmp_path, capsys):
        paths = []
        for policy in ("ndpext", "ndpext-static"):
            path = tmp_path / f"{policy}.jsonl"
            assert main([
                "--preset", "tiny", "run",
                "--workload", "pr", "--policy", policy,
                "--trace-out", str(path),
            ]) == 0
            paths.append(str(path))
        capsys.readouterr()
        assert main(["stats", *paths]) == 0
        out = capsys.readouterr().out
        assert "trace diff" in out
        assert "delta" in out

    def test_stats_rejects_three_traces(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main([
            "--preset", "tiny", "run",
            "--workload", "pr", "--policy", "ndpext",
            "--trace-out", str(path),
        ]) == 0
        with pytest.raises(SystemExit):
            main(["stats", str(path), str(path), str(path)])

    def test_serve_slo_end_to_end(self, tmp_path, capsys):
        """The CI storm recipe through the CLI: SLO admission with
        explicit objectives writes a trace whose burns the
        stats verb then surfaces."""
        trace = tmp_path / "serve.jsonl"
        report = tmp_path / "serve.json"
        prom = tmp_path / "serve.prom"
        assert main([
            "--preset", "tiny", "serve",
            "--name", "ci-storm", "--storm",
            "--batch-accesses", "500",
            "--wave-size", "6", "--steps-per-wave", "3",
            "--admission", "slo",
            "--slo", "interactive:12000::0.10",
            "--slo", "analytics:70000::0.10",
            "--trace-out", str(trace),
            "--report-out", str(report),
            "--prom", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "slo" in out.lower()

        payload = json.loads(report.read_text())
        assert payload["slo"]["tenants"]["analytics"]["alert"] in (
            "ok", "warn", "page",
        )
        assert "repro_slo_alert_state" in prom.read_text()

        parsed = read_trace(str(trace))
        assert parsed.events_of("slo_burn")
        assert parsed.events_of("slo_status")

        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "slo_burns" in out
        assert "slo_worst_burn[interactive]" in out

    def test_serve_listen_announces_endpoint(self, tmp_path, capsys):
        assert main([
            "--preset", "tiny", "serve",
            "--max-batches", "4",
            "--listen", "127.0.0.1:0",
        ]) == 0
        out = capsys.readouterr().out
        assert "live endpoint at http://127.0.0.1:" in out

    @pytest.mark.parametrize(
        "spec", [":123", "a:b:c:d:e", "interactive:not-a-number"]
    )
    def test_serve_rejects_bad_slo_specs(self, spec):
        with pytest.raises(SystemExit):
            main([
                "--preset", "tiny", "serve", "--max-batches", "2",
                "--slo", spec,
            ])

    def test_profile_command(self, tmp_path, capsys):
        perf_path = tmp_path / "prof.json"
        report_path = tmp_path / "bottleneck.json"
        assert main([
            "--preset", "tiny", "profile",
            "--workload", "pr", "--policy", "ndpext",
            "--perf-out", str(perf_path),
            "--report-out", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "engine phases by exclusive time" in out
        assert "ui.perfetto.dev" in out

        # The perf trace is Perfetto-loadable JSON naming every engine
        # phase; the bottleneck report carries the coverage invariant.
        from repro.obs.tracing import ENGINE_PHASES

        payload = json.loads(perf_path.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert set(ENGINE_PHASES) <= names
        assert all(
            e["ph"] in ("X", "i", "M") for e in payload["traceEvents"]
        )
        prof = json.loads(report_path.read_text())
        assert prof["coverage"] >= 0.95
        assert prof["top_phases"]
        assert prof["accesses"] > 0

    def test_profile_attributes_policy_internals(self, tmp_path):
        report_path = tmp_path / "bottleneck.json"
        assert main([
            "--preset", "tiny", "profile",
            "--workload", "pr", "--policy", "ndpext",
            "--perf-out", str(tmp_path / "prof.json"),
            "--report-out", str(report_path),
        ]) == 0
        prof = json.loads(report_path.read_text())
        assert {
            "configure.solve", "configure.predict_cost",
            "profile.sample", "profile.assign",
        } <= set(prof["top_phases"])
        assert prof["coverage"] == pytest.approx(1.0)

    def test_profile_refuses_jobs(self, tmp_path):
        with pytest.raises(SystemExit, match="--jobs 2"):
            main([
                "--preset", "tiny", "--jobs", "2", "profile",
                "--workload", "pr", "--policy", "ndpext",
                "--perf-out", str(tmp_path / "prof.json"),
            ])

    def test_profile_requires_cell_or_suite(self):
        with pytest.raises(SystemExit, match="workload"):
            main(["--preset", "tiny", "profile"])

    def test_profile_restores_cache_dir(self, monkeypatch, tmp_path):
        # The throwaway profiling cache must not leak into the
        # environment the caller set up.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "mine"))
        assert main([
            "--preset", "tiny", "profile",
            "--workload", "pr", "--policy", "ndpext-static",
            "--perf-out", str(tmp_path / "p.json"),
        ]) == 0
        import os

        assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path / "mine")

    def test_run_trace_out(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main([
            "--preset", "tiny", "run",
            "--workload", "pr", "--policy", "ndpext",
            "--trace-out", str(trace_path),
        ]) == 0
        assert "runtime cycles" in capsys.readouterr().out
        trace = read_trace(str(trace_path))
        assert len(trace.events_of("report")) == 1
        assert len(trace.report.timeline) > 0
