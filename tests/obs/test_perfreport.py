"""Perf-trace analysis: Perfetto export schema, phase attribution and
its coverage invariant, and the bottleneck report."""

import json

import pytest

from repro.experiments.runner import POLICIES
from repro.obs.perfreport import (
    bottleneck_report,
    chrome_trace,
    missing_engine_phases,
    phase_summary,
    render_bottleneck,
    write_chrome_trace,
)
from repro.obs.tracing import ENGINE_PHASES, PerfTracer, activate
from repro.sim import SimulationEngine, tiny
from repro.workloads import TINY, build


@pytest.fixture(scope="module")
def traced_run():
    """One tiny simulation under an ambient tracer (module-cached)."""
    tracer = PerfTracer()
    with activate(tracer):
        report = SimulationEngine(tiny()).run(
            build("pr", TINY), POLICIES["ndpext"]()
        )
    return tracer, report


class TestChromeTrace:
    def test_schema_sanity(self, traced_run):
        tracer, _ = traced_run
        payload = chrome_trace(tracer, meta={"preset": "tiny"})
        events = payload["traceEvents"]
        assert events, "a traced run must export events"
        assert payload["otherData"]["preset"] == "tiny"
        last_ts = None
        for ev in events:
            assert ev["ph"] in ("X", "i", "M")
            if ev["ph"] == "M":
                assert ev["name"] == "process_name"
                continue
            assert ev["ts"] >= 0
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
            else:
                assert ev["s"] == "t"
            if last_ts is not None:
                assert ev["ts"] >= last_ts
            last_ts = ev["ts"]

    def test_process_metadata_names_every_process(self, traced_run):
        tracer, _ = traced_run
        payload = chrome_trace(tracer)
        named = {
            e["pid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M"
        }
        assert named == {tracer.pid: tracer.process_label}

    def test_write_round_trips_as_json(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = tmp_path / "prof.json"
        count = write_chrome_trace(tracer, str(path))
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        names = {e["name"] for e in payload["traceEvents"]}
        assert set(ENGINE_PHASES) <= names


class TestPhaseSummary:
    def test_real_run_covers_the_wall_clock(self, traced_run):
        tracer, _ = traced_run
        summary = phase_summary(tracer)
        assert summary["sim_wall_s"] > 0
        # Acceptance bound is >= 0.95; by construction every engine
        # phase nests under engine.run, so coverage is exactly 1.
        assert summary["coverage"] == pytest.approx(1.0)
        assert missing_engine_phases(tracer) == []
        shares = [row["share"] for row in summary["phases"].values()]
        assert all(0.0 <= s <= 1.0 for s in shares)

    def test_structural_spans_become_orchestration_not_phases(self, traced_run):
        tracer, _ = traced_run
        summary = phase_summary(tracer)
        assert "engine.run" not in summary["phases"]
        assert "engine.epoch" not in summary["phases"]
        assert summary["orchestration_s"] >= 0

    def test_exclusive_sums_reconstruct_sim_wall(self, traced_run):
        tracer, _ = traced_run
        summary = phase_summary(tracer)
        reconstructed = (
            sum(r["exclusive_s"] for r in summary["phases"].values())
            + summary["orchestration_s"]
        )
        assert reconstructed == pytest.approx(summary["sim_wall_s"], rel=0.05)

    def test_empty_tracer_reports_everything_missing(self):
        tracer = PerfTracer()
        assert missing_engine_phases(tracer) == list(ENGINE_PHASES)
        assert phase_summary(tracer)["sim_wall_s"] == 0.0


class TestBottleneckReport:
    def test_report_and_render(self, traced_run):
        tracer, report = traced_run
        prof = bottleneck_report(tracer, accesses=report.hits.total_requests)
        assert prof["coverage"] == pytest.approx(1.0)
        assert prof["top_phases"]
        assert prof["accesses"] == report.hits.total_requests
        for row in prof["attribution"].values():
            assert row["accesses_per_s"] > 0
        text = render_bottleneck(prof)
        assert "engine phases by exclusive time" in text
        assert "(orchestration)" in text
        assert "accesses/s if alone" in text

    def test_report_without_accesses_has_no_attribution(self, traced_run):
        tracer, _ = traced_run
        prof = bottleneck_report(tracer)
        assert "attribution" not in prof
        assert "accesses/s" not in render_bottleneck(prof)

    def test_report_is_json_serializable(self, traced_run):
        tracer, report = traced_run
        prof = bottleneck_report(tracer, accesses=report.hits.total_requests)
        json.dumps(prof)
