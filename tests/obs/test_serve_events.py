"""Serve events in traces (schema 2) and the serving Prometheus export."""

import pytest

from repro.obs import SCHEMA_VERSION, Recorder, read_trace
from repro.obs.export import serve_prometheus
from repro.obs.histogram import LatencyHistogram
from repro.obs.traceio import serve_event_counts, summarize
from repro.serve import ServeReport, TenantStats
from repro.sim.metrics import SimulationReport


def _trace_with(tmp_path, events):
    rec = Recorder(workload="pr", policy="ndpext")
    for kind, fields in events:
        rec.event(kind, **fields)
    # Every recorded run ends with its report line, which ``summarize`` reads.
    rec.event("report", **SimulationReport("ndpext", "pr", 0.0).to_json())
    path = tmp_path / "trace.jsonl"
    rec.write_jsonl(str(path))
    return read_trace(str(path))


class TestServeEventCounts:
    def test_schema_was_bumped_for_slo_events(self):
        # 3 added the SLO events; 4 replaced the per-epoch events with
        # one report line per session.
        assert SCHEMA_VERSION == 4

    def test_counts_well_formed_events(self, tmp_path):
        trace = _trace_with(
            tmp_path,
            [
                ("serve_shed", {"tenant": "a", "batch": 1, "priority": 0}),
                ("serve_shed", {"tenant": "b", "batch": 2, "priority": 1}),
                ("serve_timeout", {"tenant": "a", "batch": 3}),
                ("serve_degraded", {"state": "degraded"}),
                ("slo_burn", {"tenant": "a", "state": "page", "epoch": 4}),
                ("slo_recovered", {"tenant": "a", "state": "ok", "epoch": 9}),
                ("epoch", {"epoch": 0}),  # unrelated kinds are ignored
            ],
        )
        assert serve_event_counts(trace) == {
            "serve_shed": 2,
            "serve_timeout": 1,
            "serve_degraded": 1,
            "slo_burn": 1,
            "slo_recovered": 1,
        }

    def test_unknown_serve_kind_warns_and_counts(self, tmp_path):
        """Forward compatibility: a serve_*/slo_* kind this reader does
        not know (from a newer schema) is counted, not a hard failure."""
        trace = _trace_with(
            tmp_path,
            [
                ("serve_shed", {"tenant": "a", "batch": 1}),
                ("slo_exotic_future_kind", {"tenant": "a"}),
                ("serve_novel", {"whatever": 1}),
            ],
        )
        with pytest.warns(UserWarning, match="unknown serve/slo"):
            counts = serve_event_counts(trace)
        assert counts["serve_shed"] == 1
        assert counts["slo_exotic_future_kind"] == 1
        assert counts["serve_novel"] == 1

    def test_summarize_reports_serve_counters(self, tmp_path):
        trace = _trace_with(
            tmp_path,
            [
                ("serve_shed", {"tenant": "a", "batch": 1}),
                ("serve_degraded", {"state": "flapping"}),
            ],
        )
        summary = summarize(trace)
        assert summary["serve_shed"] == 1
        assert summary["serve_timeouts"] == 0
        assert summary["serve_degraded_transitions"] == 1

    @pytest.mark.parametrize(
        "kind,fields",
        [
            ("serve_shed", {"tenant": "a"}),  # missing batch
            ("serve_timeout", {"batch": 1}),  # missing tenant
            ("serve_degraded", {"epoch": 3}),  # missing state
            ("slo_burn", {"tenant": "a"}),  # missing state
            ("slo_recovered", {"state": "ok"}),  # missing tenant
        ],
    )
    def test_malformed_event_hard_fails(self, tmp_path, kind, fields):
        trace = _trace_with(tmp_path, [(kind, fields)])
        with pytest.raises(ValueError, match=kind):
            serve_event_counts(trace)

    def test_traces_without_serve_events_summarize_to_zero(self, tmp_path):
        trace = _trace_with(tmp_path, [("epoch", {"epoch": 0})])
        summary = summarize(trace)
        assert summary["serve_shed"] == 0
        assert summary["serve_degraded_transitions"] == 0
        assert summary["slo_burns"] == 0
        assert summary["slo_recoveries"] == 0

    def test_summarize_reports_slo_burns_and_worst_burn(self, tmp_path):
        trace = _trace_with(
            tmp_path,
            [
                ("slo_burn", {"tenant": "a", "state": "warn", "epoch": 3,
                              "burn_fast": 8.0}),
                ("slo_burn", {"tenant": "a", "state": "page", "epoch": 5,
                              "burn_fast": 20.0}),
                ("slo_burn", {"tenant": "b", "state": "warn", "epoch": 6,
                              "burn_fast": 7.5}),
                ("slo_recovered", {"tenant": "a", "state": "ok", "epoch": 12}),
                ("slo_status", {"tenant": "c", "worst_burn": 3.0}),
            ],
        )
        summary = summarize(trace)
        assert summary["slo_burns"] == 3
        assert summary["slo_recoveries"] == 1
        assert summary["slo_worst_burn[a]"] == 20.0
        assert summary["slo_worst_burn[b]"] == 7.5
        # Tenants that never alerted still report via the final status.
        assert summary["slo_worst_burn[c]"] == 3.0


def _report():
    hist = LatencyHistogram()
    hist.observe([100.0, 2000.0, 50000.0])
    tenant_hist = LatencyHistogram()
    tenant_hist.observe([100.0])
    return ServeReport(
        scenario="unit",
        tenants={
            "interactive": TenantStats(
                submitted=5, admitted=4, rejected=1, completed=4,
                latency=tenant_hist,
            ),
            "analytics": TenantStats(submitted=3, shed=2, timed_out=1),
        },
        latency=hist,
        epochs=4,
        reconfigs=2,
        health_reconfig_requests=1,
        degraded_windows=[[3, 7]],
        drained_queued=2,
    )


class TestServePrometheus:
    def test_outcome_counters_per_tenant(self):
        text = serve_prometheus(_report())
        assert (
            'repro_serve_batches_total{scenario="unit",'
            'tenant="analytics",outcome="shed"} 2' in text
        )
        assert (
            'repro_serve_batches_total{scenario="unit",'
            'tenant="interactive",outcome="completed"} 4' in text
        )

    def test_latency_histogram_and_gauges(self):
        text = serve_prometheus(_report(), {"preset": "tiny"})
        assert 'tenant="all"' in text
        assert "repro_serve_batch_latency_ns_count" in text
        assert "repro_serve_reconfigs_total" in text
        # degraded window [3, 7) -> 4 epochs
        assert "repro_serve_degraded_epochs" in text
        line = next(
            ln for ln in text.splitlines()
            if ln.startswith("repro_serve_degraded_epochs{")
        )
        assert line.endswith(" 4")
        assert 'preset="tiny"' in line

    def test_empty_tenant_histograms_are_omitted(self):
        text = serve_prometheus(_report())
        assert 'tenant="analytics",le=' not in text
