"""Prometheus/JSON exporter validity: every emitted line must parse
under the text-format grammar, histogram series must be cumulative and
capped by ``+Inf == _count``, and the JSON payload must be strictly
finite."""

import json
import math
import re

import pytest

from repro.core import NdpExtPolicy
from repro.obs import Recorder
from repro.obs.export import json_payload, prometheus_text, write_json
from repro.sim import SimulationEngine, tiny
from repro.workloads import TINY, build

# Prometheus text format: HELP/TYPE comments, or `name{labels} value`.
METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (?:[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf|NaN))$"
)
COMMENT_LINE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$")


@pytest.fixture(scope="module")
def recorded_report():
    recorder = Recorder(workload="pr", policy="ndpext", preset="tiny")
    engine = SimulationEngine(tiny(), recorder=recorder)
    return engine.run(build("pr", TINY), NdpExtPolicy())


@pytest.fixture(scope="module")
def prom(recorded_report):
    return prometheus_text(recorded_report, extra_labels={"preset": "tiny"})


class TestPrometheusFormat:
    def test_every_line_parses(self, prom):
        for line in prom.strip().splitlines():
            assert METRIC_LINE.match(line) or COMMENT_LINE.match(line), line

    def test_each_metric_declared_once_before_samples(self, prom):
        declared = []
        for line in prom.splitlines():
            if line.startswith("# TYPE "):
                declared.append(line.split()[2])
        assert len(declared) == len(set(declared)), "duplicate TYPE headers"
        seen = set()
        for line in prom.splitlines():
            if line.startswith("#"):
                seen.add(line.split()[2])
            else:
                name = re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*", line).group(0)
                base = re.sub(r"_(bucket|sum|count)$", "", name)
                assert name in seen or base in seen, name

    def test_core_series_present(self, prom):
        for needle in (
            "repro_runtime_cycles",
            'repro_requests_total{workload="pr",policy="ndpext",preset="tiny",level="l1"}',
            "repro_request_latency_ns_bucket",
            "repro_unit_served_requests_total",
            "repro_load_imbalance",
        ):
            assert needle in prom, needle

    def test_histogram_buckets_cumulative_and_capped(self, prom, recorded_report):
        for tier, hist in recorded_report.tier_histograms.items():
            pattern = re.compile(
                r"repro_request_latency_ns_bucket\{[^}]*tier=\""
                + tier
                + r"\"[^}]*le=\"([^\"]+)\"\} (\d+)"
            )
            rows = [
                (le, int(count))
                for le, count in pattern.findall(prom)
            ]
            assert rows, tier
            counts = [count for _, count in rows]
            assert counts == sorted(counts), f"{tier}: not cumulative"
            assert rows[-1][0] == "+Inf"
            assert counts[-1] == hist.n

    def test_unit_series_reconcile_with_spatial(self, prom, recorded_report):
        served = re.findall(
            r"repro_unit_served_requests_total\{[^}]*\} (\d+)", prom
        )
        assert [int(v) for v in served] == recorded_report.spatial.served


class TestJsonPayload:
    def test_no_non_finite_values_anywhere(self, recorded_report):
        payload = json_payload(
            recorded_report, extra={"weird": float("nan")}
        )
        text = json.dumps(payload, allow_nan=False)  # raises if any slip
        assert "NaN" not in text and "Infinity" not in text
        assert payload["weird"] is None

    def test_carries_percentiles_and_imbalance(self, recorded_report):
        payload = json_payload(recorded_report)
        assert set(payload["percentiles_ns"]) == {
            "local",
            "intra",
            "inter",
            "extended",
        }
        for stats in payload["percentiles_ns"].values():
            assert set(stats) == {"p50", "p95", "p99", "p999"}
            assert all(
                v is None or math.isfinite(v) for v in stats.values()
            )
        assert payload["load_imbalance"] >= 1.0

    def test_counters_passthrough(self, recorded_report):
        payload = json_payload(
            recorded_report, counters={"runner.cache_miss": 3}
        )
        assert payload["counters"] == {"runner.cache_miss": 3}

    def test_write_json_round_trips(self, recorded_report, tmp_path):
        path = tmp_path / "m.json"
        write_json(str(path), json_payload(recorded_report))
        loaded = json.loads(path.read_text())
        assert loaded["runtime_cycles"] == recorded_report.runtime_cycles


class TestServePrometheusFormat:
    """The serving exporter under a real two-tenant fault storm: every
    line must parse, every family must carry HELP/TYPE, and the
    per-tenant histograms must stay cumulative."""

    @pytest.fixture(scope="class")
    def storm(self):
        from repro.obs.export import serve_prometheus
        from repro.obs.slo import SloObjective
        from repro.serve import ServeHarness
        from repro.serve.scenario import two_tenant_scenario

        scenario = two_tenant_scenario(
            name="export-storm",
            batch_accesses=500,
            wave_size=6,
            steps_per_wave=3,
            faults={
                "unit_failures": 1,
                "row_faults": 1,
                "crc_bursts": 1,
                "downtrains": 1,
            },
            admission="slo",
            objectives=(
                SloObjective(
                    "analytics", p99_ns=70_000.0, max_shed_rate=0.10
                ),
            ),
        )
        report = ServeHarness(scenario, preset="tiny").run()
        return serve_prometheus(report, {"preset": "tiny"}), report

    def test_every_line_parses(self, storm):
        text, _ = storm
        for line in text.strip().splitlines():
            assert METRIC_LINE.match(line) or COMMENT_LINE.match(line), line

    def test_help_and_type_precede_every_family(self, storm):
        text, _ = storm
        helped, typed, seen = set(), set(), set()
        for line in text.splitlines():
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
            elif line.startswith("# TYPE "):
                name = line.split()[2]
                assert name in helped, f"TYPE before HELP for {name}"
                typed.add(name)
            else:
                name = re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*", line).group(0)
                base = re.sub(r"_(bucket|sum|count)$", "", name)
                assert name in typed or base in typed, name
                seen.add(base if base in typed else name)
        assert typed == seen, "declared families with no samples"

    def test_tenant_histograms_cumulative_and_capped(self, storm):
        text, report = storm
        populated = ["all"] + [
            name
            for name, stats in report.tenants.items()
            if stats.latency.n
        ]
        assert len(populated) >= 3, "storm must populate both tenants"
        for tenant in populated:
            rows = re.findall(
                r'repro_serve_batch_latency_ns_bucket\{[^}]*tenant="'
                + tenant
                + r'"[^}]*le="([^"]+)"\} (\d+)',
                text,
            )
            assert rows, tenant
            counts = [int(count) for _, count in rows]
            assert counts == sorted(counts), f"{tenant}: not cumulative"
            assert rows[-1][0] == "+Inf"
            hist = (
                report.latency
                if tenant == "all"
                else report.tenants[tenant].latency
            )
            assert counts[-1] == hist.n

    def test_slo_series_present_with_objectives(self, storm):
        text, _ = storm
        for needle in (
            'repro_slo_alert_state{scenario="export-storm",preset="tiny",'
            'tenant="analytics"}',
            "repro_slo_budget_remaining",
            'objective="latency_p99",window="fast"',
            'objective="latency_p99",window="slow"',
            "repro_slo_latency_windows_total",
            "repro_slo_latency_windows_met",
        ):
            assert needle in text, needle

    def test_tenant_label_values_are_escaped(self):
        from repro.obs.export import serve_prometheus
        from repro.obs.histogram import LatencyHistogram
        from repro.serve import ServeReport, TenantStats

        weird = 'ten"ant\\one'
        report = ServeReport(
            scenario='sce"nario',
            tenants={weird: TenantStats(submitted=1, admitted=1)},
            latency=LatencyHistogram(),
            epochs=1,
            reconfigs=0,
            health_reconfig_requests=0,
            degraded_windows=[],
        )
        text = serve_prometheus(report)
        assert 'tenant="ten\\"ant\\\\one"' in text
        assert 'scenario="sce\\"nario"' in text
        # The raw (unescaped) label value never appears verbatim.
        assert f'tenant="{weird}"' not in text


class TestServeSloSeries:
    def test_renders_slo_status(self):
        from repro.obs.export import serve_prometheus
        from repro.obs.histogram import LatencyHistogram
        from repro.serve import ServeReport, TenantStats

        status = {
            "tenants": {
                "a": {
                    "alert": "page",
                    "budget_remaining": -0.5,
                    "objectives": {
                        "latency_p99": {
                            "burn_fast": 20.0,
                            "burn_slow": 15.0,
                            "windows_total": 4,
                            "windows_met": 1,
                        }
                    },
                }
            }
        }
        report = ServeReport(
            scenario="storm",
            tenants={"a": TenantStats(submitted=1, admitted=1)},
            latency=LatencyHistogram(),
            epochs=1,
            reconfigs=0,
            health_reconfig_requests=0,
            degraded_windows=[],
            slo=status,
        )
        text = serve_prometheus(report, {"preset": "tiny"})
        for line in text.strip().splitlines():
            assert METRIC_LINE.match(line) or COMMENT_LINE.match(line), line
        labels = 'scenario="storm",preset="tiny",tenant="a"'
        assert f"repro_slo_alert_state{{{labels}}} 2" in text
        assert f"repro_slo_budget_remaining{{{labels}}} -0.5" in text
        assert 'window="slow"} 15.0' in text
        assert (
            f'repro_slo_latency_windows_met{{{labels},objective="latency_p99"}} 1'
            in text
        )
