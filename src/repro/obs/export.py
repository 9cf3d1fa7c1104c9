"""Metrics export: Prometheus text format and a JSON payload.

One :class:`~repro.sim.metrics.SimulationReport` (typically a trace's
``report`` line, read by :attr:`repro.obs.traceio.TraceFile.report`)
becomes either

* a **Prometheus text-format** document — latency histograms as native
  Prometheus histograms (cumulative ``_bucket{le=...}`` series plus
  ``_sum``/``_count``), per-unit and per-stack-pair spatial series, and
  the scalar hit/latency/energy/fault/reconfiguration counters — ready
  for a pushgateway or a textfile collector, or
* a **JSON payload** with the same content, sanitized so no
  ``NaN``/``Infinity`` token can appear (strict parsers reject them).

Every series carries the run's identifying labels (workload, policy,
and whatever extra labels the caller passes).
"""

from __future__ import annotations

import json

import numpy as np

from repro.obs.histogram import EDGES, LatencyHistogram
from repro.obs.recorder import sanitize_json
from repro.sim.metrics import SimulationReport

PREFIX = "repro"


def _fmt(value: float) -> str:
    """Prometheus sample value: repr keeps floats exact, ints compact."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value or value in (float("inf"), float("-inf")):
        return "0"  # a non-finite gauge is meaningless; export zero
    return repr(float(value))


def _labels(labels: dict[str, object]) -> str:
    if not labels:
        return ""
    quoted = ",".join(
        f'{key}="{_escape(str(value))}"' for key, value in labels.items()
    )
    return "{" + quoted + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Writer:
    """Accumulates text-format lines with one HELP/TYPE header per metric."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._declared: set[str] = set()

    def declare(self, name: str, kind: str, help_text: str) -> None:
        if name in self._declared:
            return
        self._declared.add(name)
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, labels: dict, value) -> None:
        self.lines.append(f"{name}{_labels(labels)} {_fmt(value)}")


def _histogram_lines(
    writer: _Writer, name: str, hist: LatencyHistogram, base: dict
) -> None:
    """One tier's histogram in native Prometheus histogram layout."""
    writer.declare(name, "histogram", "request service latency (ns) by tier")
    cum = np.cumsum(hist.counts)
    # Emit only the edges that change the cumulative count, plus +Inf —
    # full fidelity at a fraction of the 194 buckets.
    prev = -1
    for idx in range(len(hist.counts) - 1):
        if cum[idx] == prev:
            continue
        prev = int(cum[idx])
        writer.sample(
            f"{name}_bucket",
            {**base, "le": _fmt(float(EDGES[idx]))},
            int(cum[idx]),
        )
    writer.sample(f"{name}_bucket", {**base, "le": "+Inf"}, hist.n)
    writer.sample(f"{name}_sum", base, hist.total_ns)
    writer.sample(f"{name}_count", base, hist.n)


def prometheus_text(
    report: SimulationReport, extra_labels: dict[str, object] | None = None
) -> str:
    """Render one report as a Prometheus text-format document."""
    base = {"workload": report.workload, "policy": report.policy}
    base.update(extra_labels or {})
    w = _Writer()

    w.declare(f"{PREFIX}_runtime_cycles", "gauge", "simulated runtime in core cycles")
    w.sample(f"{PREFIX}_runtime_cycles", base, report.runtime_cycles)

    w.declare(f"{PREFIX}_requests_total", "counter", "requests by serving level")
    for tier, value in (
        ("l1", report.hits.l1_hits),
        ("cache_local", report.hits.cache_hits_local),
        ("cache_remote", report.hits.cache_hits_remote),
        ("extended", report.hits.cache_misses),
    ):
        w.sample(f"{PREFIX}_requests_total", {**base, "level": tier}, value)

    w.declare(
        f"{PREFIX}_latency_ns_total", "counter", "total latency by component"
    )
    for comp in ("sram", "metadata", "dram", "intra_noc", "inter_noc", "extended"):
        w.sample(
            f"{PREFIX}_latency_ns_total",
            {**base, "component": comp},
            getattr(report.breakdown, f"{comp}_ns"),
        )

    w.declare(f"{PREFIX}_energy_nj_total", "counter", "energy by component")
    for comp in ("static", "sram", "ndp_dram", "noc", "cxl", "ext_dram"):
        w.sample(
            f"{PREFIX}_energy_nj_total",
            {**base, "component": comp},
            getattr(report.energy, f"{comp}_nj"),
        )

    w.declare(
        f"{PREFIX}_reconfig_total", "counter", "reconfiguration activity"
    )
    w.sample(
        f"{PREFIX}_reconfig_total",
        {**base, "kind": "movements"},
        report.reconfig_movements,
    )
    w.sample(
        f"{PREFIX}_reconfig_total",
        {**base, "kind": "invalidations"},
        report.reconfig_invalidations,
    )

    if report.faults is not None:
        w.declare(f"{PREFIX}_faults_total", "counter", "fault-layer activity")
        for kind in (
            "crc_retries",
            "crc_reissues",
            "units_lost",
            "rows_quarantined",
            "demoted_requests",
        ):
            w.sample(
                f"{PREFIX}_faults_total",
                {**base, "kind": kind},
                getattr(report.faults, kind),
            )
        w.declare(
            f"{PREFIX}_fault_penalty_ns", "gauge", "latency added by faults"
        )
        w.sample(f"{PREFIX}_fault_penalty_ns", base, report.faults.penalty_ns)

    if report.tier_histograms:
        for tier, hist in report.tier_histograms.items():
            _histogram_lines(
                w, f"{PREFIX}_request_latency_ns", hist, {**base, "tier": tier}
            )

    if report.spatial is not None:
        spatial = report.spatial
        w.declare(
            f"{PREFIX}_unit_issued_requests_total",
            "counter",
            "post-L1 requests issued per NDP unit",
        )
        w.declare(
            f"{PREFIX}_unit_served_requests_total",
            "counter",
            "cache hits served per NDP unit",
        )
        w.declare(
            f"{PREFIX}_unit_occupancy_ns_total",
            "counter",
            "DRAM service time per NDP unit",
        )
        for unit in range(spatial.n_units):
            labels = {**base, "unit": unit}
            w.sample(
                f"{PREFIX}_unit_issued_requests_total", labels, spatial.issued[unit]
            )
            w.sample(
                f"{PREFIX}_unit_served_requests_total", labels, spatial.served[unit]
            )
            w.sample(
                f"{PREFIX}_unit_occupancy_ns_total",
                labels,
                spatial.occupancy_ns[unit],
            )
        w.declare(
            f"{PREFIX}_link_bytes_total",
            "counter",
            "NoC bytes by (source stack, destination stack)",
        )
        for src in range(spatial.n_stacks):
            for dst in range(spatial.n_stacks):
                value = spatial.link_bytes[src][dst]
                if value:
                    w.sample(
                        f"{PREFIX}_link_bytes_total",
                        {**base, "src_stack": src, "dst_stack": dst},
                        value,
                    )
        w.declare(
            f"{PREFIX}_load_imbalance",
            "gauge",
            "max/mean served requests across units",
        )
        w.sample(f"{PREFIX}_load_imbalance", base, spatial.load_imbalance)

    return "\n".join(w.lines) + "\n"


def serve_prometheus(
    report, extra_labels: dict[str, object] | None = None
) -> str:
    """Render a :class:`~repro.serve.report.ServeReport` as Prometheus
    text format: per-tenant admission/shed/timeout counters, batch
    latency as native histograms (overall and per tenant), plus
    reconfiguration and degradation gauges.  Appended after
    :func:`prometheus_text` of the embedded sim report, this is the
    future live ``/metrics`` payload.
    """
    base = {"scenario": report.scenario}
    base.update(extra_labels or {})
    w = _Writer()

    w.declare(
        f"{PREFIX}_serve_batches_total",
        "counter",
        "serving-loop batch outcomes by tenant",
    )
    for name, stats in sorted(report.tenants.items()):
        for outcome in (
            "submitted",
            "admitted",
            "rejected",
            "shed",
            "timed_out",
            "completed",
            "resumed",
        ):
            w.sample(
                f"{PREFIX}_serve_batches_total",
                {**base, "tenant": name, "outcome": outcome},
                getattr(stats, outcome),
            )

    w.declare(
        f"{PREFIX}_serve_batch_latency_ns",
        "histogram",
        "batch latency from admission to completion (simulated ns)",
    )
    _histogram_lines(
        w,
        f"{PREFIX}_serve_batch_latency_ns",
        report.latency,
        {**base, "tenant": "all"},
    )
    for name, stats in sorted(report.tenants.items()):
        if stats.latency.n:
            _histogram_lines(
                w,
                f"{PREFIX}_serve_batch_latency_ns",
                stats.latency,
                {**base, "tenant": name},
            )

    w.declare(
        f"{PREFIX}_serve_reconfigs_total",
        "counter",
        "placements applied while serving",
    )
    w.sample(f"{PREFIX}_serve_reconfigs_total", base, report.reconfigs)
    w.declare(
        f"{PREFIX}_serve_health_reconfig_requests_total",
        "counter",
        "re-placements forced by the health monitor",
    )
    w.sample(
        f"{PREFIX}_serve_health_reconfig_requests_total",
        base,
        report.health_reconfig_requests,
    )
    w.declare(
        f"{PREFIX}_serve_degraded_epochs",
        "gauge",
        "epochs spent in a degradation window",
    )
    w.sample(
        f"{PREFIX}_serve_degraded_epochs",
        base,
        sum(b - a for a, b in report.degraded_windows),
    )
    w.declare(
        f"{PREFIX}_serve_drained_queued",
        "gauge",
        "batches journaled but unserved at drain",
    )
    w.sample(f"{PREFIX}_serve_drained_queued", base, report.drained_queued)
    if report.slo is not None:
        _slo_lines(w, report.slo, base)
    return "\n".join(w.lines) + "\n"


def _slo_lines(w: _Writer, status: dict, base: dict) -> None:
    """SLO gauges from an :meth:`SloEngine.status` payload."""
    from repro.obs.slo import OBJ_LATENCY, alert_severity

    w.declare(
        f"{PREFIX}_slo_alert_state",
        "gauge",
        "per-tenant SLO alert severity (0=ok 1=warn 2=page)",
    )
    w.declare(
        f"{PREFIX}_slo_budget_remaining",
        "gauge",
        "fraction of the error budget left (negative = overspent)",
    )
    w.declare(
        f"{PREFIX}_slo_burn_rate",
        "gauge",
        "error-budget burn rate by objective and window",
    )
    w.declare(
        f"{PREFIX}_slo_latency_windows_total",
        "counter",
        "evaluated fast windows for the latency objective",
    )
    w.declare(
        f"{PREFIX}_slo_latency_windows_met",
        "counter",
        "fast windows whose p99 met the latency objective",
    )
    for name, tenant in sorted(status.get("tenants", {}).items()):
        labels = {**base, "tenant": name}
        w.sample(
            f"{PREFIX}_slo_alert_state", labels, alert_severity(tenant["alert"])
        )
        w.sample(
            f"{PREFIX}_slo_budget_remaining", labels, tenant["budget_remaining"]
        )
        for kind, obj in sorted(tenant.get("objectives", {}).items()):
            for window in ("fast", "slow"):
                w.sample(
                    f"{PREFIX}_slo_burn_rate",
                    {**labels, "objective": kind, "window": window},
                    obj[f"burn_{window}"],
                )
            if kind == OBJ_LATENCY:
                obj_labels = {**labels, "objective": kind}
                w.sample(
                    f"{PREFIX}_slo_latency_windows_total",
                    obj_labels,
                    obj.get("windows_total", 0),
                )
                w.sample(
                    f"{PREFIX}_slo_latency_windows_met",
                    obj_labels,
                    obj.get("windows_met", 0),
                )


def json_payload(
    report: SimulationReport,
    extra: dict | None = None,
    counters: dict | None = None,
) -> dict:
    """The same content as :func:`prometheus_text` as one JSON object.

    ``counters`` accepts a trace's counters line (the runner's cache
    hit/miss and retry counts) so exports from traces carry them too.
    """
    payload = report.to_json()
    if report.tier_histograms:
        payload["percentiles_ns"] = {
            tier: hist.percentiles()
            for tier, hist in report.tier_histograms.items()
        }
    if report.spatial is not None:
        payload["load_imbalance"] = report.spatial.load_imbalance
    if counters:
        payload["counters"] = dict(counters)
    if extra:
        payload.update(extra)
    return sanitize_json(payload)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(sanitize_json(payload), f, indent=2, allow_nan=False)
