"""Reading and summarizing JSONL event traces.

A trace file is what :meth:`repro.obs.recorder.Recorder.write_jsonl`
produced: a ``header`` line, events in emission order (among them one
``report`` event per engine session, the finished
:class:`~repro.sim.metrics.SimulationReport`), then ``counters``/
``profile`` lines and a ``footer``.  This module is the read side used
by ``python -m repro stats`` and ``dash``: parse, validate the schema,
read the report back, and render summary/diff tables.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

from repro.obs.recorder import SCHEMA_VERSION
from repro.sim.metrics import SimulationReport


@dataclass
class TraceFile:
    """One parsed JSONL trace."""

    path: str
    header: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    profile: list[dict] = field(default_factory=list)
    footer: dict = field(default_factory=dict)

    @property
    def report(self) -> SimulationReport:
        """The run's finished report, read from the trace's one
        ``report`` line; ``ValueError`` when there is none (schema 3
        and older traces) or more than one."""
        lines = self.events_of("report")
        if len(lines) != 1:
            raise ValueError(
                f"{self.path}: expected one report line, found {len(lines)} "
                f"(trace schema {self.header.get('schema')!r}; traces of "
                f"schema 3 or older carry none and must be re-recorded)"
            )
        return SimulationReport.from_json(
            {k: v for k, v in lines[0].items() if k not in ("kind", "seq")}
        )

    def events_of(self, kind: str) -> list[dict]:
        return [e for e in self.events if e.get("kind") == kind]


def read_trace(path: str) -> TraceFile:
    """Parse one trace; raises ValueError on schema problems."""
    trace = TraceFile(path=path)
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            kind = record.get("kind")
            if kind == "header":
                trace.header = record
            elif kind == "counters":
                trace.counters = record.get("values", {})
            elif kind == "profile":
                trace.profile.append(record)
            elif kind == "footer":
                trace.footer = record
            else:
                trace.events.append(record)
    if not trace.header:
        raise ValueError(f"{path}: missing header line")
    schema = trace.header.get("schema")
    # Forward compatibility: a trace written by a *newer* recorder keeps
    # its known structure (header/counters/footer framing is stable), so
    # read it with a warning instead of refusing — unknown event kinds
    # are handled downstream.  Anything non-integral is not a trace.
    if not isinstance(schema, int) or isinstance(schema, bool) or schema < 1:
        raise ValueError(
            f"{path}: schema {schema!r} unsupported (expected {SCHEMA_VERSION})"
        )
    if schema > SCHEMA_VERSION:
        warnings.warn(
            f"{path}: trace schema {schema} is newer than this reader "
            f"(schema {SCHEMA_VERSION}); unknown event kinds will be "
            f"counted but not validated",
            stacklevel=2,
        )
    if trace.footer and trace.footer.get("events") != len(trace.events):
        raise ValueError(
            f"{path}: footer says {trace.footer.get('events')} events, "
            f"found {len(trace.events)} (truncated trace?)"
        )
    return trace


# Serving-mode (schema 2) and SLO (schema 3) events with the fields
# each must carry; the summarizer hard-fails on a malformed one rather
# than silently under-counting dropped work.
_SERVE_REQUIRED: dict[str, tuple[str, ...]] = {
    "serve_shed": ("tenant", "batch"),
    "serve_timeout": ("tenant", "batch"),
    "serve_degraded": ("state",),
    "slo_burn": ("tenant", "state"),
    "slo_recovered": ("tenant", "state"),
}

# Known-but-unvalidated kinds in the serve/slo namespaces (no required
# fields beyond being well-formed JSON).
_SERVE_KNOWN: tuple[str, ...] = ("serve_reject", "slo_status")


def serve_event_counts(trace: TraceFile) -> dict[str, int]:
    """Validated per-kind counts of the serving-mode and SLO events.

    Raises ``ValueError`` when a *known* event is missing a required
    field — a shed/timeout record that cannot be attributed to a tenant
    and batch is corrupt, not merely incomplete.  Events in the
    ``serve_*``/``slo_*`` namespaces that this reader does not know
    (traces from newer schemas) are counted but not validated, with a
    warning — forward compatibility must not turn into a hard failure.
    """
    counts: dict[str, int] = {}
    for kind, required in _SERVE_REQUIRED.items():
        events = trace.events_of(kind)
        for event in events:
            missing = [f for f in required if event.get(f) is None]
            if missing:
                raise ValueError(
                    f"{trace.path}: {kind} event missing required "
                    f"field(s) {missing}: {event}"
                )
        counts[kind] = len(events)
    unknown: dict[str, int] = {}
    for event in trace.events:
        kind = event.get("kind", "")
        if (
            kind.startswith(("serve_", "slo_"))
            and kind not in _SERVE_REQUIRED
            and kind not in _SERVE_KNOWN
        ):
            unknown[kind] = unknown.get(kind, 0) + 1
    if unknown:
        warnings.warn(
            f"{trace.path}: unknown serve/slo event kind(s) "
            f"{sorted(unknown)} counted but not validated "
            f"(newer trace schema?)",
            stacklevel=2,
        )
        counts.update(unknown)
    return counts


def slo_summary(trace: TraceFile) -> dict:
    """Roll the SLO alerting events up for the ``stats`` verb: burn /
    recovery counts and each tenant's worst observed fast-window burn
    rate (from ``slo_burn`` escalations, falling back to the final
    ``slo_status`` snapshot for runs that never alerted)."""
    burns = trace.events_of("slo_burn")
    recoveries = trace.events_of("slo_recovered")
    worst: dict[str, float] = {}
    for event in burns:
        tenant = str(event.get("tenant"))
        rate = float(event.get("burn_fast") or 0.0)
        worst[tenant] = max(worst.get(tenant, 0.0), rate)
    for event in trace.events_of("slo_status"):
        tenant = str(event.get("tenant"))
        rate = float(event.get("worst_burn") or 0.0)
        worst[tenant] = max(worst.get(tenant, 0.0), rate)
    return {
        "slo_burns": len(burns),
        "slo_recoveries": len(recoveries),
        "slo_worst_burn": {t: worst[t] for t in sorted(worst)},
    }


def summarize(trace: TraceFile) -> dict:
    """Aggregate view of one trace for the ``stats`` verb."""
    report = trace.report
    reconfigs = trace.events_of("reconfig")
    applied = [e for e in reconfigs if e.get("applied")]
    faults = (
        trace.events_of("fault_unit")
        + trace.events_of("fault_row")
        + trace.events_of("fault_lanes")
    )
    accuracy = [
        s
        for e in trace.events_of("hit_accuracy")
        for s in e.get("streams", [])
        if s.get("predicted") is not None
    ]
    pred_err = [abs(s["predicted"] - s["realized"]) for s in accuracy]
    # Signed, access-weighted: below zero when the model under-predicts.
    weight = sum(s["accesses"] for s in accuracy)
    bias = sum((s["predicted"] - s["realized"]) * s["accesses"] for s in accuracy)
    histograms = report.tier_histograms or {}
    serve_counts = serve_event_counts(trace)
    slo = slo_summary(trace)
    return {
        "workload": trace.header.get("workload", "?"),
        "policy": trace.header.get("policy", "?"),
        "preset": trace.header.get("preset", "?"),
        "epochs": len(report.per_epoch_cycles),
        "runtime_cycles": report.runtime_cycles,
        "requests": report.hits.total_requests,
        "cache_hit_rate": report.hits.cache_hit_rate,
        "latency_ns": report.breakdown.total_ns,
        "extended_ns": report.breakdown.extended_ns,
        "energy_nj": report.energy.total_nj,
        "reconfig_events": len(reconfigs),
        "reconfig_applied": len(applied),
        "fault_events": len(faults),
        "mean_hit_prediction_error": (
            sum(pred_err) / len(pred_err) if pred_err else 0.0
        ),
        "hit_prediction_bias": bias / weight if weight else 0.0,
        "p99_local_ns": (
            histograms["local"].percentile(99.0) if "local" in histograms else 0.0
        ),
        "p99_extended_ns": (
            histograms["extended"].percentile(99.0)
            if "extended" in histograms
            else 0.0
        ),
        "load_imbalance": report.load_imbalance or 0.0,
        "serve_shed": serve_counts["serve_shed"],
        "serve_timeouts": serve_counts["serve_timeout"],
        "serve_degraded_transitions": serve_counts["serve_degraded"],
        "slo_burns": slo["slo_burns"],
        "slo_recoveries": slo["slo_recoveries"],
        **{
            f"slo_worst_burn[{tenant}]": rate
            for tenant, rate in slo["slo_worst_burn"].items()
        },
        # Exclusive times sum to the root spans' wall time; inclusive
        # totals would count every nested span again.
        "profile_s": sum(row.get("exclusive_s", 0.0) for row in trace.profile),
    }


def summary_rows(summary: dict) -> list[list[str]]:
    """Render a summary dict as table rows."""

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    return [[key, fmt(value)] for key, value in summary.items()]


def diff_rows(a: dict, b: dict) -> list[list[str]]:
    """Side-by-side diff of two summaries with a relative-change column."""
    rows = []
    for key in a:
        va, vb = a[key], b.get(key)
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            delta = f"{(vb - va) / va:+.2%}" if va else "n/a"
            rows.append([key, f"{va:.4g}", f"{vb:.4g}", delta])
        else:
            rows.append([key, str(va), str(vb), "" if va == vb else "differs"])
    return rows
