"""Perf-trace analysis and export: Perfetto JSON + bottleneck reports.

The write side of :mod:`repro.obs.tracing`, over one process's spans.
Three consumers:

* :func:`write_chrome_trace` — Chrome trace-event JSON (the format
  ``ui.perfetto.dev`` and ``chrome://tracing`` load): one ``"X"``
  (complete) event per span with microsecond ``ts``/``dur``, one
  ``tid`` track per thread, and an ``"M"`` metadata event naming the
  process.
* :func:`bottleneck_report` — the JSON attribution summary: top phases
  by exclusive time, the engine-coverage check (phase exclusive times
  must reconstruct the simulated wall clock), the I/O span table, and a
  per-phase ``accesses/s`` attribution table.
* :func:`render_bottleneck` — the same report as CLI text tables.

Span taxonomy (by ``cat``): ``phase`` — engine/policy phases nested
under ``engine.run``, policy internals (``configure.*``, ``profile.*``)
among them; ``task`` — one cell of a serial batch per span; ``io`` —
cache/trace-store operations.
"""

from __future__ import annotations

import json

from repro.obs.tracing import ENGINE_PHASES, PerfTracer
from repro.util import render_table

# Structural spans: containers whose exclusive time is loop/dispatch
# orchestration rather than an attributable phase.  They are reported
# as one "orchestration" residual instead of as phases.
STRUCTURAL_SPANS = ("engine.run", "engine.epoch")


# ---------------------------------------------------------------------------
# Chrome / Perfetto trace-event export.


def chrome_trace(tracer: PerfTracer, meta: dict | None = None) -> dict:
    """The tracer's events as a Chrome trace-event JSON object.

    Timestamps are exported in microseconds relative to the earliest
    recorded event, sorted ascending (Perfetto tolerates unsorted input
    but the schema check in tests asserts monotonicity).  Thread ids
    are compacted to small integers.
    """
    events = sorted(tracer.events, key=lambda e: (e.ts_ns, e.sid))
    t0 = events[0].ts_ns if events else 0
    tids: dict[int, int] = {}
    out: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": tracer.pid,
            "tid": 0,
            "args": {"name": tracer.process_label},
        }
    ]
    for ev in events:
        record: dict = {
            "name": ev.name,
            "cat": ev.cat,
            "ph": "X",
            "ts": (ev.ts_ns - t0) / 1000.0,
            "dur": ev.dur_ns / 1000.0,
            "pid": tracer.pid,
            "tid": tids.setdefault(ev.tid, len(tids)),
        }
        if ev.args:
            record["args"] = dict(ev.args)
        out.append(record)
    payload = {"traceEvents": out, "displayTimeUnit": "ms"}
    if meta:
        payload["otherData"] = dict(meta)
    if tracer.dropped_events:
        payload.setdefault("otherData", {})["dropped_events"] = tracer.dropped_events
    return payload


def write_chrome_trace(tracer: PerfTracer, path: str, meta: dict | None = None) -> int:
    """Write the Perfetto-loadable JSON; returns the event count."""
    payload = chrome_trace(tracer, meta=meta)
    with open(path, "w") as f:
        json.dump(payload, f)
    return len(payload["traceEvents"])


# ---------------------------------------------------------------------------
# Phase attribution.


def phase_summary(tracer: PerfTracer) -> dict:
    """Engine phase breakdown from the exact aggregates.

    Returns ``sim_wall_s`` (inclusive time of ``engine.run``, summed
    over every simulation the tracer observed),
    per-phase inclusive/exclusive seconds and exclusive *share* of the
    simulated wall clock, the ``orchestration_s`` residual (exclusive
    time of the structural loop spans), and ``coverage`` — the fraction
    of sim wall clock the named phases + residual reconstruct.  By
    construction coverage is exactly 1.0 when every phase nests under
    ``engine.run``; the acceptance bound (>= 0.95) guards against
    phases escaping the hierarchy.
    """
    aggs = tracer.aggregates
    root = aggs.get("engine.run")
    sim_wall_ns = root.total_ns if root else 0
    phases: dict[str, dict] = {}
    phase_excl_ns = 0
    orchestration_ns = 0
    for name, agg in sorted(aggs.items(), key=lambda kv: -kv[1].exclusive_ns):
        if agg.cat != "phase":
            continue
        if name in STRUCTURAL_SPANS:
            orchestration_ns += agg.exclusive_ns
            continue
        phase_excl_ns += agg.exclusive_ns
        phases[name] = {
            "calls": agg.calls,
            "inclusive_s": agg.total_s,
            "exclusive_s": agg.exclusive_s,
            "share": agg.exclusive_ns / sim_wall_ns if sim_wall_ns else 0.0,
        }
    return {
        "sim_wall_s": sim_wall_ns / 1e9,
        "phases": phases,
        "orchestration_s": orchestration_ns / 1e9,
        "coverage": (
            (phase_excl_ns + orchestration_ns) / sim_wall_ns if sim_wall_ns else 0.0
        ),
    }


def missing_engine_phases(tracer: PerfTracer) -> list[str]:
    """Engine phases that never appeared (CI profile-smoke assertion)."""
    return [name for name in ENGINE_PHASES if name not in tracer.aggregates]


# ---------------------------------------------------------------------------
# The bottleneck report.


def bottleneck_report(tracer: PerfTracer, accesses: int | None = None) -> dict:
    """One JSON summary answering "where did the time go?".

    ``accesses`` (total trace accesses simulated under the tracer)
    enables the per-phase attribution table: for each engine phase, the
    whole-run throughput the suite would reach if *only* that phase
    existed (``accesses / exclusive_s``) — the DAMOV-style ranking of
    which phase to optimize first.
    """
    phases = phase_summary(tracer)
    io_rows = {
        name: {"calls": agg.calls, "total_s": agg.total_s}
        for name, agg in sorted(
            tracer.aggregates.items(), key=lambda kv: -kv[1].total_ns
        )
        if agg.cat == "io"
    }
    report = {
        "sim_wall_s": phases["sim_wall_s"],
        "coverage": phases["coverage"],
        "orchestration_s": phases["orchestration_s"],
        "top_phases": phases["phases"],
        "io": io_rows,
        "dropped_events": tracer.dropped_events,
    }
    if accesses:
        report["accesses"] = int(accesses)
        report["attribution"] = {
            name: {
                "exclusive_s": row["exclusive_s"],
                "share": row["share"],
                "accesses_per_s": (
                    accesses / row["exclusive_s"] if row["exclusive_s"] else float("inf")
                ),
            }
            for name, row in phases["phases"].items()
        }
    return report


def render_bottleneck(report: dict, top: int = 12) -> str:
    """The bottleneck report as CLI text tables."""
    sections: list[str] = []
    phase_rows = [
        [
            name,
            str(row["calls"]),
            f"{row['exclusive_s']:.3f}",
            f"{row['share']:.1%}",
        ]
        + (
            [f"{report['attribution'][name]['accesses_per_s']:,.0f}"]
            if "attribution" in report and name in report["attribution"]
            else ([""] if "attribution" in report else [])
        )
        for name, row in list(report["top_phases"].items())[:top]
    ]
    headers = ["phase", "calls", "excl s", "share"]
    if "attribution" in report:
        headers.append("accesses/s if alone")
    phase_rows.append(
        ["(orchestration)", "", f"{report['orchestration_s']:.3f}", ""]
        + ([""] if "attribution" in report else [])
    )
    sections.append(
        render_table(
            headers,
            phase_rows,
            title=(
                f"engine phases by exclusive time "
                f"(sim wall {report['sim_wall_s']:.3f} s, "
                f"coverage {report['coverage']:.1%})"
            ),
        )
    )
    if report["io"]:
        sections.append(
            render_table(
                ["operation", "calls", "total s"],
                [
                    [name, str(row["calls"]), f"{row['total_s']:.3f}"]
                    for name, row in report["io"].items()
                ],
                title="cache / trace-store I/O",
            )
        )
    return "\n".join(sections)
