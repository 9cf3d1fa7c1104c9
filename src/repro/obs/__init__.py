"""Observability: event recording, timelines, distributions, exporters.

Layers (DESIGN.md "Observability" and "Distributional observability"):

* :class:`Recorder` / :class:`NullRecorder` — structured counters and
  events; the null default costs nothing.  The recorder does no timing.
* :class:`Timeline` / :class:`EpochRecord` — per-epoch breakdowns of
  every aggregate in :class:`~repro.sim.metrics.SimulationReport`.
* :class:`LatencyHistogram` / :class:`TierHistogramSet` — fixed
  log-bucket latency distributions per serving tier, and
  :class:`SpatialAccumulator` / :class:`SpatialReport` — per-unit load
  and the stack-to-stack link-traffic matrix.
* :class:`PerfTracer` — perf_counter spans over the simulator's own
  hot paths (trace generation, L1 filter, policy internals, DRAM,
  reconfigure), the one sink every span site writes to through the
  ambient :func:`current`.  Its aggregates become a trace's ``profile``
  lines and the ``profile`` verb's report (Perfetto export and the
  bottleneck report live in :mod:`repro.obs.perfreport`, imported
  directly to keep this package import-light).
* Exporters — :func:`prometheus_text` / :func:`json_payload` over a
  report, and the ``dash`` HTML renderer.

``read_trace`` / ``summarize`` / ``diff_rows`` are the read side used
by ``python -m repro stats``; ``read_trace(path).report`` is the run's
:class:`~repro.sim.metrics.SimulationReport`, read from the trace's
``report`` line.
"""

from repro.obs.histogram import (
    BUCKET_SCHEME,
    TIERS,
    LatencyHistogram,
    TierHistogramSet,
)
from repro.obs.recorder import (
    SCHEMA_VERSION,
    NullRecorder,
    Recorder,
    sanitize_json,
)
from repro.obs.slo import (
    SLO_OK,
    SLO_PAGE,
    SLO_WARN,
    SloEngine,
    SloObjective,
    alert_severity,
    default_objectives,
)
from repro.obs.spatial import SpatialAccumulator, SpatialReport
from repro.obs.timeline import EpochRecord, Timeline
from repro.obs.tracing import (
    ENGINE_PHASES,
    NULL_TRACER,
    NullTracer,
    PerfTracer,
    SpanAgg,
    SpanEvent,
    activate,
    current,
)
from repro.obs.traceio import (
    TraceFile,
    diff_rows,
    read_trace,
    summarize,
    summary_rows,
)

__all__ = [
    "BUCKET_SCHEME",
    "ENGINE_PHASES",
    "NULL_TRACER",
    "SCHEMA_VERSION",
    "TIERS",
    "EpochRecord",
    "LatencyHistogram",
    "NullRecorder",
    "NullTracer",
    "PerfTracer",
    "Recorder",
    "SLO_OK",
    "SLO_PAGE",
    "SLO_WARN",
    "SloEngine",
    "SloObjective",
    "SpanAgg",
    "SpanEvent",
    "activate",
    "alert_severity",
    "current",
    "default_objectives",
    "SpatialAccumulator",
    "SpatialReport",
    "TierHistogramSet",
    "Timeline",
    "TraceFile",
    "diff_rows",
    "read_trace",
    "sanitize_json",
    "summarize",
    "summary_rows",
]
