"""Structured event recording for simulation runs.

A :class:`Recorder` collects two kinds of observations:

* **events** — schema-versioned dicts (one JSONL line each):
  reconfiguration decisions, sampled miss curves, fault injections,
  demotions, and the run's finished report (one ``report`` event per
  engine session).
* **counters** — cheap named scalars that accumulate into one
  ``counters`` line.

The recorder does no timing.  Spans go to the ambient
:class:`~repro.obs.tracing.PerfTracer` (:func:`~repro.obs.tracing.current`);
the CLI activates one around a recorded run and hands it to
:meth:`Recorder.write_jsonl`, which writes its aggregates as the
trace's ``profile`` lines.

The default everywhere is :class:`NullRecorder`, whose methods are
no-ops and whose ``enabled`` flag lets hot paths skip building payloads
entirely — with it installed, a simulation's outputs are bit-identical
to a build without any observability calls.

Trace layout (``write_jsonl``): a ``header`` line first (schema
version, run metadata), then every event in emission order, then one
``counters`` line, one ``profile`` line per span label of the tracer
passed in, and a final ``footer`` line with the event count
(truncation check).
"""

from __future__ import annotations

import json
import math
from typing import Iterator

from repro.obs.tracing import NULL_TRACER, NullTracer

# Schema history:
#   1 — initial trace layout (header / events / counters / profile / footer).
#   2 — serving-mode events added (serve_shed / serve_timeout /
#       serve_degraded / serve_reject), each with required fields the
#       summarizer validates.
#   3 — SLO events added (slo_burn / slo_recovered / slo_status).
#       Readers from here on are forward-compatible: a trace with a
#       *newer* integer schema is read with a warning, and unknown
#       serve_*/slo_* kinds are counted but not validated.
#   4 — each engine session writes its finished SimulationReport as one
#       ``report`` event; the epoch / histogram / spatial events and the
#       gauges line are gone.
SCHEMA_VERSION = 4


def sanitize_json(obj):
    """Recursively replace non-finite floats with ``None``.

    ``json.dumps`` would otherwise emit the bare tokens ``NaN`` /
    ``Infinity``, which strict JSON parsers (and the JSON spec) reject —
    a single undefined value would make a whole trace unreadable to
    anything but Python.  Applied at serialization time only; in-memory
    values are left untouched.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: sanitize_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json(value) for value in obj]
    return obj


class NullRecorder:
    """Zero-overhead default: every hook is a no-op.

    Hot paths guard payload construction on ``enabled``, so a run with
    the null recorder does no extra allocation, hashing, or arithmetic
    — its :class:`~repro.sim.metrics.SimulationReport` is bit-identical
    to one produced before the observability layer existed.
    """

    enabled = False

    def event(self, kind: str, **fields) -> None:
        pass

    def counter(self, name: str, value: float = 1) -> None:
        pass


def profile_rows(tracer: NullTracer) -> list[dict]:
    """Per-label span totals of ``tracer`` as JSON-able rows, slowest
    inclusive total first.  ``total_s`` includes child spans' time;
    ``exclusive_s`` does not, so the exclusive times sum to the wall
    time of the root spans.  The null tracer has no rows."""
    if not tracer.enabled:
        return []
    return [
        {
            "label": label,
            "calls": agg.calls,
            "total_s": agg.total_s,
            "exclusive_s": agg.exclusive_s,
            "mean_us": (agg.total_s / agg.calls if agg.calls else 0.0) * 1e6,
        }
        for label, agg in sorted(
            tracer.aggregates.items(), key=lambda kv: -kv[1].total_ns
        )
    ]


class Recorder(NullRecorder):
    """Collects events and counters."""

    enabled = True

    def __init__(self, **meta) -> None:
        self.meta = dict(meta)
        self.events: list[dict] = []
        self.counters: dict[str, float] = {}
        self._seq = 0

    # ------------------------------------------------------------------

    def event(self, kind: str, **fields) -> None:
        record = {"seq": self._seq, "kind": kind}
        record.update(fields)
        self._seq += 1
        self.events.append(record)

    def counter(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def events_of(self, kind: str) -> list[dict]:
        return [e for e in self.events if e["kind"] == kind]

    # ------------------------------------------------------------------

    def lines(self, tracer: NullTracer = NULL_TRACER) -> Iterator[dict]:
        """The trace as an ordered sequence of JSON-able dicts; the
        ``profile`` lines are ``tracer``'s aggregates."""
        header = {"kind": "header", "schema": SCHEMA_VERSION}
        header.update(self.meta)
        yield header
        yield from self.events
        if self.counters:
            yield {"kind": "counters", "values": dict(self.counters)}
        for row in profile_rows(tracer):
            yield {"kind": "profile", **row}
        yield {"kind": "footer", "events": len(self.events)}

    def write_jsonl(self, path: str, tracer: NullTracer = NULL_TRACER) -> int:
        """Write the trace (with ``tracer``'s ``profile`` lines); returns
        the number of lines written.

        Non-finite floats are mapped to ``null`` (``allow_nan=False``
        guarantees no ``NaN``/``Infinity`` token can slip through).
        """
        n = 0
        with open(path, "w") as f:
            for line in self.lines(tracer):
                f.write(
                    json.dumps(sanitize_json(line), sort_keys=False, allow_nan=False)
                    + "\n"
                )
                n += 1
        return n
