"""Tests for the recorder, the null recorder, and a trace's profile
rows (read from the tracer handed to ``write_jsonl``)."""

import json
import math

import pytest

from repro.obs import (
    SCHEMA_VERSION,
    NullRecorder,
    Recorder,
    read_trace,
    sanitize_json,
)
from repro.obs.recorder import profile_rows
from repro.obs.tracing import NULL_TRACER, PerfTracer, activate, current


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class TestNullRecorder:
    def test_disabled(self):
        assert NullRecorder.enabled is False

    def test_all_hooks_are_noops(self):
        null = NullRecorder()
        null.event("epoch", epoch=0)
        null.counter("x")
        assert not hasattr(null, "events")


class TestRecorder:
    def test_events_carry_monotone_seq_and_kind(self):
        rec = Recorder()
        rec.event("alpha", x=1)
        rec.event("beta", y=2)
        assert [e["seq"] for e in rec.events] == [0, 1]
        assert rec.events[0]["kind"] == "alpha"
        assert rec.events[1]["y"] == 2

    def test_counters_accumulate(self):
        rec = Recorder()
        rec.counter("n", 2)
        rec.counter("n", 3)
        assert rec.counters["n"] == 5

    def test_events_of_filters_by_kind(self):
        rec = Recorder()
        rec.event("a")
        rec.event("b")
        rec.event("a")
        assert len(rec.events_of("a")) == 2

    def test_span_accumulates_wall_clock(self, tmp_path):
        """Spans go to the ambient tracer; the trace's profile lines
        are read from the tracer handed to ``write_jsonl``."""
        rec = Recorder()
        tracer = PerfTracer(keep_events=False)
        with activate(tracer):
            with current().span("work"):
                pass
            with current().span("work"):
                pass
        path = tmp_path / "t.jsonl"
        rec.write_jsonl(str(path), tracer)
        (row,) = read_trace(str(path)).profile
        assert row["label"] == "work"
        assert row["calls"] == 2
        assert row["total_s"] >= row["exclusive_s"] >= 0.0

    def test_jsonl_layout(self, tmp_path):
        rec = Recorder(workload="pr", policy="ndpext")
        rec.event("epoch", epoch=0)
        rec.counter("n", 1)
        tracer = PerfTracer(keep_events=False)
        with tracer.span("s"):
            pass
        path = tmp_path / "t.jsonl"
        lines = rec.write_jsonl(str(path), tracer)
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(parsed) == lines
        assert parsed[0]["kind"] == "header"
        assert parsed[0]["schema"] == SCHEMA_VERSION
        assert parsed[0]["workload"] == "pr"
        assert [p["kind"] for p in parsed[2:-1]] == ["counters", "profile"]
        assert parsed[-2]["label"] == "s"
        assert parsed[-1] == {"kind": "footer", "events": 1}

    def test_jsonl_never_emits_nan_or_infinity_tokens(self, tmp_path):
        """A non-finite counter or event field must serialize as ``null``:
        the bare ``NaN``/``Infinity`` tokens json.dumps would otherwise
        produce are rejected by the JSON spec and strict parsers."""
        rec = Recorder()
        rec.event("weird", value=float("nan"), nested={"x": float("inf")})
        rec.counter("bad_counter", float("-inf"))
        path = tmp_path / "t.jsonl"
        rec.write_jsonl(str(path))
        text = path.read_text()
        assert "NaN" not in text
        assert "Infinity" not in text
        parsed = [json.loads(line) for line in text.splitlines()]
        event = next(p for p in parsed if p.get("kind") == "weird")
        assert event["value"] is None
        assert event["nested"]["x"] is None
        # And the sanitized trace still round-trips through read_trace.
        trace = read_trace(str(path))
        assert trace.counters["bad_counter"] is None


class TestSanitizeJson:
    def test_maps_non_finite_to_none_recursively(self):
        dirty = {
            "a": float("nan"),
            "b": [1.0, float("inf"), {"c": float("-inf")}],
            "d": (2.0, math.nan),
            "ok": 3.5,
        }
        clean = sanitize_json(dirty)
        assert clean == {"a": None, "b": [1.0, None, {"c": None}], "d": [2.0, None], "ok": 3.5}

    def test_leaves_finite_values_and_non_floats_alone(self):
        payload = {"i": 7, "s": "x", "f": 1.25, "b": True, "n": None}
        assert sanitize_json(payload) == payload


class TestReadTrace:
    def _write(self, tmp_path, rec):
        path = tmp_path / "t.jsonl"
        rec.write_jsonl(str(path))
        return str(path)

    def test_round_trip(self, tmp_path):
        rec = Recorder(workload="pr")
        rec.event("epoch", epoch=0)
        rec.event("reconfig", epoch=1, applied=True)
        path = self._write(tmp_path, rec)
        trace = read_trace(path)
        assert trace.header["workload"] == "pr"
        assert [e["kind"] for e in trace.events] == ["epoch", "reconfig"]
        assert trace.footer["events"] == 2

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "epoch", "epoch": 0}\n')
        with pytest.raises(ValueError, match="header"):
            read_trace(str(path))

    @pytest.mark.parametrize("schema", ['"x"', "null", "0", "-1", "true"])
    def test_rejects_invalid_schema(self, tmp_path, schema):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "schema": %s}\n' % schema)
        with pytest.raises(ValueError, match="schema"):
            read_trace(str(path))

    def test_newer_schema_warns_but_reads(self, tmp_path):
        """Forward compatibility: a trace from a newer recorder is read
        with a warning (the framing is stable), not refused."""
        path = tmp_path / "newer.jsonl"
        path.write_text(
            '{"kind": "header", "schema": 999}\n'
            '{"kind": "epoch", "epoch": 0}\n'
        )
        with pytest.warns(UserWarning, match="newer"):
            trace = read_trace(str(path))
        assert trace.events[0]["epoch"] == 0

    def test_older_schema_reads_silently(self, tmp_path):
        path = tmp_path / "older.jsonl"
        path.write_text('{"kind": "header", "schema": 1}\n')
        trace = read_trace(str(path))
        assert trace.header["schema"] == 1

    def test_rejects_truncated_trace(self, tmp_path):
        rec = Recorder()
        rec.event("epoch", epoch=0)
        rec.event("epoch", epoch=1)
        path = tmp_path / "t.jsonl"
        rec.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        del lines[1]  # drop one event; the footer count now disagrees
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            read_trace(str(path))

    def test_rejects_garbage_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "schema": 1}\nnot json\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            read_trace(str(path))


class TestProfileRows:
    """A trace's ``profile`` rows, read from the tracer's aggregates."""

    def _tracer(self):
        clock = FakeClock()
        tracer = PerfTracer(keep_events=False, clock=clock)
        for _ in range(5):
            with tracer.span("fast"):
                clock.now += 100_000_000
        with tracer.span("slow"):
            clock.now += 1_000_000_000
            with tracer.span("fast"):
                clock.now += 500_000_000
            clock.now += 500_000_000
        return tracer

    def test_add_and_summary_order(self):
        tracer = self._tracer()
        summary = profile_rows(tracer)
        assert [row["label"] for row in summary] == ["slow", "fast"]
        assert summary[1]["calls"] == 6
        assert summary[0]["total_s"] == pytest.approx(2.0)
        assert summary[0]["exclusive_s"] == pytest.approx(1.5)
        # Exclusive times sum to the root spans' wall time.
        assert sum(row["exclusive_s"] for row in summary) == pytest.approx(2.5)
        rows = [line for line in Recorder().lines(tracer) if line["kind"] == "profile"]
        assert rows == [{"kind": "profile", **row} for row in summary]
        assert set(rows[0]) == {
            "kind", "label", "calls", "total_s", "exclusive_s", "mean_us"
        }
        assert profile_rows(NULL_TRACER) == []

    def test_mean(self):
        (slow, fast) = profile_rows(self._tracer())
        assert slow["mean_us"] == pytest.approx(2.0e6)
        assert fast["mean_us"] == pytest.approx(1.0e6 / 6)
