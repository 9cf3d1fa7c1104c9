"""Hierarchical wall-clock span tracing with a zero-cost off state.

Where :mod:`repro.obs.recorder` answers *what the simulation did*, this
module answers *where the simulator's own time went* — the attribution
layer every ROADMAP perf item starts from.  A :class:`PerfTracer`
records **spans**: nested wall-clock intervals with parent ids, thread
ids, and optional per-span arguments.  Two representations are kept
simultaneously:

* **exact aggregates** — per-name call counts plus inclusive and
  *exclusive* time (inclusive minus time spent in child spans).  These
  are never dropped or sampled, so phase shares are exact even when the
  per-occurrence event buffer saturates.
* **per-occurrence events** — one :class:`SpanEvent` per closed span
  (bounded by ``max_events``), the input to the Chrome/Perfetto export
  in :mod:`repro.obs.perfreport`.

**One sink.**  Every span site in the package — engine phases, policy
internals, cache I/O, the runner — opens its span on the
process-ambient tracer, :func:`current`; :func:`activate` installs one
for a ``with`` scope.  The ``profile`` verb activates an event-keeping
tracer; ``run``/``compare``/``serve --trace-out`` activate an
aggregates-only one whose rows become the trace's ``profile`` lines.
A tracer observes one process: pool workers run under the null tracer.

**Off state.**  The default everywhere is the module singleton
:data:`NULL_TRACER`, whose ``span`` returns one shared do-nothing
context manager: an uninstrumented run performs no allocation, no
clock reads, and no arithmetic, so simulation outputs stay
bit-identical and wall clock stays within noise (the same contract as
:class:`~repro.obs.recorder.NullRecorder`).  Spans are timed with
``time.perf_counter_ns`` (monotonic, ns resolution).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

__all__ = [
    "ENGINE_PHASES",
    "NULL_TRACER",
    "NullTracer",
    "PerfTracer",
    "SpanAgg",
    "SpanEvent",
    "activate",
    "current",
]

# Engine phase span names guaranteed to appear in any traced simulation
# (see sim/engine.py).  Fault hooks and observability spans only occur
# when a fault schedule / live recorder is attached, so they are not
# listed.  CI's profile-smoke asserts this exact set is present.
ENGINE_PHASES = (
    "engine.run",
    "engine.epoch",
    "engine.l1_filter",
    "policy.begin_epoch",
    "policy.process",
    "engine.charge",
    "engine.dram_charge",
    "engine.cxl_charge",
    "engine.queueing",
    "engine.runtime_model",
)


class _NullSpan:
    """Reusable do-nothing context manager (one shared instance)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead default: every hook is a no-op constant."""

    enabled = False

    def span(self, name: str, cat: str = "phase", **args) -> _NullSpan:
        return _NULL_SPAN


NULL_TRACER = NullTracer()

# Process-ambient tracer.  A plain module global (not thread-local):
# within a process the simulator is single-threaded on its hot path.
# Thread ids are still recorded per span, so multi-threaded callers get
# correct events — they just share one tracer.
_current: NullTracer = NULL_TRACER


def current() -> NullTracer:
    """The process-ambient tracer (:data:`NULL_TRACER` unless activated)."""
    return _current


class _Activation:
    """Context manager installing ``tracer`` as the ambient tracer."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: NullTracer) -> None:
        self._tracer = tracer
        self._previous: NullTracer | None = None

    def __enter__(self):
        global _current
        self._previous = _current
        _current = self._tracer
        return self._tracer

    def __exit__(self, *exc) -> None:
        global _current
        _current = self._previous


def activate(tracer: NullTracer) -> _Activation:
    """``with activate(tracer):`` — scope ``tracer`` as :func:`current`."""
    return _Activation(tracer)


@dataclass
class SpanAgg:
    """Exact accumulated totals for one span name."""

    cat: str = "phase"
    calls: int = 0
    total_ns: int = 0  # inclusive
    child_ns: int = 0  # time inside child spans of this name's spans

    @property
    def exclusive_ns(self) -> int:
        return self.total_ns - self.child_ns

    @property
    def total_s(self) -> float:
        return self.total_ns / 1e9

    @property
    def exclusive_s(self) -> float:
        return self.exclusive_ns / 1e9


@dataclass
class SpanEvent:
    """One closed span occurrence; ``ts_ns`` is in the owning tracer's
    ``perf_counter_ns`` timebase."""

    sid: int
    parent: int  # parent span id, -1 at the root
    name: str
    cat: str
    ts_ns: int
    dur_ns: int
    tid: int
    args: dict | None = None


class _TraceSpan:
    """One open span; records itself into the tracer on ``__exit__``."""

    __slots__ = ("_tracer", "name", "cat", "args", "_t0", "_sid", "_parent", "child_ns")

    def __init__(self, tracer: "PerfTracer", name: str, cat: str, args: dict | None):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.child_ns = 0

    def __enter__(self) -> "_TraceSpan":
        tracer = self._tracer
        stack = tracer._stack()
        self._parent = stack[-1]._sid if stack else -1
        self._sid = tracer._next_sid
        tracer._next_sid += 1
        stack.append(self)
        self._t0 = tracer._clock()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        dur = tracer._clock() - self._t0
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].child_ns += dur
        agg = tracer.aggregates.get(self.name)
        if agg is None:
            agg = tracer.aggregates[self.name] = SpanAgg(cat=self.cat)
        agg.calls += 1
        agg.total_ns += dur
        agg.child_ns += self.child_ns
        if tracer.keep_events:
            tracer._record(
                SpanEvent(
                    sid=self._sid,
                    parent=self._parent,
                    name=self.name,
                    cat=self.cat,
                    ts_ns=self._t0,
                    dur_ns=dur,
                    tid=threading.get_ident(),
                    args=self.args,
                )
            )


class PerfTracer(NullTracer):
    """Collects hierarchical spans; see the module docstring.

    ``keep_events=False`` keeps only the exact aggregates (the mode a
    recorded run's trace uses); per-occurrence events are capped at
    ``max_events`` with a ``dropped_events`` counter — aggregates stay
    exact regardless.  ``clock`` is injectable for deterministic tests.
    """

    enabled = True

    def __init__(
        self,
        process_label: str = "main",
        keep_events: bool = True,
        max_events: int = 1_000_000,
        clock=None,
    ) -> None:
        self.process_label = process_label
        self.keep_events = keep_events
        self.max_events = max_events
        self.pid = os.getpid()
        self._clock = clock or time.perf_counter_ns
        self.events: list[SpanEvent] = []
        self.aggregates: dict[str, SpanAgg] = {}
        self.dropped_events = 0
        self._next_sid = 0
        self._tls = threading.local()

    def _stack(self) -> list[_TraceSpan]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _record(self, event: SpanEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(event)

    def span(self, name: str, cat: str = "phase", **args) -> _TraceSpan:
        return _TraceSpan(self, name, cat, args or None)
