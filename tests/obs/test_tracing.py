"""The span tracer's core contracts: zero-cost off state, exact
nested-span accounting, and bounded event buffers with exact
aggregates."""

from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    PerfTracer,
    activate,
    current,
)


class FakeClock:
    """Injectable monotonic clock with manual advancement."""

    def __init__(self, start=0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def make_tracer(**kw):
    clock = FakeClock()
    return PerfTracer(clock=clock, **kw), clock


class TestNullTracer:
    def test_span_returns_one_shared_constant(self):
        a = NULL_TRACER.span("x")
        b = NULL_TRACER.span("y", cat="io", epoch=3)
        assert a is b

    def test_off_state_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything") as s:
            assert s is not None


class TestAmbient:
    def test_defaults_to_null(self):
        assert current() is NULL_TRACER

    def test_activate_scopes_and_restores(self):
        tracer = PerfTracer()
        with activate(tracer) as active:
            assert active is tracer
            assert current() is tracer
            inner = PerfTracer()
            with activate(inner):
                assert current() is inner
            assert current() is tracer
        assert current() is NULL_TRACER

    def test_perf_tracer_is_a_null_tracer(self):
        # Call sites type against the null interface; the real tracer
        # must be substitutable.
        assert isinstance(PerfTracer(), NullTracer)
        assert PerfTracer().enabled is True


class TestSpanAccounting:
    def test_nested_exclusive_time(self):
        tracer, clock = make_tracer()
        with tracer.span("outer"):
            clock.advance(60)
            with tracer.span("inner"):
                clock.advance(40)
        outer, inner = tracer.aggregates["outer"], tracer.aggregates["inner"]
        assert outer.total_ns == 100 and outer.exclusive_ns == 60
        assert inner.total_ns == 40 and inner.exclusive_ns == 40
        assert outer.calls == inner.calls == 1

    def test_sibling_children_both_subtract(self):
        tracer, clock = make_tracer()
        with tracer.span("outer"):
            with tracer.span("a"):
                clock.advance(10)
            clock.advance(5)
            with tracer.span("b"):
                clock.advance(20)
        assert tracer.aggregates["outer"].exclusive_ns == 5

    def test_events_carry_parent_ids(self):
        tracer, clock = make_tracer()
        with tracer.span("outer"):
            clock.advance(1)
            with tracer.span("inner"):
                clock.advance(1)
        by_name = {e.name: e for e in tracer.events}
        assert by_name["outer"].parent == -1
        assert by_name["inner"].parent == by_name["outer"].sid
        # Inner closes first, so it is recorded first; the ids still
        # order by span *start*.
        assert by_name["inner"].sid > by_name["outer"].sid

    def test_event_buffer_caps_but_aggregates_stay_exact(self):
        tracer, clock = make_tracer(max_events=2)
        for _ in range(5):
            with tracer.span("step"):
                clock.advance(10)
        assert len(tracer.events) == 2
        assert tracer.dropped_events == 3
        assert tracer.aggregates["step"].calls == 5
        assert tracer.aggregates["step"].total_ns == 50

    def test_keep_events_false_records_no_events(self):
        tracer, clock = make_tracer(keep_events=False)
        with tracer.span("step"):
            clock.advance(10)
        assert tracer.events == []
        assert tracer.dropped_events == 0
        assert tracer.aggregates["step"].total_ns == 10
