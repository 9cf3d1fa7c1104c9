"""Validation of the observability layer against the engine's aggregates.

Two guarantees pin the design:

1. Recording must be *read-only*: a run under a live Recorder produces a
   SimulationReport bit-identical to a run under the default
   NullRecorder (only ``timeline`` is additionally populated).
2. The per-epoch timeline must be *complete*: its series sum back to the
   run's aggregate report — exactly for integer hit counts, within float
   tolerance for latency/energy (static energy is charged once from the
   final runtime, so it is excluded from the per-epoch series).
"""

from dataclasses import fields

import pytest

from repro.experiments.runner import POLICIES
from repro.faults import CxlCrcBurst, FaultSchedule, UnitFailure
from repro.obs import Recorder
from repro.obs.tracing import PerfTracer, activate
from repro.sim import SimulationEngine, tiny
from repro.sim.metrics import EnergyBreakdown, HitStats, LatencyBreakdown
from repro.workloads import TINY, build
from tests.reports import assert_reports_identical


# Fields a recorded run may fill in that a plain run leaves empty.
RECORDING_FIELDS = ("faults", "timeline", "tier_histograms", "spatial")


def run_recorded(policy_name="ndpext", faults=None):
    recorder = Recorder(workload="pr", policy=policy_name, preset="tiny")
    engine = SimulationEngine(tiny(), faults=faults, recorder=recorder)
    report = engine.run(build("pr", TINY), POLICIES[policy_name]())
    return report, recorder


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_null_recorder_bit_identical(policy_name):
    """Recording must never perturb the simulation (DESIGN.md contract)."""
    plain = SimulationEngine(tiny()).run(build("pr", TINY), POLICIES[policy_name]())
    recorded, _ = run_recorded(policy_name)
    assert_reports_identical(plain, recorded, skip=RECORDING_FIELDS)
    assert plain.timeline is None
    assert recorded.timeline is not None
    # The distributional/spatial accumulators are recording-only too: a
    # NullRecorder run never constructs them.
    assert plain.tier_histograms is None and plain.spatial is None
    assert recorded.tier_histograms is not None
    assert recorded.spatial is not None


def test_timeline_populated_one_record_per_epoch():
    report, _ = run_recorded()
    assert len(report.timeline) == len(report.per_epoch_cycles)
    assert [r.epoch for r in report.timeline] == list(range(len(report.timeline)))


def _series_sum(report, name, zero):
    return sum((getattr(r, name) for r in report.timeline), zero)


def test_hit_series_sums_exactly_to_aggregate():
    report, _ = run_recorded()
    assert _series_sum(report, "hits", HitStats()) == report.hits


def test_latency_series_sums_to_aggregate():
    report, _ = run_recorded()
    agg = _series_sum(report, "breakdown", LatencyBreakdown())
    for f in fields(agg):
        assert getattr(agg, f.name) == pytest.approx(
            getattr(report.breakdown, f.name), rel=1e-9, abs=1e-6
        ), f.name


def test_energy_series_sums_to_aggregate_minus_static():
    report, _ = run_recorded()
    agg = _series_sum(report, "energy", EnergyBreakdown())
    # Static energy is charged once after the epoch loop, from the final
    # runtime; it cannot be attributed to an epoch.
    assert agg.static_nj == 0.0
    assert report.energy.static_nj > 0.0
    for f in fields(EnergyBreakdown):
        if f.name == "static_nj":
            continue
        assert getattr(agg, f.name) == pytest.approx(
            getattr(report.energy, f.name), rel=1e-9, abs=1e-6
        ), f.name


def test_last_record_carries_final_runtime():
    report, _ = run_recorded()
    assert report.timeline.records[-1].cycles_total == report.runtime_cycles


def test_reconfig_series_sums_to_aggregate():
    report, _ = run_recorded()
    assert (
        sum(r.reconfig_movements for r in report.timeline) == report.reconfig_movements
    )
    assert (
        sum(r.reconfig_invalidations for r in report.timeline)
        == report.reconfig_invalidations
    )


def test_reconfig_events_carry_predictions():
    _, recorder = run_recorded()
    reconfigs = recorder.events_of("reconfig")
    assert reconfigs, "ndpext must emit at least one reconfiguration event"
    for event in reconfigs:
        assert "applied" in event
        assert event["streams"], "per-stream predictions missing"
        for stream in event["streams"]:
            assert 0.0 <= stream["predicted_hit_rate"] <= 1.0


def test_hit_accuracy_events_pair_predicted_with_realized():
    _, recorder = run_recorded()
    accuracy = recorder.events_of("hit_accuracy")
    assert accuracy, "expected predicted-vs-realized events after epoch 0"
    for event in accuracy:
        for stream in event["streams"]:
            assert 0.0 <= stream["predicted"] <= 1.0
            assert 0.0 <= stream["realized"] <= 1.0


def test_fault_events_recorded_in_trace_and_timeline():
    schedule = FaultSchedule(
        (UnitFailure(epoch=1, unit=2), CxlCrcBurst(epoch=1, duration=1))
    )
    report, recorder = run_recorded(faults=schedule)
    unit_events = recorder.events_of("fault_unit")
    assert len(unit_events) == 1
    assert unit_events[0]["epoch"] == 1
    assert recorder.events_of("crc_burst")
    assert sum(r.fault_units for r in report.timeline) == 1


def test_engine_profile_spans_present():
    tracer = PerfTracer(keep_events=False)
    with activate(tracer):
        run_recorded()
    labels = set(tracer.aggregates)
    assert {"policy.setup", "engine.l1_filter", "policy.process", "engine.charge"} <= labels
    assert "configure.solve" in labels
    # Per-epoch children of policy.begin_epoch / policy.end_epoch.
    assert {"configure.predict_cost", "profile.assign", "profile.sample"} <= labels


def test_recorded_run_puts_each_policy_span_in_the_ambient_tracer_once():
    """One span sink: under an active tracer, a recorded run's policy
    internals land in that tracer, one span per occurrence — one solve
    and one cost prediction per ``reconfig`` event, one assignment and
    one sampling pass per profiled epoch."""
    tracer = PerfTracer()
    with activate(tracer):
        report, recorder = run_recorded()
    expected = {
        "configure.solve": len(recorder.events_of("reconfig")),
        "configure.predict_cost": len(recorder.events_of("reconfig")),
        "profile.assign": len(report.per_epoch_cycles),
        "profile.sample": len(report.per_epoch_cycles),
    }
    assert expected["configure.solve"] > 0
    for name, calls in expected.items():
        assert tracer.aggregates[name].calls == calls, name
        assert sum(e.name == name for e in tracer.events) == calls, name


def test_perf_tracer_bit_identical():
    """The span tracer holds the same read-only contract as the
    Recorder: an ambient PerfTracer must not perturb any simulated
    quantity — only observe where the simulator's wall clock went."""
    from repro.obs.tracing import PerfTracer, activate

    plain = SimulationEngine(tiny()).run(build("pr", TINY), POLICIES["ndpext"]())
    tracer = PerfTracer()
    with activate(tracer):
        traced = SimulationEngine(tiny()).run(
            build("pr", TINY), POLICIES["ndpext"]()
        )
    assert_reports_identical(plain, traced, skip=RECORDING_FIELDS)
    from repro.obs.perfreport import missing_engine_phases

    assert missing_engine_phases(tracer) == []
