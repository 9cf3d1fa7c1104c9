"""Spatial accumulators must reconcile exactly with the engine's
aggregate counters — the heatmap is the same data as HitStats, just not
collapsed — plus the paper-facing acceptance check that the local tier's
tail latency sits below the extended tier's."""

import numpy as np
import pytest

from repro.core import NdpExtPolicy
from repro.faults import FaultSchedule, UnitFailure
from repro.obs import Recorder, SpatialReport
from repro.sim import SimulationEngine, small, tiny
from repro.workloads import SMALL, TINY, build


def run_recorded(workload="pr", config=None, scale=TINY, faults=None):
    """A recorded run stepped through its session, which is returned
    so tests can read the run's own counters."""
    config = config if config is not None else tiny()
    recorder = Recorder(workload=workload, policy="ndpext")
    engine = SimulationEngine(config, faults=faults, recorder=recorder)
    wl = build(workload, scale)
    session = engine.begin_session(wl, NdpExtPolicy())
    for epoch in wl.trace.epochs(config.epoch_accesses):
        session.step(epoch)
    return session.finish(), session, recorder


class TestReconciliation:
    def test_issued_total_equals_post_l1_requests(self):
        report, _, _ = run_recorded()
        assert sum(report.spatial.issued) == report.hits.cache_accesses

    def test_served_total_equals_cache_hits(self):
        report, _, _ = run_recorded()
        assert (
            sum(report.spatial.served)
            == report.hits.cache_hits_local + report.hits.cache_hits_remote
        )

    def test_occupancy_total_equals_dram_latency(self):
        """Per-unit DRAM occupancy re-partitions breakdown.dram_ns."""
        report, _, _ = run_recorded()
        assert sum(report.spatial.occupancy_ns) == pytest.approx(
            report.breakdown.dram_ns, rel=1e-9
        )

    def test_off_diagonal_link_bytes_match_engine_roofline_counter(self):
        """The link matrix's off-diagonal sum is exactly the byte count
        the engine feeds its inter-stack bandwidth roofline."""
        report, session, _ = run_recorded(config=small(), scale=SMALL)
        assert report.spatial.n_stacks == 4
        assert report.spatial.inter_stack_bytes == session._inter_stack_bytes
        assert report.spatial.inter_stack_bytes > 0

    def test_single_stack_has_no_inter_stack_traffic(self):
        report, session, _ = run_recorded()  # tiny: one stack
        assert report.spatial.n_stacks == 1
        assert report.spatial.inter_stack_bytes == 0
        assert session._inter_stack_bytes == 0

    def test_ext_requests_by_stack_counts_four_legs_per_miss(self):
        """Each extended access shows up four times across the per-stack
        NoC legs: origin->port, port (x2: entry+exit), port->core."""
        report, _, _ = run_recorded()
        assert (
            sum(report.spatial.ext_requests_by_stack)
            == 4 * report.hits.cache_misses
        )

    def test_load_imbalance_at_least_one_when_anything_served(self):
        report, _, _ = run_recorded()
        assert report.spatial.load_imbalance >= 1.0
        assert report.load_imbalance == report.spatial.load_imbalance


class TestSpatialReportJson:
    def test_round_trip(self):
        report, _, _ = run_recorded()
        data = report.spatial.to_json()
        rebuilt = SpatialReport.from_json(data)
        assert rebuilt.issued == report.spatial.issued
        assert rebuilt.served == report.spatial.served
        assert rebuilt.link_bytes == report.spatial.link_bytes
        assert rebuilt.occupancy_ns == report.spatial.occupancy_ns
        assert rebuilt.load_imbalance == report.spatial.load_imbalance

    def test_json_is_plain_python_types(self):
        report, _, _ = run_recorded()
        data = report.spatial.to_json()
        assert all(isinstance(v, int) for v in data["issued"])
        assert all(isinstance(v, float) for v in data["occupancy_ns"])
        assert not any(
            isinstance(v, np.generic)
            for row in data["link_bytes"]
            for v in row
        )


class TestDemoteAttribution:
    def test_demote_events_carry_per_unit_counts(self):
        """Recorded demotions attribute each request to the unit it was
        aimed at, computed before the engine rewrites serving_unit."""
        from repro.faults import FaultState
        from repro.sim.engine import RequestOutcome

        config = tiny()
        recorder = Recorder()
        state = FaultState(
            FaultSchedule((UnitFailure(epoch=0, unit=2),)),
            config,
            recorder=recorder,
        )
        state.advance(0)
        serving = np.array([2, 1, 2, -1, 2], dtype=np.int64)
        outcome = RequestOutcome(
            hit=serving >= 0,
            serving_unit=serving,
            local_row=np.where(serving >= 0, 0, -1),
            miss_probe_dram=np.zeros(5, dtype=bool),
            metadata_ns=np.zeros(5),
        )
        assert state.demote(outcome) == 3
        (event,) = recorder.events_of("demote")
        assert event["requests"] == 3
        assert sum(event["by_unit"]) == 3
        assert event["by_unit"][2] == 3
        assert len(event["by_unit"]) == config.n_units

    def test_demote_under_null_recorder_skips_attribution(self):
        """The by_unit bincount is recording-only work; the demotion
        itself (and its aggregate count) is identical without it."""
        from repro.faults import FaultState
        from repro.sim.engine import RequestOutcome

        config = tiny()
        state = FaultState(
            FaultSchedule((UnitFailure(epoch=0, unit=1),)), config
        )
        state.advance(0)
        serving = np.array([1, 0], dtype=np.int64)
        outcome = RequestOutcome(
            hit=serving >= 0,
            serving_unit=serving,
            local_row=np.zeros(2, dtype=np.int64),
            miss_probe_dram=np.zeros(2, dtype=bool),
            metadata_ns=np.zeros(2),
        )
        assert state.demote(outcome) == 1
        assert state.report.demoted_requests == 1


class TestAcceptance:
    def test_p99_local_below_p99_extended_on_recsys_smoke(self):
        """The paper's core claim, distributionally: requests served by
        the issuing unit's own tier have a far shorter tail than those
        that fall through to CXL-extended memory."""
        report, _, _ = run_recorded(workload="recsys")
        local = report.tier_histograms["local"]
        extended = report.tier_histograms["extended"]
        assert local.n > 0 and extended.n > 0
        assert local.percentile(99.0) < extended.percentile(99.0)
        # The medians separate too, not just the tails.
        assert local.percentile(50.0) < extended.percentile(50.0)

    def test_tier_populations_partition_post_l1_requests(self):
        report, _, _ = run_recorded()
        total = sum(h.n for h in report.tier_histograms.values())
        assert total == report.hits.cache_accesses
        assert (
            report.tier_histograms["extended"].n == report.hits.cache_misses
        )
        assert (
            report.tier_histograms["local"].n
            + report.tier_histograms["intra"].n
            + report.tier_histograms["inter"].n
            == report.hits.cache_hits_local + report.hits.cache_hits_remote
        )
