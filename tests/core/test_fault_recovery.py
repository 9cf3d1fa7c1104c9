"""Graceful-degradation tests: mapper eviction/quarantine and the
NDPExt runtime's fault recovery."""

import numpy as np
import pytest

from repro.core import NdpExtPolicy
from repro.core.configure import equal_share_allocations
from repro.faults import DramRowFault, FaultSchedule, UnitFailure
from repro.sim import SimulationEngine, tiny
from repro.workloads import TINY, build

from tests.core.test_stream_cache import make_setup, trace_of


class TestEvictUnits:
    def test_dead_unit_loses_shares_and_capacity(self):
        config, stream, mapper = make_setup()
        mapper.process(trace_of(stream, np.arange(200)))
        mapper.evict_units([0])
        shares = mapper.table.shares[stream.sid]
        assert shares[0] == 0
        assert mapper.table.capacity[0] == 0
        assert shares[1:].sum() > 0  # survivors keep their rows

    def test_requests_never_served_by_dead_unit(self):
        config, stream, mapper = make_setup()
        mapper.process(trace_of(stream, np.arange(200)))
        mapper.evict_units([0])
        out = mapper.process(trace_of(stream, np.arange(200)))
        assert not (out.serving_unit == 0).any()

    def test_eviction_counts_lost_lines(self):
        config, stream, mapper = make_setup()
        mapper.process(trace_of(stream, np.arange(400)))
        stats = mapper.evict_units([0])
        assert stats.invalidations > 0  # the dead unit held something
        assert stats.movements > 0  # ...but most survivors stayed put

    def test_consistent_placement_preserves_more_than_hash(self):
        preserved = {}
        for placement in ("consistent", "hash"):
            config, stream, mapper = make_setup(placement=placement)
            mapper.process(trace_of(stream, np.arange(400)))
            stats = mapper.evict_units([0])
            preserved[placement] = stats.movements
        # Section V-D's minimal-movement property is what makes recovery
        # cheap: only the dead unit's ring spots vanish.
        assert preserved["consistent"] > preserved["hash"]

    def test_capacity_respected_by_later_allocations(self):
        config, stream, mapper = make_setup()
        mapper.evict_units([0])
        full = equal_share_allocations(
            {stream.sid: stream}, config.n_units, config.rows_per_unit
        )
        with pytest.raises(ValueError):
            mapper.table.install(*full)  # would put rows on the dead unit


class TestQuarantineRow:
    def test_reduces_capacity_and_victim_share(self):
        config, stream, mapper = make_setup()
        before = mapper.table.shares[stream.sid]
        stats = mapper.quarantine_row(1, 0)
        after = mapper.table.shares[stream.sid]
        assert mapper.table.capacity[1] == config.rows_per_unit - 1
        assert after[1] == before[1] - 1
        assert after.sum() == before.sum() - 1

    def test_unused_row_only_shrinks_capacity(self):
        config, stream, mapper = make_setup()
        before = mapper.table.shares[stream.sid]
        unused_row = int(before[1])  # first row past the allocation
        stats = mapper.quarantine_row(1, unused_row)
        assert stats.invalidations == 0 and stats.movements == 0
        assert mapper.table.capacity[1] == config.rows_per_unit - 1
        assert np.array_equal(mapper.table.shares[stream.sid], before)


class TestNdpExtRecovery:
    def run_pair(self, schedule):
        config = tiny()
        workload = build("pr", TINY)
        remap = SimulationEngine(config, faults=schedule).run(
            workload, NdpExtPolicy(name="remap")
        )
        failstop = SimulationEngine(config, faults=schedule).run(
            workload, NdpExtPolicy(fault_recovery=False, name="failstop")
        )
        return remap, failstop

    def test_remap_avoids_demotion(self):
        schedule = FaultSchedule((UnitFailure(epoch=1, unit=0),), seed=1)
        remap, failstop = self.run_pair(schedule)
        # Recovery remaps before any request reaches the dead unit; the
        # fail-stop variant keeps sending requests there and the engine
        # demotes every one of them.
        assert remap.faults.demoted_requests == 0
        assert failstop.faults.demoted_requests > 0
        assert remap.faults.units_lost == 1
        assert failstop.faults.units_lost == 1

    def test_remap_is_faster_after_failure(self):
        schedule = FaultSchedule((UnitFailure(epoch=1, unit=0),), seed=1)
        remap, failstop = self.run_pair(schedule)
        post_remap = remap.runtime_cycles - remap.per_epoch_cycles[0]
        post_failstop = failstop.runtime_cycles - failstop.per_epoch_cycles[0]
        assert post_remap < post_failstop

    def test_row_fault_acknowledged_and_absorbed(self):
        schedule = FaultSchedule((DramRowFault(epoch=1, unit=0, row=0),), seed=1)
        config = tiny()
        workload = build("pr", TINY)
        report = SimulationEngine(config, faults=schedule).run(
            workload, NdpExtPolicy()
        )
        # The runtime remaps around the row and acknowledges it: no
        # request is ever demoted on its account.
        assert report.faults.rows_quarantined == 1
        assert report.faults.demoted_requests == 0

    def test_row_fault_demotes_without_recovery(self):
        # Row 1 of unit 0 is served under the deterministic pr trace on
        # the tiny preset; without recovery its accesses must bypass.
        schedule = FaultSchedule((DramRowFault(epoch=1, unit=0, row=1),), seed=1)
        config = tiny()
        workload = build("pr", TINY)
        report = SimulationEngine(config, faults=schedule).run(
            workload, NdpExtPolicy(fault_recovery=False, name="norecover")
        )
        assert report.faults.rows_quarantined == 1
        assert report.faults.demoted_requests > 0


class TestBaselineFailStop:
    def test_baseline_drops_lines_and_demotes(self):
        from repro.baselines import StaticNucaPolicy

        schedule = FaultSchedule((DramRowFault(epoch=1, unit=0, row=0),), seed=1)
        config = tiny()
        workload = build("pr", TINY)
        report = SimulationEngine(config, faults=schedule).run(
            workload, StaticNucaPolicy()
        )
        # The baseline never acknowledges the quarantined row: its lines
        # are dropped once and every later access bypasses.
        assert report.faults.fault_invalidations > 0
        assert report.faults.demoted_requests > 0

    def test_baseline_unit_failure_invalidates_resident(self):
        from repro.baselines import StaticNucaPolicy

        schedule = FaultSchedule((UnitFailure(epoch=1, unit=0),), seed=1)
        config = tiny()
        workload = build("pr", TINY)
        report = SimulationEngine(config, faults=schedule).run(
            workload, StaticNucaPolicy()
        )
        assert report.faults.units_lost == 1
        assert report.faults.fault_invalidations > 0
        assert report.faults.demoted_requests > 0
