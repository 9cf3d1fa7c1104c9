"""Tests for the shared-memory contention model (queueing + roofline)."""

import numpy as np
import pytest

from repro.core.stream import StreamTable, configure_stream
from repro.sim.engine import DramCachePolicy, RequestOutcome, SimulationEngine
from repro.sim.params import tiny
from repro.workloads.trace import Trace, Workload

from dataclasses import replace


class AlwaysMiss(DramCachePolicy):
    name = "always-miss"

    def setup(self, config, topology, workload):
        pass

    def process(self, epoch):
        n = len(epoch)
        return RequestOutcome(
            hit=np.zeros(n, dtype=bool),
            serving_unit=np.full(n, -1, dtype=np.int64),
            local_row=np.full(n, -1, dtype=np.int64),
            miss_probe_dram=np.zeros(n, dtype=bool),
            metadata_ns=np.zeros(n),
        )


def gather_workload(n=4000, n_cores=4, seed=1):
    table = StreamTable()
    stream = configure_stream(
        table, "indirect", base=4096, size=1 << 20, elem_size=64
    )
    rng = np.random.default_rng(seed)
    addrs = stream.base + rng.integers(0, stream.n_elements, n) * 64
    trace = Trace(
        core=np.arange(n, dtype=np.int32) % n_cores,
        addr=addrs,
        write=np.zeros(n, bool),
        sid=np.full(n, stream.sid, np.int32),
    )
    return Workload(name="gather", streams=table, trace=trace)


def _units(epoch, config):
    """Each request's issuing unit, as the engine derives it."""
    return epoch.core.astype(np.int64) % config.n_units


def _session(config):
    return SimulationEngine(config).begin_session(gather_workload(), AlwaysMiss())


class TestQueueing:
    def test_fewer_channels_is_slower(self):
        config = tiny()
        wide = config.scaled(cxl=replace(config.cxl, channels=8))
        narrow = config.scaled(cxl=replace(config.cxl, channels=1))
        wl = gather_workload()
        fast = SimulationEngine(wide).run(wl, AlwaysMiss())
        slow = SimulationEngine(narrow).run(wl, AlwaysMiss())
        assert slow.runtime_cycles >= fast.runtime_cycles

    def test_queue_delay_positive_under_load(self):
        config = tiny().scaled(cxl=replace(tiny().cxl, channels=1))
        session = _session(config)
        epoch = session.workload.trace.epochs(config.epoch_accesses)[0]
        # Assemble the inputs _queueing_delay needs.
        stall = np.full(len(epoch), 100.0)
        ext_mask = np.ones(len(epoch), dtype=bool)
        delay = session._queueing_delay(
            epoch, stall, ext_mask, _units(epoch, config), len(epoch)
        )
        assert delay > 0

    def test_no_misses_no_delay(self):
        config = tiny()
        session = _session(config)
        epoch = session.workload.trace.epochs(config.epoch_accesses)[0]
        delay = session._queueing_delay(
            epoch,
            np.zeros(len(epoch)),
            np.zeros(len(epoch), bool),
            _units(epoch, config),
            0,
        )
        assert delay == 0.0


class TestRoofline:
    def test_bound_scales_with_misses(self):
        session = _session(tiny())
        session._ext_accesses = 1000
        low = session._bandwidth_bound_ns()
        session._ext_accesses = 2000
        assert session._bandwidth_bound_ns() == pytest.approx(2 * low)

    def test_zero_without_traffic(self):
        session = _session(tiny())
        session._ext_accesses = 0
        assert session._bandwidth_bound_ns() == 0.0

    def test_service_time_components(self):
        config = tiny()
        service = _session(config)._ext_service_ns()
        ext = config.ext_dram
        assert service > ext.row_miss_ns / ext.banks  # plus transfer time

    def test_inter_stack_link_bound(self):
        """A remote-heavy access pattern is bounded by the inter-stack
        links' aggregate bandwidth when those links are slow."""
        from repro.sim.params import small
        from dataclasses import replace as dreplace

        base = small()
        slow_links = base.scaled(
            noc=dreplace(base.noc, inter_bw_gbps=0.05)
        )

        class RemoteHit(DramCachePolicy):
            name = "remote-hit"

            def setup(self, config, topology, workload):
                self.config = config
                self.far = int(np.argmax(topology.inter_hops[0]))

            def process(self, epoch):
                n = len(epoch)
                return RequestOutcome(
                    hit=np.ones(n, dtype=bool),
                    serving_unit=np.full(n, self.far, dtype=np.int64),
                    local_row=np.zeros(n, dtype=np.int64),
                    miss_probe_dram=np.zeros(n, dtype=bool),
                    metadata_ns=np.zeros(n),
                )

        wl = gather_workload(n=6000, n_cores=4)
        fast = SimulationEngine(base).run(wl, RemoteHit())
        slow = SimulationEngine(slow_links).run(wl, RemoteHit())
        assert slow.runtime_cycles > fast.runtime_cycles * 1.5

    def test_runtime_respects_roofline(self):
        """A miss-heavy run's runtime is at least the bandwidth bound."""
        config = tiny().scaled(cxl=replace(tiny().cxl, channels=1))
        wl = gather_workload(n=8000)
        session = SimulationEngine(config).begin_session(wl, AlwaysMiss())
        for epoch in wl.trace.epochs(config.epoch_accesses):
            session.step(epoch)
        report = session.finish()
        bound_cycles = session._bandwidth_bound_ns() / config.core.cycle_ns
        assert report.runtime_cycles >= bound_cycles * 0.999
