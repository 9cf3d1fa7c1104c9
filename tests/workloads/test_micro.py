"""Tests for the microbenchmark workloads — and through them, the
expected first-order cache behaviours of the whole stack."""

import numpy as np
import pytest

from repro.core import NdpExtPolicy
from repro.sim import SimulationEngine
from repro.sim.params import tiny
from repro.workloads import TINY
from repro.workloads.micro import (
    MICRO_FACTORIES,
    ping_pong,
    sequential,
    shared_hot,
    strided,
    uniform_gather,
    zipf_gather,
)


@pytest.fixture(scope="module")
def config():
    return tiny()


class TestConstruction:
    @pytest.mark.parametrize("name", sorted(MICRO_FACTORIES))
    def test_builds(self, name):
        wl = MICRO_FACTORIES[name](TINY)
        assert len(wl.trace) > 0
        resolved = wl.streams.resolve(wl.trace.addr)
        assert (resolved >= 0).all()

    @pytest.mark.parametrize("name", sorted(MICRO_FACTORIES))
    def test_deterministic(self, name):
        a = MICRO_FACTORIES[name](TINY)
        b = MICRO_FACTORIES[name](TINY)
        assert np.array_equal(a.trace.addr, b.trace.addr)


class TestExpectedBehaviours:
    def test_sequential_high_hit_from_blocks(self, config):
        """Streaming scans hit inside 1 kB blocks after each block fill."""
        report = SimulationEngine(config).run(
            sequential(TINY), NdpExtPolicy(mode="static")
        )
        # L1 + block prefetch absorb almost everything.
        total = report.hits.total_requests
        served_fast = report.hits.l1_hits + report.hits.cache_accesses * report.hits.cache_hit_rate
        assert served_fast / total > 0.8

    def test_strided_defeats_blocks(self, config):
        """2 kB strides touch one element per block: mostly misses."""
        report = SimulationEngine(config).run(
            strided(TINY, stride_elems=256), NdpExtPolicy(mode="static")
        )
        assert report.hits.miss_rate > 0.5

    def test_zipf_beats_uniform(self, config):
        """Skew concentrates the working set: higher hit rate than uniform
        at the same footprint."""
        engine = SimulationEngine(config)
        zipf = engine.run(zipf_gather(TINY), NdpExtPolicy(mode="static"))
        uniform = engine.run(uniform_gather(TINY), NdpExtPolicy(mode="static"))
        assert zipf.hits.cache_hit_rate > uniform.hits.cache_hit_rate

    def test_uniform_hit_tracks_capacity_ratio(self, config):
        """For uniform gathers, hit rate ~ cache/footprint (steady state)."""
        report = SimulationEngine(config).run(
            uniform_gather(TINY), NdpExtPolicy(mode="static")
        )
        wl = uniform_gather(TINY)
        ratio = config.total_cache_bytes / wl.footprint_bytes
        assert report.hits.cache_hit_rate < min(1.0, 2.5 * ratio) + 0.2

    def test_shared_hot_served_well_by_dynamic(self, config):
        """The dynamic policy allocates the shared hot block."""
        engine = SimulationEngine(config)
        policy = NdpExtPolicy()
        report = engine.run(shared_hot(TINY), policy)
        wl = shared_hot(TINY)
        hot = wl.stream_by_name("hot")
        assert policy.mapper.table.shares[hot.sid].sum() > 0
        assert report.hits.cache_hit_rate > 0.4

    def test_ping_pong_triggers_write_exception(self, config):
        """The mis-declared read-only stream is demoted on first write."""
        engine = SimulationEngine(config)
        policy = NdpExtPolicy()
        wl = ping_pong(TINY)
        shared = wl.stream_by_name("shared")
        assert shared.read_only  # declared read-only...
        engine.run(wl, policy)
        assert shared.sid in policy.mapper.write_excepted  # ...demoted
        # The demotion is per-run state; the declaration itself survives
        # so the next run of the same workload starts from a clean slate.
        assert shared.read_only
