"""Tests for the future-work extensions: adaptive block sizes and
dynamic stream resizing."""

import numpy as np
import pytest

from repro.core import NdpExtPolicy
from repro.core.configure import equal_share_allocations
from repro.core.stream import StreamTable, configure_stream
from repro.core.stream_cache import StreamCacheMapper
from repro.sim import SimulationEngine
from repro.sim.params import tiny
from repro.sim.topology import Topology
from repro.workloads import TINY, build
from repro.workloads.trace import Trace


def make_mapper(kind="affine", elem=64):
    config = tiny()
    table = StreamTable()
    stream = configure_stream(
        table, kind, base=1 << 16, size=64 * 1024, elem_size=elem
    )
    mapper = StreamCacheMapper(config, Topology(config), table)
    mapper.apply(
        *equal_share_allocations(
            {stream.sid: stream}, config.n_units, config.rows_per_unit
        )
    )
    return config, table, stream, mapper


def trace_of(stream, elems):
    n = len(elems)
    return Trace(
        core=np.zeros(n, np.int32),
        addr=stream.base + np.asarray(elems, np.int64) * stream.elem_size,
        write=np.zeros(n, bool),
        sid=np.full(n, stream.sid, np.int32),
    )


class TestBlockOverride:
    def test_override_changes_granularity(self):
        _, _, stream, mapper = make_mapper()
        default = mapper.granularity_of(stream)
        assert mapper.set_block_override(stream.sid, default * 2)
        assert mapper.granularity_of(stream) == default * 2

    def test_same_size_is_noop(self):
        _, _, stream, mapper = make_mapper()
        assert not mapper.set_block_override(
            stream.sid, mapper.ata.block_bytes
        )

    def test_override_drops_resident(self):
        _, _, stream, mapper = make_mapper()
        mapper.process(trace_of(stream, [1, 2, 3]))
        mapper.set_block_override(stream.sid, 2048)
        out = mapper.process(trace_of(stream, [1]))
        assert out.rescued_first_touches == 0

    def test_rejects_non_power_of_two(self):
        _, _, stream, mapper = make_mapper()
        with pytest.raises(ValueError):
            mapper.set_block_override(stream.sid, 1000)

    def test_bigger_blocks_prefetch_more(self):
        _, _, stream, mapper = make_mapper()
        mapper.set_block_override(stream.sid, 4096)
        # 64 B elements: 64 per 4 kB block.
        out = mapper.process(trace_of(stream, list(range(64))))
        assert out.hit[1:].all()


class TestAdaptiveBlocksPolicy:
    def test_runs_and_matches_ballpark(self):
        config = tiny()
        workload = build("hotspot", TINY)
        engine = SimulationEngine(config)
        fixed = engine.run(workload, NdpExtPolicy())
        adaptive = engine.run(workload, NdpExtPolicy(adaptive_blocks=True))
        ratio = adaptive.runtime_cycles / fixed.runtime_cycles
        assert 0.5 < ratio < 1.5

    def test_pick_block_size_scales_with_runs(self):
        config = tiny()
        workload = build("pr", TINY)
        policy = NdpExtPolicy(adaptive_blocks=True)
        policy.setup(config, Topology(config), workload)
        stream = next(s for s in workload.streams if s.is_affine)
        sequential = np.arange(1000)
        scattered = np.arange(1000) * 17 % 997
        cores = np.zeros(1000, dtype=np.int32)
        big = policy._pick_block_size(stream, sequential, cores)
        small = policy._pick_block_size(stream, scattered, cores)
        assert big >= small
        assert big <= policy.MAX_BLOCK_BYTES
        assert small >= policy.MIN_BLOCK_BYTES


class TestDynamicResize:
    def test_resize_grows(self):
        _, table, stream, mapper = make_mapper()
        table.resize(stream.sid, 128 * 1024)
        assert stream.size == 128 * 1024
        # New space resolves to the stream.
        addr = np.array([stream.base + 100 * 1024])
        assert table.resolve(addr)[0] == stream.sid

    def test_resize_shrinks_and_unresolves(self):
        _, table, stream, mapper = make_mapper()
        table.resize(stream.sid, 32 * 1024)
        addr = np.array([stream.base + 48 * 1024])
        assert table.resolve(addr)[0] == -1

    def test_resize_rejects_overlap(self):
        config = tiny()
        table = StreamTable()
        a = configure_stream(table, "affine", base=4096, size=4096, elem_size=4)
        configure_stream(table, "affine", base=16384, size=4096, elem_size=4)
        with pytest.raises(ValueError):
            table.resize(a.sid, 1 << 20)

    def test_resize_rejects_bad_size(self):
        _, table, stream, _ = make_mapper()
        with pytest.raises(ValueError):
            table.resize(stream.sid, 100)  # not an element multiple
        with pytest.raises(ValueError):
            table.resize(stream.sid, 0)

    def test_notify_resize_invalidates(self):
        _, table, stream, mapper = make_mapper()
        mapper.process(trace_of(stream, [1, 2, 3]))
        table.resize(stream.sid, 128 * 1024)
        dropped = mapper.notify_resize(stream.sid)
        assert dropped > 0
        out = mapper.process(trace_of(stream, [1]))
        assert out.rescued_first_touches == 0

    def test_resize_then_access_new_space(self):
        _, table, stream, mapper = make_mapper()
        table.resize(stream.sid, 128 * 1024)
        mapper.notify_resize(stream.sid)
        new_elems = [1200, 1200, 1500]  # beyond the original 1024 elements
        out = mapper.process(trace_of(stream, new_elems))
        assert out.hit[1]
