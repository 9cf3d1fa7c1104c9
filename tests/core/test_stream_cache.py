"""Tests for the stream cache mapper (Section IV hardware)."""

import numpy as np
import pytest

from repro.core.configure import equal_share_allocations
from repro.core.remap import blank_rows, single_groups
from repro.core.stream import StreamTable, configure_stream
from repro.core.stream_cache import (
    StreamCacheMapper,
    pack_set_id,
    unpack_set_idx,
    unpack_unit,
)
from repro.sim.params import tiny
from repro.sim.topology import Topology
from repro.workloads.trace import Trace


def make_setup(read_only=True, kind="indirect", placement="consistent"):
    config = tiny()
    table = StreamTable()
    stream = configure_stream(
        table,
        kind,
        base=1 << 16,
        size=64 * 1024,
        elem_size=64,
        read_only=read_only,
        name="data",
    )
    mapper = StreamCacheMapper(
        config, Topology(config), table, placement=placement
    )
    mapper.apply(
        *equal_share_allocations({stream.sid: stream}, config.n_units, config.rows_per_unit)
    )
    return config, stream, mapper


def stream_rows(n_units, sid, shares, groups=None):
    """Table rows holding one stream: ``shares`` in ``groups`` (default:
    one group over the units with rows)."""
    table_shares, table_groups = blank_rows(n_units)
    table_shares[sid] = shares
    table_groups[sid] = single_groups(shares) if groups is None else groups
    return table_shares, table_groups


def trace_of(stream, elem_ids, cores=None, writes=None):
    n = len(elem_ids)
    return Trace(
        core=np.zeros(n, np.int32) if cores is None else np.asarray(cores, np.int32),
        addr=stream.base + np.asarray(elem_ids, np.int64) * stream.elem_size,
        write=np.zeros(n, bool) if writes is None else np.asarray(writes, bool),
        sid=np.full(n, stream.sid, np.int32),
    )


class TestPacking:
    def test_roundtrip(self):
        sids = np.array([1, 511])
        units = np.array([0, 63])
        set_idx = np.array([5, (1 << 33) - 1])
        packed = pack_set_id(sids, units, set_idx)
        assert np.array_equal(unpack_unit(packed), units)
        assert np.array_equal(unpack_set_idx(packed), set_idx)


class TestHitMiss:
    def test_repeat_access_hits(self):
        _, stream, mapper = make_setup()
        out = mapper.process(trace_of(stream, [5, 5, 5]))
        assert list(out.hit) == [False, True, True]

    def test_unallocated_stream_bypasses(self):
        config, stream, mapper = make_setup()
        mapper.apply(*blank_rows(config.n_units))  # no allocations
        out = mapper.process(trace_of(stream, [1, 1]))
        assert not out.hit.any()
        assert (out.serving_unit == -1).all()

    def test_indirect_miss_probes_dram(self):
        _, stream, mapper = make_setup(kind="indirect")
        out = mapper.process(trace_of(stream, [1, 2, 1]))
        # Misses on an indirect stream touch DRAM to read the in-line tag.
        assert out.miss_probe_dram[0]
        assert not out.miss_probe_dram[2]  # hit, charged as a hit

    def test_affine_miss_does_not_probe(self):
        _, stream, mapper = make_setup(kind="affine")
        out = mapper.process(trace_of(stream, [1, 600]))
        assert not out.miss_probe_dram.any()

    def test_affine_block_prefetch(self):
        """Elements in the same 1 kB block hit after the first touch."""
        _, stream, mapper = make_setup(kind="affine")
        # 64 B elements: 16 per 1 kB block.
        out = mapper.process(trace_of(stream, list(range(16))))
        assert not out.hit[0]
        assert out.hit[1:].all()

    def test_metadata_slb_costs(self):
        config, stream, mapper = make_setup()
        out = mapper.process(trace_of(stream, [1, 2, 3]))
        hit_ns = config.stream.slb_hit_ns
        # First access refills the SLB; the rest are SLB hits.
        assert out.metadata_ns[0] == pytest.approx(
            hit_ns + config.stream.slb_refill_ns
        )
        assert out.metadata_ns[1] == pytest.approx(hit_ns)

    def test_serving_unit_has_rows(self):
        config, stream, mapper = make_setup()
        out = mapper.process(trace_of(stream, np.arange(500) % 100))
        shares = mapper.table.shares[stream.sid]
        for unit in np.unique(out.serving_unit):
            assert shares[unit] > 0


class TestWarmState:
    def test_rescue_across_epochs_when_unchanged(self):
        _, stream, mapper = make_setup()
        mapper.process(trace_of(stream, [1, 2, 3]))
        out = mapper.process(trace_of(stream, [1, 2, 3]))
        assert out.hit.all()
        assert out.rescued_first_touches == 3

    def test_reconfiguration_stats(self):
        config, stream, mapper = make_setup()
        mapper.process(trace_of(stream, np.arange(200)))
        # Shrink the allocation to half the units: some content must move
        # or be invalidated.
        shares = np.zeros(config.n_units, dtype=np.int64)
        shares[:2] = config.rows_per_unit // 2
        stats = mapper.apply(*stream_rows(config.n_units, stream.sid, shares))
        assert stats.invalidations + stats.movements > 0

    def test_consistent_preserves_more_than_hash(self):
        preserved = {}
        for placement in ("consistent", "hash"):
            config, stream, mapper = make_setup(placement=placement)
            mapper.process(trace_of(stream, np.arange(400)))
            shares = np.full(config.n_units, config.rows_per_unit // 2, np.int64)
            stats = mapper.apply(*stream_rows(config.n_units, stream.sid, shares))
            preserved[placement] = stats.movements
        assert preserved["consistent"] > preserved["hash"]

    def test_unchanged_allocation_keeps_everything(self):
        config, stream, mapper = make_setup()
        mapper.process(trace_of(stream, np.arange(100)))
        same = equal_share_allocations(
            {stream.sid: stream}, config.n_units, config.rows_per_unit
        )
        stats = mapper.apply(*same)
        assert stats.invalidations == 0
        assert stats.movements == 0


class TestWriteException:
    def test_write_demotes_replicated_stream(self):
        config = tiny()
        table = StreamTable()
        stream = configure_stream(
            table, "indirect", base=1 << 16, size=64 * 1024, elem_size=64,
            read_only=True,
        )
        mapper = StreamCacheMapper(config, Topology(config), table)
        # Two replication groups over the four units.
        shares = np.full(config.n_units, 4, dtype=np.int64)
        groups = np.array([0, 0, 1, 1])
        mapper.apply(*stream_rows(config.n_units, stream.sid, shares, groups))
        writes = np.zeros(4, bool)
        writes[2] = True
        out = mapper.process(trace_of(stream, [1, 2, 3, 4], writes=writes))
        assert stream.sid in mapper.write_excepted
        # The shared StreamConfig stays pristine so reruns of the same
        # workload are not contaminated by this run's write exception.
        assert stream.read_only
        mapping = mapper._mappings[stream.sid]
        assert len(mapping.groups) == 1  # collapsed to a single copy
        # The exception latency lands on the first write.
        assert out.metadata_ns[2] > out.metadata_ns[1]

    def test_exception_fires_once(self):
        config = tiny()
        table = StreamTable()
        stream = configure_stream(
            table, "indirect", base=1 << 16, size=64 * 1024, elem_size=64
        )
        mapper = StreamCacheMapper(config, Topology(config), table)
        mapper.apply(
            *equal_share_allocations({stream.sid: stream}, config.n_units, config.rows_per_unit)
        )
        first = mapper.process(trace_of(stream, [1], writes=[True]))
        second = mapper.process(trace_of(stream, [2], writes=[True]))
        assert second.metadata_ns[0] < first.metadata_ns[0]


class TestAccounting:
    def test_sram_budget(self):
        config, _, mapper = make_setup()
        per_unit = mapper.sram_bytes_per_unit()
        assert per_unit > 0
        # SLB is 4544 B at 32 entries regardless of scale.
        assert mapper.slbs[0].sram_bytes == 4544
