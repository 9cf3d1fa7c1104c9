"""Property tests on the stream-cache mapper's structural invariants."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configure import equal_share_allocations
from repro.core.consistent import ConsistentRing
from repro.core.remap import StreamAllocation
from repro.core.stream import StreamTable, configure_stream
from repro.core.stream_cache import StreamCacheMapper, unpack_unit
from repro.sim.params import tiny
from repro.sim.topology import Topology
from repro.workloads.trace import Trace


def build_mapper(n_streams=2, placement="consistent", seed=0):
    config = tiny()
    table = StreamTable()
    streams = []
    for i in range(n_streams):
        kind = "affine" if i % 2 == 0 else "indirect"
        streams.append(
            configure_stream(
                table,
                kind,
                base=(i + 1) << 20,
                size=32 * 1024,
                elem_size=64,
                name=f"s{i}",
            )
        )
    mapper = StreamCacheMapper(config, Topology(config), table, placement=placement)
    mapper.apply(
        equal_share_allocations(
            {s.sid: s for s in streams}, config.n_units, config.rows_per_unit
        )
    )
    return config, streams, mapper


def trace_for(streams, picks, cores):
    addrs = np.array(
        [streams[s].base + (e % streams[s].n_elements) * 64 for s, e in picks],
        dtype=np.int64,
    )
    sids = np.array([streams[s].sid for s, _ in picks], dtype=np.int32)
    return Trace(
        core=np.asarray(cores, np.int32),
        addr=addrs,
        write=np.zeros(len(picks), bool),
        sid=sids,
    )


class TestMappingInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=511),
            ),
            min_size=1,
            max_size=200,
        ),
        st.sampled_from(["hash", "consistent"]),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_served_units_have_allocation(self, picks, placement, data):
        config, streams, mapper = build_mapper(placement=placement)
        cores = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=config.n_units - 1),
                min_size=len(picks),
                max_size=len(picks),
            )
        )
        out = mapper.process(trace_for(streams, picks, cores))
        for i, (s_idx, _) in enumerate(picks):
            unit = out.serving_unit[i]
            assert unit >= 0
            alloc = mapper.table.get(streams[s_idx].sid)
            assert alloc.shares[unit] > 0
            # Rows are within the unit's cache.
            assert 0 <= out.local_row[i] < config.rows_per_unit

    def test_mapping_deterministic_across_calls(self):
        config, streams, mapper = build_mapper()
        picks = [(0, e) for e in range(50)] + [(1, e) for e in range(50)]
        cores = [e % config.n_units for e in range(100)]
        a = mapper.process(trace_for(streams, picks, cores))
        # Fresh mapper, same config: identical placement decisions.
        _, streams2, mapper2 = build_mapper()
        b = mapper2.process(trace_for(streams2, picks, cores))
        assert np.array_equal(a.serving_unit, b.serving_unit)
        assert np.array_equal(a.local_row, b.local_row)

    def test_same_element_same_location(self):
        """Direct-mapped: one element always maps to one physical place
        (per replication group)."""
        config, streams, mapper = build_mapper()
        picks = [(1, 7)] * 20
        cores = [0] * 20  # same requesting unit -> same group
        out = mapper.process(trace_for(streams, picks, cores))
        assert len(np.unique(out.serving_unit)) == 1
        assert len(np.unique(out.local_row)) == 1

    def test_group_routing_respects_replicas(self):
        """With two replication groups, requests from each half of the
        machine are served within their own group's units."""
        config, streams, mapper = build_mapper(n_streams=1)
        stream = streams[0]
        shares = np.full(config.n_units, 2, dtype=np.int64)
        groups = np.array([0, 0, 1, 1])
        mapper.apply(
            [
                StreamAllocation(
                    sid=stream.sid,
                    shares=shares,
                    groups=groups,
                    row_base=np.zeros(config.n_units, np.int64),
                )
            ]
        )
        picks = [(0, e) for e in range(100)]
        out_g0 = mapper.process(trace_for(streams, picks, [0] * 100))
        out_g1 = mapper.process(trace_for(streams, picks, [3] * 100))
        assert set(np.unique(out_g0.serving_unit)) <= {0, 1}
        assert set(np.unique(out_g1.serving_unit)) <= {2, 3}

    def test_unit_outside_groups_uses_nearest(self):
        config, streams, mapper = build_mapper(n_streams=1)
        stream = streams[0]
        shares = np.array([4, 0, 0, 0], dtype=np.int64)
        mapper.apply([StreamAllocation.single_group(stream.sid, shares)])
        picks = [(0, e) for e in range(20)]
        out = mapper.process(trace_for(streams, picks, [3] * 20))
        assert (out.serving_unit == 0).all()

    def test_packed_units_roundtrip_through_outcome(self):
        config, streams, mapper = build_mapper()
        picks = [(0, e) for e in range(64)]
        out = mapper.process(trace_for(streams, picks, [1] * 64))
        sets = mapper._map_to_sets(
            mapper._mappings[streams[0].sid],
            mapper._mappings[streams[0].sid].groups[0],
            np.arange(4),
        )
        assert np.array_equal(
            unpack_unit(sets), unpack_unit(sets)
        )  # stable unpacking


def installed_allocations(mapper):
    return [mapper.table.get(sid) for sid in mapper.table.sids]


@contextmanager
def counting_ring_builds():
    """Counts ``ConsistentRing`` constructions inside the block."""
    builds = []
    original = ConsistentRing.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    with mock.patch.object(ConsistentRing, "__init__", counted):
        yield builds


class TestReapply:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=3), min_size=4, max_size=4
        ),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=511),
            ),
            min_size=1,
            max_size=200,
        ),
        st.sampled_from(["hash", "consistent"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_reapplying_installed_config_is_a_noop(self, shares_a, picks, placement):
        """Re-installing the installed allocations drops nothing, moves
        nothing and builds no ring."""
        config, streams, mapper = build_mapper(placement=placement)
        shares_a = np.asarray(shares_a, dtype=np.int64)
        shares_b = np.full(config.n_units, 4, dtype=np.int64)
        allocations = [
            StreamAllocation.single_group(streams[1].sid, shares_b)
        ]
        if shares_a.sum() > 0:
            allocations.append(
                StreamAllocation.single_group(streams[0].sid, shares_a)
            )
        mapper.apply(allocations)
        cores = [i % config.n_units for i in range(len(picks))]
        mapper.process(trace_for(streams, picks, cores))
        resident = {sid: len(r.set_ids) for sid, r in mapper._resident.items()}
        with counting_ring_builds() as builds:
            stats = mapper.apply(installed_allocations(mapper))
        assert stats.invalidations == 0
        assert stats.movements == 0
        assert builds == []
        assert {sid: len(r.set_ids) for sid, r in mapper._resident.items()} == resident

    def test_resizing_one_stream_keeps_the_others_ring(self):
        config, streams, mapper = build_mapper()
        sid_a, sid_b = streams[0].sid, streams[1].sid
        ring_b = mapper._mappings[sid_b].groups[0].ring
        assert ring_b is not None
        shrunk = [
            StreamAllocation.single_group(
                alloc.sid,
                alloc.shares - (1 if alloc.sid == sid_a else 0),
            )
            for alloc in installed_allocations(mapper)
        ]
        with counting_ring_builds() as builds:
            mapper.apply(shrunk)
        assert mapper._mappings[sid_b].groups[0].ring is ring_b
        # Only stream A's group was rebuilt.
        assert len(builds) == 1
        assert mapper._mappings[sid_a].groups[0].ring is not ring_b
