"""Property tests on the stream-cache mapper's structural invariants."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configure import equal_share_allocations
from repro.core.consistent import ConsistentRing
from repro.core.remap import single_groups
from repro.core.stream import StreamTable, configure_stream
from repro.core.stream_cache import StreamCacheMapper, unpack_unit
from repro.sim.params import tiny
from repro.sim.topology import Topology
from repro.workloads.trace import Trace
from tests.core.test_stream_cache import stream_rows


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
        *equal_share_allocations(
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
            assert mapper.table.shares[streams[s_idx].sid, unit] > 0
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
        mapper.apply(*stream_rows(config.n_units, stream.sid, shares, groups))
        picks = [(0, e) for e in range(100)]
        out_g0 = mapper.process(trace_for(streams, picks, [0] * 100))
        out_g1 = mapper.process(trace_for(streams, picks, [3] * 100))
        assert set(np.unique(out_g0.serving_unit)) <= {0, 1}
        assert set(np.unique(out_g1.serving_unit)) <= {2, 3}

    def test_unit_outside_groups_uses_nearest(self):
        config, streams, mapper = build_mapper(n_streams=1)
        stream = streams[0]
        shares = np.array([4, 0, 0, 0], dtype=np.int64)
        mapper.apply(*stream_rows(config.n_units, stream.sid, shares))
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


class TestCollapsedGroups:
    def test_reinstalling_rows_restores_collapsed_groups(self):
        """A write to a replicated read-only stream collapses its installed
        mapping to one group without touching the table.  Installing the
        same two-group rows again must rebuild both groups: an unchanged
        row does not mean the installed mapping is current."""
        config, streams, mapper = build_mapper(n_streams=1)
        stream = streams[0]
        assert stream.read_only
        two_groups = stream_rows(
            config.n_units, stream.sid, np.full(config.n_units, 2), [0, 0, 1, 1]
        )
        mapper.apply(*two_groups)
        assert len(mapper._mappings[stream.sid].groups) == 2
        picks = [(0, e) for e in range(20)]
        written = trace_for(streams, picks, [0] * 20)
        written.write[0] = True
        mapper.process(written)
        assert len(mapper._mappings[stream.sid].groups) == 1
        mapper.apply(*two_groups)
        assert len(mapper._mappings[stream.sid].groups) == 2
        out = mapper.process(trace_for(streams, picks, [3] * 20))
        assert set(np.unique(out.serving_unit)) <= {2, 3}

    def test_block_change_keeps_the_collapse(self):
        """A block-size change rebuilds the stream's mapping; a written
        read-only stream must stay collapsed to one group, or it would
        replicate again with no exception left to collapse it."""
        config, streams, mapper = build_mapper(n_streams=1)
        stream = streams[0]
        mapper.apply(
            *stream_rows(
                config.n_units, stream.sid, np.full(config.n_units, 2), [0, 0, 1, 1]
            )
        )
        picks = [(0, e) for e in range(20)]
        written = trace_for(streams, picks, [0] * 20)
        written.write[0] = True
        mapper.process(written)
        assert len(mapper._mappings[stream.sid].groups) == 1
        assert mapper.set_block_override(stream.sid, 512)
        assert len(mapper._mappings[stream.sid].groups) == 1
        assert stream.sid in mapper.write_excepted
        mapper.notify_resize(stream.sid)
        assert len(mapper._mappings[stream.sid].groups) == 1


def installed_rows(mapper):
    return mapper.table.shares, mapper.table.groups


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
        shares, groups = stream_rows(config.n_units, streams[1].sid, shares_b)
        shares[streams[0].sid] = shares_a
        groups[streams[0].sid] = single_groups(shares_a)
        mapper.apply(shares, groups)
        cores = [i % config.n_units for i in range(len(picks))]
        mapper.process(trace_for(streams, picks, cores))
        resident = {sid: len(r.set_ids) for sid, r in mapper._resident.items()}
        with counting_ring_builds() as builds:
            stats = mapper.apply(*installed_rows(mapper))
        assert stats.invalidations == 0
        assert stats.movements == 0
        assert builds == []
        assert {sid: len(r.set_ids) for sid, r in mapper._resident.items()} == resident

    def test_resizing_one_stream_keeps_the_others_ring(self):
        config, streams, mapper = build_mapper()
        sid_a, sid_b = streams[0].sid, streams[1].sid
        ring_b = mapper._mappings[sid_b].groups[0].ring
        assert ring_b is not None
        shares, groups = installed_rows(mapper)
        shares = shares.copy()
        shares[sid_a] -= 1
        with counting_ring_builds() as builds:
            mapper.apply(shares, single_groups(shares))
        assert mapper._mappings[sid_b].groups[0].ring is ring_b
        # Only stream A's group was rebuilt.
        assert len(builds) == 1
        assert mapper._mappings[sid_a].groups[0].ring is not ring_b


def placements(mapper, sid, tags):
    """Where the installed mapping of ``sid`` sends ``tags`` from each
    requesting unit: one array of packed set ids per unit, or None when
    the unit's group holds no sets."""
    mapping = mapper._mappings[sid]
    out = []
    for unit in range(mapper.config.n_units):
        if not mapping.groups:
            out.append(None)
            continue
        group = mapping.groups[int(mapping.group_of_unit[unit])]
        out.append(
            mapper._map_to_sets(mapping, group, tags) if group.total_sets else None
        )
    return out


def same_placements(a, b):
    return all(
        (x is None and y is None)
        or (x is not None and y is not None and np.array_equal(x, y))
        for x, y in zip(a, b)
    )


def assert_resident_pairs_are_mapped(mapper):
    """Every resident (set, tag) pair sits at the set the installed
    mapping sends its tag to from the pair's unit."""
    for sid, resident in mapper._resident.items():
        mapping = mapper._mappings[sid]
        units = unpack_unit(resident.set_ids)
        for unit, set_id, tag in zip(units, resident.set_ids, resident.tags):
            group = mapping.groups[int(mapping.group_of_unit[unit])]
            assert mapper._map_to_sets(mapping, group, np.array([tag]))[0] == set_id


PROBE_TAGS = np.arange(64, dtype=np.int64)
N_UNITS = tiny().n_units
ROWS = st.lists(st.integers(min_value=0, max_value=4), min_size=N_UNITS, max_size=N_UNITS)
GROUPS = st.lists(st.integers(min_value=0, max_value=1), min_size=N_UNITS, max_size=N_UNITS)
STEP = st.one_of(
    # Per stream: keep the installed row (None), regroup its shares, or
    # draw a new row.
    st.tuples(
        st.just("apply"),
        st.lists(
            st.none() | st.tuples(st.none(), GROUPS) | st.tuples(ROWS, GROUPS),
            min_size=3,
            max_size=3,
        ),
    ),
    st.tuples(
        st.just("process"),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=511),
                st.integers(min_value=0, max_value=N_UNITS - 1),
            ),
            min_size=1,
            max_size=120,
        ),
    ),
    st.tuples(st.just("evict"), st.integers(min_value=0, max_value=N_UNITS - 1)),
    st.tuples(
        st.just("quarantine"),
        st.integers(min_value=0, max_value=N_UNITS - 1),
        st.integers(min_value=0, max_value=tiny().rows_per_unit - 1),
    ),
    st.tuples(
        st.just("block"),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([256, 512, 1024, 2048]),
    ),
)


class TestRebuildsOnlyChangedRows:
    @given(st.lists(STEP, min_size=1, max_size=10), st.sampled_from(["hash", "consistent"]))
    @settings(max_examples=60, deadline=None)
    def test_kept_mappings_stay_sound(self, steps, placement):
        """Random installs, epochs, unit evictions, row quarantines and
        block-size changes.  After every step each resident pair sits at
        its tag's mapped set, and every installed mapping places tags as
        a fresh build from the table rows would.  An install that leaves
        a stream's row and granularity unchanged maps its tags as before.
        (Writes, which collapse replicated mappings, are covered by
        ``TestCollapsedGroups``.)"""
        config, streams, mapper = build_mapper(n_streams=3, placement=placement)
        for step in steps:
            before = {
                s.sid: (
                    mapper.table.shares[s.sid],
                    mapper.table.groups[s.sid],
                    mapper.granularity_of(s),
                    placements(mapper, s.sid, PROBE_TAGS),
                )
                for s in streams
            }
            if step[0] == "apply":
                shares = mapper.table.shares.copy()
                groups = mapper.table.groups.copy()
                room = mapper.table.capacity - shares.sum(axis=0)
                for stream, drawn in zip(streams, step[1]):
                    if drawn is None:
                        continue
                    row = shares[stream.sid]
                    if drawn[0] is not None:
                        room += row
                        row = np.minimum(np.asarray(drawn[0], dtype=np.int64), room)
                        room -= row
                    shares[stream.sid] = row
                    groups[stream.sid] = np.where(row > 0, drawn[1], -1)
                mapper.apply(shares, groups)
            elif step[0] == "process":
                picks = [(s, e) for s, e, _ in step[1]]
                mapper.process(trace_for(streams, picks, [c for _, _, c in step[1]]))
            elif step[0] == "evict":
                mapper.evict_units([step[1]])
            elif step[0] == "quarantine":
                mapper.quarantine_row(step[1], step[2])
            else:
                mapper.set_block_override(streams[step[1]].sid, step[2])
            assert_resident_pairs_are_mapped(mapper)
            for stream in streams:
                sid = stream.sid
                now = placements(mapper, sid, PROBE_TAGS)
                installed = mapper._mappings[sid]
                mapper._mappings[sid] = mapper._build_installed(stream)
                assert same_placements(now, placements(mapper, sid, PROBE_TAGS))
                mapper._mappings[sid] = installed
                shares, groups, granularity, placed = before[sid]
                if (
                    step[0] in ("apply", "evict", "quarantine")
                    and np.array_equal(shares, mapper.table.shares[sid])
                    and np.array_equal(groups, mapper.table.groups[sid])
                    and granularity == mapper.granularity_of(stream)
                ):
                    assert same_placements(placed, now)
