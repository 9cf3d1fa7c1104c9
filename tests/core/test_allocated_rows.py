"""Property tests on allocated rows and ring spots under random
reconfigurations, unit evictions and DRAM row quarantines."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.remap import NO_GROUP, blank_rows
from repro.sim.params import tiny
from tests.core.test_mapper_invariants import build_mapper


def assert_rows_and_spots_valid(config, mapper):
    """No unit holds more than ``rows_per_unit`` allocated rows, and every
    installed ring's spots are distinct (unit, row) pairs inside their
    group's shares: the precondition that keeps ring tie order out of
    every result."""
    table = mapper.table
    assert (table.shares.sum(axis=0) <= config.rows_per_unit).all()
    held = table.shares > 0
    assert (table.row_base[held] + table.shares[held] <= config.rows_per_unit).all()
    for mapping in mapper._mappings.values():
        for group in mapping.groups:
            assert group.ring is not None
            spots = np.arange(len(group.ring))
            units = group.ring.units_of(spots).tolist()
            rows = group.ring.rows_of(spots).tolist()
            assert len(set(zip(units, rows))) == len(group.ring) == group.shares.sum()
            share_of = dict(zip(group.units.tolist(), group.shares.tolist()))
            assert all(0 <= row < share_of.get(unit, 0) for unit, row in zip(units, rows))


N_UNITS = tiny().n_units
UNIT = st.integers(min_value=0, max_value=N_UNITS - 1)
SHARES = st.lists(st.integers(min_value=0, max_value=4), min_size=N_UNITS, max_size=N_UNITS)
GROUPS = st.lists(st.integers(min_value=0, max_value=1), min_size=N_UNITS, max_size=N_UNITS)
OPERATION = st.one_of(
    st.tuples(
        st.just("apply"),
        st.lists(st.tuples(SHARES, GROUPS), min_size=3, max_size=3),
        st.booleans(),
    ),
    st.tuples(st.just("evict"), st.lists(UNIT, min_size=1, max_size=2, unique=True)),
    st.tuples(
        st.just("quarantine"),
        UNIT,
        st.integers(min_value=0, max_value=tiny().rows_per_unit - 1),
    ),
)


class TestAllocatedRows:
    @given(st.lists(OPERATION, min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_rows_and_ring_spots_stay_valid(self, operations):
        """Random reconfigurations, unit evictions and row quarantines.
        An ``apply`` whose shares overflow a unit's capacity must be
        refused; with ``fit`` set, its shares are first cut to fit."""
        config, streams, mapper = build_mapper(n_streams=3)
        assert_rows_and_spots_valid(config, mapper)
        for operation in operations:
            if operation[0] == "apply":
                _, drawn, fit = operation
                room = mapper.table.capacity.copy()
                table_shares, table_groups = blank_rows(N_UNITS)
                for stream, (shares, groups) in zip(streams, drawn):
                    shares = np.asarray(shares, dtype=np.int64)
                    if fit:
                        shares = np.minimum(shares, room)
                        room -= shares
                    table_shares[stream.sid] = shares
                    table_groups[stream.sid] = np.where(shares > 0, groups, NO_GROUP)
                overflows = (table_shares.sum(axis=0) > mapper.table.capacity).any()
                try:
                    mapper.apply(table_shares, table_groups)
                except ValueError:
                    assert overflows
                    installed = False
                else:
                    assert not overflows
                    installed = True
            elif operation[0] == "evict":
                mapper.evict_units(operation[1])
                installed = True
            else:
                mapper.quarantine_row(operation[1], operation[2])
                installed = False
            if installed:
                # Only an install trims: a quarantined row that no
                # allocation covers shrinks just the capacity.
                assert (mapper.table.shares.sum(axis=0) <= mapper.table.capacity).all()
            assert_rows_and_spots_valid(config, mapper)

    def test_eviction_after_an_uncovered_row_fault_trims_the_unit(self):
        """After a first fault repacks a full unit, a second bad row lies
        beyond every allocation and shrinks only the capacity.  A later
        eviction must still install: the unit gives up the excess row,
        taken from the highest stream id."""
        config, streams, mapper = build_mapper(n_streams=3)
        full = config.rows_per_unit
        mapper.quarantine_row(0, 3)
        mapper.quarantine_row(0, full - 1)
        assert mapper.table.capacity[0] == full - 2
        assert mapper.table.shares[:, 0].sum() == full - 1
        last = max(stream.sid for stream in streams)
        held = int(mapper.table.shares[last, 0])
        mapper.evict_units([1])
        assert mapper.table.shares[:, 0].sum() == full - 2
        assert mapper.table.shares[last, 0] == held - 1
        assert_rows_and_spots_valid(config, mapper)
