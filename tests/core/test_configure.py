"""Tests for the cache configuration algorithm (Algorithm 1)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configure import CacheConfigurator, equal_share_allocations
from repro.core.remap import NO_GROUP, RemapTable, n_groups
from repro.core.stream import StreamConfig, StreamKind
from repro.sim.params import tiny
from repro.sim.topology import Topology
from repro.util.curves import MissCurve


def make_stream(sid, read_only=True, kind=StreamKind.INDIRECT, size=1 << 20):
    return StreamConfig(
        sid=sid,
        kind=kind,
        base=sid << 24,
        size=size,
        elem_size=64,
        read_only=read_only,
    )


def steep_curve(total_misses=10_000, max_cap=1 << 20):
    caps = np.array([max_cap // 8, max_cap // 4, max_cap // 2, max_cap])
    misses = np.array([total_misses, total_misses / 2, total_misses / 8, 0.0])
    return MissCurve(caps, misses)


def make_configurator(affine_space=None):
    config = tiny()
    return (
        CacheConfigurator(
            topology=Topology(config),
            rows_per_unit=config.rows_per_unit,
            row_bytes=config.ndp_dram.row_bytes,
            affine_space_bytes=affine_space,
        ),
        config,
    )


class TestBasicAllocation:
    def test_allocates_stream_with_demand(self):
        configurator, config = make_configurator()
        streams = {0: make_stream(0)}
        result = configurator.configure(
            streams, {0: steep_curve()}, {0: [0, 1]}
        )
        assert result.shares[0].sum() > 0

    def test_never_exceeds_unit_capacity(self):
        configurator, config = make_configurator()
        streams = {i: make_stream(i) for i in range(4)}
        curves = {i: steep_curve(10_000 * (i + 1)) for i in range(4)}
        acc = {i: list(range(config.n_units)) for i in range(4)}
        result = configurator.configure(streams, curves, acc)
        assert np.all(result.shares.sum(axis=0) <= config.rows_per_unit)

    def test_stream_without_accessors_gets_nothing(self):
        configurator, _ = make_configurator()
        streams = {0: make_stream(0)}
        result = configurator.configure(streams, {0: steep_curve()}, {0: []})
        assert result.shares[0].sum() == 0
        assert 0 in result.exhausted

    def test_higher_utility_stream_gets_more(self):
        configurator, config = make_configurator()
        streams = {0: make_stream(0), 1: make_stream(1)}
        curves = {0: steep_curve(100_000), 1: steep_curve(100)}
        acc = {0: [0], 1: [0]}
        result = configurator.configure(streams, curves, acc)
        assert result.shares[0].sum() >= result.shares[1].sum()


class TestReplication:
    def test_read_only_starts_replicated(self):
        """With ample space, each accessing unit keeps its own copy."""
        configurator, config = make_configurator()
        streams = {0: make_stream(0, read_only=True)}
        small = steep_curve(1000, max_cap=4 * config.ndp_dram.row_bytes)
        result = configurator.configure(streams, {0: small}, {0: [0, 1, 2, 3]})
        assert result.replication_degree[0] > 1

    def test_read_write_single_copy(self):
        configurator, config = make_configurator()
        streams = {0: make_stream(0, read_only=False)}
        result = configurator.configure(
            streams, {0: steep_curve()}, {0: [0, 1, 2, 3]}
        )
        assert result.replication_degree[0] == 1

    def test_pressure_reduces_replication(self):
        """When demand exceeds space, groups merge (degree drops)."""
        configurator, config = make_configurator()
        streams = {0: make_stream(0, read_only=True)}
        total = config.total_cache_bytes
        big = steep_curve(100_000, max_cap=total)
        result = configurator.configure(streams, {0: big}, {0: [0, 1, 2, 3]})
        assert result.replication_degree[0] < 4

    def test_groups_disjoint_within_stream(self):
        configurator, config = make_configurator()
        streams = {0: make_stream(0, read_only=True)}
        result = configurator.configure(
            streams, {0: steep_curve()}, {0: [0, 1, 2, 3]}
        )
        shares, groups = result.shares[0], result.groups[0]
        # Every allocated unit belongs to exactly one group.
        for unit in range(config.n_units):
            if shares[unit] > 0:
                assert groups[unit] >= 0


class TestAffineRestriction:
    def test_affine_capped(self):
        config = tiny()
        cap_bytes = 2 * config.ndp_dram.row_bytes
        configurator, _ = make_configurator(affine_space=cap_bytes)
        streams = {0: make_stream(0, kind=StreamKind.AFFINE)}
        result = configurator.configure(
            streams, {0: steep_curve()}, {0: [0]}
        )
        cap_rows = cap_bytes // config.ndp_dram.row_bytes
        assert np.all(result.shares[0] <= cap_rows)

    def test_indirect_not_capped(self):
        config = tiny()
        cap_bytes = 2 * config.ndp_dram.row_bytes
        configurator, _ = make_configurator(affine_space=cap_bytes)
        streams = {0: make_stream(0, kind=StreamKind.INDIRECT)}
        result = configurator.configure(streams, {0: steep_curve()}, {0: [0]})
        cap_rows = cap_bytes // config.ndp_dram.row_bytes
        assert result.shares[0].max() > cap_rows


class TestEqualShare:
    def test_even_split(self):
        streams = {i: make_stream(i) for i in range(4)}
        shares, groups = equal_share_allocations(streams, n_units=2, rows_per_unit=8)
        assert list(shares.sum(axis=1)[:5]) == [4, 4, 4, 4, 0]  # 2 rows x 2 units
        assert (groups[:4] == 0).all()

    def test_more_streams_than_rows_rotates(self):
        """Every stream gets space somewhere even when rows < streams."""
        streams = {i: make_stream(i) for i in range(8)}
        shares, _ = equal_share_allocations(streams, n_units=4, rows_per_unit=4)
        assert (shares[:8].sum(axis=1) > 0).all()
        assert np.all(shares.sum(axis=0) <= 4)

    def test_empty(self):
        shares, groups = equal_share_allocations({}, 4, 8)
        assert not shares.any()
        assert (groups == NO_GROUP).all()


class TestRandomizedInvariants:
    @given(
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_capacity_and_group_invariants(self, n_streams, data):
        configurator, config = make_configurator()
        streams = {}
        curves = {}
        acc = {}
        for sid in range(n_streams):
            read_only = data.draw(st.booleans())
            streams[sid] = make_stream(sid, read_only=read_only)
            misses = data.draw(st.integers(min_value=0, max_value=100_000))
            curves[sid] = steep_curve(misses)
            acc[sid] = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=config.n_units - 1),
                    min_size=0,
                    max_size=config.n_units,
                    unique=True,
                )
            )
        result = configurator.configure(streams, curves, acc)
        # Structural validity is what an install checks; additionally
        # read-write streams must have <= 1 group.
        RemapTable(config.n_units, config.rows_per_unit).install(
            result.shares, result.groups
        )
        for sid in result.sids:
            if not streams[sid].read_only:
                assert n_groups(result.groups[sid]) <= 1
