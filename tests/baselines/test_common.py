"""Tests for the shared NUCA-baseline substrate."""

import numpy as np
import pytest

from repro.baselines.common import (
    MetadataCache,
    PartitionedNucaPolicy,
    PartitionSpec,
    RegionCopy,
)
from repro.sim.params import tiny
from repro.sim.topology import Topology
from repro.util.curves import CurveTable
from repro.workloads import TINY, build


@pytest.fixture()
def policy():
    config = tiny()
    policy = PartitionedNucaPolicy()
    policy.setup(config, Topology(config), build("pr", TINY))
    return policy


class TestMetadataCache:
    def test_hot_block_hits(self):
        cache = MetadataCache(tiny())
        units = np.zeros(4, dtype=np.int64)
        addrs = np.array([0, 8, 256, 511])  # same 512 B metadata block
        latency, dram = cache.lookup(units, addrs)
        assert dram == 1
        assert latency[0] > latency[1]

    def test_per_unit_isolation(self):
        cache = MetadataCache(tiny())
        addrs = np.array([0, 0])
        latency, dram = cache.lookup(np.array([0, 1]), addrs)
        assert dram == 2  # cold in both units' metadata caches

    def test_thrash_on_large_footprint(self):
        """Graph-scale footprints degrade the metadata cache (Sec VII-A)."""
        config = tiny()
        cache = MetadataCache(config)
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 64 * cache.entries, size=5000)
        addrs = blocks * 512
        latency, dram = cache.lookup(np.zeros(5000, dtype=np.int64), addrs)
        assert dram / 5000 > 0.5


class TestPartitionSpec:
    def test_signature_changes_with_rows(self):
        a = PartitionSpec(0, [RegionCopy(np.array([0]), np.array([4]))])
        b = PartitionSpec(0, [RegionCopy(np.array([0]), np.array([5]))])
        assert a.signature() != b.signature()

    def test_allocated(self):
        empty = PartitionSpec(0, [])
        assert not empty.allocated


class TestDefaultPolicy:
    def test_interleaved_partition_covers_cache(self, policy):
        spec = policy._interleaved_partition(0)
        assert spec.copies[0].total_rows == (
            policy.config.rows_per_unit * policy.config.n_units
        )

    def test_process_hits_on_reuse(self, policy):
        policy.begin_epoch(0)
        wl = policy.workload
        epoch = wl.trace.epochs(2000)[0]
        out = policy.process(epoch)
        assert out.hit.any()
        assert (out.serving_unit >= 0).all()

    def test_bulk_invalidation_on_change(self, policy):
        policy.begin_epoch(0)
        epoch = policy.workload.trace.epochs(2000)[0]
        policy.process(epoch)
        # Force a different partitioning: shrink to one unit.
        policy._partitions = {
            0: PartitionSpec(
                0, [RegionCopy(np.array([0]), np.array([policy.config.rows_per_unit]))]
            )
        }
        stats = policy.begin_epoch(1)
        assert stats.invalidations > 0


class TestSizingHelpers:
    def test_lookahead_respects_budget(self, policy):
        curves = CurveTable([1024, 4096], [0, 1], [[1000.0, 10.0], [500.0, 5.0]])
        sizes = policy.lookahead_sizes(curves, budget_bytes=4096)
        assert sum(sizes.values()) <= 4096

    def test_placement_respects_capacity(self, policy):
        config = policy.config
        sizes = {0: config.rows_per_unit * 3, 1: config.rows_per_unit * 3}
        weights = {0: {0: 10}, 1: {3: 10}}
        importance = {0: 100, 1: 50}
        specs = policy.center_of_mass_placement(sizes, weights, importance)
        used = np.zeros(config.n_units, dtype=np.int64)
        for spec in specs.values():
            for copy in spec.copies:
                np.add.at(used, copy.units, copy.rows)
        assert np.all(used <= config.rows_per_unit)

    def test_placement_prefers_accessor_units(self, policy):
        config = policy.config
        sizes = {0: 2}
        specs = policy.center_of_mass_placement(
            {0: 2}, {0: {3: 100}}, {0: 1}
        )
        assert 3 in specs[0].copies[0].units

    def test_replication_creates_copies(self, policy):
        specs = policy.center_of_mass_placement(
            {0: 2}, {0: {0: 1}}, {0: 1}, replication={0: 2}
        )
        assert len(specs[0].copies) == 2

    def test_regions_partition_units(self, policy):
        regions = policy._regions(2)
        combined = sorted(int(u) for r in regions for u in r)
        assert combined == list(range(policy.config.n_units))

    def test_smooth_curve_damps(self, policy):
        caps = policy._history.capacities
        ones = np.ones((1, len(caps)))
        for misses in (100.0, 0.0):
            fresh = CurveTable(caps, [0], misses * ones)
            policy._history = policy._history.smoothed(fresh, [0])
        assert policy._history.row(0)[0] == pytest.approx(50.0)

    def test_should_install_requires_gain(self, policy):
        curves = CurveTable([100, 1000], [0], [[1000.0, 10.0]])
        assert policy.should_install(curves, {0: 100})  # nothing installed yet
        policy.record_install({0: 100})
        assert not policy.should_install(curves, {0: 101})  # no real gain
        assert policy.should_install(curves, {0: 1000})  # big gain
