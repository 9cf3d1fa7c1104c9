"""Tests for the consistent-hashing ring (Section V-D)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consistent import (
    VIRTUAL_NODES,
    ConsistentRing,
    preserved_mask,
    spots_of_group,
)
from repro.util.hashing import mix64


def spots(n_units=4, rows=8):
    return [(u, r) for u in range(n_units) for r in range(rows)]


def packed(spot_list):
    """(unit, row) pairs as the packed spot ids a ring takes."""
    return np.array([(u << 32) | r for u, r in spot_list], dtype=np.uint64)


def unpacked(spot_ids):
    return [(int(s) >> 32, int(s) & 0xFFFFFFFF) for s in spot_ids]


def reference_ring(spots, salt=0):
    """The scalar ring constructor, verbatim: one ``mix64`` call per
    (spot, virtual node).  The vectorised ring must match it bit for bit."""
    keys = []
    owners = []
    for index, (unit, row) in enumerate(spots):
        base = mix64(((unit + 1) << 32) ^ row ^ mix64(salt))
        for v in range(VIRTUAL_NODES):
            keys.append(mix64(base + v))
            owners.append(index)
    order = np.argsort(np.array(keys, dtype=np.uint64), kind="stable")
    positions = np.array(keys, dtype=np.uint64)[order]
    owners = np.array(owners, dtype=np.int64)[order]
    units = np.array([u for u, _ in spots], dtype=np.int64)
    rows = np.array([r for _, r in spots], dtype=np.int64)
    return positions, owners, units, rows


def assert_matches_reference(spot_list, salt):
    positions, owners, units, rows = reference_ring(spot_list, salt)
    ring = ConsistentRing(packed(spot_list), salt=salt)
    assert ring._positions.dtype == positions.dtype
    assert ring._owners.dtype == owners.dtype
    assert np.array_equal(ring._positions, positions)
    assert np.array_equal(ring._owners, owners)
    every_spot = np.arange(len(spot_list))
    assert np.array_equal(ring.units_of(every_spot), units)
    assert np.array_equal(ring.rows_of(every_spot), rows)
    assert np.array_equal(ring.units_of(owners), units[owners])
    assert np.array_equal(ring.rows_of(owners), rows[owners])
    assert len(ring) == len(spot_list)


SPOT = st.tuples(
    st.integers(min_value=0, max_value=127),
    st.integers(min_value=0, max_value=1 << 17),
)
SALT = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=(1 << 63) - 8, max_value=(1 << 64) - 1),
)


class TestScalarIdentity:
    """The vectorised constructor against the scalar definition."""

    @given(st.lists(SPOT, min_size=1, max_size=300), SALT)
    @settings(max_examples=60, deadline=None)
    def test_random_spots_match_reference(self, spot_list, salt):
        assert_matches_reference(spot_list, salt)

    def test_paper_sized_group_matches_reference(self):
        """128 units x 48 rows: the Table II mesh at a small share."""
        spot_list = unpacked(spots_of_group(np.arange(128), np.full(128, 48)))
        assert_matches_reference(spot_list, salt=11)

    @pytest.mark.parametrize("copies", [2, 200])
    def test_duplicate_spots_tie_to_the_lower_index(self, copies):
        """Repeated spots give equal positions; the earlier spot owns the
        first of them, on both sides of the small-sort cutoff."""
        assert_matches_reference([(0, 0)] * copies + [(1, 5)] * 3, salt=0)


class TestRing:
    def test_deterministic(self):
        tags = np.arange(100)
        a = ConsistentRing(packed(spots()), salt=1).lookup(tags)
        b = ConsistentRing(packed(spots()), salt=1).lookup(tags)
        assert np.array_equal(a, b)

    def test_salt_decorrelates(self):
        tags = np.arange(100)
        a = ConsistentRing(packed(spots()), salt=1).lookup(tags)
        b = ConsistentRing(packed(spots()), salt=2).lookup(tags)
        assert not np.array_equal(a, b)

    def test_load_roughly_balanced(self):
        ring = ConsistentRing(packed(spots(4, 8)), salt=0)
        owners = ring.lookup(np.arange(32_000))
        counts = np.bincount(owners, minlength=32)
        assert counts.min() > 0
        assert counts.max() < 5 * counts.mean()

    def test_units_and_rows_of(self):
        ring = ConsistentRing(packed([(3, 7), (5, 1)]), salt=0)
        idx = ring.lookup(np.arange(10))
        units = ring.units_of(idx)
        rows = ring.rows_of(idx)
        assert set(units) <= {3, 5}
        assert set(rows) <= {7, 1}

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConsistentRing(packed([]))


class TestConsistency:
    def test_growing_preserves_most(self):
        """The defining property: adding spots only moves the tags owned
        by the new spots."""
        tags = np.arange(20_000)
        old_ring = ConsistentRing(packed(spots(4, 8)), salt=3)
        new_ring = ConsistentRing(packed(spots(4, 8) + [(4, r) for r in range(8)]), salt=3)
        preserved = preserved_mask(old_ring, new_ring, tags)
        # Going from 32 to 40 spots should move ~ 8/40 of tags.
        assert preserved.mean() > 0.7

    @given(st.lists(SPOT, min_size=2, max_size=120, unique=True), SALT, st.data())
    @settings(max_examples=40, deadline=None)
    def test_growth_only_moves_tags_owned_by_new_spots(self, spot_list, salt, data):
        """Exact form of the property above: after adding spots, a tag
        whose new owner is an old spot keeps its (unit, row); a tag now
        owned by a new spot moves."""
        split = data.draw(st.integers(min_value=1, max_value=len(spot_list) - 1))
        old_spots = spot_list[:split]
        tags = np.arange(4000)
        old_ring = ConsistentRing(packed(old_spots), salt=salt)
        new_ring = ConsistentRing(packed(spot_list), salt=salt)
        on_old = new_ring.lookup(tags) < len(old_spots)
        preserved = preserved_mask(old_ring, new_ring, tags)
        assert preserved[on_old].all()
        assert not preserved[~on_old].any()

    def test_rehash_comparison(self):
        """Plain mod-rehashing (simulated by a different salt) moves almost
        everything, unlike consistent growth."""
        tags = np.arange(20_000)
        old_ring = ConsistentRing(packed(spots(4, 8)), salt=3)
        grown = ConsistentRing(packed(spots(4, 8) + [(4, 0)]), salt=3)
        rehashed = ConsistentRing(packed(spots(4, 8)), salt=99)
        assert (
            preserved_mask(old_ring, grown, tags).mean()
            > preserved_mask(old_ring, rehashed, tags).mean()
        )

    def test_identical_rings_preserve_all(self):
        tags = np.arange(1000)
        a = ConsistentRing(packed(spots()), salt=5)
        b = ConsistentRing(packed(spots()), salt=5)
        assert preserved_mask(a, b, tags).all()

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_shrink_only_moves_removed_spots(self, keep_units, rows):
        all_spots = spots(keep_units + 1, rows)
        kept = spots(keep_units, rows)
        tags = np.arange(5000)
        big = ConsistentRing(packed(all_spots), salt=1)
        small_ring = ConsistentRing(packed(kept), salt=1)
        owners_big = big.lookup(tags)
        on_kept = np.array(
            [all_spots[i] in set(kept) for i in owners_big]
        )
        preserved = preserved_mask(big, small_ring, tags)
        # Tags on removed spots must move; tags on kept spots must stay.
        assert not preserved[~on_kept].any()
        assert preserved[on_kept].all()


class TestSpotsOfGroup:
    def test_enumeration(self):
        result = spots_of_group(np.array([2, 5]), np.array([2, 1]))
        assert result.dtype == np.uint64
        assert unpacked(result) == [(2, 0), (2, 1), (5, 0)]

    def test_empty_shares(self):
        assert unpacked(spots_of_group(np.array([1]), np.array([0]))) == []
