"""Tests for the vectorised cache-simulation primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cachesim import (
    cold_miss_count,
    direct_mapped_hits,
    recency_hits,
    set_assoc_hits,
)
from repro.sim.kernels import prev_in_group


def reference_direct_mapped(slots, tags):
    """Straightforward dict-based direct-mapped simulation."""
    cache = {}
    hits = []
    for slot, tag in zip(slots, tags):
        hits.append(cache.get(slot) == tag)
        cache[slot] = tag
    return np.array(hits)


class TestPrevInGroup:
    def test_basic(self):
        group = np.array([0, 1, 0, 1, 0])
        value = np.array([10, 20, 30, 40, 50])
        prev_idx, prev_val = prev_in_group(group, value)
        assert list(prev_idx) == [-1, -1, 0, 1, 2]
        assert prev_val[2] == 10
        assert prev_val[4] == 30

    def test_empty(self):
        prev_idx, _ = prev_in_group(np.empty(0, np.int64), np.empty(0, np.int64))
        assert len(prev_idx) == 0


class TestDirectMapped:
    def test_repeat_hits(self):
        slots = np.zeros(4, dtype=np.int64)
        tags = np.array([7, 7, 7, 7])
        assert list(direct_mapped_hits(slots, tags)) == [False, True, True, True]

    def test_conflict_evicts(self):
        slots = np.zeros(4, dtype=np.int64)
        tags = np.array([1, 2, 1, 2])
        assert not direct_mapped_hits(slots, tags).any()

    def test_independent_slots(self):
        slots = np.array([0, 1, 0, 1])
        tags = np.array([1, 2, 1, 2])
        assert list(direct_mapped_hits(slots, tags)) == [False, False, True, True]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=8),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, accesses):
        slots = np.array([a[0] for a in accesses], dtype=np.int64)
        tags = np.array([a[1] for a in accesses], dtype=np.int64)
        fast = direct_mapped_hits(slots, tags)
        ref = reference_direct_mapped(slots, tags)
        assert np.array_equal(fast, ref if len(ref) else fast)


class TestSetAssoc:
    def test_ways_one_is_direct_mapped(self):
        slots = np.array([0, 0, 1, 0], dtype=np.int64)
        tags = np.array([1, 2, 3, 1], dtype=np.int64)
        assert np.array_equal(
            set_assoc_hits(slots, tags, 1), direct_mapped_hits(slots, tags)
        )

    def test_two_way_holds_two_tags(self):
        sets = np.zeros(6, dtype=np.int64)
        tags = np.array([1, 2, 1, 2, 1, 2])
        hits = set_assoc_hits(sets, tags, 2)
        assert list(hits) == [False, False, True, True, True, True]

    def test_capacity_thrash(self):
        sets = np.zeros(6, dtype=np.int64)
        tags = np.array([1, 2, 3, 1, 2, 3])
        assert not set_assoc_hits(sets, tags, 2).any()

    def test_rereference_always_hits(self):
        sets = np.zeros(4, dtype=np.int64)
        tags = np.array([5, 5, 6, 6])
        hits = set_assoc_hits(sets, tags, 2)
        assert list(hits) == [False, True, False, True]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=6),
            ),
            max_size=120,
        ),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_hits_monotonic_in_ways(self, accesses, ways):
        """More associativity never loses hits (needed by Fig. 9(a))."""
        sets = np.array([a[0] for a in accesses], dtype=np.int64)
        tags = np.array([a[1] for a in accesses], dtype=np.int64)
        low = set_assoc_hits(sets, tags, ways)
        high = set_assoc_hits(sets, tags, ways + 1)
        assert not np.any(low & ~high)


class TestRecency:
    def test_window_zero_never_hits(self):
        keys = np.array([1, 1, 1])
        assert not recency_hits(keys, 0).any()

    def test_within_window_hits(self):
        keys = np.array([1, 2, 1])
        assert list(recency_hits(keys, 2)) == [False, False, True]

    def test_outside_window_misses(self):
        keys = np.array([1, 2, 3, 1])
        assert list(recency_hits(keys, 2)) == [False, False, False, False]

    @given(
        st.lists(st.integers(min_value=0, max_value=10), max_size=100),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_hits_monotonic_in_window(self, keys, window):
        keys = np.array(keys, dtype=np.int64)
        low = recency_hits(keys, window)
        high = recency_hits(keys, window + 5)
        assert not np.any(low & ~high)


class TestColdMissCount:
    def test_counts_distinct(self):
        assert cold_miss_count(np.array([1, 1, 2, 3, 3])) == 3
