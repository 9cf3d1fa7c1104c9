"""Tests for the stream lookahead buffer."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slb import SLB_ENTRY_BYTES, SlbResult, StreamLookaheadBuffer


class TestSlb:
    def test_cold_miss_then_hits(self):
        slb = StreamLookaheadBuffer(entries=4, hit_ns=1.0, refill_ns=100.0)
        result = slb.process(np.array([7, 7, 7]))
        assert result.misses == 1
        assert result.hits == 2
        assert result.latency_ns[0] == pytest.approx(101.0)
        assert result.latency_ns[1] == pytest.approx(1.0)

    def test_state_persists_across_calls(self):
        slb = StreamLookaheadBuffer(entries=4)
        slb.process(np.array([1]))
        result = slb.process(np.array([1]))
        assert result.misses == 0

    def test_lru_eviction(self):
        slb = StreamLookaheadBuffer(entries=2)
        slb.process(np.array([1, 2, 3]))  # evicts 1
        result = slb.process(np.array([1]))
        assert result.misses == 1
        result = slb.process(np.array([3]))
        assert result.misses == 0

    def test_run_compression_only_first_of_run_misses(self):
        slb = StreamLookaheadBuffer(entries=1)
        result = slb.process(np.array([1, 1, 2, 2, 1, 1]))
        assert result.misses == 3

    def test_invalidate(self):
        slb = StreamLookaheadBuffer(entries=4)
        slb.process(np.array([1]))
        slb.invalidate()
        assert slb.process(np.array([1])).misses == 1

    def test_empty_sequence(self):
        slb = StreamLookaheadBuffer()
        result = slb.process(np.array([], dtype=np.int64))
        assert result.hits == 0
        assert result.misses == 0
        assert result.hit_rate == 0.0

    def test_paper_sram_cost(self):
        """32 entries at 142 B each = 4544 B (Section VI)."""
        slb = StreamLookaheadBuffer(entries=32)
        assert slb.sram_bytes == 4544
        assert SLB_ENTRY_BYTES == 142

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            StreamLookaheadBuffer(entries=0)

    def test_typical_workload_stays_resident(self):
        """Fewer streams than entries: only compulsory misses."""
        slb = StreamLookaheadBuffer(entries=32)
        rng = np.random.default_rng(1)
        sids = rng.integers(0, 16, size=5000)
        result = slb.process(sids)
        assert result.misses == 16


class ReferenceSlb:
    """The replay loop as it was before the no-eviction fast path,
    verbatim: the oracle the fast path is pinned against."""

    def __init__(self, entries, hit_ns=1.0, refill_ns=300.0):
        self.entries = entries
        self.hit_ns = hit_ns
        self.refill_ns = refill_ns
        self._resident = OrderedDict()

    def invalidate(self):
        self._resident.clear()

    def process(self, sids):
        sids = np.asarray(sids, dtype=np.int64)
        n = len(sids)
        latency = np.full(n, self.hit_ns)
        if n == 0:
            return SlbResult(latency_ns=latency, hits=0, misses=0)

        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = sids[1:] != sids[:-1]
        run_starts = np.flatnonzero(change)
        run_sids = sids[run_starts]

        misses = 0
        miss_positions = []
        resident = self._resident
        for pos, sid in zip(run_starts, run_sids):
            key = int(sid)
            if key in resident:
                resident.move_to_end(key)
            else:
                misses += 1
                miss_positions.append(pos)
                resident[key] = None
                if len(resident) > self.entries:
                    resident.popitem(last=False)
        if miss_positions:
            latency[np.array(miss_positions)] += self.refill_ns
        return SlbResult(latency_ns=latency, hits=n - misses, misses=misses)


calls = st.lists(
    st.one_of(
        st.none(),  # invalidate
        st.lists(st.integers(0, 12), max_size=120),
    ),
    max_size=12,
)


class TestFastPathOracle:
    @settings(max_examples=300, deadline=None)
    @given(entries=st.integers(1, 10), calls=calls)
    def test_matches_reference_loop_across_calls(self, entries, calls):
        slb = StreamLookaheadBuffer(entries=entries, refill_ns=100.0)
        ref = ReferenceSlb(entries=entries, refill_ns=100.0)
        for sids in calls:
            if sids is None:
                slb.invalidate()
                ref.invalidate()
                continue
            got = slb.process(np.array(sids, dtype=np.int64))
            want = ref.process(np.array(sids, dtype=np.int64))
            assert (got.hits, got.misses) == (want.hits, want.misses)
            assert np.array_equal(got.latency_ns, want.latency_ns)
            assert list(slb._resident) == list(ref._resident)

    def test_fast_path_keeps_lru_order(self):
        """Untouched entries keep their order; touched ones follow by last
        touch, so the next overflow evicts the right sid."""
        slb = StreamLookaheadBuffer(entries=8)
        slb.process(np.arange(5))
        # 12 runs (more than the entries) over 3 sids: nothing is evicted.
        result = slb.process(np.tile([3, 1, 7], 4))
        assert result.misses == 1
        assert list(slb._resident) == [0, 2, 4, 3, 1, 7]
