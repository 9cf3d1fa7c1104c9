"""Tests for miss curves and the lookahead slope primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.curves import (
    LookaheadState,
    MissCurve,
    SlopeSegment,
    geometric_capacities,
)


class TestGeometricCapacities:
    def test_paper_spacing(self):
        """64 points from 32 kB to 256 MB gives a ~1.16 step factor."""
        caps = geometric_capacities(32 * 1024, 256 * 1024 * 1024, 64)
        ratios = caps[1:] / caps[:-1]
        assert 1.10 < ratios.mean() < 1.22

    def test_endpoints(self):
        caps = geometric_capacities(1000, 100_000, 10)
        assert caps[0] == 1000
        assert caps[-1] == 100_000

    def test_strictly_increasing(self):
        caps = geometric_capacities(16, 4096, 20)
        assert np.all(np.diff(caps) > 0)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            geometric_capacities(100, 10, 5)
        with pytest.raises(ValueError):
            geometric_capacities(10, 100, 1)


class TestMissCurve:
    def make(self):
        return MissCurve(
            np.array([100, 200, 400]), np.array([90.0, 50.0, 10.0])
        )

    def test_interpolation(self):
        curve = self.make()
        assert curve.misses_at(100) == 90.0
        assert curve.misses_at(150) == 70.0
        assert curve.misses_at(400) == 10.0

    def test_clamps_outside_range(self):
        curve = self.make()
        assert curve.misses_at(10) == 90.0
        assert curve.misses_at(10_000) == 10.0

    def test_monotone_smoothing(self):
        curve = MissCurve(np.array([1, 2, 3]), np.array([10.0, 12.0, 5.0]))
        mono = curve.monotone()
        assert list(mono.misses) == [10.0, 10.0, 5.0]

    def test_scaled(self):
        curve = self.make().scaled(2.0)
        assert curve.misses_at(100) == 180.0

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            MissCurve(np.array([1, 2]), np.array([1.0]))

    def test_rejects_unsorted_capacities(self):
        with pytest.raises(ValueError):
            MissCurve(np.array([2, 1]), np.array([1.0, 2.0]))

    def test_rejects_negative_misses(self):
        with pytest.raises(ValueError):
            MissCurve(np.array([1, 2]), np.array([1.0, -2.0]))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            self.make().scaled(0)


class TestSlopeSegment:
    def test_slope(self):
        seg = SlopeSegment(stream_id=1, start_capacity=0, end_capacity=100, gain=50)
        assert seg.size == 100
        assert seg.slope == 0.5


class TestLookahead:
    def test_picks_steepest_stream(self):
        curves = {
            0: MissCurve(np.array([100]), np.array([10.0])),  # 0.9/byte from 100
            1: MissCurve(np.array([100]), np.array([90.0])),
        }
        # Stream 0 saves more misses for the same capacity (from implicit 0
        # allocation at misses_at(0) == first value: both 10 and 90).
        state = LookaheadState(
            {
                0: MissCurve(np.array([10, 100]), np.array([100.0, 10.0])),
                1: MissCurve(np.array([10, 100]), np.array([100.0, 80.0])),
            }
        )
        seg = state.next_steepest_segment()
        assert seg.stream_id == 0

    def test_commit_advances(self):
        state = LookaheadState(
            {0: MissCurve(np.array([10, 100]), np.array([100.0, 10.0]))}
        )
        seg = state.next_steepest_segment()
        state.commit(seg)
        assert state.allocated[0] == seg.end_capacity

    def test_commit_rejects_stale_segment(self):
        state = LookaheadState(
            {0: MissCurve(np.array([10, 100]), np.array([100.0, 10.0]))}
        )
        seg = state.next_steepest_segment()
        state.commit(seg)
        with pytest.raises(ValueError):
            state.commit(seg)

    def test_exhausts(self):
        state = LookaheadState(
            {0: MissCurve(np.array([10, 100]), np.array([100.0, 10.0]))}
        )
        while (seg := state.next_steepest_segment()) is not None:
            state.commit(seg)
        assert state.allocated[0] == 100

    def test_exclude(self):
        state = LookaheadState(
            {
                0: MissCurve(np.array([10]), np.array([100.0])),
                1: MissCurve(np.array([10, 20]), np.array([100.0, 5.0])),
            }
        )
        seg = state.next_steepest_segment(exclude={1})
        assert seg is None or seg.stream_id == 0

    def test_flat_curve_yields_nothing(self):
        state = LookaheadState(
            {0: MissCurve(np.array([10, 100]), np.array([50.0, 50.0]))}
        )
        assert state.next_steepest_segment() is None

    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=1000), min_size=2, max_size=6
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_segments_always_have_positive_gain(self, misses_lists):
        curves = {}
        for sid, misses in enumerate(misses_lists):
            misses = sorted(misses, reverse=True)
            caps = np.arange(1, len(misses) + 1) * 100
            curves[sid] = MissCurve(caps, np.array(misses, dtype=float))
        state = LookaheadState(curves)
        for _ in range(50):
            seg = state.next_steepest_segment()
            if seg is None:
                break
            assert seg.gain > 0
            assert seg.size > 0
            state.commit(seg)


class TestLookaheadVectorizedEquivalence:
    """The vectorized next_steepest_segment must replay the scalar loop it
    replaced decision for decision, ties included."""

    @staticmethod
    def _reference(state, exclude=None):
        best = None
        best_slope = -np.inf
        for sid, curve in state.curves.items():
            if exclude and sid in exclude:
                continue
            current = state.allocated[sid]
            current_misses = curve.misses_at(current)
            for cap, misses in zip(curve.capacities, curve.misses):
                if cap <= current:
                    continue
                gain = current_misses - misses
                if gain <= 0:
                    continue
                slope = gain / float(cap - current)
                if slope > best_slope:
                    best = SlopeSegment(sid, current, int(cap), float(gain))
                    best_slope = slope
        return best

    @staticmethod
    def _random_state(rng, n_streams):
        curves = {}
        for sid in range(n_streams):
            n = int(rng.integers(2, 12))
            caps = np.unique(rng.integers(1, 10_000, size=n))
            misses = np.sort(rng.uniform(0, 1000, size=len(caps)))[::-1]
            # Inject plateaus so tie-breaking is actually exercised.
            if len(misses) > 2:
                misses[1] = misses[2]
            curves[sid] = MissCurve(caps, misses.copy())
        return LookaheadState(curves)

    def test_matches_reference_loop_through_full_allocation(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            state = self._random_state(rng, n_streams=int(rng.integers(1, 6)))
            shadow = LookaheadState(
                {sid: c for sid, c in state.curves.items()},
                allocated=dict(state.allocated),
            )
            while True:
                got = state.next_steepest_segment()
                want = self._reference(shadow)
                assert (got is None) == (want is None)
                if got is None:
                    break
                assert got == want, f"trial {trial}: {got} != {want}"
                state.commit(got)
                shadow.commit(want)

    def test_matches_reference_with_exclusions(self):
        rng = np.random.default_rng(43)
        state = self._random_state(rng, n_streams=5)
        exclude = {0, 3}
        got = state.next_steepest_segment(exclude=exclude)
        want = self._reference(state, exclude=exclude)
        assert got == want

    # The per-stream candidate cache must never outlive what it was
    # derived from: each case below changes an input between calls.

    @staticmethod
    def _twin(state):
        return LookaheadState(dict(state.curves), allocated=dict(state.allocated))

    def test_matches_reference_as_exclusions_change(self):
        rng = np.random.default_rng(44)
        for trial in range(25):
            state = self._random_state(rng, n_streams=int(rng.integers(2, 6)))
            shadow = self._twin(state)
            sids = list(state.curves)
            for _step in range(40):
                exclude = {s for s in sids if rng.random() < 0.4}
                got = state.next_steepest_segment(exclude=exclude)
                want = self._reference(shadow, exclude=exclude)
                assert got == want, f"trial {trial}: {got} != {want}"
                if got is None:
                    if not exclude:
                        break
                    continue
                state.commit(got)
                shadow.commit(want)

    def test_matches_reference_after_outside_allocation_changes(self):
        rng = np.random.default_rng(45)
        for trial in range(25):
            state = self._random_state(rng, n_streams=int(rng.integers(1, 6)))
            shadow = self._twin(state)
            for _step in range(40):
                if rng.random() < 0.3:
                    sid = int(rng.choice(list(state.curves)))
                    caps = state.curves[sid].capacities
                    # Anywhere: a measured point, between points, or back
                    # to an allocation the cache has already seen.
                    value = int(rng.choice([0, int(rng.integers(0, caps[-1] + 2)),
                                            int(caps[rng.integers(len(caps))])]))
                    state.allocated[sid] = value
                    shadow.allocated[sid] = value
                got = state.next_steepest_segment()
                want = self._reference(shadow)
                assert got == want, f"trial {trial}: {got} != {want}"
                if got is None:
                    break
                state.commit(got)
                shadow.commit(want)

    def test_matches_reference_after_curve_swaps(self):
        rng = np.random.default_rng(46)
        for trial in range(25):
            state = self._random_state(rng, n_streams=int(rng.integers(1, 6)))
            shadow = self._twin(state)
            for _step in range(40):
                if rng.random() < 0.3:
                    sid = int(rng.choice(list(state.curves)))
                    old = state.curves[sid]
                    # A new object over the same capacities, so only the
                    # curve's identity tells the cache it changed.
                    fresh = MissCurve(
                        old.capacities.copy(),
                        np.sort(rng.uniform(0, 1000, size=len(old.capacities)))[::-1].copy(),
                    )
                    state.curves[sid] = fresh
                    shadow.curves[sid] = fresh
                got = state.next_steepest_segment()
                want = self._reference(shadow)
                assert got == want, f"trial {trial}: {got} != {want}"
                if got is None:
                    break
                state.commit(got)
                shadow.commit(want)
