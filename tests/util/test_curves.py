"""Tests for miss-curve tables and the lookahead slope primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NexusPolicy
from repro.core.runtime import NdpExtPolicy
from repro.obs import Recorder
from repro.sim import SimulationEngine
from repro.sim.params import tiny
from repro.util import curves as curves_mod
from repro.util.curves import (
    CurveTable,
    Lookahead,
    MissCurve,
    geometric_capacities,
)
from repro.workloads import TINY, build
from tests.core.configure_reference import MissCurve as ReferenceCurve


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
        """A row enters a table as its running minimum."""
        table = CurveTable([1, 2, 3], [0], [[10.0, 12.0, 5.0]])
        assert list(table.row(0)) == [10.0, 10.0, 5.0]

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError):
            MissCurve(np.array([1, 2]), np.array([1.0]))

    def test_rejects_unsorted_capacities(self):
        with pytest.raises(ValueError):
            MissCurve(np.array([2, 1]), np.array([1.0, 2.0]))

    def test_rejects_negative_misses(self):
        with pytest.raises(ValueError):
            MissCurve(np.array([1, 2]), np.array([1.0, -2.0]))


class TestCurveTable:
    def make(self):
        return CurveTable([100, 200, 400], [7, 3], [[90.0, 50.0, 10.0], [5.0, 4.0, 0.0]])

    def test_rows_by_id(self):
        table = self.make()
        assert len(table) == 2
        assert 3 in table and 0 not in table
        assert table.misses_at(7, 150) == 70.0
        assert table.misses_at(3, 10_000) == 0.0
        assert list(table.row(3)) == [5.0, 4.0, 0.0]

    def test_capacities_read_only_and_not_aliased(self):
        caps = np.array([100, 200, 400])
        table = CurveTable(caps, [0], [[3.0, 2.0, 1.0]])
        assert not table.capacities.flags.writeable
        caps[0] = 1
        assert table.capacities[0] == 100

    def test_iterates_as_curves(self):
        curves = list(self.make())
        assert [type(c) for c in curves] == [MissCurve, MissCurve]
        assert curves[1].misses_at(300) == 2.0

    def test_empty(self):
        table = CurveTable.empty([1, 2])
        assert not table
        assert table.misses.shape == (0, 2)

    @pytest.mark.parametrize(
        "caps, ids, misses",
        [
            ([1, 2], [0], [[1.0]]),  # row length
            ([1, 2], [0, 1], [[1.0, 0.0]]),  # row count
            ([2, 1], [0], [[1.0, 0.0]]),  # unsorted capacities
            ([1, 1], [0], [[1.0, 0.0]]),  # repeated capacity
            ([1, 2], [0], [[1.0, -1.0]]),  # negative misses
            ([1, 2], [0, 0], [[1.0, 0.0], [1.0, 0.0]]),  # repeated id
            ([], [], np.empty((0, 0))),  # no capacity
        ],
    )
    def test_rejects_bad_rows(self, caps, ids, misses):
        with pytest.raises(ValueError):
            CurveTable(caps, ids, misses)

    def test_select_keeps_order(self):
        table = CurveTable([1, 2], [5, 1, 9], [[3.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        assert table.select([9, 5]).ids == [9, 5]
        assert list(table.select([9, 5]).row(9)) == [1.0, 0.0]
        assert table.select([]).misses.shape == (0, 2)

    def test_extended_appends_validated_rows(self):
        table = self.make().extended([1], [[4.0, 6.0, 2.0]])
        assert table.ids == [7, 3, 1]
        assert list(table.row(1)) == [4.0, 4.0, 2.0]
        with pytest.raises(ValueError):
            self.make().extended([7], [[1.0, 1.0, 1.0]])

    def test_smoothed_updates_in_place_and_appends_new_ids(self):
        history = self.make()
        fresh = CurveTable(history.capacities, [0, 1], [[10.0, 10.0, 2.0], [8.0, 6.0, 4.0]])
        smoothed = history.smoothed(fresh, [3, 11])
        assert smoothed.ids == [7, 3, 11]
        assert list(smoothed.row(7)) == [90.0, 50.0, 10.0]
        assert list(smoothed.row(3)) == [7.5, 7.0, 1.0]
        assert list(smoothed.row(11)) == [8.0, 6.0, 4.0]
        # The table it came from is left as it was.
        assert list(history.row(3)) == [5.0, 4.0, 0.0]

    def test_smoothed_rejects_another_grid(self):
        fresh = CurveTable([1, 2, 3], [0], [[1.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            self.make().smoothed(fresh, [7])

    @given(
        st.lists(
            st.lists(st.floats(0, 1e6), min_size=5, max_size=5), min_size=1, max_size=6
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_entry_equals_per_read_monotone(self, rows):
        """Entering a table makes each row what the old per-read
        ``MissCurve.monotone()`` copy returned, bit for bit, and entering
        again changes nothing."""
        caps = np.array([1, 3, 9, 27, 81])
        table = CurveTable(caps, range(len(rows)), rows)
        for i, row in enumerate(rows):
            want = ReferenceCurve(caps, np.array(row)).monotone().misses
            assert np.array_equal(table.row(i), want)
        again = CurveTable(caps, table.ids, table.misses)
        assert np.array_equal(again.misses, table.misses)

    def test_no_miss_curve_built_per_epoch(self, monkeypatch):
        """Profiling, smoothing, sizing and configuring work on table
        rows: no run builds a ``MissCurve``."""
        built = []
        original = MissCurve.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(curves_mod.MissCurve, "__post_init__", counting)
        for policy in (NdpExtPolicy(adaptive_blocks=True), NexusPolicy()):
            engine = SimulationEngine(tiny(), recorder=Recorder())
            engine.run(build("recsys", TINY), policy)
        assert built == []


def table_of(curves):
    """A shared-grid dict of curves as a table, in dict order."""
    caps = next(iter(curves.values())).capacities
    return CurveTable(caps, list(curves), [c.misses for c in curves.values()])


def segment(lookahead, step):
    """A step as ``(id, start, end, gain)``."""
    if step is None:
        return None
    sid, size = step
    i = lookahead.ids.index(sid)
    start, end = lookahead.allocated[i], lookahead.end[i]
    assert end - start == size
    return sid, start, end, lookahead.gain[i]


class TestLookahead:
    def test_picks_steepest_stream(self):
        lookahead = Lookahead(
            CurveTable([10, 100], [0, 1], [[100.0, 10.0], [100.0, 80.0]])
        )
        sid, _ = lookahead.next()
        assert sid == 0

    def test_commit_advances(self):
        lookahead = Lookahead(CurveTable([10, 100], [0], [[100.0, 10.0]]))
        sid, size = lookahead.next()
        lookahead.commit(sid)
        assert lookahead.allocations()[0] == size == 100

    def test_commit_rejects_stale_segment(self):
        """A row with no extension left has nothing to commit."""
        lookahead = Lookahead(CurveTable([10, 100], [0], [[100.0, 10.0]]))
        sid, _ = lookahead.next()
        lookahead.commit(sid)
        with pytest.raises(ValueError):
            lookahead.commit(sid)

    def test_exhausts(self):
        lookahead = Lookahead(CurveTable([10, 100], [0], [[100.0, 10.0]]))
        while (step := lookahead.next()) is not None:
            lookahead.commit(step[0])
        assert lookahead.allocations() == {0: 100}

    def test_exclude(self):
        lookahead = Lookahead(
            CurveTable([10, 20], [0, 1], [[100.0, 100.0], [100.0, 5.0]])
        )
        assert lookahead.next() == (1, 20)
        assert lookahead.next(exclude={1}) is None
        assert lookahead.next(exclude={1, 42}) is None

    def test_flat_curve_yields_nothing(self):
        lookahead = Lookahead(CurveTable([10, 100], [0], [[50.0, 50.0]]))
        assert lookahead.next() is None

    def test_empty(self):
        assert Lookahead(CurveTable.empty([1, 2])).next() is None

    def test_slope_is_gain_per_byte(self):
        lookahead = Lookahead(CurveTable([0, 100], [1], [[50.0, 0.0]]))
        assert lookahead.slope[0] == 0.5
        assert segment(lookahead, lookahead.next()) == (1, 0, 100, 50.0)

    def test_cross_row_tie_goes_to_earliest_row(self):
        rows = [[10.0, 5.0, 0.0]] * 3
        lookahead = Lookahead(CurveTable([1, 2, 3], [4, 2, 9], rows))
        assert lookahead.next() == (4, 3)
        assert lookahead.next(exclude={4}) == (2, 3)

    def test_mapping_rows_keep_their_own_grids(self):
        lookahead = Lookahead(
            {
                3: MissCurve([10, 20], [10.0, 0.0]),
                1: MissCurve([5, 50, 60], [10.0, 12.0, 0.0]),
            }
        )
        assert lookahead.ids == [3, 1]
        assert lookahead.next() == (3, 20)
        lookahead.commit(3)
        # Row 1 entered as its running minimum: 10, 10, 0.
        assert segment(lookahead, lookahead.next()) == (1, 0, 60, 10.0)

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
        lookahead = Lookahead(curves)
        for _ in range(50):
            step = lookahead.next()
            if step is None:
                break
            sid, start, end, gain = segment(lookahead, step)
            assert gain > 0
            assert end > start
            lookahead.commit(sid)


class Shadow:
    """The scalar loop the lookahead replaced, over the same rows: for
    every row not excluded, every measured point past its allocation
    that saves misses, keeping the first strictly steepest."""

    def __init__(self, curves):
        self.curves = dict(curves)
        self.allocated = {sid: 0 for sid in self.curves}

    def next(self, exclude=None):
        best = None
        best_slope = -np.inf
        for sid, curve in self.curves.items():
            if exclude and sid in exclude:
                continue
            current = self.allocated[sid]
            current_misses = curve.misses_at(current)
            for cap, misses in zip(curve.capacities, curve.misses):
                if cap <= current:
                    continue
                gain = current_misses - misses
                if gain <= 0:
                    continue
                slope = gain / float(cap - current)
                if slope > best_slope:
                    best = (sid, current, int(cap), float(gain))
                    best_slope = slope
        return best

    def commit(self, step):
        self.allocated[step[0]] = step[2]


def monotone_curves(curves):
    return {
        sid: ReferenceCurve(c.capacities, c.misses).monotone() for sid, c in curves.items()
    }


class TestLookaheadVectorizedEquivalence:
    """The row lookahead must replay the scalar loop decision for
    decision, ties included, over a table's shared grid and over curves
    on their own grids alike."""

    @staticmethod
    def _random_curves(rng, n_streams, shared):
        curves = {}
        grid = np.unique(rng.integers(1, 10_000, size=int(rng.integers(2, 12))))
        for sid in range(n_streams):
            caps = grid
            if not shared:
                caps = np.unique(rng.integers(1, 10_000, size=int(rng.integers(2, 12))))
            misses = np.sort(rng.uniform(0, 1000, size=len(caps)))[::-1]
            # Inject plateaus so tie-breaking is actually exercised.
            if len(misses) > 2:
                misses[1] = misses[2]
            if rng.random() < 0.3:
                misses[0] = misses[1]  # a repeated leading value
            if rng.random() < 0.2:
                misses = rng.uniform(0, 1000, size=len(caps))  # not monotone
            curves[sid] = MissCurve(caps, misses.copy())
        return curves

    @classmethod
    def _random_state(cls, rng, n_streams, shared=True):
        curves = cls._random_curves(rng, n_streams, shared)
        source = table_of(curves) if shared else curves
        return Lookahead(source), Shadow(monotone_curves(curves))

    def test_matches_reference_loop_through_full_allocation(self):
        self._replay_full_allocation(shared=True)

    def test_matches_reference_loop_on_curves_with_own_grids(self):
        self._replay_full_allocation(shared=False)

    def _replay_full_allocation(self, shared):
        rng = np.random.default_rng(42)
        for trial in range(25):
            lookahead, shadow = self._random_state(
                rng, n_streams=int(rng.integers(1, 6)), shared=shared
            )
            while True:
                got = segment(lookahead, lookahead.next())
                want = shadow.next()
                assert got == want, f"trial {trial}: {got} != {want}"
                if got is None:
                    break
                lookahead.commit(got[0])
                shadow.commit(want)

    def test_matches_reference_with_exclusions(self):
        rng = np.random.default_rng(43)
        lookahead, shadow = self._random_state(rng, n_streams=5)
        exclude = {0, 3}
        assert segment(lookahead, lookahead.next(exclude=exclude)) == shadow.next(
            exclude=exclude
        )

    def test_matches_reference_as_exclusions_change(self):
        rng = np.random.default_rng(44)
        for trial in range(25):
            lookahead, shadow = self._random_state(rng, n_streams=int(rng.integers(2, 6)))
            sids = list(lookahead.ids)
            for _step in range(40):
                exclude = {s for s in sids if rng.random() < 0.4}
                got = segment(lookahead, lookahead.next(exclude=exclude))
                want = shadow.next(exclude=exclude)
                assert got == want, f"trial {trial}: {got} != {want}"
                if got is None:
                    if not exclude:
                        break
                    continue
                lookahead.commit(got[0])
                shadow.commit(want)

    def test_matches_reference_after_outside_allocation_changes(self):
        """``allocate`` may put a row anywhere: on a measured point,
        between points, below the grid or back where it was."""
        rng = np.random.default_rng(45)
        for trial in range(25):
            lookahead, shadow = self._random_state(rng, n_streams=int(rng.integers(1, 6)))
            for _step in range(40):
                if rng.random() < 0.3:
                    sid = int(rng.choice(lookahead.ids))
                    caps = shadow.curves[sid].capacities
                    value = int(rng.choice([0, int(rng.integers(0, caps[-1] + 2)),
                                            int(caps[rng.integers(len(caps))])]))
                    lookahead.allocate(sid, value)
                    shadow.allocated[sid] = value
                got = segment(lookahead, lookahead.next())
                want = shadow.next()
                assert got == want, f"trial {trial}: {got} != {want}"
                if got is None:
                    break
                lookahead.commit(got[0])
                shadow.commit(want)

    def test_matches_reference_after_curve_swaps(self):
        """A lookahead over a table with one row replaced, carrying the
        allocations over, matches the scalar loop over the new rows:
        nothing derived from the old row survives."""
        rng = np.random.default_rng(46)
        for trial in range(25):
            lookahead, shadow = self._random_state(rng, n_streams=int(rng.integers(1, 6)))
            table = table_of(shadow.curves)
            for _step in range(40):
                if rng.random() < 0.3:
                    sid = int(rng.choice(table.ids))
                    fresh = np.sort(rng.uniform(0, 1000, size=len(table.capacities)))[::-1]
                    rows = table.misses.copy()
                    rows[table.ids.index(sid)] = fresh
                    table = CurveTable(table.capacities, table.ids, rows)
                    shadow.curves[sid] = MissCurve(table.capacities, fresh.copy())
                    allocated = lookahead.allocations()
                    lookahead = Lookahead(table)
                    for other, capacity in allocated.items():
                        lookahead.allocate(other, capacity)
                got = segment(lookahead, lookahead.next())
                want = shadow.next()
                assert got == want, f"trial {trial}: {got} != {want}"
                if got is None:
                    break
                lookahead.commit(got[0])
                shadow.commit(want)

    @given(
        grid=st.lists(st.integers(1, 200), min_size=1, max_size=6, unique=True),
        rows=st.lists(
            st.lists(st.integers(0, 12), min_size=6, max_size=6), min_size=1, max_size=5
        ),
        exclude=st.sets(st.integers(0, 4)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_small_integer_rows(self, grid, rows, exclude):
        """Small integer misses make equal slopes within and across rows
        common; excluded rows must never be picked."""
        caps = np.array(sorted(grid))
        curves = {
            sid: MissCurve(caps, np.array(row[: len(caps)], dtype=np.float64))
            for sid, row in enumerate(rows)
        }
        lookahead = Lookahead(table_of(curves))
        shadow = Shadow(monotone_curves(curves))
        while True:
            got = segment(lookahead, lookahead.next(exclude=exclude))
            assert got == shadow.next(exclude=exclude)
            if got is None:
                break
            assert got[0] not in exclude
            lookahead.commit(got[0])
            shadow.commit(got)
