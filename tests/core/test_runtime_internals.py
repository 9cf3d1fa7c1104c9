"""Unit tests for the runtime's internal cost model and scheduling."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import NdpExtPolicy
from repro.core.sampler import SamplerParams
from repro.sim.params import tiny
from repro.sim.topology import Topology
from repro.util.curves import CurveTable, Lookahead
from repro.workloads import TINY, build
from tests.core import configure_reference as ref
from tests.core.test_stream_cache import stream_rows


@pytest.fixture()
def policy():
    config = tiny()
    policy = NdpExtPolicy()
    policy.setup(config, Topology(config), build("pr", TINY))
    return policy


def curve_table(sid, misses, caps=(1024, 4096, 16384)):
    return CurveTable(caps, [sid], [misses])


class TestShouldReconfigure:
    def test_never_at_epoch_zero(self, policy):
        policy._curves = curve_table(0, [10, 5, 1])
        assert not policy._should_reconfigure(0)

    def test_never_without_curves(self, policy):
        assert not policy._should_reconfigure(3)

    def test_interval_gates(self):
        config = tiny()
        policy = NdpExtPolicy(reconfig_interval=2)
        policy.setup(config, Topology(config), build("pr", TINY))
        policy._curves = curve_table(0, [10, 5, 1])
        assert policy._should_reconfigure(2)
        assert not policy._should_reconfigure(3)

    def test_partial_stops_after_window(self):
        config = tiny()
        policy = NdpExtPolicy(mode="partial", partial_epochs=2)
        policy.setup(config, Topology(config), build("pr", TINY))
        policy._curves = curve_table(0, [10, 5, 1])
        assert policy._should_reconfigure(2)
        assert not policy._should_reconfigure(3)


class TestPredictedCost:
    def test_more_capacity_cheaper(self, policy):
        config = policy.config
        sid = next(iter(policy._streams))
        curves = curve_table(sid, [1000, 100, 0])
        policy._epoch_access_totals = {sid: 1000}
        policy._acc_counts = {sid: {0: 1000}}
        policy._acc_units = {sid: [0]}
        small_rows = stream_rows(config.n_units, sid, [1, 0, 0, 0])
        big_rows = stream_rows(config.n_units, sid, [8, 0, 0, 0])
        assert policy._predicted_cost(curves, *big_rows) < policy._predicted_cost(
            curves, *small_rows
        )

    def test_remote_allocation_costlier_than_local(self, policy):
        sid = next(iter(policy._streams))
        curves = curve_table(sid, [0, 0, 0])  # all hits: only distance matters
        policy._epoch_access_totals = {sid: 1000}
        policy._acc_counts = {sid: {0: 1000}}
        policy._acc_units = {sid: [0]}
        n_units = policy.config.n_units
        local = stream_rows(n_units, sid, [4, 0, 0, 0])
        remote = stream_rows(n_units, sid, [0, 0, 0, 4])
        assert policy._predicted_cost(curves, *local) < policy._predicted_cost(
            curves, *remote
        )

    def test_unknown_curve_ignored(self, policy):
        sid = next(iter(policy._streams))
        rows = stream_rows(policy.config.n_units, sid, [1, 0, 0, 0])
        empty = CurveTable.empty(policy._curves.capacities)
        assert policy._predicted_cost(empty, *rows) == 0.0


class TestMeanHitDistance:
    def test_local_consumer_zero_distance(self, policy):
        sid = next(iter(policy._streams))
        policy._acc_counts = {sid: {0: 100}}
        shares, groups = stream_rows(policy.config.n_units, sid, [4, 0, 0, 0])
        assert policy._mean_hit_distance_ns(sid, shares[sid], groups[sid]) == 0.0

    def test_remote_consumer_positive(self, policy):
        sid = next(iter(policy._streams))
        policy._acc_counts = {sid: {3: 100}}
        shares, groups = stream_rows(policy.config.n_units, sid, [4, 0, 0, 0])
        assert policy._mean_hit_distance_ns(sid, shares[sid], groups[sid]) > 0

    def test_empty_allocation_zero(self, policy):
        sid = next(iter(policy._streams))
        policy._acc_counts = {sid: {0: 100}}
        shares, groups = stream_rows(policy.config.n_units, sid, [0, 0, 0, 0])
        assert policy._mean_hit_distance_ns(sid, shares[sid], groups[sid]) == 0.0


class TestFallbackCurve:
    def test_bounded_by_accesses(self, policy):
        sid = next(iter(policy._streams))
        (misses,) = policy._fallback_rows({sid: 500})
        assert misses.max() <= 500
        assert misses.min() >= 0

    def test_decreasing(self, policy):
        sid = next(iter(policy._streams))
        (misses,) = policy._fallback_rows({sid: 500})
        assert (np.diff(misses) <= 1e-9).all()

    @given(
        elements=st.integers(1, 1 << 34),
        accesses=st.integers(1, 10**9),
        points=st.integers(2, 64),
        lo=st.sampled_from([1, 1024]),
        capacities=st.lists(st.floats(-10.0, 2.0**41), max_size=50),
    )
    @settings(max_examples=300, deadline=None)
    def test_anchored_row_reads_as_the_unanchored_curve(
        self, elements, accesses, points, lo, capacities
    ):
        """On the curve grid (anchored at capacity 1 unless the cases
        start there), the prior reads exactly as the curve over the bare
        capacity cases did: under ``np.interp`` everywhere, and step for
        step under the lookahead."""
        policy = NdpExtPolicy()
        config = tiny()
        policy.setup(config, Topology(config), build("pr", TINY))
        policy.sampler_params = SamplerParams(
            capacity_points=points, min_capacity=lo, max_capacity=1 << 30
        )
        sid = next(iter(policy._streams))
        stream = policy._streams[sid]
        size = elements * stream.elem_size
        policy._streams[sid] = dataclasses.replace(stream, size=size)
        grid = policy.sampler_params.curve_capacities()
        (row,) = policy._fallback_rows({sid: accesses})

        caps = policy.sampler_params.capacities()
        fraction = np.clip(caps / max(1, size), 0.0, 1.0)
        old = ref.MissCurve(caps, accesses * (1.0 - fraction))

        probes = np.concatenate(
            [capacities, grid, grid - 0.5, grid + 0.5, [0, 1, 1 << 31]]
        )
        assert np.array_equal(
            np.interp(probes, grid, row), np.interp(probes, old.capacities, old.misses)
        )

        lookahead = Lookahead(CurveTable(grid, [sid], [row]))
        state = ref.LookaheadState({sid: old.monotone()})
        while True:
            step = lookahead.next()
            want = state.next_steepest_segment()
            assert (step is None) == (want is None)
            if step is None:
                break
            assert step == (sid, want.size)
            assert (lookahead.end[0], lookahead.gain[0]) == (want.end_capacity, want.gain)
            lookahead.commit(sid)
            state.commit(want)
