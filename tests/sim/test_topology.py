"""Tests for the stack/unit topology and distance model."""

import numpy as np
import pytest

from repro.sim.params import small, tiny
from repro.sim.topology import Topology


class TestGeometry:
    def test_unit_positions_cover_all(self):
        topo = Topology(small())
        stacks = {p.stack for p in topo.positions}
        assert stacks == set(range(4))

    def test_self_distance_zero(self):
        topo = Topology(small())
        assert all(topo.distance_ns(u, u) == 0 for u in range(topo.n_units))

    def test_symmetric_latency(self):
        topo = Topology(small())
        assert np.allclose(topo.latency_ns, topo.latency_ns.T)

    def test_cross_stack_costs_inter_hops(self):
        config = small()
        topo = Topology(config)
        same_stack = topo.units_in_stack(0)
        other_stack = topo.units_in_stack(config.n_stacks - 1)
        within = topo.distance_ns(same_stack[0], same_stack[1])
        across = topo.distance_ns(same_stack[0], other_stack[0])
        assert across > within

    def test_hbm_crossbar_one_hop_within_stack(self):
        topo = Topology(small("hbm"))
        units = topo.units_in_stack(0)
        for u in units[1:]:
            assert topo.intra_hops[units[0], u] == 1

    def test_hmc_mesh_hops_within_stack(self):
        config = small("hmc").scaled(mesh_x=4, mesh_y=4, stacks_x=1, stacks_y=1)
        topo = Topology(config)
        # Opposite mesh corners of a 4x4: 3 + 3 hops.
        assert topo.intra_hops[0, 15] == 6


class TestQueries:
    def test_round_trip_doubles(self):
        topo = Topology(small())
        assert topo.round_trip_ns(0, 5) == 2 * topo.distance_ns(0, 5)

    def test_nearest_units_sorted(self):
        topo = Topology(small())
        order = topo.nearest_units(3)
        distances = [topo.distance_ns(3, u) for u in order]
        assert distances == sorted(distances)
        assert order[0] == 3  # self is closest

    def test_attenuation_bounds(self):
        topo = Topology(small())
        for u in range(topo.n_units):
            k = topo.attenuation(0, u)
            assert 0 < k <= 1
        assert topo.attenuation(0, 0) == 1.0

    def test_attenuation_decreases_with_distance(self):
        topo = Topology(small())
        far = max(range(topo.n_units), key=lambda u: topo.distance_ns(0, u))
        assert topo.attenuation(0, far) < topo.attenuation(0, 0)

    def test_centroid_of_single_unit(self):
        topo = Topology(small())
        assert topo.centroid_unit([5]) == 5

    def test_centroid_weighted(self):
        topo = Topology(tiny())
        # Heavy weight on unit 3 pulls the centroid there.
        assert topo.centroid_unit([0, 3], weights=[1, 100]) == 3

    def test_centroid_rejects_empty(self):
        topo = Topology(tiny())
        with pytest.raises(ValueError):
            topo.centroid_unit([])

    def test_mean_latency(self):
        """Groups rank by mean latency; a tie goes to the first group."""
        topo = Topology(tiny())
        far = max(range(1, topo.n_units), key=lambda u: topo.distance_ns(0, u))
        near, far = np.array([0, 1]), np.array([far])
        assert topo.nearest_group(0, [far, near]) == 1
        assert topo.nearest_group(0, [near, far]) == 0
        assert topo.nearest_group(0, [near, near.copy()]) == 0

    def test_mean_latency_rejects_empty(self):
        topo = Topology(tiny())
        with pytest.raises(ValueError):
            topo.nearest_group(0, [])
