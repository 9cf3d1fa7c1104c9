"""Nexus [71]: Whirlpool-style partitioning + global replication degree.

Nexus adds replication for read-only data, but with a *single global
degree* applied uniformly: the unit grid is split into R regular regions
and every read-only partition keeps one copy per region.  The degree is
chosen once per reconfiguration by estimating, from the measured miss
curves, the balance between extra misses (each copy is R x smaller) and
saved interconnect hops (a replica is nearer).

The contrast with NDPExt is precisely that R is global and regions are
regular — per-stream custom groups are impossible at cacheline-metadata
cost (Section IV-B).
"""

from __future__ import annotations

from repro.baselines.whirlpool import WhirlpoolPolicy
from repro.sim.params import SystemConfig
from repro.sim.topology import Topology
from repro.workloads.trace import Workload

CANDIDATE_DEGREES = (1, 2, 4, 8)


class NexusPolicy(WhirlpoolPolicy):
    """Whirlpool + global-degree replication for read-only partitions."""

    name = "nexus"

    def __init__(self, metadata_in_dram: bool = True, degree: int | None = None) -> None:
        super().__init__(metadata_in_dram=metadata_in_dram)
        self._fixed_degree = degree

    def setup(self, config: SystemConfig, topology: Topology, workload: Workload) -> None:
        super().setup(config, topology, workload)
        self.chosen_degree = 1

    def _avg_distance_ns(self, degree: int) -> float:
        """Average one-way latency from a unit to its region's centre."""
        regions = self._regions(degree)
        total = 0.0
        for region in regions:
            center = self.topology.centroid_unit([int(u) for u in region])
            total += float(
                sum(self.topology.latency_ns[int(u), center] for u in region)
            )
        return total / self.config.n_units

    def _miss_penalty_ns(self) -> float:
        cfg = self.config
        return cfg.cxl.link_ns + cfg.ext_dram.row_miss_ns

    def _pick_degree(self, sizes: dict[int, int]) -> int:
        """The global degree, given the bytes lookahead sized each
        partition."""
        if self._fixed_degree is not None:
            return self._fixed_degree
        curves = self._curves
        read_only = [
            pid for pid, ro in self._read_only.items() if ro and pid in curves
        ]
        if not read_only:
            return 1
        penalty = self._miss_penalty_ns()

        def predicted_cost(degree: int) -> float:
            hop_ns = self._avg_distance_ns(degree)
            cost = 0.0
            for pid in curves.ids:
                accesses = self._importance.get(pid, 0)
                size = sizes.get(pid, 0)
                if pid in read_only:
                    misses = curves.misses_at(pid, max(1, size // degree))
                else:
                    misses = curves.misses_at(pid, max(1, size))
                hits = max(0.0, accesses - misses)
                cost += misses * penalty + hits * 2.0 * hop_ns
            return cost

        base_cost = predicted_cost(1)
        best_degree, best_cost = 1, base_cost
        for degree in CANDIDATE_DEGREES[1:]:
            if degree > self.config.n_units:
                continue
            cost = predicted_cost(degree)
            if cost < best_cost:
                best_cost, best_degree = cost, degree
        # Replication shrinks every copy; commit only on a clear predicted
        # win, since the model under-counts conflict misses near exact fit.
        if best_degree > 1 and best_cost > 0.85 * base_cost:
            return 1
        return best_degree

    def replication_degrees(self, sizes: dict[int, int]) -> dict[int, int]:
        self.chosen_degree = self._pick_degree(sizes)
        if self.chosen_degree == 1:
            return {}
        return {
            pid: self.chosen_degree
            for pid, ro in self._read_only.items()
            if ro and pid in self._curves
        }
