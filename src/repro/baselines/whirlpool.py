"""Whirlpool [56]: static data classification + dynamic partitioning.

Whirlpool distinguishes *data structures* (not threads) during
partitioning: each annotated structure — our streams, classified manually
exactly as the paper adapts it ("we annotate streams as in NDPExt and
manually classify these streams") — becomes a partition.  Sizing uses the
same lookahead machinery as Jigsaw, placement is centre-of-mass of each
structure's accessors, and there is no replication.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import CATCHALL_PID, PartitionedNucaPolicy
from repro.sim.params import SystemConfig
from repro.sim.topology import Topology
from repro.workloads.trace import Trace, Workload


class WhirlpoolPolicy(PartitionedNucaPolicy):
    """Data-structure-partitioned D-NUCA (one partition per stream)."""

    name = "whirlpool"

    def setup(self, config: SystemConfig, topology: Topology, workload: Workload) -> None:
        super().setup(config, topology, workload)
        # Partition -> read-only so far; a write in any epoch clears it.
        self._read_only = {s.sid: s.read_only for s in workload.streams}

    def classify(self, epoch: Trace) -> np.ndarray:
        pids = epoch.sid.astype(np.int64)
        return np.where(pids >= 0, pids, CATCHALL_PID)

    def observe(self, epoch_idx: int, epoch: Trace, pids: np.ndarray) -> None:
        for pid in np.unique(pids[epoch.write]):
            self._read_only[int(pid)] = False
        super().observe(epoch_idx, epoch, pids)
