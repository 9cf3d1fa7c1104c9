"""Static NUCA: cacheline interleaving across all units (S-NUCA).

The simple policy used in the paper's motivating Fig. 2: every line hashes
uniformly across the whole distributed cache, with no partitioning,
placement, or replication.  Inherits the metadata path and mapping from
:class:`PartitionedNucaPolicy`; it installs one interleaved partition
once and never profiles or resizes it.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import PartitionedNucaPolicy
from repro.workloads.trace import Trace


class StaticNucaPolicy(PartitionedNucaPolicy):
    """One global partition, uniformly interleaved, never reconfigured."""

    name = "static-nuca"

    def classify(self, epoch: Trace) -> np.ndarray:
        return np.zeros(len(epoch), dtype=np.int64)

    def observe(self, epoch_idx: int, epoch: Trace, pids: np.ndarray) -> None:
        """Never profiled."""

    def reconfigure(self, epoch_idx: int) -> None:
        if not self._partitions:
            self._partitions = {0: self._interleaved_partition(0)}
