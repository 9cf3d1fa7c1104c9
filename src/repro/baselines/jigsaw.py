"""Jigsaw [6]: utility-partitioned, thread-classified shared cache.

Jigsaw partitions the shared cache per *thread*: each line belongs to the
thread that dominates its accesses (lines with no dominant accessor go to
a shared partition).  Partition sizes come from lookahead over sampled
miss curves; placement moves each partition's banks toward the
centre-of-mass of its accessors.  Reconfiguration uses bulk invalidation.

This is the sizing-then-placement, no-replication design whose two
weaknesses (centre-units contention, no per-data replication) motivate
NDPExt's joint algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import CATCHALL_PID, PartitionedNucaPolicy
from repro.sim.params import CACHELINE_BYTES, SystemConfig
from repro.sim.topology import Topology
from repro.workloads.trace import Trace, Workload

DOMINANCE = 0.5  # a core owns a line if it issues > 50% of its accesses


class JigsawPolicy(PartitionedNucaPolicy):
    """Thread-partitioned D-NUCA with lookahead sizing and
    centre-of-mass placement."""

    name = "jigsaw"

    def setup(self, config: SystemConfig, topology: Topology, workload: Workload) -> None:
        super().setup(config, topology, workload)
        # (lines ascending, owning partition): installed and pending.
        self._line_owner: tuple[np.ndarray, np.ndarray] | None = None
        self._pending_owner: tuple[np.ndarray, np.ndarray] | None = None

    # -- classification ---------------------------------------------------

    def classify(self, epoch: Trace) -> np.ndarray:
        lines = epoch.addr // CACHELINE_BYTES
        pids = np.full(len(epoch), CATCHALL_PID, dtype=np.int64)
        if self._line_owner is not None:
            known_lines, owners = self._line_owner
            pos = np.searchsorted(known_lines, lines)
            pos = np.clip(pos, 0, len(known_lines) - 1)
            found = known_lines[pos] == lines
            pids[found] = owners[pos[found]]
        return pids

    # -- profiling ----------------------------------------------------------

    def observe(self, epoch_idx: int, epoch: Trace, pids: np.ndarray) -> None:
        lines = epoch.addr // CACHELINE_BYTES
        cores = epoch.core.astype(np.int64)
        n_cores = int(cores.max()) + 1 if len(cores) else 1
        key = lines * n_cores + cores
        uniq, counts = np.unique(key, return_counts=True)
        u_lines = uniq // n_cores
        u_cores = uniq % n_cores

        # Dominant accessor per line: the (line, core) pair with the
        # largest count, owning the line only above the dominance cut.
        order = np.lexsort((counts, u_lines))
        s_lines = u_lines[order]
        last_of_line = np.ones(len(order), dtype=bool)
        last_of_line[:-1] = s_lines[1:] != s_lines[:-1]
        best_idx = order[last_of_line]
        # Total accesses per line via add-reduce on the unique pairs.
        line_ids, inverse = np.unique(u_lines, return_inverse=True)
        per_line_total = np.zeros(len(line_ids), dtype=np.int64)
        np.add.at(per_line_total, inverse, counts)
        best_lines = u_lines[best_idx]
        best_cores = u_cores[best_idx]
        best_counts = counts[best_idx]
        best_pos = np.searchsorted(line_ids, best_lines)
        dominant = best_counts > DOMINANCE * per_line_total[best_pos]
        owner = np.where(
            dominant,
            best_cores % self.config.n_units,
            CATCHALL_PID,
        )
        # Adopted at the next install, together with the sizing —
        # reclassifying lines without resizing would move data for nothing.
        self._pending_owner = (best_lines, owner)

        # Miss curves per partition, classified by the fresh ownership.
        fresh_pids = np.full(len(epoch), CATCHALL_PID, dtype=np.int64)
        pos = np.clip(np.searchsorted(best_lines, lines), 0, len(best_lines) - 1)
        found = best_lines[pos] == lines
        fresh_pids[found] = owner[pos[found]]
        super().observe(epoch_idx, epoch, fresh_pids)

    def record_install(self, sizes: dict[int, int]) -> None:
        super().record_install(sizes)
        if self._pending_owner is not None:
            self._line_owner = self._pending_owner
