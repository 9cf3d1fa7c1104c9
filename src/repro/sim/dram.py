"""DRAM device model: row-buffer behaviour, latency, and energy.

Each NDP unit owns a DRAM region with ``banks`` banks; an access hits the
open row (CAS-only latency) when the most recent access to the same bank
targeted the same row, and otherwise pays precharge + activate + CAS.
Row-hit detection is computed exactly and vectorised: accesses are grouped
by bank in trace order and compared against the previous access to that
bank, which is precisely the open-row state of a one-row-buffer bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim import kernels
from repro.sim.params import CACHELINE_BYTES, DramTiming


@dataclass
class DramAccessResult:
    """Vectorised outcome of a batch of DRAM accesses."""

    latency_ns: np.ndarray
    row_hit: np.ndarray

    @property
    def total_latency_ns(self) -> float:
        return float(self.latency_ns.sum())

    @property
    def row_hit_rate(self) -> float:
        n = len(self.row_hit)
        return float(self.row_hit.mean()) if n else 0.0


class DramModel:
    """Row-buffer-aware DRAM timing/energy for one device type."""

    def __init__(self, timing: DramTiming) -> None:
        self.timing = timing

    def rows_of(self, byte_addrs: np.ndarray) -> np.ndarray:
        return np.asarray(byte_addrs, dtype=np.int64) // self.timing.row_bytes

    def banks_of(self, byte_addrs: np.ndarray) -> np.ndarray:
        """Bank interleaving at row granularity."""
        return self.rows_of(byte_addrs) % self.timing.banks

    def access(
        self, byte_addrs: np.ndarray, channel: np.ndarray | None = None
    ) -> DramAccessResult:
        """Simulate a batch of accesses in trace order.

        ``channel`` optionally partitions banks into independent channels
        (used by the DDR5 extended memory); accesses to different channels
        never share a row buffer.
        """
        byte_addrs = np.asarray(byte_addrs, dtype=np.int64)
        rows = self.rows_of(byte_addrs)
        banks = self.banks_of(byte_addrs)
        if channel is not None:
            banks = banks + np.asarray(channel, dtype=np.int64) * self.timing.banks
        # Row hit iff the previous access to the same bank opened the same
        # row — the (bank, row) pair is exactly a direct-mapped (slot, tag)
        # check, one stable-sort pass.
        row_hit = kernels.direct_mapped_hits(banks, rows)
        latency = np.where(row_hit, self.timing.row_hit_ns, self.timing.row_miss_ns)
        return DramAccessResult(latency_ns=latency, row_hit=row_hit)

    def energy_nj(
        self, row_hit: np.ndarray, bytes_per_access: int = CACHELINE_BYTES
    ) -> float:
        """Total energy for a batch given its row-hit mask."""
        row_hit = np.asarray(row_hit, dtype=bool)
        n = len(row_hit)
        misses = int(n - row_hit.sum())
        transfer = n * bytes_per_access * 8 * self.timing.rd_wr_pj_per_bit / 1000.0
        return transfer + misses * self.timing.act_pre_nj
