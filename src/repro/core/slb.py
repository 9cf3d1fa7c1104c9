"""Stream lookahead buffer (SLB): per-unit metadata cache (Section IV-C).

Each NDP unit holds a 32-entry SLB caching one simplified remap-table
entry per stream (4.6 kB of SRAM).  A post-L1 request first matches its
address against the SLB's TCAM ranges; a hit costs a cycle-scale lookup,
a miss costs a host round trip to refill the entry from the full remap
table — rare, because few workloads touch more than 32 streams per unit.

The simulator replays the per-unit *stream-id sequence* through an exact
LRU of 32 entries.  Consecutive accesses to the same stream are collapsed
first (they can't change LRU state).  When the resident entries and the
call's streams fit in the buffer together, nothing is evicted and the
result follows from first and last touches without a loop; otherwise a
Python loop replays the stream *transitions*, not the accesses.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

# Simplified SLB entry: stream config fields + this unit's group shares +
# one RRowBase item.  4544 B / 32 entries = 142 bytes per entry (paper).
SLB_ENTRY_BYTES = 142


@dataclass
class SlbResult:
    """Per-access metadata latency plus hit statistics for one unit."""

    latency_ns: np.ndarray
    hits: int
    misses: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class StreamLookaheadBuffer:
    """Exact LRU over stream entries, replayed per epoch."""

    def __init__(self, entries: int = 32, hit_ns: float = 1.0, refill_ns: float = 300.0):
        if entries < 1:
            raise ValueError("SLB needs at least one entry")
        self.entries = entries
        self.hit_ns = hit_ns
        self.refill_ns = refill_ns
        self._resident: OrderedDict[int, None] = OrderedDict()

    def invalidate(self) -> None:
        """Drop all entries (remap-table reconfiguration)."""
        self._resident.clear()

    def process(self, sids: np.ndarray) -> SlbResult:
        """Replay a unit's stream-id sequence; returns per-access latency."""
        sids = np.asarray(sids, dtype=np.int64)
        n = len(sids)
        latency = np.full(n, self.hit_ns)
        if n == 0:
            return SlbResult(latency_ns=latency, hits=0, misses=0)

        # Run-length compress: only the first access of each run can miss.
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = sids[1:] != sids[:-1]
        run_starts = np.flatnonzero(change)
        run_sids = sids[run_starts]

        resident = self._resident
        runs = run_sids.tolist()
        fits = False
        # A call with no more runs than entries keeps the loop: it is
        # short, and cheaper than the fast path's dict building.
        if len(runs) > self.entries:
            # Touched sids by descending last touch.
            by_last = list(dict.fromkeys(reversed(runs)))
            fresh = [sid for sid in by_last if sid not in resident]
            fits = len(resident) + len(fresh) <= self.entries
        if fits:
            # Nothing can be evicted: the misses are the first touches of
            # non-resident sids, and the LRU order becomes the untouched
            # entries followed by the touched sids by last touch.
            first = dict(zip(reversed(runs), range(len(runs) - 1, -1, -1)))
            miss_positions = [int(run_starts[first[sid]]) for sid in fresh]
            for sid in by_last:
                resident.pop(sid, None)
            resident.update(dict.fromkeys(reversed(by_last)))
        else:
            miss_positions = []
            for pos, sid in zip(run_starts.tolist(), runs):
                if sid in resident:
                    resident.move_to_end(sid)
                else:
                    miss_positions.append(pos)
                    resident[sid] = None
                    if len(resident) > self.entries:
                        resident.popitem(last=False)
        misses = len(miss_positions)
        if misses:
            latency[np.asarray(miss_positions)] += self.refill_ns
        return SlbResult(latency_ns=latency, hits=n - misses, misses=misses)

    @property
    def sram_bytes(self) -> int:
        """SRAM cost of this SLB (paper: 4544 bytes for 32 entries)."""
        return self.entries * SLB_ENTRY_BYTES
