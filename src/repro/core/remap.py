"""The stream remap table: RShares, RRowBase, RGroups (Section IV-B).

The remap table is the global metadata that defines the distributed
stream cache: for every stream, how many DRAM rows each NDP unit
contributes (RShares), where those rows start (RRowBase), and which
replication group each unit belongs to (RGroups).  Units in the same
replication group jointly cache *one copy* of the stream; different
groups hold independent copies.

The table is kept by the host runtime and distilled into per-unit SLB
entries by :mod:`repro.core.slb`.  Bit-width accounting follows the
paper: 16-bit shares, 18-bit row bases, 6-bit group ids, 9-bit stream
ids, for 512 x 64 x 40 bits = 160 kB at full scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RSHARES_BITS = 16
RROWBASE_BITS = 18
RGROUPS_BITS = 6
MAX_GROUPS = 1 << RGROUPS_BITS
NO_GROUP = -1


@dataclass
class StreamAllocation:
    """One stream's row in the remap table.

    ``shares[u]`` is the number of DRAM rows unit ``u`` contributes;
    ``groups[u]`` is the replication-group id of unit ``u`` (or
    ``NO_GROUP`` when the unit holds nothing for this stream);
    ``row_base[u]`` is where the allocated rows start in unit ``u``.
    """

    sid: int
    shares: np.ndarray
    groups: np.ndarray
    row_base: np.ndarray

    def __post_init__(self) -> None:
        self.shares = np.asarray(self.shares, dtype=np.int64)
        self.groups = np.asarray(self.groups, dtype=np.int64)
        self.row_base = np.asarray(self.row_base, dtype=np.int64)
        n = len(self.shares)
        if len(self.groups) != n or len(self.row_base) != n:
            raise ValueError("shares/groups/row_base must have equal length")
        if np.any(self.shares < 0):
            raise ValueError("shares cannot be negative")
        if np.any((self.shares > 0) & (self.groups == NO_GROUP)):
            raise ValueError("units with allocated rows must belong to a group")
        if np.any((self.shares == 0) & (self.groups != NO_GROUP)):
            raise ValueError("units without rows cannot belong to a group")
        if np.any(self.shares >= (1 << RSHARES_BITS)):
            raise ValueError("a share exceeds the 16-bit RShares field")
        used = self.group_ids
        if len(used) > MAX_GROUPS:
            raise ValueError(f"at most {MAX_GROUPS} replication groups")

    @classmethod
    def empty(cls, sid: int, n_units: int) -> "StreamAllocation":
        return cls(
            sid=sid,
            shares=np.zeros(n_units, dtype=np.int64),
            groups=np.full(n_units, NO_GROUP, dtype=np.int64),
            row_base=np.zeros(n_units, dtype=np.int64),
        )

    @classmethod
    def single_group(
        cls, sid: int, shares: np.ndarray, row_base: np.ndarray | None = None
    ) -> "StreamAllocation":
        """All allocated units form one replication group (one copy)."""
        shares = np.asarray(shares, dtype=np.int64)
        groups = np.where(shares > 0, 0, NO_GROUP)
        if row_base is None:
            row_base = np.zeros(len(shares), dtype=np.int64)
        return cls(sid=sid, shares=shares, groups=groups, row_base=row_base)

    @property
    def n_units(self) -> int:
        return len(self.shares)

    @property
    def group_ids(self) -> list[int]:
        # One entry per unit: a set over the list beats np.unique's
        # per-call overhead and gives the same sorted ints.
        return sorted(set(self.groups.tolist()) - {NO_GROUP})

    @property
    def n_groups(self) -> int:
        return len(self.group_ids)

    @property
    def total_rows(self) -> int:
        return int(self.shares.sum())

    def units_of_group(self, group_id: int) -> np.ndarray:
        return np.flatnonzero(self.groups == group_id)

    def group_rows(self, group_id: int) -> int:
        """Rows of one copy: total rows contributed by the group's units."""
        return int(self.shares[self.groups == group_id].sum())

    def group_of_unit(self, unit: int) -> int:
        return int(self.groups[unit])

    def is_allocated(self) -> bool:
        return self.total_rows > 0

    def replication_degree(self) -> int:
        """Number of independent copies (groups)."""
        return max(1, self.n_groups)


class RemapTable:
    """The centralized stream remap table kept by the host runtime."""

    def __init__(self, n_units: int, rows_per_unit: int) -> None:
        if n_units <= 0 or rows_per_unit <= 0:
            raise ValueError("n_units and rows_per_unit must be positive")
        self.n_units = n_units
        self.rows_per_unit = rows_per_unit
        # Usable rows per unit; shrinks when hardware is lost (a failed
        # unit drops to zero, a quarantined DRAM row subtracts one).
        self.capacity = np.full(n_units, rows_per_unit, dtype=np.int64)
        self._allocations: dict[int, StreamAllocation] = {}

    def __contains__(self, sid: int) -> bool:
        return sid in self._allocations

    def __len__(self) -> int:
        return len(self._allocations)

    def get(self, sid: int) -> StreamAllocation:
        return self._allocations[sid]

    def get_or_empty(self, sid: int) -> StreamAllocation:
        if sid in self._allocations:
            return self._allocations[sid]
        return StreamAllocation.empty(sid, self.n_units)

    @property
    def sids(self) -> list[int]:
        return sorted(self._allocations)

    def set(self, allocation: StreamAllocation) -> None:
        """Install/replace a stream's allocation, checking unit capacity."""
        if allocation.n_units != self.n_units:
            raise ValueError("allocation does not match the system's unit count")
        previous = self._allocations.get(allocation.sid)
        self._allocations[allocation.sid] = allocation
        used = self.rows_used_per_unit()
        if np.any(used > self.capacity):
            # Roll back so the table stays consistent.
            if previous is None:
                del self._allocations[allocation.sid]
            else:
                self._allocations[allocation.sid] = previous
            over = int(np.argmax(used - self.capacity))
            raise ValueError(
                f"allocation overflows unit {over}: {int(used[over])} rows "
                f"> capacity {int(self.capacity[over])}"
            )
        self._assign_row_bases()

    def set_all(self, allocations: list[StreamAllocation]) -> None:
        """Replace the whole table atomically (one reconfiguration)."""
        table = {a.sid: a for a in allocations}
        if len(table) != len(allocations):
            raise ValueError("duplicate stream ids in allocation set")
        for a in allocations:
            if a.n_units != self.n_units:
                raise ValueError("allocation does not match the system's unit count")
        used = np.zeros(self.n_units, dtype=np.int64)
        for a in allocations:
            used += a.shares
        if np.any(used > self.capacity):
            over = int(np.argmax(used - self.capacity))
            raise ValueError(
                f"allocations overflow unit {over}: {int(used[over])} rows "
                f"> capacity {int(self.capacity[over])}"
            )
        self._allocations = table
        self._assign_row_bases()

    def _assign_row_bases(self) -> None:
        """Pack each unit's allocated rows contiguously (RRowBase)."""
        next_row = np.zeros(self.n_units, dtype=np.int64)
        for sid in sorted(self._allocations):
            alloc = self._allocations[sid]
            alloc.row_base = next_row.copy()
            next_row += alloc.shares

    def rows_used_per_unit(self) -> np.ndarray:
        used = np.zeros(self.n_units, dtype=np.int64)
        for alloc in self._allocations.values():
            used += alloc.shares
        return used

    def rows_free_per_unit(self) -> np.ndarray:
        return self.capacity - self.rows_used_per_unit()

    def disable_unit(self, unit: int) -> None:
        """Fail-stop: the unit's memory contributes no capacity anymore."""
        self.capacity[unit] = 0

    def reduce_capacity(self, unit: int, rows: int = 1) -> None:
        """Quarantine ``rows`` bad DRAM rows of one unit."""
        self.capacity[unit] = max(0, int(self.capacity[unit]) - rows)

    def metadata_bits(self, max_streams: int = 512) -> int:
        """Table I/Section IV-B accounting: streams x units x 40 bits."""
        per_entry = RSHARES_BITS + RROWBASE_BITS + RGROUPS_BITS
        return max_streams * self.n_units * per_entry

    def clear(self) -> None:
        self._allocations = {}
