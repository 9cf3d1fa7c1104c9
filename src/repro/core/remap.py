"""The stream remap table: RShares, RRowBase, RGroups (Section IV-B).

The remap table is the global metadata that defines the distributed
stream cache.  It is one hardware table with an entry per (stream,
unit): how many DRAM rows the unit contributes to the stream (RShares),
where those rows start in the unit (RRowBase), and which replication
group the unit belongs to for the stream (RGroups).  Units in the same
replication group jointly cache *one copy* of the stream; different
groups hold independent copies.

:class:`RemapTable` stores it the same way: integer arrays ``shares``,
``groups`` and ``row_base`` of shape ``(MAX_STREAMS, n_units)``, indexed
by stream id, so a stream's row is ``table.shares[sid]``.  A
reconfiguration replaces the whole table with one :meth:`~RemapTable.install`,
which validates every row at once and packs the row bases.

The table is kept by the host runtime and distilled into per-unit SLB
entries by :mod:`repro.core.slb`.  Bit-width accounting follows the
paper: 16-bit shares, 18-bit row bases, 6-bit group ids, 9-bit stream
ids, for 512 x 64 x 40 bits = 160 kB at full scale.
"""

from __future__ import annotations

import numpy as np

from repro.core.stream import MAX_STREAMS

RSHARES_BITS = 16
RROWBASE_BITS = 18
RGROUPS_BITS = 6
MAX_GROUPS = 1 << RGROUPS_BITS
NO_GROUP = -1


def blank_rows(n_units: int) -> tuple[np.ndarray, np.ndarray]:
    """Shares and groups of an empty table: no rows, no group, anywhere."""
    shape = (MAX_STREAMS, n_units)
    return np.zeros(shape, dtype=np.int64), np.full(shape, NO_GROUP, dtype=np.int64)


def single_groups(shares: np.ndarray) -> np.ndarray:
    """Groups that put each stream's allocated units in one replication
    group (one copy, no replication)."""
    return np.where(np.asarray(shares) > 0, 0, NO_GROUP)


def group_ids(groups: np.ndarray) -> list[int]:
    """The replication groups one stream's groups row names, ascending."""
    # One entry per unit: a set over the list beats np.unique's
    # per-call overhead and gives the same sorted ints.
    return sorted(set(groups.tolist()) - {NO_GROUP})


def n_groups(groups: np.ndarray) -> np.ndarray:
    """Replication groups of each row of ``groups`` (last axis: units)."""
    ordered = np.sort(groups, axis=-1)
    first = np.ones(ordered.shape, dtype=bool)
    first[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    return (first & (ordered != NO_GROUP)).sum(axis=-1)


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
        self._publish(*blank_rows(n_units))

    def install(self, shares: np.ndarray, groups: np.ndarray) -> None:
        """Replace the whole table (one reconfiguration).

        ``shares`` and ``groups`` hold one row per stream id.  Every row
        is checked before any is installed: a failed check raises
        ``ValueError`` and leaves the table as it was.
        """
        shares = np.array(shares, dtype=np.int64)
        groups = np.array(groups, dtype=np.int64)
        shape = (MAX_STREAMS, self.n_units)
        if shares.shape != shape or groups.shape != shape:
            raise ValueError(f"shares and groups must both have shape {shape}")
        if np.any(shares < 0):
            raise ValueError("shares cannot be negative")
        if np.any(shares >= (1 << RSHARES_BITS)):
            raise ValueError("a share exceeds the 16-bit RShares field")
        if np.any((shares > 0) != (groups != NO_GROUP)):
            raise ValueError("a unit must belong to a group exactly when it has rows")
        if np.any(n_groups(groups) > MAX_GROUPS):
            raise ValueError(f"at most {MAX_GROUPS} replication groups per stream")
        used = shares.sum(axis=0)
        if np.any(used > self.capacity):
            over = int(np.argmax(used - self.capacity))
            raise ValueError(
                f"allocations overflow unit {over}: {int(used[over])} rows "
                f"> capacity {int(self.capacity[over])}"
            )
        self._publish(shares, groups)

    def _publish(self, shares: np.ndarray, groups: np.ndarray) -> None:
        # RRowBase packs each unit's rows contiguously in stream-id
        # order: the exclusive cumulative sum down the stream axis.
        row_base = np.cumsum(shares, axis=0) - shares
        for rows in (shares, groups, row_base):
            rows.flags.writeable = False  # only install changes the table
        self.shares, self.groups, self.row_base = shares, groups, row_base

    def disable_unit(self, unit: int) -> None:
        """Fail-stop: the unit's memory contributes no capacity anymore."""
        self.capacity[unit] = 0

    def reduce_capacity(self, unit: int, rows: int = 1) -> None:
        """Quarantine ``rows`` bad DRAM rows of one unit."""
        self.capacity[unit] = max(0, int(self.capacity[unit]) - rows)

    def metadata_bits(self, max_streams: int = MAX_STREAMS) -> int:
        """Table I/Section IV-B accounting: streams x units x 40 bits."""
        per_entry = RSHARES_BITS + RROWBASE_BITS + RGROUPS_BITS
        return max_streams * self.n_units * per_entry
