"""Consistent hashing for low-movement reconfiguration (Section V-D).

When the runtime installs a new cache configuration, the naive approach
(bulk invalidation, as in Jigsaw/CDCS) drops every cached element of every
resized stream.  NDPExt instead treats every allocated (unit, DRAM row)
as a spot on a consistent-hash ring; elements map to the nearest spot
clockwise, so resizing a stream's allocation only remaps the elements
whose nearest spot changed — the classic consistent-hashing guarantee.

:class:`ConsistentRing` provides the vectorised tag -> spot lookup, and
:func:`preserved_mask` compares two rings to find which tags keep their
physical location across a reconfiguration.
"""

from __future__ import annotations

import numpy as np

from repro.sim.kernels import hash_argsort
from repro.util.hashing import mix64, mix64_array, mix64_inplace

VIRTUAL_NODES = 8
_ROW_MASK = (1 << 32) - 1


class ConsistentRing:
    """A consistent-hash ring over (unit, row) spots for one stream.

    Each spot is placed at ``VIRTUAL_NODES`` pseudo-random ring positions
    for load balance.  Construction and lookups are fully vectorised.
    """

    def __init__(self, spots: np.ndarray, salt: int = 0) -> None:
        """``spots`` are packed spot ids ``(unit << 32) | row`` (see
        :func:`spots_of_group`); ``salt`` decorrelates rings of different
        streams.

        Spot ``i`` sits at ``mix64(base_i + v)`` for ``v < VIRTUAL_NODES``
        with ``base_i = mix64(((unit + 1) << 32) ^ row ^ mix64(salt))``;
        every row is below ``2**32``, so ``spot + 2**32`` is that
        ``((unit + 1) << 32) ^ row``, and wrapping uint64 arithmetic equals
        the masked Python integers.  Positions that tie keep spot order.
        """
        spots = np.asarray(spots, dtype=np.uint64)
        if len(spots) == 0:
            raise ValueError("a ring needs at least one spot")
        self._units = (spots >> np.uint64(32)).astype(np.int64)
        self._rows = (spots & np.uint64(_ROW_MASK)).astype(np.int64)
        base = spots + np.uint64(1 << 32)
        base ^= np.uint64(mix64(salt))
        mix64_inplace(base)
        keys = base[:, None] + np.arange(VIRTUAL_NODES, dtype=np.uint64)
        del base
        keys = mix64_inplace(keys.ravel())
        order = hash_argsort(keys)
        keys.sort()  # == keys[order], and faster than that gather
        self._positions = keys
        order //= VIRTUAL_NODES  # key k belongs to spot k // VIRTUAL_NODES
        self._owners = order

    def __len__(self) -> int:
        return len(self._units)

    def lookup(self, tags: np.ndarray) -> np.ndarray:
        """Map each tag to the index (into the spot list) of its owning spot."""
        hashes = mix64_array(np.asarray(tags, dtype=np.uint64), salt=17)
        idx = np.searchsorted(self._positions, hashes, side="right")
        idx[idx == len(self._positions)] = 0  # wrap around the ring
        return self._owners[idx]

    def units_of(self, spot_indices: np.ndarray) -> np.ndarray:
        return self._units[spot_indices]

    def rows_of(self, spot_indices: np.ndarray) -> np.ndarray:
        return self._rows[spot_indices]


def spots_of_group(units: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """The packed spot ids ``(unit << 32) | row`` of one replication
    group: rows ``0 .. share - 1`` of each unit, in unit order."""
    shares = np.asarray(shares, dtype=np.int64)
    starts = np.cumsum(shares) - shares
    spots = np.arange(int(shares.sum()), dtype=np.uint64)
    spots -= np.repeat(starts, shares).astype(np.uint64)
    spots |= np.repeat(np.asarray(units, dtype=np.uint64), shares) << np.uint64(32)
    return spots


def preserved_mask(
    old_ring: ConsistentRing, new_ring: ConsistentRing, tags: np.ndarray
) -> np.ndarray:
    """True for tags whose physical (unit, row) is identical in both rings.

    These are the cached elements a reconfiguration does not need to
    invalidate or move when consistent hashing is enabled.
    """
    tags = np.asarray(tags, dtype=np.int64)
    old_spots = old_ring.lookup(tags)
    new_spots = new_ring.lookup(tags)
    old_units = old_ring.units_of(old_spots)
    new_units = new_ring.units_of(new_spots)
    old_rows = old_ring.rows_of(old_spots)
    new_rows = new_ring.rows_of(new_spots)
    return (old_units == new_units) & (old_rows == new_rows)
