"""The stream cache: NDPExt's hardware caching scheme (Section IV).

This module implements the full request path of Fig. 3: a post-L1 request
looks up the local SLB to identify its stream and replication group, is
hashed (or consistent-hashed) to the unit/row of the group that caches its
element, and is then served by the affine tag array (SRAM tags over 1 kB
blocks) or by the direct-mapped in-DRAM-tag layout for indirect streams.

The mapper also carries the cache *contents* across epochs: at each
reconfiguration it keeps the resident (location, tag) pairs, and requests
in the next epoch whose first touch finds its tag still resident at the
same physical location are served as warm hits.  Under plain hashing a
resized stream reshuffles nearly everything (bulk invalidation); under
consistent hashing most pairs stay put — exactly the Section V-D effect.
The NUCA baselines carry their partitions' contents with the same two
functions, :func:`resident_contents` and :func:`rescue_first_touches`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.ata import AffineTagArray
from repro.core.consistent import VIRTUAL_NODES, ConsistentRing, spots_of_group
from repro.core.remap import NO_GROUP, RemapTable, group_ids, single_groups
from repro.core.slb import StreamLookaheadBuffer
from repro.core.stream import StreamConfig, StreamTable
from repro.sim import kernels
from repro.sim.cachesim import set_assoc_hits
from repro.sim.engine import ReconfigStats, RequestOutcome
from repro.sim.kernels import stable_argsort
from repro.sim.params import SystemConfig
from repro.sim.topology import Topology
from repro.util.hashing import bucket_array, mix64_array, weighted_bucket_array

# Minimum DRAM transfer: one burst.
BURST_BYTES = 64

# Latency charged when a write hits a replicated read-only stream: the
# exception traps to the host, which updates the remap table and sends
# invalidates (Section IV-B).  Happens at most once per stream.
WRITE_EXCEPTION_NS = 1000.0

_SET_SID_SHIFT = 45
_SET_UNIT_SHIFT = 33
_SET_UNIT_MASK = (1 << 12) - 1
_SET_IDX_MASK = (1 << 33) - 1


def pack_set_id(sid: np.ndarray, unit: np.ndarray, set_idx: np.ndarray) -> np.ndarray:
    """Physical set identity: (stream, unit, set index within the stream's
    allocation in that unit).  Stable across epochs for unchanged shares."""
    return (
        (np.asarray(sid, dtype=np.int64) << _SET_SID_SHIFT)
        | (np.asarray(unit, dtype=np.int64) << _SET_UNIT_SHIFT)
        | np.asarray(set_idx, dtype=np.int64)
    )


def unpack_unit(set_ids: np.ndarray) -> np.ndarray:
    return (np.asarray(set_ids, dtype=np.int64) >> _SET_UNIT_SHIFT) & _SET_UNIT_MASK


def unpack_set_idx(set_ids: np.ndarray) -> np.ndarray:
    return np.asarray(set_ids, dtype=np.int64) & _SET_IDX_MASK


def _pair_keys(set_ids: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Collision-resistant key for a (set, tag) pair (membership tests)."""
    return mix64_array(
        np.asarray(set_ids, dtype=np.uint64) ^ mix64_array(np.asarray(tags, dtype=np.uint64)),
        salt=29,
    ).astype(np.int64)


@dataclass
class GroupMapping:
    """Precomputed mapping state for one replication group of one stream."""

    gid: int
    units: np.ndarray  # units with rows, ascending
    shares: np.ndarray  # rows per unit (parallel to units)
    sets_per_unit: np.ndarray  # cache sets per unit for this stream
    ring: ConsistentRing | None = None

    @property
    def total_sets(self) -> int:
        return int(self.sets_per_unit.sum())


@dataclass
class StreamMapping:
    """Everything needed to map one stream's requests to cache locations.

    ``shares_row`` and ``groups_row`` are the remap-table rows the
    mapping was built from; row bases are read from the table, so rows
    that only moved keep their mapping."""

    stream: StreamConfig
    granularity: int  # caching granularity: block for affine, element for indirect
    entries_per_row: int
    ways: int
    shares_row: np.ndarray
    groups_row: np.ndarray
    groups: list[GroupMapping] = field(default_factory=list)
    group_of_unit: np.ndarray | None = None  # unit -> index into groups (or -1)

    @property
    def allocated(self) -> bool:
        return any(g.total_sets > 0 for g in self.groups)


@dataclass
class ResidentState:
    """Cache contents at the end of an epoch, per stream (or per NUCA
    baseline partition)."""

    set_ids: np.ndarray
    tags: np.ndarray

    def __len__(self) -> int:
        return len(self.set_ids)

    def pair_keys(self) -> np.ndarray:
        return np.sort(_pair_keys(self.set_ids, self.tags))

    def subset(self, keep: np.ndarray) -> "ResidentState":
        return ResidentState(set_ids=self.set_ids[keep], tags=self.tags[keep])


def resident_contents(
    groups: np.ndarray,
    set_ids: np.ndarray,
    tags: np.ndarray,
    ways: int | np.ndarray,
) -> dict[int, ResidentState]:
    """What each set holds after these accesses (in trace order), split
    by group (stream or partition id).

    For each set we keep the last ``ways`` distinct tags touched —
    exactly the contents for a direct-mapped cache, and the recency
    approximation used by :func:`set_assoc_hits` for W > 1.  ``ways``
    is a scalar or one value per access.
    """
    if not len(set_ids):
        return {}
    if np.all(ways == 1):
        # Direct-mapped: the last access per set is resident.  Stable
        # argsort == lexsort((seq, set_ids)), in one key sort.
        order = stable_argsort(set_ids)
        last = np.ones(len(order), dtype=bool)
        last[:-1] = set_ids[order][1:] != set_ids[order][:-1]
        keep = order[last]
    else:
        seq = np.arange(len(set_ids), dtype=np.int64)
        # Last occurrence of each (set, tag) pair; stable argsort is the
        # one-key equivalent of lexsort((seq, pair)).
        pair = _pair_keys(set_ids, tags)
        order = stable_argsort(pair)
        last_of_pair = np.ones(len(order), dtype=bool)
        last_of_pair[:-1] = pair[order][1:] != pair[order][:-1]
        unique = order[last_of_pair]
        # Rank pairs within each set by recency; keep rank < ways.
        u_sets = set_ids[unique]
        order2 = np.lexsort((-seq[unique], u_sets))
        s_sets = u_sets[order2]
        new_set = np.ones(len(order2), dtype=bool)
        new_set[1:] = s_sets[1:] != s_sets[:-1]
        rank = np.arange(len(order2)) - np.maximum.accumulate(
            np.where(new_set, np.arange(len(order2)), 0)
        )
        u_ways = np.broadcast_to(ways, set_ids.shape)[unique]
        keep = unique[order2[rank < u_ways[order2]]]
    k_groups = groups[keep]
    k_sets, k_tags = set_ids[keep], tags[keep]
    out = {}
    for group in np.unique(k_groups):
        sel = k_groups == group
        out[int(group)] = ResidentState(set_ids=k_sets[sel], tags=k_tags[sel])
    return out


def rescue_first_touches(
    resident: dict[int, ResidentState],
    groups: np.ndarray,
    set_ids: np.ndarray,
    tags: np.ndarray,
    cached: np.ndarray,
    hit: np.ndarray,
) -> int:
    """Convert first-touch misses whose tag is still resident at the
    same physical set into warm hits (in place in ``hit``); returns how
    many were converted.  ``resident`` is keyed by the ids in ``groups``."""
    if not resident:
        return 0
    pair = _pair_keys(set_ids, tags)
    prev_idx, _ = kernels.prev_in_group(pair, pair)
    first_touch = cached & (prev_idx < 0) & ~hit
    if not first_touch.any():
        return 0
    rescued = 0
    for group in np.unique(groups[first_touch]):
        state = resident.get(int(group))
        if state is None or not len(state):
            continue
        sel = first_touch & (groups == group)
        keys = pair[sel]
        resident_keys = state.pair_keys()
        pos = np.searchsorted(resident_keys, keys)
        pos = np.clip(pos, 0, len(resident_keys) - 1)
        found = resident_keys[pos] == keys
        hit_idx = np.flatnonzero(sel)[found]
        hit[hit_idx] = True
        rescued += len(hit_idx)
    return rescued


class StreamCacheMapper:
    """Maps requests to cache locations and simulates hits/misses."""

    def __init__(
        self,
        config: SystemConfig,
        topology: Topology,
        streams: StreamTable,
        placement: str = "consistent",
        warm_start: bool = True,
    ) -> None:
        if placement not in ("hash", "consistent"):
            raise ValueError(f"unknown placement mode {placement!r}")
        # Ablation knob: disable cross-epoch content persistence entirely
        # (every epoch starts cold, as if every boundary bulk-invalidated).
        self.warm_start = warm_start
        self.config = config
        self.topology = topology
        self.streams = streams
        self.placement = placement
        self.row_bytes = config.ndp_dram.row_bytes
        self.ata = AffineTagArray(
            block_bytes=config.stream.affine_block_bytes,
            space_bytes=config.stream.affine_space_bytes,
        )
        self.slbs = [
            StreamLookaheadBuffer(
                entries=config.stream.slb_entries,
                hit_ns=config.stream.slb_hit_ns,
                refill_ns=config.stream.slb_refill_ns,
            )
            for _ in range(config.n_units)
        ]
        self._mappings: dict[int, StreamMapping] = {}
        self._resident: dict[int, ResidentState] = {}
        self._write_excepted: set[int] = set()
        self._block_override: dict[int, int] = {}
        self.table = RemapTable(config.n_units, config.rows_per_unit)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def granularity_of(self, stream: StreamConfig) -> int:
        if stream.is_affine:
            block = self._block_override.get(stream.sid, self.ata.block_bytes)
            return max(block, stream.elem_size)
        # Indirect elements are cached individually (tag with data), but
        # never below the DRAM burst size: fetching a 4 B element moves a
        # full burst anyway, so the burst is the natural caching unit.
        return max(stream.elem_size, BURST_BYTES)

    def set_block_override(self, sid: int, block_bytes: int) -> bool:
        """Per-stream affine block size (the paper's "reconfigurable block
        sizes" future work).  Changing a stream's block size reinterprets
        its tags, so its cached contents are dropped.  Returns True if the
        size actually changed."""
        if block_bytes <= 0 or block_bytes & (block_bytes - 1):
            raise ValueError("block size must be a positive power of two")
        current = self._block_override.get(sid, self.ata.block_bytes)
        if block_bytes == current:
            return False
        self._block_override[sid] = block_bytes
        self._resident.pop(sid, None)
        self._rebuild(sid)
        return True

    def _build_installed(self, stream: StreamConfig) -> StreamMapping:
        """A fresh mapping of ``stream`` from its installed table rows."""
        sid = stream.sid
        return self._build_mapping(stream, self.table.shares[sid], self.table.groups[sid])

    def _rebuild(self, sid: int) -> None:
        """Rebuild an installed mapping at its own rows, which are the
        table's unless a write exception collapsed it to one group."""
        mapping = self._mappings.get(sid)
        if mapping is not None:
            self._mappings[sid] = self._build_mapping(
                self.streams.get(sid), mapping.shares_row, mapping.groups_row
            )

    def _build_mapping(
        self, stream: StreamConfig, shares_row: np.ndarray, groups_row: np.ndarray
    ) -> StreamMapping:
        granularity = self.granularity_of(stream)
        entries_per_row = max(1, self.row_bytes // granularity)
        ways = self.ata.ways if stream.is_affine else self.config.stream.indirect_ways
        # A unit granted fewer entries than the associativity still forms
        # one (narrower) set — small allocations must stay usable.
        held = shares_row[shares_row > 0]
        min_entries = int(held.min()) * entries_per_row if len(held) else ways
        ways = max(1, min(ways, min_entries))
        mapping = StreamMapping(
            stream=stream,
            granularity=granularity,
            entries_per_row=entries_per_row,
            ways=ways,
            shares_row=shares_row.copy(),
            groups_row=groups_row.copy(),
        )
        n_units = self.config.n_units
        group_of_unit = np.full(n_units, -1, dtype=np.int64)
        installed = self._mappings.get(stream.sid)
        for g_index, gid in enumerate(group_ids(groups_row)):
            unit_sel = np.flatnonzero(groups_row == gid)
            shares = shares_row[unit_sel]
            entries = shares * entries_per_row
            sets_per_unit = np.maximum(entries // max(1, ways), 0)
            ring = None
            if self.placement == "consistent":
                ring = self._installed_ring(installed, unit_sel, shares)
                if ring is None and shares.sum() > 0:
                    ring = ConsistentRing(
                        spots_of_group(unit_sel, shares), salt=stream.sid
                    )
            mapping.groups.append(
                GroupMapping(
                    gid=gid,
                    units=unit_sel,
                    shares=shares,
                    sets_per_unit=sets_per_unit,
                    ring=ring,
                )
            )
            group_of_unit[unit_sel] = g_index
        # Units outside every group are served by the nearest group.
        if mapping.groups:
            members = [group.units for group in mapping.groups]
            for unit in np.flatnonzero(group_of_unit == -1):
                group_of_unit[unit] = self.topology.nearest_group(int(unit), members)
        mapping.group_of_unit = group_of_unit
        return mapping

    @staticmethod
    def _installed_ring(
        installed: StreamMapping | None, units: np.ndarray, shares: np.ndarray
    ) -> ConsistentRing | None:
        """The ring of an installed group of the same stream with the same
        units and shares: a ring depends on nothing else, so it is reused
        instead of rebuilt."""
        if installed is None:
            return None
        for group in installed.groups:
            if (
                group.ring is not None
                and np.array_equal(group.units, units)
                and np.array_equal(group.shares, shares)
            ):
                return group.ring
        return None

    def ring_positions(self) -> int:
        """Consistent-hash ring positions held by the installed mappings."""
        return VIRTUAL_NODES * sum(
            len(group.ring)
            for mapping in self._mappings.values()
            for group in mapping.groups
            if group.ring is not None
        )

    def apply(self, shares: np.ndarray, groups: np.ndarray) -> ReconfigStats:
        """Install a new remap table (one row per stream id); returns
        movement/invalidation stats.

        Only streams whose shares or groups row changed get a new
        mapping.  A stream whose rows merely moved keeps its mapping, and
        its resident pairs count as movements.
        """
        old_base = self.table.row_base
        self.table.install(shares, groups)
        table = self.table
        moved = ((table.row_base != old_base) & (table.shares > 0)).any(axis=1)
        stats = ReconfigStats()
        new_mappings: dict[int, StreamMapping] = {}
        for stream in self.streams:
            mapping = self._mappings.get(stream.sid)
            if mapping is None or not self._is_current(mapping):
                mapping = self._build_installed(stream)
            new_mappings[stream.sid] = mapping
        for sid, resident in list(self._resident.items()):
            old = self._mappings.get(sid)
            new = new_mappings.get(sid)
            if old is None or new is None:
                stats.invalidations += len(resident)
                del self._resident[sid]
                continue
            if not moved[sid] and (new is old or self._same_groups(old, new)):
                continue  # everything stays put
            if new is old:
                # Every resident pair sits at the set its tag maps to.
                stats.movements += len(resident)
                continue
            preserved = self._still_resident(resident, new)
            kept = int(preserved.sum())
            dropped = len(preserved) - kept
            stats.invalidations += dropped
            stats.movements += kept
            self._resident[sid] = resident.subset(preserved)
        self._mappings = new_mappings
        for slb in self.slbs:
            slb.invalidate()
        return stats

    def _is_current(self, mapping: StreamMapping) -> bool:
        """Whether ``mapping`` is what the installed table rows build.  A
        block-size change rebuilds its stream's mapping at once
        (:meth:`set_block_override`), so the rows decide."""
        sid = mapping.stream.sid
        return np.array_equal(
            mapping.shares_row, self.table.shares[sid]
        ) and np.array_equal(mapping.groups_row, self.table.groups[sid])

    @staticmethod
    def _same_groups(old: StreamMapping, new: StreamMapping) -> bool:
        if len(old.groups) != len(new.groups):
            return False
        return all(
            np.array_equal(a.units, b.units) and np.array_equal(a.shares, b.shares)
            for a, b in zip(old.groups, new.groups)
        )

    def _still_resident(
        self, resident: ResidentState, new: StreamMapping
    ) -> np.ndarray:
        """Which resident (set, tag) pairs remain valid under ``new``.

        A pair survives iff the new mapping sends its tag to the same
        physical set.  Under consistent hashing the ring keeps most tags
        on their old (unit, row); under plain hashing a resize remaps
        nearly all of them — the Section V-D contrast.
        """
        if not new.allocated:
            return np.zeros(len(resident.set_ids), dtype=bool)
        old_units = unpack_unit(resident.set_ids)
        # Remap each resident tag within the new group that contains (or
        # is nearest to) its old unit.
        group_idx = new.group_of_unit[old_units]
        new_sets = np.full(len(resident.tags), -1, dtype=np.int64)
        for gi in np.unique(group_idx):
            sel = group_idx == gi
            group = new.groups[int(gi)]
            if group.total_sets == 0:
                continue
            new_sets[sel] = self._map_to_sets(new, group, resident.tags[sel])
        return new_sets == resident.set_ids

    # ------------------------------------------------------------------
    # Request mapping
    # ------------------------------------------------------------------

    def _map_to_sets(
        self, mapping: StreamMapping, group: GroupMapping, tags: np.ndarray
    ) -> np.ndarray:
        """Map tags to packed physical set ids within one group."""
        tags = np.asarray(tags, dtype=np.int64)
        sid = mapping.stream.sid
        if group.ring is not None:
            spot = group.ring.lookup(tags)
            units = group.ring.units_of(spot)
            rows = group.ring.rows_of(spot)
            sets_in_row = max(1, mapping.entries_per_row // max(1, mapping.ways))
            col = bucket_array(tags.astype(np.uint64), sets_in_row, salt=sid * 7 + 3)
            set_idx = rows * sets_in_row + col
            return pack_set_id(np.full_like(tags, sid), units, set_idx)
        # Plain hashing: unit proportional to shares, then set within unit.
        unit_choice = weighted_bucket_array(
            tags.astype(np.uint64), group.shares, salt=sid * 13 + 1
        )
        units = group.units[unit_choice]
        sets_per_unit = group.sets_per_unit[unit_choice]
        sets_per_unit = np.maximum(sets_per_unit, 1)
        set_idx = (
            mix64_array(tags.astype(np.uint64), salt=sid * 31 + 5)
            % sets_per_unit.astype(np.uint64)
        ).astype(np.int64)
        return pack_set_id(np.full_like(tags, sid), units, set_idx)

    def _local_rows(self, mapping: StreamMapping, set_ids: np.ndarray) -> np.ndarray:
        """Physical DRAM row (unit-local) of each set."""
        units = unpack_unit(set_ids)
        set_idx = unpack_set_idx(set_ids)
        sets_in_row = max(1, mapping.entries_per_row // max(1, mapping.ways))
        row_in_alloc = set_idx // sets_in_row
        return self.table.row_base[mapping.stream.sid][units] + row_in_alloc

    # ------------------------------------------------------------------
    # Epoch processing
    # ------------------------------------------------------------------

    def process(self, epoch) -> RequestOutcome:
        n = len(epoch)
        serving_unit = np.full(n, -1, dtype=np.int64)
        local_row = np.full(n, -1, dtype=np.int64)
        hit = np.zeros(n, dtype=bool)
        probe = np.zeros(n, dtype=bool)
        metadata_ns = np.zeros(n, dtype=np.float64)
        req_unit = epoch.core.astype(np.int64) % self.config.n_units

        # --- SLB lookups, per unit (exact LRU over stream transitions). ---
        for unit in np.unique(req_unit):
            sel = req_unit == unit
            result = self.slbs[int(unit)].process(epoch.sid[sel])
            metadata_ns[sel] = result.latency_ns

        # --- Write exceptions: replicated read-only stream gets written. ---
        extra_exception_ns = self._handle_write_exceptions(epoch, metadata_ns)
        metadata_ns += extra_exception_ns

        set_ids = np.full(n, -1, dtype=np.int64)
        tags = np.full(n, -1, dtype=np.int64)
        ways = np.ones(n, dtype=np.int64)

        for sid in np.unique(epoch.sid):
            if sid < 0:
                continue  # bypass: not a stream element
            mapping = self._mappings.get(int(sid))
            if mapping is None or not mapping.allocated:
                continue  # no cache space: stream goes to extended memory
            mask = epoch.sid == sid
            stream = mapping.stream
            elems = stream.element_ids(epoch.addr[mask])
            elems_per_tag = max(1, mapping.granularity // stream.elem_size)
            stream_tags = elems // elems_per_tag
            group_idx = mapping.group_of_unit[req_unit[mask]]
            sid_sets = np.full(int(mask.sum()), -1, dtype=np.int64)
            sid_rows = np.full(int(mask.sum()), -1, dtype=np.int64)
            sid_units = np.full(int(mask.sum()), -1, dtype=np.int64)
            for gi in np.unique(group_idx):
                group = mapping.groups[int(gi)]
                gsel = group_idx == gi
                if group.total_sets == 0:
                    continue
                gsets = self._map_to_sets(mapping, group, stream_tags[gsel])
                sid_sets[gsel] = gsets
                sid_rows[gsel] = self._local_rows(mapping, gsets)
                sid_units[gsel] = unpack_unit(gsets)
            placed = sid_sets >= 0
            idx = np.flatnonzero(mask)
            set_ids[idx[placed]] = sid_sets[placed]
            tags[idx[placed]] = stream_tags[placed]
            local_row[idx[placed]] = sid_rows[placed]
            serving_unit[idx[placed]] = sid_units[placed]
            ways[idx[placed]] = mapping.ways
            probe[idx[placed]] = not stream.is_affine

        cached = set_ids >= 0

        # --- Hit/miss simulation, split by associativity. ---
        for w in np.unique(ways[cached]):
            wsel = cached & (ways == w)
            hit[wsel] = set_assoc_hits(set_ids[wsel], tags[wsel], int(w))

        # --- Warm-start rescue from the previous epoch's contents. ---
        rescued = 0
        if self.warm_start:
            rescued = rescue_first_touches(
                self._resident, epoch.sid, set_ids, tags, cached, hit
            )

        # --- Indirect streams probe DRAM even on a miss (in-DRAM tags). ---
        probe = probe & cached & ~hit

        self._resident.update(
            resident_contents(
                epoch.sid[cached], set_ids[cached], tags[cached], ways[cached]
            )
        )

        return RequestOutcome(
            hit=hit,
            serving_unit=serving_unit,
            local_row=local_row,
            miss_probe_dram=probe,
            metadata_ns=metadata_ns,
            metadata_dram_accesses=0,
            rescued_first_touches=rescued,
        )

    @property
    def write_excepted(self) -> set[int]:
        """Streams demoted from read-only by the write exception."""
        return set(self._write_excepted)

    def _handle_write_exceptions(self, epoch, metadata_ns: np.ndarray) -> np.ndarray:
        extra = np.zeros(len(epoch), dtype=np.float64)
        written = np.unique(epoch.sid[epoch.write & (epoch.sid >= 0)])
        for sid in written:
            sid = int(sid)
            if sid in self._write_excepted:
                continue
            mapping = self._mappings.get(sid)
            if mapping is None:
                continue
            stream = mapping.stream
            if not stream.read_only:
                continue
            # Tracked per-mapper (not written into the shared StreamConfig,
            # which outlives this run): the configurator is told via
            # ``write_excepted`` to stop replicating the stream.
            self._write_excepted.add(sid)
            if len(mapping.groups) > 1:
                # Collapse to a single copy: invalidate the replicas and
                # charge the exception on the first write.  The table
                # keeps the replicated rows until the next install.
                self._resident.pop(sid, None)
                self._mappings[sid] = self._build_mapping(
                    stream, mapping.shares_row, single_groups(mapping.shares_row)
                )
            first_write = int(
                np.flatnonzero(epoch.write & (epoch.sid == sid))[0]
            )
            extra[first_write] += WRITE_EXCEPTION_NS
        return extra

    # ------------------------------------------------------------------
    # Graceful degradation (fault handling)
    # ------------------------------------------------------------------

    def _install_degraded(self, shares: np.ndarray) -> ReconfigStats:
        """Install the table with ``shares`` edited down from the installed
        shares; units that lose all rows leave their replication group.

        A quarantined row that no allocation covered shrinks only the
        capacity, so a unit can hold more rows than it has left.  Such a
        unit gives up the excess from its last rows, which row bases pack
        in stream-id order: the highest stream ids lose rows first.
        """
        excess = np.maximum(shares.sum(axis=0) - self.table.capacity, 0)
        # Rows each stream's higher-id streams hold on each unit.
        above = np.cumsum(shares[::-1], axis=0)[::-1] - shares
        shares = shares - np.clip(excess - above, 0, shares)
        return self.apply(shares, np.where(shares > 0, self.table.groups, NO_GROUP))

    def evict_units(self, units: list[int]) -> ReconfigStats:
        """Remove failed units from every stream's allocation.

        The dead units' spots leave the consistent-hash rings, so tags
        cached on surviving units mostly stay put (the Section V-D
        minimal-movement property, now used for recovery); the lines the
        failed units held are counted as invalidations.
        """
        dead = [int(u) for u in units]
        for unit in dead:
            self.table.disable_unit(unit)
        shares = self.table.shares.copy()
        shares[:, dead] = 0
        return self._install_degraded(shares)

    def quarantine_row(self, unit: int, row: int) -> ReconfigStats:
        """Retire one bad DRAM row of one unit.

        The stream whose allocation covers the absolute ``row`` gives up
        one row there (its ring loses one spot); the unit's capacity
        shrinks so future configurations never reuse the bad row.
        """
        unit, row = int(unit), int(row)
        held = self.table.shares[:, unit]
        base = self.table.row_base[:, unit]
        covering = np.flatnonzero((held > 0) & (base <= row) & (row < base + held))
        self.table.reduce_capacity(unit, 1)
        if not len(covering):
            return ReconfigStats()
        shares = self.table.shares.copy()
        shares[covering[0], unit] -= 1
        return self._install_degraded(shares)

    def notify_resize(self, sid: int) -> int:
        """Handle a stream reallocation (Section IV-C oversubscription).

        The host updates the stream configuration and invalidates the
        stream's cached data; untouched (over-allocated) space was never
        cached, so only the previously resident entries are dropped.
        Returns the number of invalidated entries.
        """
        resident = self._resident.pop(sid, None)
        self._rebuild(sid)
        for slb in self.slbs:
            slb.invalidate()
        return len(resident) if resident is not None else 0

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def sram_bytes_per_unit(self) -> int:
        """On-chip SRAM added per NDP unit (Section VI accounting)."""
        sampler_bytes = (
            self.config.stream.samplers_per_unit
            * self.config.stream.sampler_sets
            * self.config.stream.sampler_points
            * 4
        )
        bitvector_bytes = self.config.stream.max_streams // 8
        return (
            self.slbs[0].sram_bytes
            + self.ata.sram_bytes
            + sampler_bytes
            + bitvector_bytes
        )
