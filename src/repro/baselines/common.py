"""Shared substrate for the cacheline-grained NUCA baselines.

Jigsaw, Whirlpool, Nexus and static NUCA all manage the distributed DRAM
cache at cacheline granularity.  Adapted to a DRAM cache (Section VI),
they share three mechanisms implemented here:

* **metadata path** — every cache access first consults per-unit metadata.
  A 128 kB dual-granularity metadata cache (Bi-Modal style: one entry per
  512 B block, data migrated at 64 B) filters most lookups; a metadata
  miss costs a DRAM access at the home unit on the critical path.  This
  is the cost NDPExt's coarse stream metadata eliminates.
* **partitioned mapping** — lines are classified into partitions; each
  partition owns rows on some units (possibly replicated across regions),
  and a line hashes to a unit/set within its partition's copy.
* **epoch reconfiguration with bulk invalidation** — every partition is
  profiled each epoch, resized by lookahead from its sampled miss curve
  and placed at its accessors' centre of mass; any resized partition's
  contents are dropped (prior work's bulk invalidation [6], [7]).  The
  contents kept otherwise use the stream cache's model
  (:mod:`repro.core.stream_cache`), so both sides of the Section V-D
  comparison carry contents with the same code.

Concrete baselines subclass :class:`PartitionedNucaPolicy` and override
only classification (Jigsaw, Whirlpool) and replication (Nexus).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.sampler import MissCurveSampler, SamplerParams
from repro.core.stream_cache import (
    ResidentState,
    pack_set_id,
    rescue_first_touches,
    resident_contents,
    unpack_set_idx,
    unpack_unit,
)
from repro.faults import EpochFaults, FaultState
from repro.sim.cachesim import direct_mapped_hits
from repro.sim.engine import DramCachePolicy, ReconfigStats, RequestOutcome
from repro.sim.params import CACHELINE_BYTES, SystemConfig
from repro.sim.topology import Topology
from repro.util.curves import CurveTable, Lookahead
from repro.util.hashing import mix64_array, weighted_bucket_array
from repro.workloads.trace import Trace, Workload

META_BLOCK_BYTES = 512
META_ENTRY_BYTES = 4
META_HIT_NS = 1.0

# The catch-all partition: every line before the first profile, and
# afterwards the lines no classification claims (Jigsaw's lines without
# a dominant thread, Whirlpool's accesses outside every stream).
CATCHALL_PID = 1 << 11


@dataclass
class RegionCopy:
    """One replica of a partition: rows on a set of units."""

    units: np.ndarray
    rows: np.ndarray  # parallel to units

    @property
    def total_rows(self) -> int:
        return int(self.rows.sum())


@dataclass
class PartitionSpec:
    """Where one partition's lines may live."""

    pid: int
    copies: list[RegionCopy] = field(default_factory=list)

    @property
    def allocated(self) -> bool:
        return any(c.total_rows > 0 for c in self.copies)

    def signature(self) -> tuple:
        return tuple(
            (tuple(c.units.tolist()), tuple(c.rows.tolist())) for c in self.copies
        )


class MetadataCache:
    """Per-unit dual-granularity metadata cache, simulated per epoch."""

    def __init__(self, config: SystemConfig) -> None:
        self.entries = max(1, config.metadata_cache_bytes // META_ENTRY_BYTES)
        self.dram_ns = config.ndp_dram.row_miss_ns

    def lookup(self, req_unit: np.ndarray, addrs: np.ndarray) -> tuple[np.ndarray, int]:
        """Returns (per-access metadata latency, number of DRAM metadata
        accesses) for a batch of requests in trace order."""
        meta_block = np.asarray(addrs, dtype=np.int64) // META_BLOCK_BYTES
        slot = (
            np.asarray(req_unit, dtype=np.int64) * self.entries
            + (mix64_array(meta_block.astype(np.uint64), salt=3) % np.uint64(self.entries)).astype(np.int64)
        )
        hits = direct_mapped_hits(slot, meta_block)
        latency = np.where(hits, META_HIT_NS, META_HIT_NS + self.dram_ns)
        return latency, int((~hits).sum())


class PartitionedNucaPolicy(DramCachePolicy):
    """Base class for the cacheline NUCA baselines."""

    name = "nuca"

    # Same churn guard as the NDPExt runtime: only install a resized
    # partitioning when it predicts a meaningful miss reduction,
    # otherwise bulk invalidation costs outweigh the gain.
    RECONFIG_GAIN_THRESHOLD = 0.03

    def __init__(self, metadata_in_dram: bool = True) -> None:
        # NDP baselines pay DRAM metadata cost; the host's SRAM LLC keeps
        # tags on-chip and sets this False.
        self.metadata_in_dram = metadata_in_dram

    # -- subclass hooks -------------------------------------------------

    def classify(self, epoch: Trace) -> np.ndarray:
        """Partition id per request (>= 0).  Default: the catch-all."""
        return np.full(len(epoch), CATCHALL_PID, dtype=np.int64)

    def replication_degrees(self, sizes: dict[int, int]) -> dict[int, int]:
        """Copies per partition at the coming install, given the bytes
        lookahead sized each one; default: none."""
        return {}

    # -- common machinery ------------------------------------------------

    def setup(self, config: SystemConfig, topology: Topology, workload: Workload) -> None:
        self.config = config
        self.topology = topology
        self.workload = workload
        self.lines_per_row = max(1, config.ndp_dram.row_bytes // CACHELINE_BYTES)
        self.metadata = MetadataCache(config)
        self.sampler_params = SamplerParams.for_system(config)
        self.sampler = MissCurveSampler(self.sampler_params)
        # Per-run state: a reused instance starts every run from scratch.
        self._partitions: dict[int, PartitionSpec] = {}
        self._signatures: dict[int, tuple] = {}
        self._resident: dict[int, ResidentState] = {}
        # Smoothed curve of every partition ever profiled.
        self._history = CurveTable.empty(self.sampler_params.curve_capacities())
        # The latest profile, per partition: smoothed miss curve,
        # accesses per requesting unit, and total accesses (importance).
        self._curves = self._history
        self._weights: dict[int, dict[int, int]] = {}
        self._importance: dict[int, int] = {}
        # Sizes (bytes per partition) of the installed partitioning.
        self._installed_sizes: dict[int, int] | None = None

    def _interleaved_partition(self, pid: int) -> PartitionSpec:
        units = np.arange(self.config.n_units, dtype=np.int64)
        rows = np.full(
            self.config.n_units, self.config.rows_per_unit, dtype=np.int64
        )
        return PartitionSpec(pid=pid, copies=[RegionCopy(units=units, rows=rows)])

    def begin_epoch(self, epoch_idx: int) -> ReconfigStats:
        before = dict(self._signatures)
        self.reconfigure(epoch_idx)
        stats = ReconfigStats()
        self._signatures = {
            pid: spec.signature() for pid, spec in self._partitions.items()
        }
        for pid, resident in list(self._resident.items()):
            if before.get(pid) != self._signatures.get(pid):
                # Bulk invalidation: the partition moved or resized.
                stats.invalidations += len(resident)
                del self._resident[pid]
        return stats

    def process(self, epoch: Trace) -> RequestOutcome:
        n = len(epoch)
        req_unit = epoch.core.astype(np.int64) % self.config.n_units
        if self.metadata_in_dram:
            metadata_ns, meta_dram = self.metadata.lookup(req_unit, epoch.addr)
        else:
            metadata_ns, meta_dram = np.full(n, META_HIT_NS), 0

        pids = self.classify(epoch)
        self._last_pids = pids
        lines = epoch.addr // CACHELINE_BYTES
        set_ids = np.full(n, -1, dtype=np.int64)
        serving_unit = np.full(n, -1, dtype=np.int64)

        for pid in np.unique(pids):
            spec = self._partitions.get(int(pid))
            if spec is None or not spec.allocated:
                continue
            mask = pids == pid
            copy_idx = self._copy_of_unit(spec, req_unit[mask])
            p_sets = np.full(int(mask.sum()), -1, dtype=np.int64)
            for ci in np.unique(copy_idx):
                copy = spec.copies[int(ci)]
                if copy.total_rows == 0:
                    continue
                csel = copy_idx == ci
                p_sets[csel] = self._map_lines(int(pid), copy, lines[mask][csel])
            idx = np.flatnonzero(mask)
            placed = p_sets >= 0
            set_ids[idx[placed]] = p_sets[placed]
            serving_unit[idx[placed]] = unpack_unit(p_sets[placed])

        cached = set_ids >= 0
        hit = np.zeros(n, dtype=bool)
        hit[cached] = direct_mapped_hits(set_ids[cached], lines[cached])
        rescued = rescue_first_touches(
            self._resident, pids, set_ids, lines, cached, hit
        )
        self._resident.update(
            resident_contents(pids[cached], set_ids[cached], lines[cached], 1)
        )

        local_row = np.where(
            cached, unpack_set_idx(set_ids) // self.lines_per_row, -1
        )
        return RequestOutcome(
            hit=hit,
            serving_unit=serving_unit,
            local_row=local_row,
            # Tags live with the data in DRAM: a miss is discovered by the
            # (meta-filtered) probe only when metadata was imprecise; with
            # the idealized dual-granularity cache the metadata identifies
            # misses, so no extra DRAM probe is charged.
            miss_probe_dram=np.zeros(n, dtype=bool),
            metadata_ns=metadata_ns,
            metadata_dram_accesses=meta_dram,
            rescued_first_touches=rescued,
        )

    def end_epoch(self, epoch_idx: int, epoch: Trace, outcome: RequestOutcome) -> None:
        self.observe(epoch_idx, epoch, self._last_pids)

    def on_faults(
        self, epoch_idx: int, events: EpochFaults, state: FaultState
    ) -> ReconfigStats:
        """Fail-stop: drop the lines lost with the hardware, nothing more.

        The partition maps are left untouched, so lines that hash to the
        lost hardware keep doing so and the engine demotes those accesses
        to extended-memory bypasses — the bypass fallback the baselines
        get instead of NDPExt's remap recovery.
        """
        stats = ReconfigStats()
        dead = np.array(sorted(events.unit_failures), dtype=np.int64)
        for pid, resident in list(self._resident.items()):
            units = unpack_unit(resident.set_ids)
            keep = np.ones(len(resident), dtype=bool)
            if len(dead):
                keep &= ~np.isin(units, dead)
            for unit, row in events.row_faults:
                keep &= ~(
                    (units == unit)
                    & (unpack_set_idx(resident.set_ids) // self.lines_per_row == row)
                )
            lost = int((~keep).sum())
            if lost:
                stats.invalidations += lost
                self._resident[pid] = resident.subset(keep)
        return stats

    # -- mapping helpers --------------------------------------------------

    def _copy_of_unit(self, spec: PartitionSpec, req_unit: np.ndarray) -> np.ndarray:
        """Which replica serves each requesting unit: the nearest one."""
        if len(spec.copies) == 1:
            return np.zeros(len(req_unit), dtype=np.int64)
        centers = [
            self.topology.centroid_unit([int(u) for u in copy.units])
            for copy in spec.copies
        ]
        dist = np.stack(
            [self.topology.latency_ns[:, c] for c in centers], axis=1
        )  # (n_units, n_copies)
        nearest = np.argmin(dist, axis=1)
        return nearest[req_unit]

    def _map_lines(self, pid: int, copy: RegionCopy, lines: np.ndarray) -> np.ndarray:
        unit_choice = weighted_bucket_array(
            lines.astype(np.uint64), copy.rows, salt=pid * 13 + 7
        )
        units = copy.units[unit_choice]
        sets_per_unit = np.maximum(copy.rows[unit_choice] * self.lines_per_row, 1)
        set_idx = (
            mix64_array(lines.astype(np.uint64), salt=pid * 29 + 11)
            % sets_per_unit.astype(np.uint64)
        ).astype(np.int64)
        return pack_set_id(np.full_like(lines, pid), units, set_idx)

    # -- profiling ---------------------------------------------------------

    def observe(self, epoch_idx: int, epoch: Trace, pids: np.ndarray) -> None:
        """Profile every partition in ``pids`` over the finished epoch."""
        lines = epoch.addr // CACHELINE_BYTES
        n_units = self.config.n_units
        req_unit = epoch.core.astype(np.int64) % n_units
        ids, index = np.unique(pids, return_inverse=True)
        ids = ids.tolist()
        fresh = self.sampler.observe(index, lines, np.full(len(ids), CACHELINE_BYTES))
        per_unit = np.bincount(
            index * n_units + req_unit, minlength=len(ids) * n_units
        ).reshape(len(ids), n_units)
        self._history = self._history.smoothed(fresh, ids)
        self._curves = self._history.select(ids)
        self._weights = {}
        self._importance = {}
        for pid, row in zip(ids, per_unit):
            units = np.flatnonzero(row)
            self._weights[pid] = {int(u): int(row[u]) for u in units}
            self._importance[pid] = int(row.sum())

    # -- resizing ----------------------------------------------------------

    def reconfigure(self, epoch_idx: int) -> None:
        """Update ``self._partitions`` from the latest profile.

        Before the first profile one interleaved catch-all partition
        holds every line.  Afterwards lookahead sizes every profiled
        partition; behind the churn guard the sizing is split across
        each partition's replicas and placed at the accessors' centre of
        mass.
        """
        if not self._curves:
            if not self._partitions:
                self._partitions = {
                    CATCHALL_PID: self._interleaved_partition(CATCHALL_PID)
                }
            return
        sizes_bytes = self.lookahead_sizes(
            self._curves, self.config.total_cache_bytes
        )
        if not self.should_install(self._curves, sizes_bytes):
            return
        row_bytes = self.config.ndp_dram.row_bytes
        sizes_rows = {
            pid: max(1, size // row_bytes) for pid, size in sizes_bytes.items()
        }
        degrees = self.replication_degrees(sizes_bytes)
        # Replication trades capacity: a degree-R partition splits its
        # budget into R copies.
        for pid, degree in degrees.items():
            if pid in sizes_rows and degree > 1:
                sizes_rows[pid] = max(1, sizes_rows[pid] // degree)
        self._partitions = self.center_of_mass_placement(
            sizes_rows, self._weights, self._importance, replication=degrees
        )
        self.record_install(sizes_bytes)

    def should_install(self, curves: CurveTable, new_sizes: dict[int, int]) -> bool:
        """Compare predicted misses of the new sizing vs the installed one."""
        if self._installed_sizes is None:
            return True

        def predicted(sizes: dict[int, int]) -> float:
            return sum(
                curves.misses_at(pid, sizes.get(pid, 0)) for pid in curves.ids
            )

        return predicted(new_sizes) < predicted(self._installed_sizes) * (
            1.0 - self.RECONFIG_GAIN_THRESHOLD
        )

    def record_install(self, sizes: dict[int, int]) -> None:
        """The partitioning sized by ``sizes`` has just been installed."""
        self._installed_sizes = dict(sizes)

    def lookahead_sizes(self, curves: CurveTable, budget_bytes: int) -> dict[int, int]:
        """Classic lookahead sizing: repeatedly grant the steepest slope
        until the byte budget runs out.  Returns bytes per partition."""
        lookahead = Lookahead(curves)
        spent = 0
        while spent < budget_bytes:
            step = lookahead.next()
            if step is None:
                break
            pid, size = step
            if spent + size > budget_bytes:
                break
            lookahead.commit(pid)
            spent += size
        return lookahead.allocations()

    def center_of_mass_placement(
        self,
        sizes_rows: dict[int, int],
        weights: dict[int, dict[int, int]],
        importance: dict[int, int],
        replication: dict[int, int] | None = None,
    ) -> dict[int, PartitionSpec]:
        """Greedy centre-of-mass placement (Jigsaw/CDCS-style).

        Partitions are placed in importance order; each allocates its rows
        from the units nearest its accessors' weighted centroid.  With
        ``replication[pid] = R > 1`` the units are split into R contiguous
        regions and each region receives a full copy (Nexus-style global
        replication for read-only data).
        """
        n_units = self.config.n_units
        free = np.full(n_units, self.config.rows_per_unit, dtype=np.int64)
        specs: dict[int, PartitionSpec] = {}
        order = sorted(sizes_rows, key=lambda p: -importance.get(p, 0))
        # Leftover capacity (curves flat before the cache fills) is handed
        # out proportionally to access counts — partitioned caches use all
        # their space.
        leftover = int(free.sum()) - int(sum(sizes_rows.values()))
        total_importance = sum(importance.get(p, 0) for p in sizes_rows) or 1
        for pid in order:
            rows_needed = sizes_rows[pid]
            if leftover > 0:
                rows_needed += (
                    leftover * importance.get(pid, 0) // total_importance
                )
            acc = weights.get(pid, {})
            degree = (replication or {}).get(pid, 1)
            copies: list[RegionCopy] = []
            regions = self._regions(degree)
            for region in regions:
                copy = self._fill_region(
                    region, rows_needed, acc, free
                )
                if copy.total_rows > 0:
                    copies.append(copy)
            specs[pid] = PartitionSpec(pid=pid, copies=copies)
        return specs

    def _regions(self, degree: int) -> list[np.ndarray]:
        """Split units into ``degree`` contiguous regions (by unit id,
        which follows the stack layout)."""
        units = np.arange(self.config.n_units, dtype=np.int64)
        degree = max(1, min(degree, self.config.n_units))
        return [np.array(r, dtype=np.int64) for r in np.array_split(units, degree)]

    def _fill_region(
        self,
        region: np.ndarray,
        rows_needed: int,
        acc_weights: dict[int, int],
        free: np.ndarray,
    ) -> RegionCopy:
        acc_in_region = [u for u in acc_weights if u in set(region.tolist())]
        if acc_in_region:
            center = self.topology.centroid_unit(
                acc_in_region, [acc_weights[u] for u in acc_in_region]
            )
        else:
            center = int(region[len(region) // 2])
        order = [u for u in self.topology.nearest_units(center) if u in set(region.tolist())]
        units_out, rows_out = [], []
        remaining = rows_needed
        for unit in order:
            if remaining <= 0:
                break
            take = int(min(remaining, free[unit]))
            if take > 0:
                units_out.append(unit)
                rows_out.append(take)
                free[unit] -= take
                remaining -= take
        return RegionCopy(
            units=np.array(units_out, dtype=np.int64),
            rows=np.array(rows_out, dtype=np.int64),
        )
