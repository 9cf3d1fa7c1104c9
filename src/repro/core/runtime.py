"""The NDPExt host runtime: the full dynamic policy (Section V).

At the end of every epoch the runtime collects each unit's stream-access
bitvector, assigns the per-unit miss-curve samplers to streams with the
max-flow formulation (Section V-B), measures the sampled streams' miss
curves (Section V-A), and at the next epoch boundary runs the
configuration algorithm (Section V-C) to produce a new stream remap
table, which the stream-cache mapper installs — with consistent hashing
keeping resident data in place (Section V-D).

Three reconfiguration modes reproduce Fig. 9(e):

* ``full``    — reconfigure every ``reconfig_interval`` epochs (NDPExt),
* ``partial`` — reconfigure only during the first ``partial_epochs``,
* ``static``  — never reconfigure (equal allocation; NDPExt-static).
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import SamplerAssigner
from repro.core.configure import CacheConfigurator, equal_share_allocations
from repro.core.remap import group_ids
from repro.core.sampler import MissCurveSampler, SamplerParams, stream_tags
from repro.core.stream import StreamConfig
from repro.core.stream_cache import StreamCacheMapper
from repro.faults import EpochFaults, FaultState
from repro.obs import tracing
from repro.sim.engine import DramCachePolicy, ReconfigStats, RequestOutcome
from repro.sim.params import SystemConfig
from repro.sim.topology import Topology
from repro.util.curves import CurveTable
from repro.workloads.trace import Trace, Workload


class NdpExtPolicy(DramCachePolicy):
    """NDPExt: stream cache + periodic runtime reconfiguration."""

    def __init__(
        self,
        mode: str = "full",
        placement: str = "consistent",
        reconfig_interval: int = 1,
        partial_epochs: int = 4,
        adaptive_blocks: bool = False,
        warm_start: bool = True,
        fault_recovery: bool = True,
        name: str | None = None,
    ) -> None:
        if mode not in ("full", "partial", "static"):
            raise ValueError(f"unknown reconfiguration mode {mode!r}")
        if reconfig_interval < 1:
            raise ValueError("reconfig_interval must be >= 1")
        self.mode = mode
        self.placement = placement
        self.reconfig_interval = reconfig_interval
        self.partial_epochs = partial_epochs
        # Extension of the paper's Fig. 9(b) future work: pick each affine
        # stream's block size from its profiled spatial run length instead
        # of one global 1 kB.
        self.adaptive_blocks = adaptive_blocks
        self.warm_start = warm_start
        # When False the runtime ignores fault events: requests to lost
        # hardware fall through to extended memory (fail-stop baseline).
        self.fault_recovery = fault_recovery
        self.name = name or ("ndpext" if mode == "full" else f"ndpext-{mode}")
        # Serving-loop hooks: a health monitor may force the next epoch
        # boundary to reconfigure (bypassing the churn damper) or pause
        # periodic reconfiguration entirely while a unit is flapping.
        self._forced_reconfig = False
        self._reconfig_enabled = True
        self.applied_reconfigs = 0

    # ------------------------------------------------------------------

    def setup(
        self, config: SystemConfig, topology: Topology, workload: Workload
    ) -> None:
        self.workload = workload
        self.setup_streams(config, topology, workload.streams)

    def setup_streams(
        self,
        config: SystemConfig,
        topology: Topology,
        streams: list[StreamConfig],
    ) -> None:
        """Bind to a system and a stream table without a whole trace.

        The serving loop sets the runtime up from the tenant stream
        namespace alone — request batches arrive incrementally, so no
        trace exists up front.  ``setup`` (the batch path) delegates
        here.
        """
        self.config = config
        self.topology = topology
        self.mapper = StreamCacheMapper(
            config,
            topology,
            streams,
            placement=self.placement,
            warm_start=self.warm_start,
        )
        self.assigner = SamplerAssigner(
            samplers_per_unit=config.stream.samplers_per_unit
        )
        self.sampler_params = SamplerParams.for_system(config)
        self.sampler = MissCurveSampler(self.sampler_params)
        self.configurator = CacheConfigurator(
            topology=topology,
            rows_per_unit=config.rows_per_unit,
            row_bytes=config.ndp_dram.row_bytes,
            affine_space_bytes=config.stream.affine_space_bytes,
        )
        self._streams: dict[int, StreamConfig] = {s.sid: s for s in streams}
        # Every sampled stream's smoothed curve.
        self._curves = CurveTable.empty(self.sampler_params.curve_capacities())
        # sid -> hit rate the miss-curve model promised for the currently
        # installed configuration; compared against realized rates at the
        # end of each epoch when a recorder is attached.
        self._predicted_hit_rate: dict[int, float] = {}
        self._acc_units: dict[int, list[int]] = {}
        self._acc_counts: dict[int, dict[int, int]] = {}
        self._epoch_access_totals: dict[int, int] = {}
        self._dead_units: set[int] = set()
        # Epoch 0 starts from the static equal split; the first measured
        # configuration lands at the epoch-1 boundary.
        initial = equal_share_allocations(
            self._streams, config.n_units, config.rows_per_unit
        )
        self.mapper.apply(*initial)

    # ------------------------------------------------------------------

    def on_faults(
        self, epoch_idx: int, events: EpochFaults, state: FaultState
    ) -> ReconfigStats:
        """Graceful degradation: remap around the hardware that was lost.

        Failed units leave every stream's consistent-hash ring, so
        surviving units keep most of their resident lines (Section V-D's
        minimal-movement property, reused for recovery).  Quarantined
        DRAM rows are given up by the stream covering them and then
        acknowledged, so the engine stops demoting accesses to them.
        """
        if not self.fault_recovery:
            return ReconfigStats()
        total = ReconfigStats()
        if events.unit_failures:
            self._dead_units.update(events.unit_failures)
            stats = self.mapper.evict_units(events.unit_failures)
            total.movements += stats.movements
            total.invalidations += stats.invalidations
        for unit, row in events.row_faults:
            if unit in self._dead_units:
                continue  # the whole unit is already gone
            stats = self.mapper.quarantine_row(unit, row)
            total.movements += stats.movements
            total.invalidations += stats.invalidations
            state.acknowledge_row(unit, row)
        return total

    def _should_reconfigure(self, epoch_idx: int) -> bool:
        if self.mode == "static" or epoch_idx == 0 or not self._curves:
            return False
        if self.mode == "partial" and epoch_idx > self.partial_epochs:
            return False
        return epoch_idx % self.reconfig_interval == 0

    def request_reconfigure(self) -> None:
        """Force the next reconfigurable epoch boundary to reconfigure.

        The serving health monitor calls this when hardware degrades:
        the churn damper (:data:`RECONFIG_GAIN_THRESHOLD`) is bypassed
        for that one boundary so capacity-aware re-placement always
        lands, even when the predicted gain is marginal.  The request
        stays pending while reconfiguration is disabled or no curves
        exist yet.
        """
        self._forced_reconfig = True

    def set_reconfig_enabled(self, enabled: bool) -> None:
        """Pause/resume reconfiguration (flap damping for the serve loop).

        While disabled, ``begin_epoch`` installs nothing — a flapping
        unit would otherwise trigger a re-placement storm whose
        invalidations cost more than any placement gain.  Pending forced
        requests survive the pause and fire on the first enabled
        boundary.
        """
        self._reconfig_enabled = bool(enabled)

    # Install a new configuration only when it promises at least this
    # relative miss reduction over the one already in place.  Residual
    # sampling noise otherwise causes reconfiguration churn whose
    # invalidations cost more than the marginal gain.
    RECONFIG_GAIN_THRESHOLD = 0.03

    def begin_epoch(self, epoch_idx: int) -> ReconfigStats:
        if not self._reconfig_enabled:
            return ReconfigStats()
        forced = (
            self._forced_reconfig
            and self.mode != "static"
            and epoch_idx > 0
            and bool(self._curves or self._epoch_access_totals)
        )
        if not forced and not self._should_reconfigure(epoch_idx):
            return ReconfigStats()
        if forced:
            self._forced_reconfig = False
        # Streams the samplers have not covered yet keep a synthetic
        # linear curve so they retain some allocation until measured.
        unsampled = {
            sid: total
            for sid, total in self._epoch_access_totals.items()
            if sid not in self._curves and total > 0
        }
        curves = self._curves
        if unsampled:
            curves = curves.extended(unsampled, self._fallback_rows(unsampled))
        with tracing.current().span("configure.solve"):
            result = self.configurator.configure(
                streams=self._streams,
                curves=curves,
                acc_units=self._acc_units,
                acc_counts=self._acc_counts,
                unit_capacity=self.mapper.table.capacity,
                write_excepted=self.mapper.write_excepted,
            )
        table = self.mapper.table
        with tracing.current().span("configure.predict_cost"):
            old_cost = self._predicted_cost(curves, table.shares, table.groups)
            new_cost = self._predicted_cost(curves, result.shares, result.groups)
        skipped = (
            not forced
            and old_cost > 0
            and new_cost > old_cost * (1.0 - self.RECONFIG_GAIN_THRESHOLD)
        )
        if skipped:
            stats = ReconfigStats()
        else:
            stats = self.mapper.apply(result.shares, result.groups)
            self.applied_reconfigs += 1
        if self.recorder.enabled:
            # The installed table is the chosen configuration.
            shares, groups = table.shares, table.groups
            self._predicted_hit_rate = self._predict_hit_rates(curves, shares, groups)
            # Per-unit rows the chosen configuration allocates — the
            # placement's spatial footprint, next to the spatial
            # accumulator's per-unit *served* counts.
            unit_rows = shares.sum(axis=0)
            self.recorder.event(
                "reconfig",
                epoch=epoch_idx,
                applied=not skipped,
                forced=forced,
                unit_rows=[int(v) for v in unit_rows],
                predicted_cost_old=old_cost,
                predicted_cost_new=new_cost,
                movements=stats.movements,
                invalidations=stats.invalidations,
                config=result.summary(),
                streams=[
                    {
                        "sid": int(sid),
                        "predicted_hit_rate": rate,
                        "rows": int(shares[sid].sum()),
                        "n_groups": len(group_ids(groups[sid])),
                    }
                    for sid, rate in sorted(self._predicted_hit_rate.items())
                ],
            )
        return stats

    def _predict_hit_rates(
        self, curves: CurveTable, shares: np.ndarray, groups: np.ndarray
    ) -> dict[int, float]:
        """Per-stream hit rate the miss-curve model promises for the
        remap-table rows ``shares`` and ``groups``, on the post-L1
        request stream."""
        row_bytes = self.config.ndp_dram.row_bytes
        rates: dict[int, float] = {}
        for sid in sorted(curves.ids):
            accesses = self._epoch_access_totals.get(sid, 0)
            if accesses <= 0:
                continue
            copies = max(1, len(group_ids(groups[sid])))
            per_copy = int(shares[sid].sum()) * row_bytes / copies
            misses = curves.misses_at(sid, per_copy)
            rates[sid] = float(np.clip(1.0 - misses / accesses, 0.0, 1.0))
        return rates

    def _predicted_cost(
        self, curves: CurveTable, shares: np.ndarray, groups: np.ndarray
    ) -> float:
        """Expected memory time (ns) if the remap-table rows ``shares``
        and ``groups`` served the curves.

        Misses pay the extended-memory penalty; hits pay the round trip to
        wherever the accessing units' replication group lives — so a
        configuration that replicates a hot stream near its consumers is
        credited for the shorter hops, not only for miss counts.
        """
        row_bytes = self.config.ndp_dram.row_bytes
        miss_penalty = self.config.cxl.link_ns + self.config.ext_dram.row_miss_ns
        total = 0.0
        for sid in sorted(curves.ids):
            copies = max(1, len(group_ids(groups[sid])))
            per_copy = int(shares[sid].sum()) * row_bytes / copies
            misses = curves.misses_at(sid, per_copy)
            accesses = self._epoch_access_totals.get(sid, 0)
            hits = max(0.0, accesses - misses)
            total += misses * miss_penalty
            total += hits * self._mean_hit_distance_ns(sid, shares[sid], groups[sid])
        return total

    def _mean_hit_distance_ns(
        self, sid: int, shares: np.ndarray, groups: np.ndarray
    ) -> float:
        """Access-weighted mean round trip from consumers to their copy,
        for one stream's remap-table rows."""
        counts = self._acc_counts.get(sid, {})
        if not counts or shares.sum() == 0:
            return 0.0
        latency = self.topology.latency_ns
        members = [np.flatnonzero(groups == gid) for gid in group_ids(groups)]
        num = 0.0
        den = 0
        for unit, weight in counts.items():
            if groups[unit] < 0:
                # Served by the nearest group.
                units = members[self.topology.nearest_group(unit, members)]
            else:
                units = np.flatnonzero(groups == groups[unit])
            held = shares[units]
            mean_one_way = float(
                (latency[unit, units] * held).sum() / max(1, held.sum())
            )
            num += weight * 2.0 * mean_one_way
            den += weight
        return num / den if den else 0.0

    MIN_BLOCK_BYTES = 256
    MAX_BLOCK_BYTES = 4096

    def _pick_block_size(
        self, stream, elems: np.ndarray, cores: np.ndarray
    ) -> int:
        """Block size from the profiled spatial run length.

        The mean run of +1 element strides on the stream's busiest core
        estimates how much contiguous data one visit consumes; the block
        should cover a run (prefetch pays off) but not much more
        (overfetch wastes capacity).
        """
        if len(elems) < 8:
            return self.mapper.ata.block_bytes
        dominant = np.bincount(cores).argmax()
        mine = elems[cores == dominant]
        if len(mine) < 8:
            mine = elems
        sequential = (np.diff(mine) == 1).mean()
        run_elems = 1.0 / max(1e-3, 1.0 - min(0.999, float(sequential)))
        target = stream.elem_size * run_elems
        block = self.MIN_BLOCK_BYTES
        while block < target and block < self.MAX_BLOCK_BYTES:
            block *= 2
        return block

    def _fallback_rows(self, accesses: dict[int, int]) -> np.ndarray:
        """Linear miss decay from footprint, one curve-grid row per
        stream of ``accesses`` (sid -> accesses): a neutral prior for
        streams the rotation has not sampled yet.  It is flat below the
        first capacity case, so the capacity-1 anchor repeats it."""
        capacities = np.maximum(
            self.sampler_params.curve_capacities(), self.sampler_params.capacities()[0]
        )
        sizes = np.array([max(1, self._streams[sid].size) for sid in accesses])
        fraction = np.clip(capacities / sizes[:, None], 0.0, 1.0)
        return np.array(list(accesses.values()))[:, None] * (1.0 - fraction)

    def process(self, epoch: Trace) -> RequestOutcome:
        return self.mapper.process(epoch)

    def end_epoch(
        self, epoch_idx: int, epoch: Trace, outcome: RequestOutcome
    ) -> None:
        if self.recorder.enabled and self._predicted_hit_rate:
            self._record_hit_accuracy(epoch_idx, epoch, outcome)
        if self.mode == "static":
            return
        if self.mode == "partial" and epoch_idx >= self.partial_epochs:
            return
        self._profile(epoch, epoch_idx)

    def _record_hit_accuracy(
        self, epoch_idx: int, epoch: Trace, outcome: RequestOutcome
    ) -> None:
        """Emit predicted-vs-realized hit rate per stream for this epoch."""
        streams = []
        for sid, predicted in sorted(self._predicted_hit_rate.items()):
            mask = epoch.sid == sid
            accesses = int(mask.sum())
            if accesses == 0:
                continue
            streams.append(
                {
                    "sid": int(sid),
                    "predicted": predicted,
                    "realized": float(outcome.hit[mask].mean()),
                    "accesses": accesses,
                }
            )
        if streams:
            self.recorder.event("hit_accuracy", epoch=epoch_idx, streams=streams)

    # ------------------------------------------------------------------

    def _profile(self, epoch: Trace, epoch_idx: int = -1) -> None:
        """One epoch's hardware profiling: bitvectors + sampled curves."""
        n_units = self.config.n_units
        max_sid = max(self._streams) if self._streams else 0
        req_unit = epoch.core.astype(np.int64) % n_units
        valid = epoch.sid >= 0
        n_sids = max_sid + 1
        counts = np.bincount(
            req_unit[valid] * n_sids + epoch.sid[valid], minlength=n_units * n_sids
        ).reshape(n_units, n_sids)
        bitvec = counts > 0

        self._acc_units = {}
        self._acc_counts = {}
        self._epoch_access_totals = {}
        for sid in range(max_sid + 1):
            units = np.flatnonzero(bitvec[:, sid])
            if len(units) == 0:
                continue
            self._acc_units[sid] = [int(u) for u in units]
            self._acc_counts[sid] = {
                int(u): int(counts[u, sid]) for u in units
            }
            self._epoch_access_totals[sid] = int(counts[:, sid].sum())

        with tracing.current().span("profile.assign"):
            assignment = self.assigner.assign(bitvec)
        with tracing.current().span("profile.sample"):
            sids, tags, granularities, resized = [], [], [], []
            for sid in assignment.assignment:
                stream = self._streams.get(sid)
                if stream is None:
                    continue
                mask = epoch.sid == sid
                elems = stream.element_ids(epoch.addr[mask])
                if self.adaptive_blocks and stream.is_affine:
                    block = self._pick_block_size(stream, elems, epoch.core[mask])
                    if self.mapper.set_block_override(sid, block):
                        resized.append(sid)  # granularity changed
                granularity = self.mapper.granularity_of(stream)
                sids.append(sid)
                tags.append(stream_tags(stream, elems, granularity))
                granularities.append(granularity)
            groups = np.repeat(np.arange(len(tags)), [len(t) for t in tags])
            fresh = self.sampler.observe(
                groups,
                np.concatenate(tags) if tags else np.empty(0, dtype=np.int64),
                granularities,
            )
            # A resized stream's history is dropped; it re-enters last.
            kept = [sid for sid in self._curves.ids if sid not in resized]
            self._curves = self._curves.select(kept).smoothed(fresh, sids)
            if self.recorder.enabled:
                for sid in sids:
                    self.recorder.event(
                        "miss_curve",
                        epoch=epoch_idx,
                        sid=int(sid),
                        accesses=int(self._epoch_access_totals.get(sid, 0)),
                        capacities=[float(c) for c in self._curves.capacities],
                        misses=[float(m) for m in self._curves.row(sid)],
                    )
