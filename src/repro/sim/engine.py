"""The trace-driven simulation engine.

The engine owns everything policy-independent: epoch splitting, L1
filtering, interconnect and DRAM timing, extended-memory misses, energy
accounting, and the in-order-core runtime model.  A *DRAM-cache policy*
(NDPExt's stream cache, or one of the NUCA baselines) plugs in through
:class:`DramCachePolicy` and decides, for each post-L1 request: whether it
hits, which unit serves it, which local DRAM row it touches, and what
metadata cost it pays.

Per epoch the flow is::

    trace epoch -> L1 filter (per core) -> policy.process() ->
    engine charges NoC + DRAM + CXL latency/energy -> policy.end_epoch()

Runtime follows the paper's in-order cores: a core's time is its compute
cycles plus the sum of its memory latencies; the workload finishes when
the slowest core does.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from repro.faults import EpochFaults, FaultSchedule, FaultState
from repro.obs.histogram import TIERS, TierHistogramSet
from repro.obs.recorder import NullRecorder
from repro.obs.spatial import SpatialAccumulator
from repro.obs.timeline import EpochRecord, Timeline
from repro.obs.tracing import current
from repro.sim import kernels
from repro.sim.cxl import ExtendedMemory
from repro.sim.dram import DramModel
from repro.sim.metrics import (
    EnergyBreakdown,
    HitStats,
    LatencyBreakdown,
    SimulationReport,
)
from repro.sim.params import CACHELINE_BYTES, SystemConfig
from repro.sim.sram_cache import filter_cores_through_l1
from repro.sim.topology import Topology
from repro.workloads.trace import Trace, Workload

# Interconnect message sizes: a request carries a header, a response
# carries the data plus a header.
HEADER_BYTES = 16

# The unit whose logic die hosts the CXL port to the extended memory.
CXL_PORT_UNIT = 0

# Static power per NDP unit (core + logic-die periphery).  The paper's
# Fig. 6 shows static energy tracking execution time; the absolute value
# only scales that component.
STATIC_W_PER_UNIT = 0.2

# Affine (sequential/strided) accesses are prefetchable — the stream
# literature the paper builds on ([74]-[76]) exists precisely to overlap
# them — so an in-order core hides most of their latency.  Indirect
# accesses are data-dependent and serialize.  The same factor applies to
# the host (hardware stride prefetchers achieve the equivalent).
AFFINE_MLP = 4.0

# Serving-tier indices into repro.obs.histogram.TIERS.
TIER_LOCAL, TIER_INTRA, TIER_INTER, TIER_EXTENDED = range(len(TIERS))


@dataclass
class RequestOutcome:
    """Per-request decisions returned by a policy for one epoch.

    All arrays are parallel to the post-L1 epoch trace.

    * ``hit`` — served by the NDP DRAM cache.
    * ``serving_unit`` — unit whose DRAM serves a hit / receives the fill
      on a miss; -1 means the request bypasses the cache entirely.
    * ``local_row`` — DRAM row (unit-local) the access touches; used for
      row-buffer simulation.  Ignored where ``serving_unit`` is -1.
    * ``miss_probe_dram`` — True when discovering the miss itself required
      a DRAM touch at the home unit (in-DRAM tags for indirect streams and
      for the cacheline baselines' tag-with-data layout).
    * ``metadata_ns`` — per-request metadata latency on the critical path
      (SLB hit/refill for NDPExt; metadata-cache hit/miss for baselines).
    * ``metadata_dram_accesses`` — count of extra in-DRAM metadata
      accesses (energy accounting).
    """

    hit: np.ndarray
    serving_unit: np.ndarray
    local_row: np.ndarray
    miss_probe_dram: np.ndarray
    metadata_ns: np.ndarray
    metadata_dram_accesses: int = 0
    rescued_first_touches: int = 0

    def __post_init__(self) -> None:
        n = len(self.hit)
        for name in ("serving_unit", "local_row", "miss_probe_dram", "metadata_ns"):
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"RequestOutcome.{name} has length "
                    f"{len(getattr(self, name))}, expected {n}"
                )
        if bool(np.any(self.hit & (self.serving_unit < 0))):
            raise ValueError("a hit must name the unit that served it")


@dataclass
class ReconfigStats:
    """What a reconfiguration did at an epoch boundary."""

    movements: int = 0
    invalidations: int = 0


class DramCachePolicy(ABC):
    """Interface every DRAM-cache management scheme implements."""

    name: str = "abstract"

    # Observability hook: the engine rebinds this before ``setup`` so a
    # policy can emit decision events (its spans go to the ambient
    # tracer, :func:`repro.obs.tracing.current`).  The shared
    # null default keeps standalone policy use (tests, notebooks) free.
    recorder: NullRecorder = NullRecorder()

    def bind_recorder(self, recorder: NullRecorder) -> None:
        """Attach the run's recorder (called by the engine)."""
        self.recorder = recorder

    @abstractmethod
    def setup(
        self, config: SystemConfig, topology: Topology, workload: Workload
    ) -> None:
        """Bind to a system and workload before the first epoch."""

    def begin_epoch(self, epoch_idx: int) -> ReconfigStats:
        """Reconfigure for the coming epoch; default: nothing changes."""
        return ReconfigStats()

    def on_faults(
        self, epoch_idx: int, events: EpochFaults, state: FaultState
    ) -> ReconfigStats:
        """React to newly injected hardware faults (graceful degradation).

        Default: no reaction — a policy that ignores faults degrades
        fail-stop, because the engine demotes every request it still
        sends to a dead unit or a quarantined DRAM row into an
        extended-memory bypass.
        """
        return ReconfigStats()

    @abstractmethod
    def process(self, epoch: Trace) -> RequestOutcome:
        """Decide hit/miss and serving location for each request."""

    def end_epoch(self, epoch_idx: int, epoch: Trace, outcome: RequestOutcome) -> None:
        """Observe the finished epoch (profiling input for reconfiguration)."""


@dataclass
class EngineOptions:
    """Engine knobs that are not part of the system description."""

    max_epochs: int | None = None


class SimulationEngine:
    """Runs one workload under one policy on one system configuration.

    The engine holds only what no run changes: the system description,
    options, fault schedule, recorder, topology and NDP DRAM model.
    Every run's state lives on its :class:`EngineSession`, so sessions
    opened on one engine never see each other.
    """

    def __init__(
        self,
        config: SystemConfig,
        options: EngineOptions | None = None,
        faults: FaultSchedule | None = None,
        recorder: NullRecorder | None = None,
    ) -> None:
        self.config = config
        self.options = options or EngineOptions()
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.fault_schedule = faults
        self.topology = Topology(config)
        self.ndp_dram = DramModel(config.ndp_dram)

    def run(self, workload: Workload, policy: DramCachePolicy) -> SimulationReport:
        with current().span("engine.run"):
            session = EngineSession(self, workload, policy)
            epochs = workload.trace.epochs(self.config.epoch_accesses)
            if self.options.max_epochs is not None:
                epochs = epochs[: self.options.max_epochs]
            # One trace-wide sort yields every epoch's stable-by-core
            # permutation (the L1 filter's grouping), instead of one sort
            # — previously one boolean scan per core — per epoch.
            core_orders = self._epoch_core_orders(epochs)
            for epoch, order in zip(epochs, core_orders):
                session.step(epoch, order=order)
            return session.finish()

    def begin_session(
        self, workload: Workload, policy: DramCachePolicy
    ) -> "EngineSession":
        """Open an incremental session: the serving-loop entry point.

        Epoch traces are then fed one at a time through
        :meth:`EngineSession.step` — the engine does not need the whole
        trace up front — and :meth:`EngineSession.finish` produces the
        same :class:`SimulationReport` the batch :meth:`run` would.
        ``workload`` supplies the stream table, thread count, and
        compute cost; its trace is only consulted for ``n_cores``, so a
        serving caller may slice request batches from it at any
        granularity (or from elsewhere entirely).
        """
        return EngineSession(self, workload, policy)

    @staticmethod
    def _epoch_core_orders(epochs: list[Trace]) -> list[np.ndarray]:
        """Stable-by-core sort permutation for every epoch, in one pass.

        A single trace-wide stable sort keyed by (epoch, core) yields
        each epoch's grouping for the L1 filter; the per-epoch slices
        only need their offsets subtracted.  The two keys are packed
        into one int64 so the sort is a single
        :func:`~repro.sim.kernels.stable_argsort` — measurably faster
        than the equivalent ``np.lexsort((pos, cores, epoch_ids))``, and
        identical by stability.
        """
        lengths = np.array([len(e) for e in epochs], dtype=np.int64)
        total = int(lengths.sum())
        if total == 0:
            return [np.empty(0, dtype=np.int64) for _ in epochs]
        cores = np.concatenate([e.core for e in epochs]).astype(np.int64)
        epoch_ids = np.repeat(np.arange(len(epochs), dtype=np.int64), lengths)
        span = int(cores.max()) + 1 if len(cores) else 1
        if cores.min() >= 0 and len(epochs) * span < (1 << 62):
            order = kernels.stable_argsort(epoch_ids * np.int64(span) + cores)
        else:
            pos = np.arange(total, dtype=np.int64)
            order = np.lexsort((pos, cores, epoch_ids))
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        parts = np.split(order, np.cumsum(lengths)[:-1])
        return [part - start for part, start in zip(parts, starts)]


class EngineSession:
    """One simulation run, advanced one epoch at a time.

    The session owns all of its run's state: the accumulators, the
    traffic counters behind the bandwidth roofline, the fault state, the
    extended memory (whose trained lane width faults narrow) and the
    observers.  The batch path (``SimulationEngine.run``) and a serving
    loop (``SimulationEngine.begin_session``) share this one code path,
    so feeding the same epoch traces in the same order is bit-identical
    by construction.  ``step`` processes one epoch trace and returns its
    :class:`EpochRecord`; ``finish`` closes the run and builds the
    :class:`SimulationReport`.
    """

    # Queueing delay is capped at this utilization: beyond it the open
    # M/D/1-style estimate diverges and real systems throttle instead.
    MAX_UTILIZATION = 0.95

    def __init__(
        self,
        engine: SimulationEngine,
        workload: Workload,
        policy: DramCachePolicy,
    ) -> None:
        self.engine = engine
        self.config = config = engine.config
        self.topology = engine.topology
        self.workload = workload
        self.policy = policy
        recorder = engine.recorder
        self.recorder = recorder
        policy.bind_recorder(recorder)
        with current().span("policy.setup"):
            policy.setup(config, engine.topology, workload)
        # Per-sid affine flag for the prefetch-overlap (MLP) model.
        max_sid = max((s.sid for s in workload.streams), default=-1)
        self._sid_affine = np.zeros(max_sid + 2, dtype=bool)
        for stream in workload.streams:
            self._sid_affine[stream.sid] = stream.is_affine

        # The trace may carry more logical cores (threads) than the system
        # has physical units; threads are assigned round-robin and a
        # unit's time is the sum of its threads' times (in-order cores).
        n_threads = max(workload.trace.n_cores, 1)
        self.core_stall_ns = np.zeros(n_threads)
        self.core_accesses = np.zeros(n_threads, dtype=np.int64)
        self._thread_units = np.arange(n_threads, dtype=np.int64) % config.n_units
        self._ext_accesses = 0
        self._ext_lane_accesses: dict[int, int] = {}
        self._inter_stack_bytes = 0
        self.fault_state = (
            FaultState(engine.fault_schedule, config, recorder=recorder)
            if engine.fault_schedule is not None
            else None
        )
        self.extended = ExtendedMemory(config.cxl, config.ext_dram)
        self.breakdown = LatencyBreakdown()
        self.energy = EnergyBreakdown()
        self.hits = HitStats()
        self.movements = 0
        self.invalidations = 0
        self.per_epoch_cycles: list[float] = []
        # Distributional/spatial observers exist only under a live
        # recorder, so the null-recorder path performs no tier
        # classification or scatter-adds at all.
        self.timeline: Timeline | None = None
        self._obs_hist: TierHistogramSet | None = None
        self._obs_spatial: SpatialAccumulator | None = None
        if recorder.enabled:
            self.timeline = Timeline()
            self._obs_hist = TierHistogramSet()
            self._obs_spatial = SpatialAccumulator(
                config.n_units, engine.topology.unit_stack
            )
        self.epoch_idx = 0
        self._finished = False

    def step(self, epoch: Trace, order: np.ndarray | None = None) -> EpochRecord:
        """Run one epoch trace through the full engine pipeline.

        Returns the epoch's :class:`EpochRecord` (this step's deltas),
        which a serving loop reads for per-batch accounting and health
        and which a live recorder appends to the run's timeline.
        ``order`` accepts the precomputed stable-by-core permutation when
        the caller sorted the whole trace at once (the batch path);
        serving callers leave it ``None`` and the per-epoch sort —
        keyed identically — produces the same permutation.
        """
        if self._finished:
            raise RuntimeError("EngineSession already finished")
        config = self.config
        tracer = current()
        recorder = self.recorder
        fault_state = self.fault_state
        breakdown = self.breakdown
        energy = self.energy
        hits = self.hits
        epoch_idx = self.epoch_idx
        self.epoch_idx += 1
        if order is None:
            order = SimulationEngine._epoch_core_orders([epoch])[0]

        with tracer.span("engine.epoch", epoch=epoch_idx):
            events = None
            epoch_movements = 0
            epoch_invalidations = 0
            # Snapshot the accumulators so this step's deltas can be
            # attributed to its record.  Pure dataclass copies: they
            # never perturb simulation state.
            prev_hits = replace(hits)
            prev_breakdown = replace(breakdown)
            prev_energy = replace(energy)
            prev_ext = self._ext_accesses
            prev_inter = self._inter_stack_bytes
            prev_demoted = (
                fault_state.report.demoted_requests if fault_state is not None else 0
            )
            if fault_state is not None:
                with tracer.span("engine.fault_hooks"):
                    events = fault_state.advance(epoch_idx)
                    self.extended.effective_lanes = fault_state.effective_lanes
                    if not events.empty:
                        with tracer.span("policy.on_faults"):
                            fstats = self.policy.on_faults(
                                epoch_idx, events, fault_state
                            )
                        epoch_movements += fstats.movements
                        epoch_invalidations += fstats.invalidations
                        fault_state.report.fault_movements += fstats.movements
                        fault_state.report.fault_invalidations += (
                            fstats.invalidations
                        )
            with tracer.span("policy.begin_epoch"):
                stats = self.policy.begin_epoch(epoch_idx)
            epoch_movements += stats.movements
            epoch_invalidations += stats.invalidations
            self.movements += epoch_movements
            self.invalidations += epoch_invalidations

            with tracer.span("engine.l1_filter"):
                post_l1, l1_mask = self._l1_filter(epoch, order)
                l1_hits = int(l1_mask.sum())
                hits.l1_hits += l1_hits
                breakdown.sram_ns += l1_hits * config.core.l1d.hit_ns
                energy.sram_nj += len(epoch) * 0.01  # ~10 pJ / L1 access
                n_threads = len(self.core_accesses)
                self.core_accesses += kernels.segment_count(epoch.core, n_threads)
                # All L1 hits cost the same, so the per-thread stall is a
                # hit count times the constant hit latency.
                self.core_stall_ns += kernels.segment_count(
                    epoch.core[l1_mask], n_threads
                ) * config.core.l1d.hit_ns

            if len(post_l1):
                with tracer.span("policy.process"):
                    outcome = self.policy.process(post_l1)
                if fault_state is not None and fault_state.degraded:
                    fault_state.demote(outcome)
                with tracer.span("engine.charge"):
                    # Per-epoch invariants every charge/queue step needs,
                    # computed once instead of once per consumer.
                    core_unit = post_l1.core.astype(np.int64) % config.n_units
                    in_stream = post_l1.sid >= 0
                    affine = (
                        self._sid_affine[
                            np.clip(post_l1.sid, -1, len(self._sid_affine) - 2)
                        ]
                        & in_stream
                    )
                    epoch_stall, ext_mask, n_ext = self._charge(
                        post_l1, outcome, core_unit, in_stream, affine
                    )
                with tracer.span("engine.queueing"):
                    queue_ns = self._queueing_delay(
                        post_l1, epoch_stall, ext_mask, core_unit, n_ext
                    )
                    if queue_ns > 0:
                        observed = np.full(len(post_l1), queue_ns)
                        observed[affine] /= AFFINE_MLP
                        observed[in_stream & ~affine] /= config.indirect_mlp
                        epoch_stall[ext_mask] += observed[ext_mask]
                        breakdown.extended_ns += queue_ns * n_ext
                    self.core_stall_ns += kernels.segment_sum(
                        post_l1.core, epoch_stall, len(self.core_stall_ns)
                    )
                with tracer.span("policy.end_epoch"):
                    self.policy.end_epoch(epoch_idx, post_l1, outcome)
            with tracer.span("engine.runtime_model"):
                self.per_epoch_cycles.append(self._runtime_cycles())

            ext_delta = self._ext_accesses - prev_ext
            record = EpochRecord(
                epoch=epoch_idx,
                requests=len(epoch),
                post_l1_requests=len(post_l1),
                hits=hits - prev_hits,
                breakdown=breakdown - prev_breakdown,
                energy=energy - prev_energy,
                ext_accesses=ext_delta,
                ext_bytes=ext_delta * CACHELINE_BYTES,
                inter_stack_bytes=self._inter_stack_bytes - prev_inter,
                effective_lanes=self.extended.effective_lanes,
                reconfig_movements=epoch_movements,
                reconfig_invalidations=epoch_invalidations,
                fault_units=len(events.unit_failures) if events else 0,
                fault_rows=len(events.row_faults) if events else 0,
                demoted_requests=(
                    fault_state.report.demoted_requests - prev_demoted
                    if fault_state is not None
                    else 0
                ),
                cycles_total=self.per_epoch_cycles[-1],
            )
            if recorder.enabled:
                self.timeline.append(record)
        return record

    @property
    def cycles_total(self) -> float:
        """Simulated cycles elapsed so far (the serving loop's clock)."""
        if self.per_epoch_cycles:
            return self.per_epoch_cycles[-1]
        return 0.0

    def finish(self) -> SimulationReport:
        """Close the run: final runtime model, static energy, report."""
        if self._finished:
            raise RuntimeError("EngineSession already finished")
        self._finished = True
        config = self.config
        tracer = current()
        recorder = self.recorder
        energy = self.energy
        with tracer.span("engine.runtime_model"):
            runtime_cycles = self._runtime_cycles()
        runtime_ns = runtime_cycles * config.core.cycle_ns
        energy.static_nj += STATIC_W_PER_UNIT * config.n_units * runtime_ns
        report = SimulationReport(
            policy=self.policy.name,
            workload=self.workload.name,
            runtime_cycles=runtime_cycles,
            breakdown=self.breakdown,
            energy=energy,
            hits=self.hits,
            reconfig_movements=self.movements,
            reconfig_invalidations=self.invalidations,
            per_epoch_cycles=self.per_epoch_cycles,
            faults=self.fault_state.report if self.fault_state else None,
        )
        if recorder.enabled:
            with tracer.span("engine.observability"):
                report.timeline = self.timeline
                report.tier_histograms = self._obs_hist.histograms()
                report.spatial = self._obs_spatial.to_report()
                recorder.event("report", **report.to_json())
        return report

    # ------------------------------------------------------------------
    # Per-epoch model steps

    def _l1_filter(self, epoch: Trace, order: np.ndarray) -> tuple[Trace, np.ndarray]:
        """Filter the epoch through each core's L1D in one grouped
        window-LRU pass; returns the miss trace and the hit mask.
        ``order`` is the epoch's stable-by-core permutation."""
        mask = filter_cores_through_l1(
            epoch.addr, epoch.core, self.config.core.l1d, order=order
        )
        return epoch.select(~mask), mask

    def _charge(
        self,
        trace: Trace,
        outcome: RequestOutcome,
        core_unit: np.ndarray,
        in_stream: np.ndarray,
        affine: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Charge one epoch's latency and energy to the run's accumulators.

        Returns ``(stall, goes_ext, n_ext)``: the per-request stall ns
        observed by the issuing cores, the mask of requests served by
        the extended memory (misses plus bypasses), and that mask's
        population count (so callers do not re-reduce it).
        ``core_unit`` / ``in_stream`` / ``affine`` are the per-epoch
        invariants the step already computed.
        """
        config = self.config
        topology = self.topology
        breakdown = self.breakdown
        energy = self.energy
        n = len(trace)
        stall = np.array(outcome.metadata_ns, dtype=np.float64, copy=True)
        breakdown.metadata_ns += float(stall.sum())

        serving = outcome.serving_unit
        hit = outcome.hit
        cached = serving >= 0
        serving_clip = np.clip(serving, 0, None)

        # One flat gather index serves every topology table (latency,
        # hop counts, energy) instead of four 2-D fancy-index passes.
        flat = core_unit * topology.n_units + serving_clip
        one_way = topology.latency_ns.ravel()[flat]
        intra_hops = topology.intra_hops.ravel()[flat]
        inter_hops = topology.inter_hops.ravel()[flat]
        noc_pj = topology.energy_pj_per_bit.ravel()[flat]

        # --- Interconnect: request to home unit and response back. ---
        noc_ns = np.zeros(n)
        noc_ns[cached] = 2.0 * one_way[cached]
        intra_part = intra_hops * config.noc.intra_hop_ns
        inter_part = inter_hops * config.noc.inter_hop_ns
        breakdown.intra_noc_ns += float(2.0 * intra_part[cached].sum())
        breakdown.inter_noc_ns += float(2.0 * inter_part[cached].sum())

        msg_bits = (CACHELINE_BYTES + 2 * HEADER_BYTES) * 8
        energy.noc_nj += float(2.0 * noc_pj[cached].sum()) * msg_bits / 1000.0

        # Inter-stack traffic for the link-bandwidth roofline: every
        # cross-stack round trip moves a request + response.
        crosses = cached & (inter_hops > 0)
        self._inter_stack_bytes += int(crosses.sum()) * (msg_bits // 8) * 2

        # --- NDP DRAM: hits and in-DRAM miss probes, row-buffer aware. ---
        tracer = current()
        with tracer.span("engine.dram_charge"):
            touches = cached & (hit | outcome.miss_probe_dram)
            dram_ns = np.zeros(n)
            if touches.any():
                # Row-buffer state is per unit; build a composite bank id
                # of (unit, bank-of-row) so one vectorised pass covers
                # all units.
                rows = outcome.local_row[touches]
                units = serving[touches]
                banks = units * config.ndp_dram.banks + (
                    rows % config.ndp_dram.banks
                )
                row_hit = kernels.direct_mapped_hits(banks, rows)
                timing = config.ndp_dram
                dram_ns[touches] = np.where(
                    row_hit, timing.row_hit_ns, timing.row_miss_ns
                )
                energy.ndp_dram_nj += self.engine.ndp_dram.energy_nj(row_hit)
            breakdown.dram_ns += float(dram_ns.sum())

        # --- Misses: CXL + DDR5, plus NoC from home unit to the CXL port. ---
        with tracer.span("engine.cxl_charge"):
            miss = cached & ~hit
            bypass = ~cached
            goes_ext = miss | bypass
            n_ext = int(np.count_nonzero(goes_ext))
            ext_ns = np.zeros(n)
            ext_latency_total = 0.0
            origin = None
            if n_ext:
                ext_result = self.extended.access(trace.addr[goes_ext])
                ext_ns[goes_ext] = ext_result.latency_ns
                ext_latency_total = float(ext_result.latency_ns.sum())
                # Home unit forwards the miss to the CXL port; the
                # response returns to the requesting core.  Bypass
                # requests go directly from the core to the port.
                origin = np.where(miss, serving_clip, core_unit)[goes_ext]
                to_port = topology.latency_ns[origin, CXL_PORT_UNIT]
                from_port = topology.latency_ns[CXL_PORT_UNIT, core_unit[goes_ext]]
                ext_ns[goes_ext] += to_port + from_port
                breakdown.inter_noc_ns += float((to_port + from_port).sum())
                energy.cxl_nj += ext_result.link_energy_nj
                energy.ext_dram_nj += ext_result.dram_energy_nj
                if self.fault_state is not None:
                    fault_ns = self.fault_state.cxl_penalty_ns(n_ext, self.extended)
                    if fault_ns is not None:
                        ext_ns[goes_ext] += fault_ns
                        ext_latency_total += float(fault_ns.sum())
                self._ext_accesses += n_ext
                lanes_now = self.extended.effective_lanes
                self._ext_lane_accesses[lanes_now] = (
                    self._ext_lane_accesses.get(lanes_now, 0) + n_ext
                )
                # Fill energy: the fetched line is written into the home
                # unit.
                fills = int(miss.sum())
                energy.ndp_dram_nj += fills * (
                    config.ndp_dram.access_energy_nj(CACHELINE_BYTES, row_miss=True)
                )
            breakdown.extended_ns += ext_latency_total

        # Metadata DRAM accesses consume DRAM energy too.
        energy.ndp_dram_nj += (
            outcome.metadata_dram_accesses
            * config.ndp_dram.access_energy_nj(8, row_miss=False)
        )

        stall += noc_ns + dram_ns + ext_ns

        if self._obs_hist is not None:
            # Distributional/spatial observability (recorded runs only).
            # ``stall`` at this point is the request's full service
            # latency (metadata + NoC + DRAM + extended) before the
            # MLP overlap division — the Fig. 2(a) notion of access
            # latency, histogrammed by serving tier.
            with tracer.span("engine.observability"):
                tier = np.full(n, TIER_EXTENDED, dtype=np.int64)
                local = hit & (serving == core_unit)
                remote = hit & ~local
                tier[local] = TIER_LOCAL
                tier[remote & (inter_hops == 0)] = TIER_INTRA
                tier[remote & (inter_hops > 0)] = TIER_INTER
                self._obs_hist.observe(tier, stall)
                self._obs_spatial.observe_epoch(
                    core_unit=core_unit,
                    serving=serving,
                    hit=hit,
                    touches=touches,
                    dram_ns=dram_ns,
                    goes_ext=goes_ext,
                    origin=origin,
                    port_unit=CXL_PORT_UNIT,
                    round_trip_bytes=2 * (CACHELINE_BYTES + 2 * HEADER_BYTES),
                )

        # Prefetch overlap: affine accesses expose memory-level
        # parallelism, so the core observes only 1/AFFINE_MLP of their
        # latency; indirect stream accesses overlap by the system's
        # indirect_mlp (1 on the host, which lacks stream engines).
        # Bandwidth/queueing effects still see the full demand (they are
        # computed from access counts, not stall).
        stall[affine] /= AFFINE_MLP
        indirect = in_stream & ~affine
        stall[indirect] /= config.indirect_mlp

        hits = self.hits
        hits.cache_hits_local += int((hit & (serving == core_unit)).sum())
        hits.cache_hits_remote += int((hit & cached & (serving != core_unit)).sum())
        hits.cache_misses += n_ext
        return stall, goes_ext, n_ext

    def _ext_service_ns(self) -> float:
        """Time one access occupies an extended-memory channel: the
        burst transfer (freq x 2 (DDR) x 8 bytes per beat) plus its
        share of bank-level row cycling."""
        ext = self.config.ext_dram
        channel_bytes_per_ns = ext.freq_mhz * 16.0 / 1000.0
        return CACHELINE_BYTES / channel_bytes_per_ns + ext.row_miss_ns / ext.banks

    def _queueing_delay(
        self,
        epoch: Trace,
        epoch_stall: np.ndarray,
        ext_mask: np.ndarray,
        unit: np.ndarray,
        n_ext: int,
    ) -> float:
        """Per-miss queueing delay at the shared extended memory.

        The channels behind the CXL device (or the host's DDR bus) are a
        shared server: with many in-order cores missing concurrently,
        waiting time grows as utilization approaches 1 (M/D/1-style
        rho/(2(1-rho)) scaling).  The epoch duration is estimated from
        the already-charged latencies, iterated once so the added delay
        feeds back into the utilization estimate.  ``unit`` is each
        request's issuing unit and ``n_ext`` the population of
        ``ext_mask``.
        """
        if n_ext == 0:
            return 0.0
        config = self.config
        service = self._ext_service_ns() / config.cxl.channels
        # Per-unit compute time is stall-independent; add it once.  The
        # per-access cost is constant, so the segment sum is a count
        # times that constant.
        compute = kernels.segment_count(unit, config.n_units) * (
            self.workload.compute_cycles_per_access * config.core.cycle_ns
        )
        queue_ns = 0.0
        for _ in range(2):
            unit_ns = kernels.segment_sum(
                unit, epoch_stall + queue_ns * ext_mask, config.n_units
            )
            duration = float(np.max(unit_ns + compute))
            if duration <= 0:
                return 0.0
            rho = min(n_ext * service / duration, self.MAX_UTILIZATION)
            queue_ns = service * rho / (2.0 * max(1e-9, 1.0 - rho))
        return queue_ns

    def _bandwidth_bound_ns(self) -> float:
        """Roofline bound from shared next-level-memory bandwidth.

        Every cache miss occupies an extended-memory DDR channel (burst
        transfer plus its share of bank-level row cycling) and the CXL
        link.  Many cores hammering few channels makes this the binding
        constraint — the regime that motivates NDP in the first place.
        """
        config = self.config
        bounds = [0.0]
        n_ext = self._ext_accesses
        if n_ext:
            bounds.append(n_ext * self._ext_service_ns() / config.cxl.channels)
            # CXL link: ~4 GB/s usable per lane per direction.  Accesses
            # made while the link was down-trained occupy it longer, so
            # the bound sums per trained width.
            link_ns = 0.0
            for lanes, count in self._ext_lane_accesses.items():
                link_bytes_per_ns = 4.0 * lanes
                link_ns += count * CACHELINE_BYTES / link_bytes_per_ns
            bounds.append(link_ns)
        if self._inter_stack_bytes:
            # Inter-stack links: Table II's 32 GB/s per direction, one
            # bidirectional link per stack-mesh edge.
            links = max(
                1,
                (config.stacks_x - 1) * config.stacks_y
                + (config.stacks_y - 1) * config.stacks_x,
            )
            noc_bytes_per_ns = config.noc.inter_bw_gbps * links  # GB/s == B/ns
            bounds.append(self._inter_stack_bytes / noc_bytes_per_ns)
        return max(bounds)

    def _runtime_cycles(self) -> float:
        """The in-order runtime so far: the slowest unit's compute plus
        stall cycles, or the bandwidth roofline when that binds."""
        cycle_ns = self.config.core.cycle_ns
        compute_cycles = self.core_accesses * self.workload.compute_cycles_per_access
        thread_cycles = compute_cycles + self.core_stall_ns / cycle_ns
        unit_cycles = kernels.segment_sum(
            self._thread_units, thread_cycles, self.config.n_units
        )
        core_bound = float(np.max(unit_cycles)) if len(unit_cycles) else 0.0
        bw_bound = self._bandwidth_bound_ns() / cycle_ns
        return max(core_bound, bw_bound)
