"""Measurement containers: latency breakdowns, hit statistics, energy.

Fig. 2(a) breaks average access latency into core-side SRAM, metadata,
DRAM (cache), intra-stack network, inter-stack network, and next-level
(extended) memory; Fig. 6 breaks energy into static, DRAM, interconnect
and extended memory.  These accumulators collect exactly those series so
every experiment can print the paper's rows directly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.histogram import LatencyHistogram
    from repro.obs.spatial import SpatialReport
    from repro.obs.timeline import Timeline


@dataclass
class LatencyBreakdown:
    """Total nanoseconds spent per component, summed over all requests."""

    sram_ns: float = 0.0
    metadata_ns: float = 0.0
    dram_ns: float = 0.0
    intra_noc_ns: float = 0.0
    inter_noc_ns: float = 0.0
    extended_ns: float = 0.0

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __sub__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    @property
    def total_ns(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))

    @property
    def interconnect_ns(self) -> float:
        return self.intra_noc_ns + self.inter_noc_ns

    def fractions(self) -> dict[str, float]:
        total = self.total_ns
        if total == 0:
            return {f.name: 0.0 for f in fields(self)}
        return {f.name: getattr(self, f.name) / total for f in fields(self)}


@dataclass
class EnergyBreakdown:
    """Nanojoules per component (Fig. 6 categories)."""

    static_nj: float = 0.0
    sram_nj: float = 0.0
    ndp_dram_nj: float = 0.0
    noc_nj: float = 0.0
    cxl_nj: float = 0.0
    ext_dram_nj: float = 0.0

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __sub__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    @property
    def total_nj(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))


@dataclass
class HitStats:
    """Request counts by where they were served."""

    l1_hits: int = 0
    cache_hits_local: int = 0
    cache_hits_remote: int = 0
    cache_misses: int = 0

    def __add__(self, other: "HitStats") -> "HitStats":
        return HitStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def __sub__(self, other: "HitStats") -> "HitStats":
        return HitStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(self)
            }
        )

    @property
    def cache_accesses(self) -> int:
        return self.cache_hits_local + self.cache_hits_remote + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_accesses
        return (self.cache_hits_local + self.cache_hits_remote) / total if total else 0.0

    @property
    def miss_rate(self) -> float:
        total = self.cache_accesses
        return self.cache_misses / total if total else 0.0

    @property
    def total_requests(self) -> int:
        return self.l1_hits + self.cache_accesses


@dataclass
class FaultReport:
    """What the fault layer did to one run (empty when nothing fired).

    ``penalty_ns`` is the directly attributable latency the faults added
    to the critical path: CRC backoff/re-issue time plus the extra
    serialization of a down-trained link.  Capacity-loss effects (dead
    units, quarantined rows) show up indirectly as extra extended-memory
    traffic and are counted in ``demoted_requests`` /
    ``fault_invalidations`` instead.
    """

    crc_retries: int = 0
    crc_reissues: int = 0
    crc_retry_ns: float = 0.0
    downtrained_epochs: int = 0
    min_lanes: int = 0
    degraded_link_extra_ns: float = 0.0
    units_lost: int = 0
    rows_quarantined: int = 0
    fault_invalidations: int = 0
    fault_movements: int = 0
    demoted_requests: int = 0

    @property
    def penalty_ns(self) -> float:
        return self.crc_retry_ns + self.degraded_link_extra_ns

    def __add__(self, other: "FaultReport") -> "FaultReport":
        merged = FaultReport(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
                if f.name != "min_lanes"
            }
        )
        # 0 means "unset" (a default-constructed report whose run never
        # touched the link); min() over it would claim a full link loss.
        observed = [v for v in (self.min_lanes, other.min_lanes) if v > 0]
        merged.min_lanes = min(observed) if observed else 0
        return merged


@dataclass
class SimulationReport:
    """Everything one simulation run produces."""

    policy: str
    workload: str
    runtime_cycles: float
    breakdown: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    hits: HitStats = field(default_factory=HitStats)
    reconfig_movements: int = 0
    reconfig_invalidations: int = 0
    per_epoch_cycles: list[float] = field(default_factory=list)
    faults: FaultReport | None = None
    # Per-epoch observability series; populated only when the engine ran
    # with a live Recorder (None under the default NullRecorder).
    timeline: "Timeline | None" = None
    # Distributional/spatial observability (repro.obs v2); like the
    # timeline, populated only on recorded runs.  ``tier_histograms``
    # maps each serving tier (local/intra/inter/extended) to its latency
    # histogram; ``spatial`` carries per-unit load and the inter-stack
    # link-traffic matrix.
    tier_histograms: "dict[str, LatencyHistogram] | None" = None
    spatial: "SpatialReport | None" = None

    @property
    def load_imbalance(self) -> float | None:
        """Max/mean served requests across units (None when not recorded)."""
        return self.spatial.load_imbalance if self.spatial is not None else None

    @property
    def avg_access_latency_ns(self) -> float:
        n = self.hits.cache_accesses
        return self.breakdown.total_ns / n if n else 0.0

    @property
    def avg_interconnect_ns(self) -> float:
        n = self.hits.cache_accesses
        return self.breakdown.interconnect_ns / n if n else 0.0

    def speedup_over(self, other: "SimulationReport") -> float:
        if self.runtime_cycles <= 0:
            raise ValueError("runtime must be positive to compute speedup")
        return other.runtime_cycles / self.runtime_cycles

    def to_json(self) -> dict:
        """A JSON-able dict that round-trips through :meth:`from_json`.

        Python floats serialize via ``repr`` so every finite value
        round-trips exactly — a disk-cached report is bit-identical to
        the freshly simulated one.  The recording-only fields
        (``timeline``, ``tier_histograms``, ``spatial``) are serialized
        when present; they are ``None`` on every unrecorded run, and
        live-recorder runs bypass the result caches, so a cached report
        never carries them.
        """
        payload = {
            "policy": self.policy,
            "workload": self.workload,
            "runtime_cycles": self.runtime_cycles,
            "breakdown": asdict(self.breakdown),
            "energy": asdict(self.energy),
            "hits": asdict(self.hits),
            "reconfig_movements": self.reconfig_movements,
            "reconfig_invalidations": self.reconfig_invalidations,
            "per_epoch_cycles": list(self.per_epoch_cycles),
            "faults": asdict(self.faults) if self.faults is not None else None,
        }
        if self.timeline is not None:
            payload["timeline"] = [record.to_json() for record in self.timeline]
        if self.tier_histograms is not None:
            payload["tier_histograms"] = {
                tier: hist.to_json() for tier, hist in self.tier_histograms.items()
            }
        if self.spatial is not None:
            payload["spatial"] = self.spatial.to_json()
        return payload

    @classmethod
    def from_json(cls, data: dict) -> "SimulationReport":
        """Rebuild a report previously produced by :meth:`to_json`."""
        timeline = None
        tier_histograms = None
        spatial = None
        if data.get("timeline") is not None:
            from repro.obs.timeline import EpochRecord, Timeline

            timeline = Timeline([EpochRecord.from_json(r) for r in data["timeline"]])
        if data.get("tier_histograms") is not None:
            from repro.obs.histogram import LatencyHistogram

            tier_histograms = {
                tier: LatencyHistogram.from_json(payload)
                for tier, payload in data["tier_histograms"].items()
            }
        if data.get("spatial") is not None:
            from repro.obs.spatial import SpatialReport

            spatial = SpatialReport.from_json(data["spatial"])
        return cls(
            policy=data["policy"],
            workload=data["workload"],
            runtime_cycles=data["runtime_cycles"],
            breakdown=LatencyBreakdown(**data["breakdown"]),
            energy=EnergyBreakdown(**data["energy"]),
            hits=HitStats(**data["hits"]),
            reconfig_movements=data["reconfig_movements"],
            reconfig_invalidations=data["reconfig_invalidations"],
            per_epoch_cycles=list(data["per_epoch_cycles"]),
            faults=FaultReport(**data["faults"]) if data["faults"] else None,
            timeline=timeline,
            tier_histograms=tier_histograms,
            spatial=spatial,
        )
