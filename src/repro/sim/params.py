"""System configuration parameters (the paper's Table II).

Every timing/energy number the simulator uses lives here, grouped into
small dataclasses mirroring the rows of Table II: the NDP memory devices
(HBM3-style and HMC2-style), the DDR5-backed extended memory, the
intra-/inter-stack interconnect, the CXL link, and the NDP core with its
SRAM caches.

Two preset families are provided:

* ``paper_hbm()`` / ``paper_hmc()`` — the configurations of Table II
  (8 stacks x 16 units, 256 MB per unit, 2 GHz in-order cores).
* ``small()`` / ``tiny()`` — proportionally scaled-down presets used by the
  tests and benchmarks so trace-driven simulation finishes quickly.  The
  *ratios* that drive the paper's conclusions (interconnect vs. DRAM
  latency, NDP cache vs. workload footprint) are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

CACHELINE_BYTES = 64


@dataclass(frozen=True)
class DramTiming:
    """DRAM device timing/energy: RCD-CAS-RP cycles at a device frequency."""

    name: str
    freq_mhz: float
    t_rcd: int
    t_cas: int
    t_rp: int
    rd_wr_pj_per_bit: float
    act_pre_nj: float
    row_bytes: int = 2 * KB
    banks: int = 16

    def __post_init__(self) -> None:
        if self.freq_mhz <= 0:
            raise ValueError(f"{self.name}: freq_mhz must be positive")
        if self.t_rcd < 0 or self.t_cas < 0 or self.t_rp < 0:
            raise ValueError(f"{self.name}: DRAM timings cannot be negative")
        if self.row_bytes <= 0 or self.banks <= 0:
            raise ValueError(f"{self.name}: row_bytes and banks must be positive")
        if self.rd_wr_pj_per_bit < 0 or self.act_pre_nj < 0:
            raise ValueError(f"{self.name}: DRAM energies cannot be negative")

    def cycles_to_ns(self, cycles: int) -> float:
        return cycles * 1000.0 / self.freq_mhz

    @property
    def row_hit_ns(self) -> float:
        """Open-row access: CAS only."""
        return self.cycles_to_ns(self.t_cas)

    @property
    def row_miss_ns(self) -> float:
        """Closed/conflicting row: precharge + activate + CAS."""
        return self.cycles_to_ns(self.t_rp + self.t_rcd + self.t_cas)

    def access_energy_nj(self, bytes_moved: int, row_miss: bool) -> float:
        energy = bytes_moved * 8 * self.rd_wr_pj_per_bit / 1000.0
        if row_miss:
            energy += self.act_pre_nj
        return energy


HBM3 = DramTiming(
    name="hbm3",
    freq_mhz=1600.0,
    t_rcd=24,
    t_cas=24,
    t_rp=24,
    rd_wr_pj_per_bit=1.7,
    act_pre_nj=0.6,
)

HMC2 = DramTiming(
    name="hmc2",
    freq_mhz=1250.0,
    t_rcd=14,
    t_cas=14,
    t_rp=14,
    rd_wr_pj_per_bit=1.7,
    act_pre_nj=0.6,
)

DDR5_4800 = DramTiming(
    name="ddr5-4800",
    freq_mhz=2400.0,
    t_rcd=40,
    t_cas=40,
    t_rp=40,
    rd_wr_pj_per_bit=3.2,
    act_pre_nj=3.3,
    row_bytes=8 * KB,
    banks=16,
)


@dataclass(frozen=True)
class NocParams:
    """Intra-stack mesh and inter-stack link parameters (Table II)."""

    intra_hop_ns: float = 1.5
    inter_hop_ns: float = 10.0
    intra_pj_per_bit: float = 0.4
    inter_pj_per_bit: float = 4.0
    inter_bw_gbps: float = 32.0
    link_bits: int = 128

    def __post_init__(self) -> None:
        if self.intra_hop_ns < 0 or self.inter_hop_ns < 0:
            raise ValueError("NoC hop latencies cannot be negative")
        if self.intra_pj_per_bit < 0 or self.inter_pj_per_bit < 0:
            raise ValueError("NoC energies cannot be negative")
        if self.inter_bw_gbps <= 0 or self.link_bits <= 0:
            raise ValueError("NoC bandwidth and link width must be positive")


@dataclass(frozen=True)
class CxlParams:
    """CXL.mem link: 16-lane, 200 ns link latency, 11.4 pJ/bit."""

    link_ns: float = 200.0
    pj_per_bit: float = 11.4
    lanes: int = 16
    channels: int = 4
    ranks: int = 2

    def __post_init__(self) -> None:
        if self.lanes <= 0 or self.channels <= 0 or self.ranks <= 0:
            raise ValueError("CXL lanes/channels/ranks must be positive")
        if self.link_ns < 0 or self.pj_per_bit < 0:
            raise ValueError("CXL latency and energy cannot be negative")


@dataclass(frozen=True)
class SramCacheParams:
    """A set-associative SRAM cache (L1I/L1D of an NDP core)."""

    size_bytes: int
    ways: int
    line_bytes: int = CACHELINE_BYTES
    hit_ns: float = 0.5  # 1 cycle at 2 GHz

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("SRAM cache size/ways/line must be positive")
        if self.hit_ns < 0:
            raise ValueError("SRAM hit latency cannot be negative")
        if self.size_bytes // self.line_bytes < self.ways:
            raise ValueError("SRAM cache needs at least one set (lines >= ways)")

    @property
    def lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def sets(self) -> int:
        return self.lines // self.ways


@dataclass(frozen=True)
class CoreParams:
    """NDP core: 2 GHz in-order, with L1I/L1D from Table II."""

    freq_ghz: float = 2.0
    l1i: SramCacheParams = field(
        default_factory=lambda: SramCacheParams(size_bytes=32 * KB, ways=2)
    )
    l1d: SramCacheParams = field(
        default_factory=lambda: SramCacheParams(size_bytes=64 * KB, ways=4)
    )

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ValueError("core frequency must be positive")

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class StreamCacheParams:
    """NDPExt hardware structure parameters (Sections IV and V-A)."""

    slb_entries: int = 32
    slb_hit_ns: float = 1.0
    slb_refill_ns: float = 300.0  # host round-trip over PCIe to refill
    affine_block_bytes: int = 1 * KB
    affine_space_bytes: int = 16 * MB  # per-unit cap so ATA tags fit on-chip
    indirect_ways: int = 1  # direct-mapped in-DRAM tags
    samplers_per_unit: int = 4
    sampler_sets: int = 32  # k
    sampler_points: int = 64  # c, geometric capacity cases
    sampler_min_bytes: int = 32 * KB
    max_streams: int = 512
    max_groups: int = 64

    def __post_init__(self) -> None:
        if self.sampler_sets < 1:
            raise ValueError(f"sampler_sets must be >= 1, got {self.sampler_sets}")


@dataclass(frozen=True)
class SystemConfig:
    """Complete system description used by the trace-driven engine."""

    name: str
    stacks_x: int
    stacks_y: int
    mesh_x: int
    mesh_y: int
    unit_cache_bytes: int
    memory_style: str  # "hbm" (crossbar per stack) or "hmc" (per-vault mesh)
    ndp_dram: DramTiming
    ext_dram: DramTiming = DDR5_4800
    noc: NocParams = field(default_factory=NocParams)
    cxl: CxlParams = field(default_factory=CxlParams)
    core: CoreParams = field(default_factory=CoreParams)
    stream: StreamCacheParams = field(default_factory=StreamCacheParams)
    epoch_accesses: int = 50_000
    metadata_cache_bytes: int = 128 * KB  # for the NUCA baselines
    # Memory-level parallelism exposed by indirect-stream prefetching
    # (addr = s[i] with the index stream known ahead [74]).  NDP systems
    # run stream-annotated code and overlap some gather latency; the
    # non-NDP host baseline has no stream engine and sets this to 1.
    indirect_mlp: float = 2.0

    def __post_init__(self) -> None:
        if self.memory_style not in ("hbm", "hmc"):
            raise ValueError(f"unknown memory style {self.memory_style!r}")
        if self.stacks_x < 1 or self.stacks_y < 1:
            raise ValueError("need at least one stack")
        if self.mesh_x < 1 or self.mesh_y < 1:
            raise ValueError("need at least one unit per stack")

    @property
    def n_stacks(self) -> int:
        return self.stacks_x * self.stacks_y

    @property
    def units_per_stack(self) -> int:
        return self.mesh_x * self.mesh_y

    @property
    def n_units(self) -> int:
        return self.n_stacks * self.units_per_stack

    @property
    def n_cores(self) -> int:
        """One NDP core per unit."""
        return self.n_units

    @property
    def total_cache_bytes(self) -> int:
        return self.n_units * self.unit_cache_bytes

    @property
    def rows_per_unit(self) -> int:
        return self.unit_cache_bytes // self.ndp_dram.row_bytes

    def scaled(self, **overrides) -> "SystemConfig":
        """A copy with selected fields replaced."""
        return replace(self, **overrides)


def paper_hbm() -> SystemConfig:
    """Table II HBM-style system: 4x2 stacks, 16 units each, 256 MB/unit."""
    return SystemConfig(
        name="paper-hbm",
        stacks_x=4,
        stacks_y=2,
        mesh_x=4,
        mesh_y=4,
        unit_cache_bytes=256 * MB,
        memory_style="hbm",
        ndp_dram=HBM3,
        epoch_accesses=1_000_000,
    )


def paper_hmc() -> SystemConfig:
    """Table II HMC-style system (per-vault NUCA nodes)."""
    return SystemConfig(
        name="paper-hmc",
        stacks_x=4,
        stacks_y=2,
        mesh_x=4,
        mesh_y=4,
        unit_cache_bytes=256 * MB,
        memory_style="hmc",
        ndp_dram=HMC2,
        epoch_accesses=1_000_000,
    )


def small(memory_style: str = "hbm") -> SystemConfig:
    """Scaled-down system for fast simulation: 2x2 stacks, 2x2 units.

    Calibrated against the default :data:`repro.workloads.SMALL` workload
    scale (~2 MB footprint, 320k accesses): the 1 MB total cache sits at
    roughly half the footprint — the same pressure regime as the paper's
    16 GB NDP memory against larger footprints — and each data element is
    touched a handful of times so reuse is observable in the trace.
    """
    dram = HBM3 if memory_style == "hbm" else HMC2
    return SystemConfig(
        name=f"small-{memory_style}",
        stacks_x=2,
        stacks_y=2,
        mesh_x=2,
        mesh_y=2,
        unit_cache_bytes=64 * KB,
        memory_style=memory_style,
        ndp_dram=dram,
        core=CoreParams(
            l1i=SramCacheParams(size_bytes=2 * KB, ways=2),
            l1d=SramCacheParams(size_bytes=4 * KB, ways=4),
        ),
        # One DDR channel keeps the paper's cores-per-channel pressure
        # (128 cores / 4 channels) at the scaled-down core count.
        cxl=CxlParams(channels=1),
        stream=StreamCacheParams(
            affine_space_bytes=16 * KB,
            sampler_points=16,
            # Short scaled-down epochs see ~1000x fewer accesses than the
            # paper's 50M-cycle epochs; more sample sets keep the curve
            # noise at a comparable level.
            sampler_sets=256,
            sampler_min_bytes=2 * KB,
        ),
        epoch_accesses=40_000,
        metadata_cache_bytes=2 * KB,
    )


def medium(memory_style: str = "hbm") -> SystemConfig:
    """Between ``small`` and paper scale: 4x2 stacks of 2x2 units
    (32 units), for scalability studies that want paper-like distances
    without paper-like runtimes.  Pair with a WorkloadScale of 32 cores
    and ~2x the SMALL footprint."""
    dram = HBM3 if memory_style == "hbm" else HMC2
    return SystemConfig(
        name=f"medium-{memory_style}",
        stacks_x=4,
        stacks_y=2,
        mesh_x=2,
        mesh_y=2,
        unit_cache_bytes=64 * KB,
        memory_style=memory_style,
        ndp_dram=dram,
        core=CoreParams(
            l1i=SramCacheParams(size_bytes=2 * KB, ways=2),
            l1d=SramCacheParams(size_bytes=4 * KB, ways=4),
        ),
        cxl=CxlParams(channels=1),
        stream=StreamCacheParams(
            affine_space_bytes=16 * KB,
            sampler_points=16,
            sampler_sets=256,
            sampler_min_bytes=2 * KB,
        ),
        epoch_accesses=60_000,
        metadata_cache_bytes=2 * KB,
    )


def tiny(memory_style: str = "hbm") -> SystemConfig:
    """Minimal system for unit tests: one stack of 2x2 units."""
    dram = HBM3 if memory_style == "hbm" else HMC2
    return SystemConfig(
        name=f"tiny-{memory_style}",
        stacks_x=1,
        stacks_y=1,
        mesh_x=2,
        mesh_y=2,
        unit_cache_bytes=16 * KB,
        memory_style=memory_style,
        ndp_dram=dram,
        core=CoreParams(
            l1i=SramCacheParams(size_bytes=1 * KB, ways=2),
            l1d=SramCacheParams(size_bytes=2 * KB, ways=4),
        ),
        cxl=CxlParams(channels=1),
        stream=StreamCacheParams(
            affine_space_bytes=8 * KB,
            sampler_points=8,
            sampler_sets=256,
            sampler_min_bytes=1 * KB,
        ),
        epoch_accesses=4_000,
        metadata_cache_bytes=512,
    )
