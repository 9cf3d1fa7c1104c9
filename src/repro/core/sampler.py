"""Set-based miss-curve samplers (Section V-A).

NDPExt's DRAM cache is direct-mapped/low-associativity and partitioned
along *sets*, so way-based utility monitors don't apply: set partitioning
lacks the stack property.  Instead, each hardware sampler watches one
stream and simultaneously simulates ``c`` capacity cases (geometrically
spaced, 32 kB..256 MB at paper scale with step 1.16); for each case it
tracks only ``k = 32`` sample sets chosen by static interleaving, and the
measured misses scale by the sampled fraction (the K/k scaling of [6],
[63]).

The simulator reproduces this exactly: for each capacity case it hashes
elements to that case's set space, keeps only the statically interleaved
sample sets, runs a direct-mapped simulation on them, and scales.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.stream import StreamConfig
from repro.sim.cachesim import direct_mapped_hits
from repro.util.curves import MissCurve, geometric_capacities
from repro.util.hashing import mix64_array

SAMPLER_SET_BYTES = 4  # stored address per sample set


@dataclass(frozen=True)
class SamplerParams:
    """Hardware sampler configuration."""

    sample_sets: int = 32  # k
    capacity_points: int = 64  # c
    min_capacity: int = 32 * 1024
    max_capacity: int = 256 * 1024 * 1024

    @property
    def storage_bytes(self) -> int:
        """Per-sampler SRAM: k x c x 4 B (8 kB at paper scale)."""
        return self.sample_sets * self.capacity_points * SAMPLER_SET_BYTES

    def capacities(self) -> np.ndarray:
        """The sampled capacity cases.  Computed once per params value and
        shared, so the array is read-only."""
        return _capacities(self)


@functools.lru_cache(maxsize=64)
def _capacities(params: SamplerParams) -> np.ndarray:
    caps = geometric_capacities(
        params.min_capacity, params.max_capacity, params.capacity_points
    )
    caps.flags.writeable = False
    return caps


def sample_curve(
    tags: np.ndarray, granularity: int, params: SamplerParams
) -> MissCurve:
    """Set-sampled direct-mapped miss curve over an arbitrary tag trace.

    The generic primitive behind :class:`MissCurveSampler`; the NUCA
    baselines use it at cacheline granularity for their utility monitors.

    All capacity cases are simulated in a single fused direct-mapped
    pass: each case's sampled accesses keep their trace order and get a
    disjoint slot range (a per-case cumulative offset), so one keyed
    scan over the concatenation is exactly the per-case loop it
    replaced, and one bincount recovers the per-case miss counts.  The
    SplitMix64 hash of the tags is computed once and remapped per case
    (``bucket_array`` is hash-then-modulo, so only the modulo differs).
    """
    tags = np.asarray(tags, dtype=np.int64)
    capacities = params.capacities()
    k = params.sample_sets
    n_cases = len(capacities)
    n = len(tags)
    misses = np.zeros(n_cases)
    if n:
        hashed = mix64_array(tags.astype(np.uint64), salt=1)
        n_sets = np.maximum(1, capacities // granularity)
        steps = np.maximum(1, n_sets // k)
        n_sampled_sets = (n_sets + steps - 1) // steps
        scales = n_sets / n_sampled_sets
        offsets = np.concatenate(([0], np.cumsum(n_sets)[:-1]))
        slot_blocks: list[np.ndarray] = []
        tag_blocks: list[np.ndarray] = []
        case_blocks: list[np.ndarray] = []
        # Broadcast all capacity cases at once (rows = cases): one modulo
        # maps the shared hash into every case's set space, one compares
        # against the per-case sampling stride.  Row-major boolean
        # selection keeps case-major, trace-ordered layout — exactly the
        # per-case concatenation.  Chunk the rows so the 2-D temporaries
        # stay bounded on paper-scale epochs.
        chunk = max(1, 4_000_000 // n)
        for lo in range(0, n_cases, chunk):
            hi = min(n_cases, lo + chunk)
            sets2d = (
                hashed[None, :] % n_sets[lo:hi, None].astype(np.uint64)
            ).astype(np.int64)
            sampled2d = sets2d % steps[lo:hi, None] == 0
            slot_blocks.append((sets2d + offsets[lo:hi, None])[sampled2d])
            tag_blocks.append(
                np.broadcast_to(tags, sets2d.shape)[sampled2d]
            )
            case_blocks.append(
                np.broadcast_to(
                    np.arange(lo, hi, dtype=np.int64)[:, None], sets2d.shape
                )[sampled2d]
            )
        slots = np.concatenate(slot_blocks)
        if len(slots):
            hits = direct_mapped_hits(slots, np.concatenate(tag_blocks))
            case = np.concatenate(case_blocks)
            counts = np.bincount(case[~hits], minlength=n_cases)
            misses = counts * scales
    # Anchor the curve at (no capacity -> every access misses).  Without
    # this, interpolation below the first measured point would make an
    # unallocated stream look as cheap as a small cache, and the
    # lookahead would starve streams whose first measured point is
    # already low (high block locality).
    if capacities[0] > 1:
        capacities = np.concatenate([[1], capacities])
        misses = np.concatenate([[float(len(tags))], misses])
    return MissCurve(capacities, np.maximum.accumulate(misses[::-1])[::-1])


class MissCurveSampler:
    """Derives the miss curve of one stream from its epoch accesses."""

    def __init__(self, stream: StreamConfig, params: SamplerParams) -> None:
        self.stream = stream
        self.params = params
        # Affine streams are cached in blocks, indirect per element; the
        # sampler tracks sets at the caching granularity.
        self.granularity = stream.elem_size

    def set_granularity(self, granularity_bytes: int) -> None:
        if granularity_bytes <= 0:
            raise ValueError("granularity must be positive")
        self.granularity = granularity_bytes

    def _tags_of(self, element_ids: np.ndarray) -> np.ndarray:
        """Caching-granularity tag for each access."""
        bytes_per_elem = self.stream.elem_size
        if self.granularity <= bytes_per_elem:
            return np.asarray(element_ids, dtype=np.int64)
        elems_per_tag = self.granularity // bytes_per_elem
        return np.asarray(element_ids, dtype=np.int64) // elems_per_tag

    def observe(self, element_ids: np.ndarray) -> MissCurve:
        """Sample one epoch's accesses and return the scaled miss curve."""
        return sample_curve(self._tags_of(element_ids), self.granularity, self.params)

    def exact_curve(self, element_ids: np.ndarray) -> MissCurve:
        """Reference: full (unsampled) direct-mapped miss curve."""
        tags = self._tags_of(element_ids)
        capacities = self.params.capacities()
        misses = np.zeros(len(capacities))
        hashed = mix64_array(tags.astype(np.uint64), salt=1)
        for i, capacity in enumerate(capacities):
            n_sets = max(1, int(capacity) // self.granularity)
            sets = (hashed % np.uint64(n_sets)).astype(np.int64)
            hits = direct_mapped_hits(sets, tags)
            misses[i] = int((~hits).sum())
        return MissCurve(capacities, misses)
