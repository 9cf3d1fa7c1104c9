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
sample sets, runs a direct-mapped simulation on them, and scales.  As in
the hardware, where every sampler runs in parallel during the epoch, one
call (:func:`sample_curves`) measures every watched stream or partition
of an epoch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.stream import StreamConfig
from repro.sim.kernels import stable_argsort
from repro.util.curves import CurveTable, geometric_capacities
from repro.util.hashing import mix64_array

SAMPLER_SET_BYTES = 4  # stored address per sample set

# Sampled accesses are sorted and scanned in batches of whole capacity
# cases holding about this many accesses, so the full-size temporaries
# stay a few MB however many groups an epoch samples.
_SCAN_BATCH = 1 << 18


@dataclass(frozen=True)
class SamplerParams:
    """Hardware sampler configuration."""

    sample_sets: int = 32  # k
    capacity_points: int = 64  # c
    min_capacity: int = 32 * 1024
    max_capacity: int = 256 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.sample_sets < 1:
            raise ValueError(f"sample_sets must be >= 1, got {self.sample_sets}")
        # Reject a bad capacity range here rather than at first use.
        self.capacities()

    @property
    def storage_bytes(self) -> int:
        """Per-sampler SRAM: k x c x 4 B (8 kB at paper scale)."""
        return self.sample_sets * self.capacity_points * SAMPLER_SET_BYTES

    @classmethod
    def for_system(cls, config) -> "SamplerParams":
        """The samplers of ``config``.  A stream, or one replication copy,
        can grow up to the whole distributed cache, so the cases span
        that range."""
        stream = config.stream
        return cls(
            sample_sets=stream.sampler_sets,
            capacity_points=stream.sampler_points,
            min_capacity=stream.sampler_min_bytes,
            max_capacity=max(stream.sampler_min_bytes * 2, config.total_cache_bytes),
        )

    def capacities(self) -> np.ndarray:
        """The sampled capacity cases.  Computed once per params value and
        shared, so the array is read-only."""
        return _capacities(self)[0]

    def curve_capacities(self) -> np.ndarray:
        """The grid every sampled curve reports: the capacity cases,
        anchored at capacity 1 (read-only, shared)."""
        return _capacities(self)[1]


@functools.lru_cache(maxsize=64)
def _capacities(params: SamplerParams) -> tuple[np.ndarray, np.ndarray]:
    caps = geometric_capacities(
        params.min_capacity, params.max_capacity, params.capacity_points
    )
    # Anchor the curves at (no capacity -> every access misses).  Without
    # this, interpolation below the first measured point would make an
    # unallocated stream look as cheap as a small cache, and the
    # lookahead would starve streams whose first measured point is
    # already low (high block locality).
    grid = np.concatenate([[1], caps]) if caps[0] > 1 else caps.copy()
    caps.flags.writeable = False
    grid.flags.writeable = False
    return caps, grid


def stream_tags(
    stream: StreamConfig, element_ids: np.ndarray, granularity: int
) -> np.ndarray:
    """Caching-granularity tag of each access to ``stream``: affine
    streams are cached in blocks, indirect ones per element, and the
    sampler tracks sets at the caching granularity."""
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    element_ids = np.asarray(element_ids, dtype=np.int64)
    if granularity <= stream.elem_size:
        return element_ids
    return element_ids // (granularity // stream.elem_size)


def sample_curves(
    groups: np.ndarray,
    tags: np.ndarray,
    granularities,
    params: SamplerParams,
) -> CurveTable:
    """Set-sampled direct-mapped miss curves of many groups in one pass.

    Access ``i`` belongs to group ``groups[i]`` and carries tag
    ``tags[i]``; group ``g`` caches ``granularities[g]``-byte tags.
    Row ``g`` of the returned table is what a sampler watching only
    group ``g``'s accesses, in trace order, measures.  In capacity case
    ``c`` with ``N = max(1, capacity // granularity)`` sets, a tag maps
    to set ``mix64(tag, salt=1) % N``, and only the sets ``s`` with
    ``s % T == 0``, ``T = max(1, N // k)``, are simulated.  Each sampled
    set is a direct-mapped slot: an access misses unless the previous
    access to its slot carried the same tag.  Misses scale by ``N`` over
    the number of sampled sets.  The curve is anchored at capacity 1,
    where every access misses (:meth:`SamplerParams.curve_capacities`),
    and made non-increasing.

    The set mapping depends only on the tag, so it runs once per distinct
    (group, tag) pair, not once per access.  The sampled accesses of
    every (group, case) cell are then simulated together: each gets the
    key ``(cell, sampled set, trace position)``, one sort brings every
    slot's accesses together in trace order, and an access hits when its
    neighbour has the same slot and tag.
    """
    groups = np.asarray(groups, dtype=np.int64)
    tags = np.asarray(tags, dtype=np.int64)
    granularities = np.asarray(granularities, dtype=np.int64)
    if groups.shape != tags.shape:
        raise ValueError("groups and tags must have the same shape")
    if np.any(granularities <= 0):
        raise ValueError("granularity must be positive")
    n_groups = len(granularities)
    if len(groups) and (groups.min() < 0 or groups.max() >= n_groups):
        raise ValueError("group ids must index granularities")
    capacities = params.capacities()
    n_sets = np.maximum(1, capacities[None, :] // granularities[:, None])
    steps = np.maximum(1, n_sets // params.sample_sets)
    n_sampled = (n_sets + steps - 1) // steps
    counts = _sampled_misses(groups, tags, granularities, n_sets, steps, n_sampled)
    misses = counts * (n_sets / n_sampled)
    grid = params.curve_capacities()
    if len(grid) > len(capacities):
        accesses = np.bincount(groups, minlength=n_groups).astype(np.float64)
        misses = np.concatenate([accesses[:, None], misses], axis=1)
    misses = np.maximum.accumulate(misses[:, ::-1], axis=1)[:, ::-1]
    return CurveTable(grid, range(n_groups), misses)


def _sampled_misses(
    groups: np.ndarray,
    tags: np.ndarray,
    granularities: np.ndarray,
    n_sets: np.ndarray,
    steps: np.ndarray,
    n_sampled: np.ndarray,
) -> np.ndarray:
    """Unscaled sampled misses of every (group, capacity case) cell."""
    n = len(tags)
    n_groups, n_cases = n_sets.shape
    if n == 0:
        return np.zeros((n_groups, n_cases), dtype=np.int64)
    set_bits = int(n_sampled.max() - 1).bit_length()
    pos_bits = (n - 1).bit_length()
    cell_bits = (n_groups * n_cases - 1).bit_length()
    if cell_bits + set_bits + pos_bits > 64:
        # The (cell, sampled set, position) key does not fit: split the
        # groups, whose curves are independent.
        if n_groups == 1:
            raise ValueError("sampler key does not fit in 64 bits")
        half = n_groups // 2
        low = groups < half
        parts = [
            (groups[low], tags[low], slice(None, half)),
            (groups[~low] - half, tags[~low], slice(half, None)),
        ]
        return np.concatenate(
            [
                _sampled_misses(g, t, granularities[r], n_sets[r], steps[r], n_sampled[r])
                for g, t, r in parts
            ]
        )

    # Distinct (group, tag) pairs.  One stable sort of a packed composite
    # lists each pair's accesses contiguously and in trace order: pair p
    # owns order[starts[p] : starts[p + 1]].  Groups are ranked by
    # granularity first, so each granularity's pairs, and their accesses
    # in ``order``, are contiguous too.
    by_granularity = np.argsort(granularities, kind="stable")
    rank = np.empty(n_groups, dtype=np.int64)
    rank[by_granularity] = np.arange(n_groups)
    tmin = int(tags.min())
    tag_bits = (int(tags.max()) - tmin).bit_length()
    if tag_bits + (n_groups - 1).bit_length() <= 63:
        pair_key = (rank[groups] << tag_bits) | (tags - tmin)
    else:
        distinct, dense = np.unique(tags, return_inverse=True)
        pair_key = rank[groups] * len(distinct) + dense
    order = stable_argsort(pair_key)
    sorted_key = pair_key[order]
    new_pair = np.empty(n, dtype=bool)
    new_pair[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_pair[1:])
    del pair_key, sorted_key
    starts = np.append(np.flatnonzero(new_pair), n)
    lengths = np.diff(starts)
    pair_of = np.empty(n, dtype=np.int32 if len(lengths) < 2**31 else np.int64)
    pair_of[order] = np.cumsum(new_pair) - 1
    del new_pair
    pair_group = groups[order[starts[:-1]]]
    hashed = mix64_array(tags[order[starts[:-1]]].astype(np.uint64), salt=1)
    positions = order.view(np.uint64)

    misses = np.zeros(n_groups * n_cases, dtype=np.int64)
    pending: list[np.ndarray] = []
    pending_keys = 0
    pair_granularity = granularities[pair_group]
    bounds = np.flatnonzero(np.diff(pair_granularity)) + 1
    for lo, hi in zip(np.append(0, bounds), np.append(bounds, len(lengths))):
        row = int(pair_group[lo])
        h = hashed[lo:hi]
        first_cell = pair_group[lo:hi].astype(np.uint64) * np.uint64(n_cases)
        run_lengths = lengths[lo:hi]
        run_starts = starts[lo:hi]
        for case in range(n_cases):
            # h % N and s % T == 0 through floor division by a scalar,
            # which numpy runs as a multiply-shift (libdivide); ``%`` on
            # uint64 is a hardware divide per element, ~6x slower.
            size = np.uint64(n_sets[row, case])
            step = np.uint64(steps[row, case])
            sets = h - h // size * size
            if step == 1:
                # Every set is sampled: the granularity's whole CSR.
                slots = ((first_cell + np.uint64(case)) << np.uint64(set_bits)) | sets
                keys = np.repeat(slots << np.uint64(pos_bits), run_lengths)
                keys |= positions[starts[lo] : starts[hi]]
            else:
                sampled_set = sets // step
                hit = np.flatnonzero(sampled_set * step == sets)
                if not len(hit):
                    continue
                slots = (
                    (first_cell[hit] + np.uint64(case)) << np.uint64(set_bits)
                ) | sampled_set[hit]
                sampled_lengths = run_lengths[hit]
                keys = np.repeat(slots << np.uint64(pos_bits), sampled_lengths)
                # Each sampled pair's run of the CSR, pair by pair.
                index = np.repeat(
                    run_starts[hit] - (np.cumsum(sampled_lengths) - sampled_lengths),
                    sampled_lengths,
                )
                index += np.arange(len(index))
                keys |= positions[index]
            pending.append(keys)
            pending_keys += len(keys)
            if pending_keys >= _SCAN_BATCH:
                _count_misses(pending, pair_of, pos_bits, set_bits, misses)
                pending, pending_keys = [], 0
    if pending:
        _count_misses(pending, pair_of, pos_bits, set_bits, misses)
    return misses.reshape(n_groups, n_cases)


def _count_misses(
    pending: list[np.ndarray],
    pair_of: np.ndarray,
    pos_bits: int,
    set_bits: int,
    misses: np.ndarray,
) -> None:
    """Direct-mapped simulation of a batch of ``(slot, trace position)``
    keys, a slot being ``cell << set_bits | sampled set``: adds each
    cell's misses to ``misses``."""
    keys = np.concatenate(pending)
    keys.sort()
    pair_at = np.take(pair_of, (keys & np.uint64((1 << pos_bits) - 1)).view(np.int64))
    keys >>= np.uint64(pos_bits)
    # An access misses unless the previous access to its slot, its
    # neighbour in the sorted keys, was to the same (group, tag) pair.
    miss = np.empty(len(keys), dtype=bool)
    miss[0] = True
    np.not_equal(keys[1:], keys[:-1], out=miss[1:])
    miss[1:] |= pair_at[1:] != pair_at[:-1]
    cells = keys[miss] >> np.uint64(set_bits)
    misses += np.bincount(cells.view(np.int64), minlength=len(misses))


class MissCurveSampler:
    """One epoch's hardware samplers: every watched stream or partition,
    observed in one pass."""

    def __init__(self, params: SamplerParams) -> None:
        self.params = params

    def observe(
        self, groups: np.ndarray, tags: np.ndarray, granularities
    ) -> CurveTable:
        """Sample one epoch's accesses; returns each group's scaled miss
        curve as row ``g`` of a table (see :func:`sample_curves`)."""
        return sample_curves(groups, tags, granularities, self.params)
