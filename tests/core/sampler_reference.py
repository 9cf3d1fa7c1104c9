"""Reference copy of the set-sampled miss-curve primitive as it was
before every group of an epoch was sampled in one batched pass.

Kept verbatim — one call per group, every access mapped into all
capacity cases with a broadcast ``%``, one ``direct_mapped_hits`` scan
— as the oracle that ``test_sampler_oracle.py`` compares
:func:`repro.core.sampler.sample_curves` against, curve for curve.  Do
not optimise this file.
"""

from __future__ import annotations

import numpy as np

from repro.core.sampler import SamplerParams
from repro.sim.cachesim import direct_mapped_hits
from repro.util.curves import MissCurve
from repro.util.hashing import mix64_array


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
