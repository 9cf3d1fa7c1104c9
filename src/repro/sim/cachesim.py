"""Vectorised cache-simulation primitives.

Trace-driven simulation in Python is only practical if the per-access work
is done in numpy.  This module provides the three primitives every cache
level in the simulator is built from:

* :func:`direct_mapped_hits` — exact direct-mapped hit/miss over a slot/tag
  trace (the NDPExt indirect stream cache, the baselines' DRAM cache, the
  metadata caches, and the miss-curve samplers are all direct-mapped or
  hashed-set structures).
* :func:`set_assoc_hits` — W-way set-associative hit/miss with FIFO-in-set
  replacement (an accurate stand-in for LRU at the DRAM-cache level, used
  for the associativity ablation of Fig. 9(a)).
* :func:`recency_hits` — fully-associative LRU approximated by an access
  window (used to filter traces through the small L1 SRAM caches).

All three are exact functional simulations of their stated policy — the
approximation relative to the paper is only in the choice of policy
(FIFO-in-set vs. true LRU, window vs. true stack distance), which is a
standard low-cost substitution documented in DESIGN.md.

The exact scans live in :mod:`repro.sim.kernels`: this module validates
its inputs and calls the kernels through that module.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .kernels import stable_argsort


def direct_mapped_hits(slots: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Exact direct-mapped cache simulation.

    ``slots[i]`` is the cache slot access i maps to and ``tags[i]`` the tag
    stored there when it is resident.  An access hits iff the most recent
    access to the same slot carried the same tag.  The cache starts cold.
    """
    slots = np.asarray(slots)
    tags = np.asarray(tags)
    if slots.shape != tags.shape:
        raise ValueError("slots and tags must have the same shape")
    return kernels.direct_mapped_hits(slots, tags)


def set_assoc_hits(sets: np.ndarray, tags: np.ndarray, ways: int) -> np.ndarray:
    """W-way set-associative simulation with run-recency replacement.

    An access hits iff its tag matches one of the last ``ways`` *tag runs*
    in its set (consecutive accesses with the same tag form one run).
    This recency policy is bounded between direct-mapped (ways=1, where it
    is exact) and true LRU: it can only under-report hits relative to LRU
    when more than ``ways`` runs ping-pong between fewer than ``ways``
    distinct tags, and hit counts are monotonically non-decreasing in
    ``ways`` — the property the Fig. 9(a) associativity ablation needs.
    """
    if ways < 1:
        raise ValueError(f"ways must be >= 1, got {ways}")
    sets = np.asarray(sets)
    tags = np.asarray(tags)
    if sets.shape != tags.shape:
        raise ValueError("sets and tags must have the same shape")
    n = len(sets)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if ways == 1:
        return direct_mapped_hits(sets, tags)

    order = stable_argsort(sets)
    s_set = sets[order]
    s_tag = tags[order]

    same_set = np.empty(n, dtype=bool)
    same_set[0] = False
    same_set[1:] = s_set[1:] == s_set[:-1]

    # An access is an *insertion point* if it differs from the immediately
    # preceding access of the same set (or is the first).  Re-references of
    # the currently-most-recent tag neither insert nor evict under FIFO.
    is_insert = np.empty(n, dtype=bool)
    is_insert[0] = True
    is_insert[1:] = ~same_set[1:] | (s_tag[1:] != s_tag[:-1])

    # Position of each access among the insertions of its set.
    insert_rank = np.cumsum(is_insert) - 1  # global insertion index
    # Hit if tag equals one of the previous `ways` insertions in this set.
    hits_sorted = np.zeros(n, dtype=bool)
    insert_positions = np.flatnonzero(is_insert)
    ins_set = s_set[insert_positions]
    ins_tag = s_tag[insert_positions]
    for back in range(1, ways + 1):
        cand_rank = insert_rank - back + (~is_insert).astype(np.int64)
        # For insertion accesses we look `back` insertions behind; for
        # re-reference accesses, the most recent insertion is their own tag
        # (already matched at back offset adjusted by +1 above).
        valid = cand_rank >= 0
        cand = np.zeros(n, dtype=np.int64)
        cand[valid] = cand_rank[valid]
        match = (
            valid
            & (ins_set[cand] == s_set)
            & (ins_tag[cand] == s_tag)
        )
        hits_sorted |= match

    # The very first insertion into a set can never hit.
    first_of_set = ~same_set
    hits_sorted &= ~(first_of_set & is_insert)

    hits = np.empty(n, dtype=bool)
    hits[order] = hits_sorted
    return hits


def recency_hits(keys: np.ndarray, window: int) -> np.ndarray:
    """Window-LRU: an access hits iff the same key occurred within the last
    ``window`` accesses.

    This approximates a fully-associative LRU cache of ``window / d``
    lines, where ``d`` is the trace's average re-reference multiplicity.
    We use it to filter traces through the L1s; the engine picks the
    window from the cache's line count (see :mod:`repro.sim.sram_cache`).
    """
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    keys = np.asarray(keys)
    n = len(keys)
    if n == 0 or window == 0:
        return np.zeros(n, dtype=bool)
    # Window-LRU is grouped window-LRU with every access in one group.
    return kernels.window_hits_grouped(
        keys, np.zeros(n, dtype=np.int64), window
    )


def recency_hits_grouped(
    keys: np.ndarray,
    groups: np.ndarray,
    window: int,
    order: np.ndarray | None = None,
) -> np.ndarray:
    """Per-group window-LRU in one vectorised pass.

    Equivalent to running :func:`recency_hits` independently over each
    group's subsequence (in trace order) and scattering the results back
    — the L1-filter case, where every core owns a private cache and the
    window counts only that core's accesses.  Bit-identical to the
    per-group loop by construction: the stable group sort keeps each
    group's accesses contiguous and in trace order, so positional
    distances inside a segment equal the group-local distances, and the
    (group, key) composite never matches across groups.

    ``order`` optionally supplies the stable sort permutation by
    ``groups`` (``np.argsort(groups, kind="stable")``), letting callers
    that batch many epochs amortise the sort.
    """
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    keys = np.asarray(keys)
    groups = np.asarray(groups)
    if keys.shape != groups.shape:
        raise ValueError("keys and groups must have the same shape")
    return kernels.window_hits_grouped(keys, groups, window, order=order)


def cold_miss_count(keys: np.ndarray) -> int:
    """Number of distinct keys (compulsory misses) in a trace."""
    return int(len(np.unique(np.asarray(keys))))
