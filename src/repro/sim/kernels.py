"""Fused epoch kernels.

Everything the engine's per-epoch hot loop does that is *exact* — keyed
previous-occurrence scans (direct-mapped tags, DRAM row buffers, the
grouped window-LRU of the L1 filter) and segment reductions (per-core /
per-unit accumulation) — lives here as a small set of numpy kernels.
Keyed scans are one :func:`stable_argsort` plus adjacent-element
compares; segment sums are one ``bincount`` per target array.

Every kernel either returns integers/booleans computed by an exact scan,
or folds float64 addends per segment in input order starting from zero.
A pure-Python reference of the same kernels (dicts and loops) lives with
the tests, ``tests/sim/kernels_reference.py``; the tests compare each
kernel with it and, by patching it into this module, pin that whole
simulations produce the same :class:`~repro.sim.metrics.SimulationReport`
bit for bit.  Callers reach the kernels through the module
(``kernels.direct_mapped_hits(...)``), never a name bound at import time,
so that one patch covers every call site.
"""

from __future__ import annotations

import numpy as np

# Below this many keys numpy's own stable sort beats the composite-key
# path's fixed costs (measured on AVX-512 x86: ~8 µs vs ~10 µs at 512
# keys, ~18 µs vs ~13 µs at 1,024, ~87 µs vs ~21 µs at 2,000).
_SMALL_SORT = 1024


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer (or bool) keys,
    computed with unstable SIMD sorts.

    numpy radix-sorts only keys of 16 bits or fewer; wider integer keys
    get timsort.  Its unstable ``sort`` dispatches to a vectorised
    quicksort instead (x86-simd-sort where the CPU has AVX-512 or AVX2),
    so this packs each key with its index into one unique ``uint64``
    composite ``(key - min) << b | i`` (``b`` = index bits), sorts that
    unstably and masks the index back out.  The composite is unique and
    orders ties by index, so the unstable sort yields the stable order.

    Keys whose range does not leave ``b`` spare bits (hashes, packed set
    ids) are first replaced by their dense ranks, taken from one unstable
    ``argsort``; when every key is distinct that argsort already is the
    stable order.  Inputs under ``_SMALL_SORT`` keys keep numpy's stable
    sort.  Assumes ``len(keys) < 2**32``.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "biu":
        raise TypeError(f"stable_argsort needs integer keys, got {keys.dtype}")
    n = len(keys)
    if n < _SMALL_SORT:
        return np.argsort(keys, kind="stable")
    bits = (n - 1).bit_length()
    kmin = int(keys.min())
    if (int(keys.max()) - kmin).bit_length() + bits <= 64:
        # Modular uint64 arithmetic: exact, since key - min fits.
        composite = keys.astype(np.uint64)
        composite -= np.uint64(kmin % (1 << 64))
        composite <<= np.uint64(bits)
        composite |= np.arange(n, dtype=np.uint64)
    else:
        order = np.argsort(keys)
        sorted_keys = keys[order]
        composite = np.zeros(n, dtype=np.uint64)
        np.cumsum(sorted_keys[1:] != sorted_keys[:-1], out=composite[1:])
        if composite[-1] == n - 1:
            return order
        # Ranks are non-decreasing along ``order``, so these are the same
        # (rank, index) composites in a nearly sorted layout.
        composite <<= np.uint64(bits)
        composite |= order.astype(np.uint64)
    composite.sort()
    composite &= np.uint64((1 << bits) - 1)
    return composite.view(np.int64)


# Elementwise passes over a full-size hash array run in slices of this many
# keys: the temporaries stay in cache and never cost a second full array.
_HASH_CHUNK = 1 << 18


def hash_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for ``uint64`` keys whose high
    bits are nearly all distinct (hashes), in one unstable SIMD sort.

    With ``b`` index bits, the composite ``(key >> b) << b | i`` is unique,
    so one unstable sort orders it by (prefix, index).  That is the stable
    order except inside runs whose ``64 - b``-bit prefixes tie; only those
    elements are re-sorted by (full key, index).  For random keys the
    expected number of ties is about ``n**2 / 2**(65 - b)``: tens on an
    11M-key ring.  Unlike :func:`stable_argsort`'s dense-rank path, no
    full argsort runs, and no temporary beyond the composite (which
    becomes the result) is full-size.  Inputs under ``_SMALL_SORT`` keys
    keep numpy's stable sort.  Assumes ``len(keys) < 2**32``.
    """
    keys = np.asarray(keys)
    if keys.dtype != np.uint64:
        raise TypeError(f"hash_argsort needs uint64 keys, got {keys.dtype}")
    n = len(keys)
    if n < _SMALL_SORT:
        return np.argsort(keys, kind="stable")
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    composite = keys & ~low
    for start in range(0, n, _HASH_CHUNK):
        stop = min(start + _HASH_CHUNK, n)
        composite[start:stop] |= np.arange(start, stop, dtype=np.uint64)
    composite.sort()
    # Position j ties with j - 1 when their prefixes are equal.
    tied = []
    for start in range(1, n, _HASH_CHUNK):
        stop = min(start + _HASH_CHUNK, n)
        same = (composite[start:stop] ^ composite[start - 1 : stop - 1]) <= low
        tied.append(start + np.flatnonzero(same))
    composite &= low
    order = composite.view(np.int64)
    tied = np.concatenate(tied)
    if len(tied):
        # Runs are in prefix order and each is in index order, so one
        # stable sort of every tied element by its full key fixes them all.
        spans = np.union1d(tied - 1, tied)
        members = order[spans]
        order[spans] = members[np.argsort(keys[members], kind="stable")]
    return order


def prev_in_group(
    group: np.ndarray, value: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each access i, the index (in trace order) of the previous
    access in the same ``group``, and that access's ``value``;
    prev_index is -1 for the first access of a group."""
    n = len(group)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # A stable argsort of the group key equals lexsort((arange, group)):
    # within a group, adjacent sorted elements are consecutive accesses.
    order = stable_argsort(group)
    sorted_group = group[order]
    sorted_value = value[order]

    same_group = np.empty(n, dtype=bool)
    same_group[0] = False
    same_group[1:] = sorted_group[1:] == sorted_group[:-1]

    prev_idx_sorted = np.full(n, -1, dtype=np.int64)
    prev_val_sorted = np.zeros(n, dtype=value.dtype)
    prev_idx_sorted[1:][same_group[1:]] = order[:-1][same_group[1:]]
    prev_val_sorted[1:][same_group[1:]] = sorted_value[:-1][same_group[1:]]

    prev_idx = np.empty(n, dtype=np.int64)
    prev_val = np.empty(n, dtype=value.dtype)
    prev_idx[order] = prev_idx_sorted
    prev_val[order] = prev_val_sorted
    return prev_idx, prev_val


def direct_mapped_hits(slots: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Exact direct-mapped simulation: access i hits iff the most
    recent access to the same slot carried the same tag (cold start).
    Fused: in the stable slot sort, "most recent same-slot access" is
    simply the adjacent element, so no prev-index arrays are built."""
    n = len(slots)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = stable_argsort(slots)
    s_slot = slots[order]
    s_tag = tags[order]
    hits_sorted = np.empty(n, dtype=bool)
    hits_sorted[0] = False
    hits_sorted[1:] = (s_slot[1:] == s_slot[:-1]) & (s_tag[1:] == s_tag[:-1])
    hits = np.empty(n, dtype=bool)
    hits[order] = hits_sorted
    return hits


def window_hits_grouped(
    keys: np.ndarray,
    groups: np.ndarray,
    window: int,
    order: np.ndarray | None = None,
) -> np.ndarray:
    """Per-group window-LRU: access i hits iff the same key occurred
    within the last ``window`` accesses *of the same group*.

    ``order`` optionally supplies the stable sort permutation of
    ``groups`` so callers batching many epochs amortise that sort
    (the engine precomputes it trace-wide).
    """
    n = len(keys)
    if n == 0 or window == 0:
        return np.zeros(n, dtype=bool)
    if order is None:
        order = stable_argsort(groups)
    sorted_keys = np.asarray(keys[order], dtype=np.int64)
    sorted_groups = groups[order].astype(np.int64)
    # Positions in the group-sorted view are group-local indices, so
    # positional distance there equals the group-local distance the
    # window is defined over.  The (key, group) composite must be
    # injective; the cheap path packs it into one int64 (group ids in
    # the low bits) so the inner scan is one stable_argsort of a single
    # key.  Only when packing would overflow do we pay a dense re-id
    # via np.unique.
    kmin = np.int64(sorted_keys.min())
    gmax = int(sorted_groups.max())
    shift = max(1, gmax.bit_length())
    kspan = int(sorted_keys.max()) - int(kmin)
    if kmin >= 0 and sorted_groups.min() >= 0 and kspan < (1 << (62 - shift)):
        composite = ((sorted_keys - kmin) << np.int64(shift)) | sorted_groups
    else:
        uniques, dense = np.unique(sorted_keys, return_inverse=True)
        composite = sorted_groups * np.int64(len(uniques)) + dense
    corder = stable_argsort(composite)
    c = composite[corder]
    same = c[1:] == c[:-1]
    prev_pos = np.full(n, -1, dtype=np.int64)
    prev_pos[corder[1:][same]] = corder[:-1][same]
    idx = np.arange(n, dtype=np.int64)
    hits_sorted = (prev_pos >= 0) & (idx - prev_pos <= window)
    hits = np.empty(n, dtype=bool)
    hits[order] = hits_sorted
    return hits


def segment_sum(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sum float64 ``weights`` into ``n`` buckets by ``index``.

    bincount folds addends per bucket in input order starting from
    0.0 — the same operation sequence as an in-order Python loop, so
    the result is bitwise identical to the reference's.  Empty weights
    make bincount return int64 zeros, hence the cast.
    """
    return np.bincount(index, weights=weights, minlength=n).astype(
        np.float64, copy=False
    )


def segment_count(index: np.ndarray, n: int) -> np.ndarray:
    """Occurrences of each bucket id in ``index`` (int64, length n)."""
    return np.bincount(index, minlength=n)
