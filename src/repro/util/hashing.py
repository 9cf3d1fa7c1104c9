"""Deterministic integer hashing used throughout the simulator.

The hardware in the paper uses hash functions to spread stream elements
across the cache space of a replication group (Section IV-B) and to pick
the DRAM set for indirect streams (Section IV-C).  The simulator needs the
same property — a cheap, well-mixing, *stateless* map from an integer key
to a bucket — so that every component (stream cache, samplers, consistent
hashing) agrees on where an element lives.

We use the finalizer from SplitMix64, a standard 64-bit avalanche mix.
All helpers are pure functions of their arguments so results are stable
across runs and processes (no reliance on Python's randomized ``hash``).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# SplitMix64 finalizer constants.
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(key: int) -> int:
    """Avalanche-mix a 64-bit integer key (SplitMix64 finalizer)."""
    z = (key + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def bucket(key: int, buckets: int, salt: int = 0) -> int:
    """Map ``key`` to one of ``buckets`` slots, uniformly.

    ``salt`` decorrelates independent uses of the same key space (e.g. the
    unit-selection hash vs. the row-selection hash for the same element).
    """
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    if salt:
        key ^= mix64(salt)
    return mix64(key) % buckets


def mix64_array(keys: np.ndarray, salt: int = 0) -> np.ndarray:
    """Vectorised :func:`mix64` over a uint64 array."""
    z = keys.astype(np.uint64, copy=True)
    if salt:
        z ^= np.uint64(mix64(salt))
    return mix64_inplace(z)


def mix64_inplace(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` applied to a uint64 array in place; returns ``z``."""
    z += np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def bucket_array(keys: np.ndarray, buckets: int, salt: int = 0) -> np.ndarray:
    """Vectorised :func:`bucket`: map each key to one of ``buckets`` slots."""
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    return (mix64_array(keys, salt) % np.uint64(buckets)).astype(np.int64)


def weighted_bucket(key: int, weights: list[int], salt: int = 0) -> int:
    """Pick a bucket with probability proportional to integer ``weights``.

    Used to spread stream elements across the units of a replication group
    in proportion to each unit's allocated share (RShares).  Buckets with
    zero weight are never selected.
    """
    total = sum(weights)
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    point = bucket(key, total, salt)
    for index, weight in enumerate(weights):
        if point < weight:
            return index
        point -= weight
    raise AssertionError("unreachable: point exceeded total weight")


def weighted_bucket_array(
    keys: np.ndarray, weights: np.ndarray, salt: int = 0
) -> np.ndarray:
    """Vectorised :func:`weighted_bucket` over a key array."""
    weights = np.asarray(weights, dtype=np.int64)
    total = int(weights.sum())
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    points = (mix64_array(keys, salt) % np.uint64(total)).astype(np.int64)
    boundaries = np.cumsum(weights)
    return np.searchsorted(boundaries, points, side="right")
