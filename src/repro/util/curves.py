"""Miss-curve containers and the lookahead slope primitive.

A *miss curve* maps cache capacity to the number of misses a stream would
incur at that capacity.  The paper's samplers (Section V-A) measure the
curve at 64 geometrically spaced capacities; the configuration algorithm
(Section V-C) repeatedly asks for the *steepest slope segment* — the
capacity increment that removes the most misses per byte — which is the
core primitive of the lookahead allocation family [6], [63].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def geometric_capacities(lo: int, hi: int, points: int) -> np.ndarray:
    """Geometrically spaced capacities from ``lo`` to ``hi`` inclusive.

    Mirrors the paper's sampler spacing: 64 points from 32 kB to 256 MB
    gives a per-step multiplicative factor of 1.16 = (256M/32k)^(1/63).
    """
    if points < 2:
        raise ValueError(f"need at least 2 points, got {points}")
    if not 0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    caps = np.geomspace(lo, hi, points)
    return np.unique(np.round(caps).astype(np.int64))


@dataclass
class MissCurve:
    """Misses as a function of capacity for one stream.

    ``capacities`` must be strictly increasing; ``misses`` must be the
    miss *count* observed at each capacity (non-increasing curves are the
    common case, but set-sampled curves can be mildly non-monotonic and we
    accept them as measured).
    """

    capacities: np.ndarray
    misses: np.ndarray

    def __post_init__(self) -> None:
        self.capacities = np.asarray(self.capacities, dtype=np.int64)
        self.misses = np.asarray(self.misses, dtype=np.float64)
        if self.capacities.ndim != 1 or self.capacities.shape != self.misses.shape:
            raise ValueError("capacities and misses must be matching 1-D arrays")
        if len(self.capacities) < 1:
            raise ValueError("a miss curve needs at least one point")
        if np.any(np.diff(self.capacities) <= 0):
            raise ValueError("capacities must be strictly increasing")
        if np.any(self.misses < 0):
            raise ValueError("miss counts cannot be negative")

    def misses_at(self, capacity: float) -> float:
        """Linearly interpolated miss count at ``capacity``.

        Below the first measured point the curve is clamped to the first
        value; beyond the last point it is clamped to the last value
        (capacity beyond the measured range cannot add misses).
        """
        return float(np.interp(capacity, self.capacities, self.misses))

    def monotone(self) -> "MissCurve":
        """Return a copy with misses made non-increasing (running minimum).

        Set sampling lacks the stack property, so measured curves can
        wiggle upward; the configuration algorithm wants the convexified
        utility, for which a monotone curve is the first step.
        """
        return MissCurve(self.capacities, np.minimum.accumulate(self.misses))

    def scaled(self, factor: float) -> "MissCurve":
        """Scale miss counts by ``factor`` (the paper's K/k set scaling)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return MissCurve(self.capacities, self.misses * factor)


def smoothed_curve(fresh: MissCurve, previous: MissCurve | None) -> MissCurve:
    """EWMA (weight 1/2) of a freshly sampled curve against the previous
    one when both cover the same capacities; ``fresh`` otherwise.

    Smoothing damps epoch-to-epoch sampling noise; without it the
    lookahead order flips between epochs and the resulting allocation
    churn costs more than the reconfiguration gains.
    """
    if previous is None or not np.array_equal(
        previous.capacities, fresh.capacities
    ):
        return fresh
    return MissCurve(fresh.capacities, 0.5 * previous.misses + 0.5 * fresh.misses)


@dataclass
class SlopeSegment:
    """One candidate allocation step: spend ``size`` bytes, save ``gain`` misses."""

    stream_id: int
    start_capacity: int
    end_capacity: int
    gain: float

    @property
    def size(self) -> int:
        return self.end_capacity - self.start_capacity

    @property
    def slope(self) -> float:
        """Misses saved per byte — the lookahead utility density."""
        return self.gain / self.size if self.size > 0 else 0.0


@dataclass
class LookaheadState:
    """Tracks per-stream allocated capacity during lookahead allocation.

    Each stream's best extension depends only on its curve and its own
    allocation, so it is cached per stream and recomputed only when one
    of the two changed since it was derived — normally just the stream
    the previous step committed.  Every read revalidates against the
    live ``curves`` / ``allocated`` values, so callers may replace a
    curve or set an allocation directly between calls.
    """

    curves: dict[int, MissCurve]
    allocated: dict[int, int] = field(default_factory=dict)
    # sid -> (allocation, curve, candidate): the candidate derived for
    # that exact allocation and curve object; see _candidate.
    _cache: dict[int, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for sid in self.curves:
            self.allocated.setdefault(sid, 0)

    @staticmethod
    def _candidate(
        curve: MissCurve, current: int
    ) -> tuple[float, int, float] | None:
        """The steepest extension of one stream from ``current``:
        ``(slope, end_capacity, gain)``, or None when no measured point
        past the allocation saves misses."""
        current_misses = curve.misses_at(current)
        # Consider extending to each measured capacity beyond current.
        # One vector pass per curve: candidate slopes for every measured
        # point past the allocation, first-max selection (argmax)
        # matching the strict > of the scalar loop it replaced, so ties
        # keep resolving to the earliest capacity.
        caps = curve.capacities
        gains = current_misses - curve.misses
        candidate = (caps > current) & (gains > 0)
        if not candidate.any():
            return None
        cand_caps = caps[candidate]
        cand_gains = gains[candidate]
        slopes = cand_gains / (cand_caps - current).astype(np.float64)
        j = int(np.argmax(slopes))
        return float(slopes[j]), int(cand_caps[j]), float(cand_gains[j])

    def next_steepest_segment(
        self, exclude: set[int] | None = None
    ) -> SlopeSegment | None:
        """The paper's ``NextSteepestSlopeSeg``: across all streams, find the
        capacity extension with maximum misses-saved-per-byte from the
        stream's current allocation.  Returns None when no stream can save
        any further misses.  Streams in ``exclude`` are skipped (the
        configurator uses this for streams that can no longer get space).
        """
        cache = self._cache
        best_sid = -1
        best: tuple[float, int, float] | None = None
        best_slope = -np.inf
        for sid, curve in self.curves.items():
            if exclude and sid in exclude:
                continue
            current = self.allocated[sid]
            entry = cache.get(sid)
            if entry is None or entry[0] != current or entry[1] is not curve:
                entry = (current, curve, self._candidate(curve, current))
                cache[sid] = entry
            candidate = entry[2]
            # Strict >: across streams, ties resolve to the first stream
            # in dict order.
            if candidate is not None and candidate[0] > best_slope:
                best_sid, best, best_slope = sid, candidate, candidate[0]
        if best is None:
            return None
        return SlopeSegment(best_sid, self.allocated[best_sid], best[1], best[2])

    def commit(self, segment: SlopeSegment) -> None:
        if segment.start_capacity != self.allocated[segment.stream_id]:
            raise ValueError("segment does not extend the current allocation")
        self.allocated[segment.stream_id] = segment.end_capacity
