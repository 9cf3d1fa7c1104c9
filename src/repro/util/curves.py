"""Miss-curve tables and the lookahead slope primitive.

A *miss curve* maps cache capacity to the number of misses a stream would
incur at that capacity.  The paper's samplers (Section V-A) measure every
stream's curve at the same 64 geometrically spaced capacities, so one
epoch's curves are the rows of one :class:`CurveTable` over that grid.
The configuration algorithm (Section V-C) repeatedly asks for the
*steepest slope segment* — the capacity increment that removes the most
misses per byte — which is the core primitive of the lookahead
allocation family [6], [63] (:class:`Lookahead`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

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
    """Misses as a function of capacity for one stream: a table row as
    tests and reports read it.  ``capacities`` must be strictly
    increasing, ``misses`` the miss count at each."""

    capacities: np.ndarray
    misses: np.ndarray

    def __post_init__(self) -> None:
        self.capacities = np.asarray(self.capacities, dtype=np.int64)
        self.misses = np.asarray(self.misses, dtype=np.float64)
        if self.capacities.ndim != 1 or self.capacities.shape != self.misses.shape:
            raise ValueError("capacities and misses must be matching 1-D arrays")
        _check_curves(self.capacities, self.misses)

    def misses_at(self, capacity: float) -> float:
        """Linearly interpolated miss count at ``capacity``.

        Below the first measured point the curve is clamped to the first
        value; beyond the last point it is clamped to the last value
        (capacity beyond the measured range cannot add misses).
        """
        return float(np.interp(capacity, self.capacities, self.misses))


def _check_curves(capacities: np.ndarray, misses: np.ndarray) -> None:
    if len(capacities) < 1:
        raise ValueError("a miss curve needs at least one point")
    if np.any(np.diff(capacities) <= 0):
        raise ValueError("capacities must be strictly increasing")
    if np.any(misses < 0):
        raise ValueError("miss counts cannot be negative")


class CurveTable:
    """The miss curves of many streams or partitions over one capacity grid.

    Row ``i`` of the 2-D ``misses`` array is the curve of ``ids[i]`` at
    each of the shared, read-only ``capacities``.  Rows are validated and
    made non-increasing (a running minimum: set sampling lacks the stack
    property) once, when they enter a table; rows derived from them stay
    so.  Row order is part of the result: lookahead ties go to the
    earliest row.  Iterating yields a :class:`MissCurve` per row, for
    tests and reports.
    """

    def __init__(self, capacities, ids, misses) -> None:
        capacities = np.asarray(capacities, dtype=np.int64)
        ids = [int(i) for i in ids]
        misses = np.asarray(misses, dtype=np.float64)
        if capacities.ndim != 1 or misses.shape != (len(ids), len(capacities)):
            raise ValueError("misses must hold one row per id over a 1-D grid")
        if len(set(ids)) != len(ids):
            raise ValueError("curve ids must be distinct")
        _check_curves(capacities, misses)
        if capacities.flags.writeable:
            capacities = capacities.copy()
            capacities.flags.writeable = False
        self._fill(capacities, ids, np.minimum.accumulate(misses, axis=1))

    def _fill(self, capacities, ids: list[int], misses: np.ndarray) -> "CurveTable":
        misses.flags.writeable = False
        self.capacities, self.ids, self.misses = capacities, ids, misses
        self._row = {id_: i for i, id_ in enumerate(ids)}
        return self

    def _derived(self, ids: list[int], misses: np.ndarray) -> "CurveTable":
        """A table over the same grid from rows already in one."""
        return object.__new__(CurveTable)._fill(self.capacities, ids, misses)

    @classmethod
    def empty(cls, capacities) -> "CurveTable":
        return cls(capacities, [], np.empty((0, len(capacities))))

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, id_) -> bool:
        return id_ in self._row

    def __iter__(self):
        for row in self.misses:
            yield MissCurve(self.capacities, row)

    def row(self, id_: int) -> np.ndarray:
        return self.misses[self._row[id_]]

    def misses_at(self, id_: int, capacity: float) -> float:
        """Row ``id_`` linearly interpolated at ``capacity``, clamped to
        its first and last points outside the grid."""
        return float(np.interp(capacity, self.capacities, self.misses[self._row[id_]]))

    def select(self, ids) -> "CurveTable":
        """The rows of ``ids``, in that order."""
        ids = list(ids)
        return self._derived(ids, self.misses[[self._row[i] for i in ids]])

    def extended(self, ids, misses) -> "CurveTable":
        """This table with new rows ``misses`` for ``ids`` appended."""
        rows = np.concatenate([self.misses, np.asarray(misses, dtype=np.float64)])
        return CurveTable(self.capacities, self.ids + list(ids), rows)

    def smoothed(self, fresh: "CurveTable", ids) -> "CurveTable":
        """EWMA (weight 1/2) of freshly sampled rows against this table.

        Row ``i`` of ``fresh`` is the new sample of ``ids[i]``.  Ids with
        a row here get ``0.5 * previous + 0.5 * fresh`` in place; the
        others are appended in ``ids`` order.  Smoothing damps
        epoch-to-epoch sampling noise; without it the lookahead order
        flips between epochs and the resulting allocation churn costs
        more than the reconfiguration gains.
        """
        if not np.array_equal(fresh.capacities, self.capacities):
            raise ValueError("fresh curves must share the table's capacities")
        ids = list(ids)
        rows = np.array([self._row.get(i, -1) for i in ids], dtype=np.int64)
        known = rows >= 0
        misses = self.misses.copy()
        misses[rows[known]] = 0.5 * self.misses[rows[known]] + 0.5 * fresh.misses[known]
        new = [i for i, k in zip(ids, known) if not k]
        return self._derived(self.ids + new, np.concatenate([misses, fresh.misses[~known]]))


class Lookahead:
    """The paper's ``NextSteepestSlopeSeg`` over miss-curve rows: a
    table's, or one curve per id, each on its own grid (made
    non-increasing here, as on table entry).

    Each row's steepest extension from its own allocation — slope
    (misses saved per byte), end capacity and gain — is kept in per-row
    arrays, and a step re-derives only the row it changed.
    """

    def __init__(self, curves: CurveTable | Mapping[int, MissCurve]) -> None:
        if isinstance(curves, CurveTable):
            self.ids = curves.ids
            self._grids = [curves.capacities] * len(curves)
            self._rows = curves.misses
        else:
            self.ids = list(curves)
            self._grids = [c.capacities for c in curves.values()]
            self._rows = [np.minimum.accumulate(c.misses) for c in curves.values()]
        self._row = {id_: i for i, id_ in enumerate(self.ids)}
        n = len(self.ids)
        self.allocated = [0] * n
        self.slope = np.full(n, -np.inf)
        self.end = [0] * n
        self.gain = [0.0] * n
        for id_ in self.ids:
            self.allocate(id_, 0)

    def allocate(self, id_: int, capacity: int) -> None:
        """Set ``id_``'s allocation and re-derive its steepest extension:
        the first of the steepest measured points past the allocation
        that save misses, or none."""
        i = self._row[id_]
        caps = self._grids[i]
        misses = self._rows[i]
        self.allocated[i] = capacity
        gains = np.interp(capacity, caps, misses) - misses
        candidate = (caps > capacity) & (gains > 0)
        if not candidate.any():
            self.slope[i] = -np.inf
            return
        cand_caps = caps[candidate]
        cand_gains = gains[candidate]
        slopes = cand_gains / (cand_caps - capacity).astype(np.float64)
        j = int(np.argmax(slopes))
        self.slope[i] = slopes[j]
        self.end[i] = int(cand_caps[j])
        self.gain[i] = float(cand_gains[j])

    def next(self, exclude=None) -> tuple[int, int] | None:
        """The steepest extension of any row not in ``exclude``, as
        ``(id, bytes)``, or None when no row can save further misses.
        Ties go to the earliest row."""
        slope = self.slope
        if exclude:
            slope = slope.copy()
            slope[[self._row[i] for i in exclude if i in self._row]] = -np.inf
        if not len(slope):
            return None
        i = int(np.argmax(slope))
        if slope[i] == -np.inf:
            return None
        return self.ids[i], self.end[i] - self.allocated[i]

    def commit(self, id_: int) -> None:
        """Grant ``id_`` its steepest extension."""
        i = self._row[id_]
        if self.slope[i] == -np.inf:
            raise ValueError(f"curve {id_} has no extension to commit")
        self.allocate(id_, self.end[i])

    def allocations(self) -> dict[int, int]:
        return dict(zip(self.ids, self.allocated))
