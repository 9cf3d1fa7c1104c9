"""Reference copy of the cache configurator (Algorithm 1) as it was
before its per-epoch state moved to plain Python lists and memoised
utilities.

Kept verbatim, together with the uncached ``LookaheadState`` it drove
— numpy unit budgets, ``Topology.attenuation`` scalar lookups,
identity groups, no memo — as the oracle that
``test_configure_oracle.py`` compares the optimised configurator
against decision for decision.  Do not optimise this file.

The edits since:

* ``Group`` compares by identity (``eq=False``), as in
  ``core/configure.py``.  With value equality, a merge that leaves a
  group holding the same rows as its sibling made ``list.remove`` drop
  the wrong group.
* ``MissCurve`` (with ``monotone``) and ``SlopeSegment`` are copied here
  verbatim from ``util/curves.py``, which has since replaced them with a
  curve table, and ``configure`` first turns its ``curves`` (a
  ``CurveTable`` or one ``util.curves.MissCurve`` per stream) into these
  copies.
* The output is packaged as remap-table rows (``ConfigResult.sids``,
  ``shares``, ``groups``) instead of one allocation object per stream,
  as in ``core/configure.py``; ``_finalize`` fills the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.remap import blank_rows, group_ids
from repro.core.stream import StreamConfig
from repro.sim.topology import Topology
from repro.util.curves import CurveTable


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


def reference_curves(curves) -> dict[int, MissCurve]:
    """The reference's own curve per stream, from a table or a mapping."""
    if isinstance(curves, CurveTable):
        return {
            sid: MissCurve(curves.capacities, row)
            for sid, row in zip(curves.ids, curves.misses)
        }
    return {sid: MissCurve(c.capacities, c.misses) for sid, c in curves.items()}


@dataclass
class LookaheadState:
    """Tracks per-stream allocated capacity during lookahead allocation."""

    curves: dict[int, MissCurve]
    allocated: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for sid in self.curves:
            self.allocated.setdefault(sid, 0)

    def next_steepest_segment(
        self, exclude: set[int] | None = None
    ) -> SlopeSegment | None:
        """The paper's ``NextSteepestSlopeSeg``: across all streams, find the
        capacity extension with maximum misses-saved-per-byte from the
        stream's current allocation.  Returns None when no stream can save
        any further misses.  Streams in ``exclude`` are skipped (the
        configurator uses this for streams that can no longer get space).
        """
        best: SlopeSegment | None = None
        best_slope = -np.inf
        for sid, curve in self.curves.items():
            if exclude and sid in exclude:
                continue
            current = self.allocated[sid]
            current_misses = curve.misses_at(current)
            # Consider extending to each measured capacity beyond current.
            # One vector pass per curve: candidate slopes for every
            # measured point past the allocation, first-max selection
            # (argmax) matching the strict > of the scalar loop it
            # replaced, so ties keep resolving to the earliest capacity.
            caps = curve.capacities
            gains = current_misses - curve.misses
            candidate = (caps > current) & (gains > 0)
            if not candidate.any():
                continue
            cand_caps = caps[candidate]
            cand_gains = gains[candidate]
            slopes = cand_gains / (cand_caps - current).astype(np.float64)
            j = int(np.argmax(slopes))
            if float(slopes[j]) > best_slope:
                best = SlopeSegment(
                    sid, current, int(cand_caps[j]), float(cand_gains[j])
                )
                best_slope = float(slopes[j])
        return best

    def commit(self, segment: SlopeSegment) -> None:
        if segment.start_capacity != self.allocated[segment.stream_id]:
            raise ValueError("segment does not extend the current allocation")
        self.allocated[segment.stream_id] = segment.end_capacity


@dataclass(eq=False)
class Group:
    """One replication group of one stream during configuration."""

    sid: int
    rows: dict[int, int] = field(default_factory=dict)  # unit -> rows

    @property
    def units(self) -> list[int]:
        return [u for u, r in self.rows.items() if r > 0]

    @property
    def total_rows(self) -> int:
        return sum(self.rows.values())

    def add(self, unit: int, rows: int) -> None:
        self.rows[unit] = self.rows.get(unit, 0) + rows

    def remove_empty(self) -> None:
        self.rows = {u: r for u, r in self.rows.items() if r > 0}


@dataclass
class ConfigResult:
    """Output of one configuration run."""

    sids: list[int]
    shares: np.ndarray
    groups: np.ndarray
    iterations: int
    exhausted: set[int]
    replication_degree: dict[int, int]

    def summary(self) -> dict:
        """JSON-able description of the chosen configuration, used by the
        observability layer to trace each reconfiguration decision."""
        return {
            "iterations": self.iterations,
            "exhausted": sorted(int(s) for s in self.exhausted),
            "streams": [
                {
                    "sid": int(sid),
                    "rows": int(self.shares[sid].sum()),
                    "n_groups": len(group_ids(self.groups[sid])),
                    "units": [int(u) for u in np.flatnonzero(self.shares[sid] > 0)],
                }
                for sid in self.sids
            ],
        }


class CacheConfigurator:
    """Runs Algorithm 1 for one reconfiguration."""

    def __init__(
        self,
        topology: Topology,
        rows_per_unit: int,
        row_bytes: int,
        affine_space_bytes: int | None = None,
        max_iterations: int = 100_000,
    ) -> None:
        self.topology = topology
        self.n_units = topology.n_units
        self.rows_per_unit = rows_per_unit
        self.row_bytes = row_bytes
        self.affine_rows_cap = (
            affine_space_bytes // row_bytes if affine_space_bytes else None
        )
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def configure(
        self,
        streams: dict[int, StreamConfig],
        curves: dict[int, MissCurve],
        acc_units: dict[int, list[int]],
        acc_counts: dict[int, dict[int, int]] | None = None,
        unit_capacity: np.ndarray | None = None,
        write_excepted: set[int] | None = None,
    ) -> ConfigResult:
        """Derive allocations for all streams with miss curves.

        ``curves`` capacities are *per-copy* bytes.  ``acc_units[sid]``
        lists the units whose cores accessed the stream last epoch;
        ``acc_counts`` optionally weights them.  ``unit_capacity``
        overrides the per-unit row budget — after hardware faults the
        surviving capacities are passed here so the configuration
        re-optimizes around the degraded machine.  ``write_excepted``
        names streams annotated read-only that have been written (the
        mapper's write exception): they are placed as a single copy.
        """
        curves = reference_curves(curves)
        self._streams = streams
        self._write_excepted = write_excepted or set()
        self._acc_units = {
            sid: sorted(set(units)) for sid, units in acc_units.items()
        }
        self._acc_counts = acc_counts or {}
        if unit_capacity is not None:
            self._free = np.asarray(unit_capacity, dtype=np.int64).copy()
            if len(self._free) != self.n_units:
                raise ValueError("unit_capacity must have one entry per unit")
        else:
            self._free = np.full(self.n_units, self.rows_per_unit, dtype=np.int64)
        self._affine_used = np.zeros(self.n_units, dtype=np.int64)
        self._groups: dict[int, list[Group]] = {}
        exhausted: set[int] = set()

        usable = {
            sid: curve.monotone()
            for sid, curve in curves.items()
            if self._acc_units.get(sid)
        }
        state = LookaheadState(usable)
        for sid in curves:
            if not self._acc_units.get(sid):
                exhausted.add(sid)

        iterations = 0
        while iterations < self.max_iterations:
            segment = state.next_steepest_segment(exclude=exhausted)
            if segment is None:
                break
            iterations += 1
            sid = segment.stream_id
            need_rows = max(1, math.ceil(segment.size / self.row_bytes))
            if sid not in self._groups:
                self._create_groups(sid)
            fully_placed = True
            for group in list(self._groups[sid]):
                if group not in self._groups[sid]:
                    continue  # consumed by a merge triggered this iteration
                remaining = self._place_in_group(group, need_rows)
                if remaining > 0:
                    remaining = self._extend_or_merge(group, remaining)
                if remaining > 0:
                    fully_placed = False
            if fully_placed and self._groups[sid]:
                state.commit(segment)
            else:
                exhausted.add(sid)

        shares, groups = self._finalize(streams, curves)
        replication = {
            sid: max(1, len(groups)) for sid, groups in self._groups.items()
        }
        return ConfigResult(
            sids=sorted(curves),
            shares=shares,
            groups=groups,
            iterations=iterations,
            exhausted=exhausted,
            replication_degree=replication,
        )

    # ------------------------------------------------------------------
    # Group creation and placement
    # ------------------------------------------------------------------

    def _create_groups(self, sid: int) -> None:
        """Initial replication: each accessing unit its own group for
        read-only streams (maximum replication); one global group for
        read-write streams (single copy, coherence)."""
        stream = self._streams[sid]
        units = self._acc_units[sid]
        if stream.read_only and sid not in self._write_excepted:
            self._groups[sid] = [Group(sid, {u: 0}) for u in units]
        else:
            self._groups[sid] = [Group(sid, {u: 0 for u in units})]

    def _unit_free_rows(self, unit: int, sid: int) -> int:
        """Free rows available to this stream in this unit, honouring the
        affine-space restriction (Section IV-C)."""
        free = int(self._free[unit])
        if self.affine_rows_cap is not None and self._streams[sid].is_affine:
            affine_free = self.affine_rows_cap - int(self._affine_used[unit])
            free = min(free, max(0, affine_free))
        return max(0, free)

    def _take_rows(self, unit: int, sid: int, rows: int) -> None:
        self._free[unit] -= rows
        if self._streams[sid].is_affine:
            self._affine_used[unit] += rows

    def _release_rows(self, unit: int, sid: int, rows: int) -> None:
        self._free[unit] += rows
        if self._streams[sid].is_affine:
            self._affine_used[unit] -= rows

    def _anchor_of(self, group: Group) -> int:
        """The group's centre: its hottest accessing unit."""
        acc = [u for u in self._acc_units[group.sid] if u in group.rows]
        candidates = acc or list(group.rows)
        counts = self._acc_counts.get(group.sid, {})
        return max(candidates, key=lambda u: (counts.get(u, 0), -u))

    def _place_in_group(self, group: Group, rows: int) -> int:
        """Fill ``rows`` into the group's existing units; returns leftover."""
        anchor = self._anchor_of(group)
        order = sorted(
            group.rows, key=lambda u: self.topology.latency_ns[anchor, u]
        )
        remaining = rows
        for unit in order:
            if remaining == 0:
                break
            take = min(remaining, self._unit_free_rows(unit, group.sid))
            if take > 0:
                group.add(unit, take)
                self._take_rows(unit, group.sid, take)
                remaining -= take
        return remaining

    # ------------------------------------------------------------------
    # Extend vs merge (the core of Algorithm 1)
    # ------------------------------------------------------------------

    def _extend_or_merge(self, group: Group, rows: int) -> int:
        """Get ``rows`` more rows for ``group`` by extending or merging.

        Returns the rows still unplaced (0 on success).
        """
        remaining = rows
        guard = 0
        while remaining > 0 and guard < 4 * self.n_units:
            guard += 1
            extend = self._best_extension(group, remaining)
            merge = self._best_merge(group, remaining)
            if extend is None and merge is None:
                break
            if merge is None or (
                extend is not None and extend[1] >= merge[2]
            ):
                unit, _gain = extend  # type: ignore[misc]
                take = min(remaining, self._unit_free_rows(unit, group.sid))
                group.add(unit, take)
                self._take_rows(unit, group.sid, take)
                remaining -= take
            else:
                group_a, group_b, _gain = merge
                self._merge_groups(group_a, group_b)
                if group is group_b and group_a.sid == group.sid:
                    group = group_a  # our group was absorbed
                remaining = self._place_in_group(group, remaining)
        return remaining

    def _utility(self, group: Group) -> float:
        """Group utility: allocated bytes reachable by each accessing unit,
        attenuated by interconnect distance (Section V-C example)."""
        acc = [u for u in self._acc_units.get(group.sid, []) if u in group.rows]
        util = 0.0
        for u in acc:
            for v, r in group.rows.items():
                if r > 0:
                    util += r * self.row_bytes * self.topology.attenuation(u, v)
        return util

    def _best_extension(
        self, group: Group, rows: int
    ) -> tuple[int, float] | None:
        """Nearest unit outside the group with free space; returns
        (unit, utility gain) or None."""
        anchor = self._anchor_of(group)
        acc = [u for u in self._acc_units[group.sid] if u in group.rows]
        # A unit may hold at most one replication group per stream, so an
        # extension must avoid every sibling group's units too.
        taken = {
            u for g in self._groups[group.sid] for u in g.rows
        }
        for unit in self.topology.nearest_units(anchor):
            if unit in taken:
                continue
            avail = self._unit_free_rows(unit, group.sid)
            if avail <= 0:
                continue
            placed = min(rows, avail)
            gain = sum(
                placed * self.row_bytes * self.topology.attenuation(u, unit)
                for u in acc
            )
            return unit, gain
        return None

    def _best_merge(
        self, group: Group, rows: int
    ) -> tuple[Group, Group, float] | None:
        """FindMergeGroup + NearestGroup: among all groups holding rows in
        the contended unit whose stream still has >= 2 groups, pick the
        lowest-utility one (groupA) and its nearest same-stream sibling
        (groupB).  Returns (groupA, groupB, utility delta) or None."""
        anchor = self._anchor_of(group)
        candidates: list[Group] = []
        for sid, groups in self._groups.items():
            if len(groups) < 2:
                continue
            for g in groups:
                if g.rows.get(anchor, 0) > 0:
                    candidates.append(g)
        if not candidates:
            return None
        group_a = min(candidates, key=self._utility)
        siblings = [g for g in self._groups[group_a.sid] if g is not group_a]
        if not siblings:
            return None
        group_b = min(
            siblings, key=lambda g: self._group_distance(group_a, g)
        )
        before = self._utility(group_a) + self._utility(group_b)
        after = self._merged_utility(group_a, group_b)
        # The merge frees one copy's worth of rows; credit the rows we can
        # then place locally at full utility.
        freed_here = (group_a.rows.get(anchor, 0) + group_b.rows.get(anchor, 0)) // 2
        acc = [u for u in self._acc_units[group.sid] if u in group.rows]
        local_gain = min(rows, freed_here) * self.row_bytes * max(
            (self.topology.attenuation(u, anchor) for u in acc), default=0.0
        )
        return group_a, group_b, (after - before) + local_gain

    def _group_distance(self, a: Group, b: Group) -> float:
        return min(
            self.topology.latency_ns[u, v]
            for u in (a.units or list(a.rows))
            for v in (b.units or list(b.rows))
        )

    def _merged_utility(self, a: Group, b: Group) -> float:
        merged = Group(a.sid, dict(a.rows))
        for u, r in b.rows.items():
            merged.add(u, r)
        # One copy over the union: halve the capacity.
        merged.rows = {u: r // 2 for u, r in merged.rows.items()}
        return self._utility(merged)

    def _merge_groups(self, group_a: Group, group_b: Group) -> None:
        """Merge two groups of the same stream into group_a, freeing the
        duplicate copy's rows (replication degree drops by one)."""
        if group_a.sid != group_b.sid:
            raise ValueError("can only merge groups of the same stream")
        sid = group_a.sid
        copy_rows = max(group_a.total_rows, group_b.total_rows)
        combined: dict[int, int] = dict(group_a.rows)
        for u, r in group_b.rows.items():
            combined[u] = combined.get(u, 0) + r
        total_combined = sum(combined.values())
        # Redistribute one copy proportionally over the union.
        new_rows: dict[int, int] = {}
        if total_combined > 0:
            for u, r in combined.items():
                new_rows[u] = (r * copy_rows) // total_combined
            shortfall = copy_rows - sum(new_rows.values())
            # Spread the rounding shortfall over units with headroom,
            # largest first, never exceeding what each already held.
            for u in sorted(combined, key=lambda u: -combined[u]):
                if shortfall <= 0:
                    break
                headroom = combined[u] - new_rows[u]
                grant = min(headroom, shortfall)
                new_rows[u] += grant
                shortfall -= grant
        # Release the difference.
        for u in combined:
            delta = combined.get(u, 0) - new_rows.get(u, 0)
            if delta > 0:
                self._release_rows(u, sid, delta)
            elif delta < 0:
                raise AssertionError("merge must never grow a unit's rows")
        group_a.rows = {u: r for u, r in new_rows.items() if r > 0} or {
            self._anchor_of(group_a): 0
        }
        self._groups[sid].remove(group_b)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def _finalize(
        self,
        streams: dict[int, StreamConfig],
        curves: dict[int, MissCurve],
    ) -> tuple[np.ndarray, np.ndarray]:
        shares, groups_arr = blank_rows(self.n_units)
        for sid in sorted(curves):
            for gid, group in enumerate(self._groups.get(sid, [])):
                group.remove_empty()
                for unit, rows in group.rows.items():
                    if rows > 0:
                        shares[sid, unit] += rows
                        groups_arr[sid, unit] = gid
        return shares, groups_arr
