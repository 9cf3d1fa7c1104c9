"""The cache configuration algorithm (Section V-C, Algorithm 1).

Given the per-stream miss curves and the set of units that accessed each
stream, the configurator co-optimizes — in one iterative loop — how much
capacity each stream gets (*sizing*), which units provide it
(*placement*), and how many independent copies exist (*replication*).

The loop repeatedly takes the steepest miss-curve slope (the classic
lookahead step) and grants that capacity increment to *every replication
group* of the chosen stream.  Read-only streams start maximally
replicated — every accessing unit is its own group, so all accesses are
local — and when space runs out the algorithm either

* **extends** a group onto the nearest unit with free space (a copy
  spreads out; remote rows contribute utility attenuated by the
  interconnect-vs-DRAM latency ratio), or
* **merges** the lowest-utility group that owns space in the contended
  unit with its nearest sibling group (replication degree drops by one,
  freeing a whole copy's worth of rows),

choosing whichever yields the higher utility.  Read-write streams always
form a single global group, keeping the cache coherent with one copy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.remap import blank_rows, group_ids, single_groups
from repro.core.stream import StreamConfig
from repro.sim.topology import Topology
from repro.util.curves import CurveTable, Lookahead, MissCurve


@dataclass(eq=False)
class Group:
    """One replication group of one stream during configuration.

    Groups compare and hash by identity: the algorithm tracks *this*
    group (membership after a merge, removal, memoised utility), never
    another group that happens to hold equal rows.
    """

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
    """Output of one configuration run: remap-table ``shares`` and
    ``groups`` rows for every stream id, of which ``sids`` (ascending)
    were configured; every other row is empty."""

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

    # The topology is fixed for a configurator's lifetime.  Nested Python
    # lists hold the same float64 values as the matrices, but index in a
    # fraction of a numpy scalar lookup — the inner loops below make
    # hundreds of thousands of them per reconfiguration.
    @functools.cached_property
    def _attenuation(self) -> list[list[float]]:
        return self.topology.attenuation_matrix.tolist()

    @functools.cached_property
    def _latency(self) -> list[list[float]]:
        return self.topology.latency_ns.tolist()

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def configure(
        self,
        streams: dict[int, StreamConfig],
        curves: CurveTable | dict[int, MissCurve],
        acc_units: dict[int, list[int]],
        acc_counts: dict[int, dict[int, int]] | None = None,
        unit_capacity: np.ndarray | None = None,
        write_excepted: set[int] | None = None,
    ) -> ConfigResult:
        """Derive allocations for all streams with miss curves.

        ``curves`` (a table, or one curve per stream) capacities are
        *per-copy* bytes.  ``acc_units[sid]``
        lists the units whose cores accessed the stream last epoch;
        ``acc_counts`` optionally weights them.  ``unit_capacity``
        overrides the per-unit row budget — after hardware faults the
        surviving capacities are passed here so the configuration
        re-optimizes around the degraded machine.  ``write_excepted``
        names streams annotated read-only that have been written (the
        mapper's write exception): they are placed as a single copy.
        """
        self._streams = streams
        self._write_excepted = write_excepted or set()
        self._acc_units = {
            sid: sorted(set(units)) for sid, units in acc_units.items()
        }
        self._acc_counts = acc_counts or {}
        # Per-unit row budgets as plain int lists for the whole run.
        if unit_capacity is not None:
            capacity = np.asarray(unit_capacity, dtype=np.int64)
            if len(capacity) != self.n_units:
                raise ValueError("unit_capacity must have one entry per unit")
            self._free = capacity.tolist()
        else:
            self._free = [int(self.rows_per_unit)] * self.n_units
        self._affine_used = [0] * self.n_units
        self._is_affine = {sid: s.is_affine for sid, s in streams.items()}
        self._groups: dict[int, list[Group]] = {}
        # Utility of each live group, dropped whenever the group's rows
        # change (see _group_utility).
        self._utility_memo: dict[Group, float] = {}
        exhausted: set[int] = set()

        lookahead = Lookahead(curves)
        for sid in lookahead.ids:
            if not self._acc_units.get(sid):
                exhausted.add(sid)

        iterations = 0
        while iterations < self.max_iterations:
            step = lookahead.next(exclude=exhausted)
            if step is None:
                break
            iterations += 1
            sid, size = step
            need_rows = max(1, math.ceil(size / self.row_bytes))
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
                lookahead.commit(sid)
            else:
                exhausted.add(sid)

        sids = sorted(lookahead.ids)
        shares, groups = self._finalize(sids)
        replication = {
            sid: max(1, len(groups)) for sid, groups in self._groups.items()
        }
        return ConfigResult(
            sids=sids,
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
        free = self._free[unit]
        if self.affine_rows_cap is not None and self._is_affine[sid]:
            affine_free = self.affine_rows_cap - self._affine_used[unit]
            free = min(free, max(0, affine_free))
        return max(0, free)

    def _take_rows(self, unit: int, sid: int, rows: int) -> None:
        self._free[unit] -= rows
        if self._is_affine[sid]:
            self._affine_used[unit] += rows

    def _release_rows(self, unit: int, sid: int, rows: int) -> None:
        self._free[unit] += rows
        if self._is_affine[sid]:
            self._affine_used[unit] -= rows

    def _grow(self, group: Group, unit: int, rows: int) -> None:
        """Give ``group`` ``rows`` more rows on ``unit``."""
        group.add(unit, rows)
        self._take_rows(unit, group.sid, rows)
        self._utility_memo.pop(group, None)

    def _accessors_in(self, group: Group) -> list[int]:
        """The stream's accessing units that the group covers."""
        return [u for u in self._acc_units[group.sid] if u in group.rows]

    def _anchor_of(self, group: Group, acc: list[int] | None = None) -> int:
        """The group's centre: its hottest accessing unit.  ``acc`` is
        :meth:`_accessors_in` when the caller already has it."""
        if acc is None:
            acc = self._accessors_in(group)
        candidates = acc or list(group.rows)
        counts = self._acc_counts.get(group.sid, {})
        return max(candidates, key=lambda u: (counts.get(u, 0), -u))

    def _place_in_group(self, group: Group, rows: int) -> int:
        """Fill ``rows`` into the group's existing units; returns leftover."""
        latency = self._latency[self._anchor_of(group)]
        order = sorted(group.rows, key=latency.__getitem__)
        remaining = rows
        for unit in order:
            if remaining == 0:
                break
            take = min(remaining, self._unit_free_rows(unit, group.sid))
            if take > 0:
                self._grow(group, unit, take)
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
            acc = self._accessors_in(group)
            anchor = self._anchor_of(group, acc)
            extend = self._best_extension(group, remaining, anchor, acc)
            merge = self._best_merge(group, remaining, anchor, acc)
            if extend is None and merge is None:
                break
            if merge is None or (
                extend is not None and extend[1] >= merge[2]
            ):
                unit, _gain = extend  # type: ignore[misc]
                take = min(remaining, self._unit_free_rows(unit, group.sid))
                self._grow(group, unit, take)
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
        rows = group.rows
        held = [(v, r * self.row_bytes) for v, r in rows.items() if r > 0]
        util = 0.0
        # Summation order is part of the result: accessing units in
        # acc_units order, then the group's units in insertion order.
        for u in self._acc_units.get(group.sid, []):
            if u not in rows:
                continue
            attenuation = self._attenuation[u]
            for v, held_bytes in held:
                util += held_bytes * attenuation[v]
        return util

    def _group_utility(self, group: Group) -> float:
        """:meth:`_utility` of a live group, memoised until the group's
        rows next change (:meth:`_grow`, :meth:`_merge_groups`)."""
        util = self._utility_memo.get(group)
        if util is None:
            util = self._utility_memo[group] = self._utility(group)
        return util

    def _best_extension(
        self, group: Group, rows: int, anchor: int, acc: list[int]
    ) -> tuple[int, float] | None:
        """Nearest unit outside the group with free space; returns
        (unit, utility gain) or None."""
        # A unit may hold at most one replication group per stream, so an
        # extension must avoid every sibling group's units too.
        taken = {u for g in self._groups[group.sid] for u in g.rows}
        for unit in self.topology.nearest_units(anchor):
            if unit in taken:
                continue
            avail = self._unit_free_rows(unit, group.sid)
            if avail <= 0:
                continue
            placed = min(rows, avail)
            gain = sum(
                placed * self.row_bytes * self._attenuation[u][unit]
                for u in acc
            )
            return unit, gain
        return None

    def _best_merge(
        self, group: Group, rows: int, anchor: int, acc: list[int]
    ) -> tuple[Group, Group, float] | None:
        """FindMergeGroup + NearestGroup: among all groups holding rows in
        the contended unit whose stream still has >= 2 groups, pick the
        lowest-utility one (groupA) and its nearest same-stream sibling
        (groupB).  Returns (groupA, groupB, utility delta) or None."""
        candidates = [
            g
            for groups in self._groups.values()
            if len(groups) >= 2
            for g in groups
            if g.rows.get(anchor, 0) > 0
        ]
        if not candidates:
            return None
        group_a = min(candidates, key=self._group_utility)
        siblings = [g for g in self._groups[group_a.sid] if g is not group_a]
        if not siblings:
            return None
        group_b = min(siblings, key=self._distance_from(group_a))
        before = self._group_utility(group_a) + self._group_utility(group_b)
        after = self._merged_utility(group_a, group_b)
        # The merge frees one copy's worth of rows; credit the rows we can
        # then place locally at full utility.
        freed_here = (group_a.rows.get(anchor, 0) + group_b.rows.get(anchor, 0)) // 2
        local_gain = min(rows, freed_here) * self.row_bytes * max(
            (self._attenuation[u][anchor] for u in acc), default=0.0
        )
        return group_a, group_b, (after - before) + local_gain

    def _distance_from(self, a: Group):
        """Key function: a group's shortest unit-to-unit latency to ``a``."""
        latency_from_a = [self._latency[u] for u in (a.units or list(a.rows))]

        def distance(b: Group) -> float:
            units = b.units or list(b.rows)
            return min(min(map(row.__getitem__, units)) for row in latency_from_a)

        return distance

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
        self._utility_memo.pop(group_a, None)
        self._utility_memo.pop(group_b, None)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def _finalize(self, sids: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The remap-table shares and groups rows of the configured streams."""
        shares, groups = blank_rows(self.n_units)
        for sid in sids:
            for gid, group in enumerate(self._groups.get(sid, [])):
                group.remove_empty()
                for unit, rows in group.rows.items():
                    if rows > 0:
                        shares[sid, unit] += rows
                        groups[sid, unit] = gid
        return shares, groups


def equal_share_allocations(
    streams: dict[int, StreamConfig],
    n_units: int,
    rows_per_unit: int,
) -> tuple[np.ndarray, np.ndarray]:
    """NDPExt-static: split every unit's rows equally among all streams,
    one global replication group per stream (no replication).  Returns
    the remap-table shares and groups rows.

    When there are more streams than rows per unit, the remainder rows
    rotate across units so every stream still receives cache space
    somewhere in the system.
    """
    shares, _ = blank_rows(n_units)
    sids = sorted(streams)
    n = len(sids)
    if n:
        base, rem = divmod(rows_per_unit, n)
        shares[sids] = base
        if rem:
            # Unit u grants its `rem` leftover rows to streams
            # (u*rem) .. (u*rem + rem - 1) modulo the stream count.
            for index, sid in enumerate(sids):
                for unit in range(n_units):
                    if (index - unit * rem) % n < rem:
                        shares[sid, unit] += 1
    return shares, single_groups(shares)
