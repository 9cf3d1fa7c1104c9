"""Spatial observability: per-unit load and inter-stack link pressure.

The placement quality the paper argues about (Fig. 2a, Fig. 7) is
*where* requests are served relative to where they were issued.  The
aggregate :class:`~repro.sim.metrics.HitStats` cannot distinguish a
perfectly balanced cache from one where a single hot unit serves
everything; :class:`SpatialAccumulator` keeps the per-location view:

* ``issued[u]``   — post-L1 requests issued by cores on unit ``u``,
* ``served[u]``   — cache hits served by unit ``u``'s DRAM,
* ``occupancy_ns[u]`` — DRAM service time unit ``u``'s banks spent on
  hits and in-DRAM miss probes (the unit-local queueing pressure), and
* ``link_bytes[s, d]`` — NoC bytes moved from stack ``s`` to stack
  ``d`` by cached round trips (diagonal = intra-stack traffic), plus
* ``ext_requests_by_stack[s]`` — extended-memory requests whose NoC
  legs touched stack ``s`` (origin->CXL-port and port->core legs).

All arrays are accumulated vectorized (``np.bincount`` per epoch) and
only when a live recorder enabled them — the engine never constructs an
accumulator under :class:`~repro.obs.recorder.NullRecorder`.  The
off-diagonal sum of ``link_bytes`` reconciles exactly with the engine's
inter-stack roofline byte counter, and ``issued``/``served`` totals
reconcile exactly with :class:`~repro.sim.metrics.HitStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpatialReport:
    """JSON-able spatial summary attached to a recorded run's report."""

    n_units: int
    n_stacks: int
    issued: list[int]
    served: list[int]
    occupancy_ns: list[float]
    link_bytes: list[list[int]]
    ext_requests_by_stack: list[int] = field(default_factory=list)

    @property
    def load_imbalance(self) -> float:
        """Max/mean served requests across units (1.0 = perfectly flat).

        Only units that served at least one request could have been
        chosen by the placement, but the denominator spans *all* units —
        an idle unit is imbalance, not a smaller system.
        """
        served = np.asarray(self.served, dtype=np.float64)
        mean = served.mean() if len(served) else 0.0
        return float(served.max() / mean) if mean > 0 else 0.0

    @property
    def inter_stack_bytes(self) -> int:
        """Off-diagonal link traffic (what the roofline bound sees)."""
        matrix = np.asarray(self.link_bytes, dtype=np.int64)
        return int(matrix.sum() - np.trace(matrix))

    def to_json(self) -> dict:
        return {
            "n_units": self.n_units,
            "n_stacks": self.n_stacks,
            "issued": list(self.issued),
            "served": list(self.served),
            "occupancy_ns": list(self.occupancy_ns),
            "link_bytes": [list(row) for row in self.link_bytes],
            "ext_requests_by_stack": list(self.ext_requests_by_stack),
            "load_imbalance": self.load_imbalance,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SpatialReport":
        return cls(
            n_units=int(data["n_units"]),
            n_stacks=int(data["n_stacks"]),
            issued=[int(v) for v in data["issued"]],
            served=[int(v) for v in data["served"]],
            occupancy_ns=[float(v) for v in data["occupancy_ns"]],
            link_bytes=[[int(v) for v in row] for row in data["link_bytes"]],
            ext_requests_by_stack=[
                int(v) for v in data.get("ext_requests_by_stack", [])
            ],
        )


class SpatialAccumulator:
    """Vectorized per-unit / per-stack accumulators for one run."""

    def __init__(self, n_units: int, unit_stack: np.ndarray) -> None:
        self.n_units = n_units
        self.unit_stack = np.asarray(unit_stack, dtype=np.int64)
        self.n_stacks = int(self.unit_stack.max()) + 1 if n_units else 0
        self.issued = np.zeros(n_units, dtype=np.int64)
        self.served = np.zeros(n_units, dtype=np.int64)
        self.occupancy_ns = np.zeros(n_units)
        self.link_bytes = np.zeros(
            (self.n_stacks, self.n_stacks), dtype=np.int64
        )
        self.ext_requests_by_stack = np.zeros(self.n_stacks, dtype=np.int64)

    def observe_epoch(
        self,
        core_unit: np.ndarray,
        serving: np.ndarray,
        hit: np.ndarray,
        touches: np.ndarray,
        dram_ns: np.ndarray,
        goes_ext: np.ndarray,
        origin: np.ndarray | None,
        port_unit: int,
        round_trip_bytes: int,
    ) -> None:
        """Fold one epoch's request-level arrays in (all vectorized).

        ``origin`` is the unit each extended access's NoC leg starts
        from (home unit for misses, the core's unit for bypasses); None
        when the epoch had no extended accesses.
        """
        self.issued += np.bincount(core_unit, minlength=self.n_units)
        if hit.any():
            self.served += np.bincount(serving[hit], minlength=self.n_units)
        if touches.any():
            self.occupancy_ns += np.bincount(
                serving[touches],
                weights=dram_ns[touches],
                minlength=self.n_units,
            )
        cached = serving >= 0
        if cached.any():
            src = self.unit_stack[core_unit[cached]]
            dst = self.unit_stack[serving[cached]]
            flat = np.bincount(
                src * self.n_stacks + dst,
                minlength=self.n_stacks * self.n_stacks,
            )
            self.link_bytes += round_trip_bytes * flat.reshape(
                self.n_stacks, self.n_stacks
            )
        if origin is not None and goes_ext.any():
            port_stack = int(self.unit_stack[port_unit])
            self.ext_requests_by_stack += np.bincount(
                self.unit_stack[origin], minlength=self.n_stacks
            )
            self.ext_requests_by_stack += np.bincount(
                self.unit_stack[core_unit[goes_ext]], minlength=self.n_stacks
            )
            self.ext_requests_by_stack[port_stack] += int(goes_ext.sum()) * 2

    def to_report(self) -> SpatialReport:
        return SpatialReport(
            n_units=self.n_units,
            n_stacks=self.n_stacks,
            issued=[int(v) for v in self.issued],
            served=[int(v) for v in self.served],
            occupancy_ns=[float(v) for v in self.occupancy_ns],
            link_bytes=[[int(v) for v in row] for row in self.link_bytes],
            ext_requests_by_stack=[
                int(v) for v in self.ext_requests_by_stack
            ],
        )
