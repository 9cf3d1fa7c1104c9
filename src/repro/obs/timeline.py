"""The epoch timeline: per-epoch breakdowns behind a run's aggregates.

Fig. 2's latency/energy decomposition and the Section V reconfiguration
story are all *time series*; the aggregates in
:class:`~repro.sim.metrics.SimulationReport` cannot answer "which epoch
saturated the CXL link?" or "what did the reconfiguration in epoch 7
buy?".  :class:`EpochRecord` captures one epoch's deltas of every
accumulator the engine maintains, plus the traffic and
fault/reconfiguration activity of that epoch; :class:`Timeline` is the
ordered list with a CSV exporter.  The per-epoch series sum back to the
run's aggregate report (``tests/obs/test_timeline_sums.py``), and the
report's ``to_json`` carries the timeline into traces and report JSON.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, fields

from repro.sim.metrics import EnergyBreakdown, HitStats, LatencyBreakdown


@dataclass
class EpochRecord:
    """One epoch's slice of the run, all values are per-epoch deltas
    except ``cycles_total`` (the runtime estimate after this epoch)."""

    epoch: int
    requests: int = 0
    post_l1_requests: int = 0
    hits: HitStats = field(default_factory=HitStats)
    breakdown: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    ext_accesses: int = 0
    ext_bytes: int = 0
    inter_stack_bytes: int = 0
    effective_lanes: int = 0
    reconfig_movements: int = 0
    reconfig_invalidations: int = 0
    fault_units: int = 0
    fault_rows: int = 0
    demoted_requests: int = 0
    cycles_total: float = 0.0

    def to_json(self) -> dict:
        payload = asdict(self)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "EpochRecord":
        payload = dict(payload)
        payload["hits"] = HitStats(**payload.get("hits", {}))
        payload["breakdown"] = LatencyBreakdown(**payload.get("breakdown", {}))
        payload["energy"] = EnergyBreakdown(**payload.get("energy", {}))
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class Timeline:
    """Ordered per-epoch records for one simulation run."""

    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    def csv_rows(self) -> tuple[list[str], list[list]]:
        """Flat header + rows (nested breakdowns become dotted columns)."""
        header: list[str] = []
        rows: list[list] = []
        for rec in self.records:
            flat = _flatten(rec.to_json())
            if not header:
                header = list(flat)
            rows.append([flat[col] for col in header])
        return header, rows

    def to_csv(self, path: str) -> None:
        header, rows = self.csv_rows()
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            writer.writerows(rows)


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat
