"""Unit tests for EpochRecord / Timeline serialization and CSV export."""

import csv

from repro.obs import EpochRecord, Timeline
from repro.sim.metrics import EnergyBreakdown, HitStats, LatencyBreakdown


def _record(epoch: int) -> EpochRecord:
    return EpochRecord(
        epoch=epoch,
        requests=100 * (epoch + 1),
        post_l1_requests=60 * (epoch + 1),
        hits=HitStats(l1_hits=40, cache_hits_local=30, cache_hits_remote=20, cache_misses=10),
        breakdown=LatencyBreakdown(dram_ns=5.0 * (epoch + 1), extended_ns=2.0),
        energy=EnergyBreakdown(ndp_dram_nj=3.0, cxl_nj=1.0 * epoch),
        ext_accesses=10,
        ext_bytes=640,
        reconfig_movements=epoch,
        cycles_total=1000.0 * (epoch + 1),
    )


class TestEpochRecord:
    def test_json_round_trip(self):
        rec = _record(2)
        clone = EpochRecord.from_json(rec.to_json())
        assert clone == rec

    def test_from_json_reconstructs_nested_dataclasses(self):
        clone = EpochRecord.from_json(_record(0).to_json())
        assert isinstance(clone.hits, HitStats)
        assert isinstance(clone.breakdown, LatencyBreakdown)
        assert isinstance(clone.energy, EnergyBreakdown)

    def test_from_json_ignores_unknown_keys(self):
        payload = _record(0).to_json()
        payload["future_field"] = 42
        clone = EpochRecord.from_json(payload)
        assert clone.epoch == 0


class TestTimeline:
    def _timeline(self, n=3) -> Timeline:
        tl = Timeline()
        for i in range(n):
            tl.append(_record(i))
        return tl

    def test_len_and_iter(self):
        tl = self._timeline()
        assert len(tl) == 3
        assert [r.epoch for r in tl] == [0, 1, 2]

    def test_csv_has_dotted_nested_columns(self, tmp_path):
        tl = self._timeline()
        header, rows = tl.csv_rows()
        assert "hits.cache_misses" in header
        assert "energy.cxl_nj" in header
        assert len(rows) == 3
        path = tmp_path / "timeline.csv"
        tl.to_csv(str(path))
        with open(path, newline="") as f:
            parsed = list(csv.reader(f))
        assert parsed[0] == header
        assert len(parsed) == 4
