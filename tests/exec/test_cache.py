"""Persistent report cache: keys, round trips, invalidation, tolerance."""

import json

import pytest

from repro.core import NdpExtPolicy
from repro.exec.cache import (
    ReportCache,
    cache_enabled,
    cache_root,
    cell_key,
    code_stamp,
)
from repro.faults import FaultSchedule, UnitFailure
from repro.sim import SimulationEngine, tiny
from repro.sim.metrics import SimulationReport
from repro.workloads import TINY, build
from tests.reports import assert_reports_identical


@pytest.fixture(scope="module")
def report():
    return SimulationEngine(tiny()).run(build("pr", TINY), NdpExtPolicy())


class TestCellKey:
    def test_stable_across_calls(self):
        config = tiny()
        assert cell_key("pr", "ndpext", config, TINY) == cell_key(
            "pr", "ndpext", config, TINY
        )

    def test_discriminates_every_ingredient(self):
        config = tiny()
        base = cell_key("pr", "ndpext", config, TINY)
        assert cell_key("bfs", "ndpext", config, TINY) != base
        assert cell_key("pr", "nexus", config, TINY) != base
        assert cell_key("pr", "ndpext", config, TINY.scaled(seed=2)) != base
        assert cell_key("pr", "ndpext", config, TINY, cache_key="v:1") != base
        assert (
            cell_key("pr", "ndpext", config, TINY, faults=FaultSchedule())
            != base
        )
        assert (
            cell_key(
                "pr",
                "ndpext",
                config,
                TINY,
                faults=FaultSchedule((UnitFailure(epoch=1, unit=0),)),
            )
            != cell_key("pr", "ndpext", config, TINY, faults=FaultSchedule())
        )

    def test_config_content_not_just_name(self):
        config = tiny()
        renamed_only = config.scaled(name=config.name, epoch_accesses=123)
        assert cell_key("pr", "ndpext", config, TINY) != cell_key(
            "pr", "ndpext", renamed_only, TINY
        )

    def test_stamp_changes_invalidate(self):
        config = tiny()
        assert cell_key("pr", "ndpext", config, TINY, stamp="a") != cell_key(
            "pr", "ndpext", config, TINY, stamp="b"
        )
        # The real stamp is deterministic within one process.
        assert code_stamp() == code_stamp()


class TestReportJson:
    def test_round_trip_is_exact(self, report):
        rebuilt = SimulationReport.from_json(
            json.loads(json.dumps(report.to_json()))
        )
        assert_reports_identical(report, rebuilt, skip=("timeline",))

    def test_float_repr_survives_json(self, report):
        # JSON floats round-trip by repr; cycles and ns must come back
        # bit-for-bit, not merely approximately.
        data = json.loads(json.dumps(report.to_json()))
        assert data["runtime_cycles"] == report.runtime_cycles
        assert data["per_epoch_cycles"] == report.per_epoch_cycles


class TestReportCache:
    def test_round_trip(self, tmp_path, report):
        cache = ReportCache(tmp_path)
        key = cell_key("pr", "ndpext", tiny(), TINY)
        cache.put(key, report)
        loaded = cache.get(key)
        assert loaded is not None
        assert_reports_identical(report, loaded, skip=("timeline",))
        assert cache.hits == 1

    def test_missing_entry_is_miss(self, tmp_path):
        cache = ReportCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_miss_not_crash(self, tmp_path, report):
        cache = ReportCache(tmp_path)
        key = cell_key("pr", "ndpext", tiny(), TINY)
        cache.put(key, report)
        path = cache._path(key)
        path.write_text("{ truncated garbage")
        assert cache.get(key) is None

    def test_unknown_schema_is_miss(self, tmp_path, report):
        cache = ReportCache(tmp_path)
        key = cell_key("pr", "ndpext", tiny(), TINY)
        cache.put(key, report)
        entry = json.loads(cache._path(key).read_text())
        entry["schema"] = 999
        cache._path(key).write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_unserializable_report_skipped(self, tmp_path):
        cache = ReportCache(tmp_path)

        class Weird:
            pass

        broken = SimulationReport(
            policy="p", workload="w", runtime_cycles=Weird()
        )
        cache.put("f" * 64, broken)  # must not raise
        assert cache.get("f" * 64) is None


class TestEnvKnobs:
    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert cache_root() == tmp_path / "x"

    def test_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert not cache_enabled()
        monkeypatch.setenv("REPRO_DISK_CACHE", "1")
        assert cache_enabled()
