"""The persistent store: keys, round trips, invalidation, and one
corruption table over both codecs (reports and traces)."""

import inspect
import json

import pytest

from repro.baselines import NexusPolicy
from repro.core import NdpExtPolicy
from repro.exec.cache import (
    REPORT,
    SCHEMA,
    TRACE,
    ReportCache,
    Store,
    cache_enabled,
    cache_root,
    cell_key,
    code_stamp,
)
from repro.experiments.runner import POLICIES
from repro.faults import FaultSchedule, UnitFailure
from repro.sim import SimulationEngine, tiny
from repro.sim.metrics import SimulationReport
from repro.workloads import TINY, build
from repro.workloads.registry import _build_uncached
from tests.reports import assert_reports_identical, assert_workloads_identical


@pytest.fixture(scope="module")
def report():
    return SimulationEngine(tiny()).run(build("pr", TINY), NdpExtPolicy())


class TestCellKey:
    def test_stable_across_calls(self):
        config = tiny()
        assert cell_key("pr", NdpExtPolicy, config, TINY) == cell_key(
            "pr", NdpExtPolicy, config, TINY
        )

    def test_options_differing_in_one_value_get_distinct_keys(self):
        config = tiny()
        two = {"mode": "partial", "partial_epochs": 2}
        three = {"mode": "partial", "partial_epochs": 3}
        assert cell_key("pr", NdpExtPolicy, config, TINY, options=two) != cell_key(
            "pr", NdpExtPolicy, config, TINY, options=three
        )

    def test_equal_options_in_either_order_share_a_key(self):
        config = tiny()
        forward = {"mode": "partial", "partial_epochs": 2}
        backward = {"partial_epochs": 2, "mode": "partial"}
        assert list(forward) != list(backward)
        assert cell_key("pr", NdpExtPolicy, config, TINY, options=forward) == (
            cell_key("pr", NdpExtPolicy, config, TINY, options=backward)
        )

    def test_discriminates_every_ingredient(self):
        config = tiny()
        base = cell_key("pr", NdpExtPolicy, config, TINY)
        assert cell_key("bfs", NdpExtPolicy, config, TINY) != base
        assert cell_key("pr", NexusPolicy, config, TINY) != base
        assert cell_key("pr", NdpExtPolicy, config, TINY.scaled(seed=2)) != base
        assert (
            cell_key("pr", NdpExtPolicy, config, TINY, options={"mode": "static"})
            != base
        )
        assert (
            cell_key("pr", NdpExtPolicy, config, TINY, faults=FaultSchedule())
            != base
        )
        assert (
            cell_key(
                "pr",
                NdpExtPolicy,
                config,
                TINY,
                faults=FaultSchedule((UnitFailure(epoch=1, unit=0),)),
            )
            != cell_key("pr", NdpExtPolicy, config, TINY, faults=FaultSchedule())
        )

    def test_config_content_not_just_name(self):
        config = tiny()
        renamed_only = config.scaled(name=config.name, epoch_accesses=123)
        assert cell_key("pr", NdpExtPolicy, config, TINY) != cell_key(
            "pr", NdpExtPolicy, renamed_only, TINY
        )

    def test_renamed_config_shares_a_key(self):
        config = tiny()
        renamed = config.scaled(name=f"{config.name}-relabelled")
        assert cell_key("pr", NdpExtPolicy, config, TINY) == cell_key(
            "pr", NdpExtPolicy, renamed, TINY
        )

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_spelled_default_shares_a_key(self, name):
        config = tiny()
        factory = POLICIES[name]
        defaults = {
            param.name: param.default
            for param in inspect.signature(factory).parameters.values()
            if param.default is not param.empty
        }
        assert defaults
        plain = cell_key("pr", factory, config, TINY)
        for option, value in defaults.items():
            spelled = cell_key("pr", factory, config, TINY, options={option: value})
            assert spelled == plain, option
        assert cell_key("pr", factory, config, TINY, options=defaults) == plain

    def test_stamp_changes_invalidate(self):
        config = tiny()
        assert cell_key("pr", NdpExtPolicy, config, TINY, stamp="a") != cell_key(
            "pr", NdpExtPolicy, config, TINY, stamp="b"
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
        key = cell_key("pr", NdpExtPolicy, tiny(), TINY)
        cache.put(key, report)
        loaded = cache.get(key)
        assert loaded is not None
        assert_reports_identical(report, loaded, skip=("timeline",))
        assert cache.hits == 1

    def test_open_removes_old_layout_files(self, tmp_path, report):
        key = cell_key("pr", NdpExtPolicy, tiny(), TINY)
        ReportCache(tmp_path).put(key, report)
        # A report file of the layout before entry directories, in the
        # shard that holds the live entry.
        old = tmp_path / "reports" / key[:2] / f"{key}.json"
        old.write_text(json.dumps(report.to_json()))
        cache = ReportCache(tmp_path)
        assert not old.exists()
        loaded = cache.get(key)
        assert loaded is not None
        assert_reports_identical(report, loaded, skip=("timeline",))

    def test_missing_entry_is_miss(self, tmp_path):
        cache = ReportCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_miss_not_crash(self, tmp_path, report):
        cache = ReportCache(tmp_path)
        key = cell_key("pr", NdpExtPolicy, tiny(), TINY)
        cache.put(key, report)
        path = cache._dir(key, REPORT) / "report.json"
        path.write_text("{ truncated garbage")
        assert cache.get(key) is None

    def test_unknown_schema_is_miss(self, tmp_path, report):
        cache = ReportCache(tmp_path)
        key = cell_key("pr", NdpExtPolicy, tiny(), TINY)
        cache.put(key, report)
        meta_path = cache._dir(key, REPORT) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = 999
        meta_path.write_text(json.dumps(meta))
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


@pytest.fixture(scope="module")
def workload():
    return _build_uncached("pr", TINY)


def _flip_middle_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _set_schema(schema):
    def damage(entry, _payload):
        meta = json.loads((entry / "meta.json").read_text())
        meta["schema"] = schema
        (entry / "meta.json").write_text(json.dumps(meta))

    return damage


# codec id -> (codec, fixture holding a value, the payload file to damage,
# equality assertion)
CODECS = {
    "report": (
        REPORT,
        "report",
        "report.json",
        lambda a, b: assert_reports_identical(a, b, skip=("timeline",)),
    ),
    "trace": (TRACE, "workload", "addr.npy", assert_workloads_identical),
}

# damage id -> entry mutation; every one of these must be quarantined.
CORRUPTIONS = {
    "undecodable-meta": lambda entry, _payload: (entry / "meta.json").write_text(
        "{ not json"
    ),
    "truncated-payload": lambda entry, payload: (entry / payload).write_bytes(
        (entry / payload).read_bytes()[:100]
    ),
    "same-size-flip": lambda entry, payload: _flip_middle_byte(entry / payload),
    "unknown-schema": _set_schema("three"),
    "future-schema": _set_schema(SCHEMA + 1),
}


class TestCorruptionTable:
    """One rule set for both codecs: damage is quarantined, an older
    schema is a stale miss that the next ``save`` replaces."""

    def _stored(self, request, tmp_path, codec_id):
        codec, fixture, payload, same = CODECS[codec_id]
        value = request.getfixturevalue(fixture)
        store = Store(tmp_path)
        key = "ab" + "0" * 62
        store.save(key, value, codec)
        return store, key, codec, value, payload, same

    @pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("codec_id", sorted(CODECS))
    def test_damage_is_quarantined(self, request, tmp_path, codec_id, damage):
        store, key, codec, value, payload, same = self._stored(
            request, tmp_path, codec_id
        )
        entry = store._dir(key, codec)
        CORRUPTIONS[damage](entry, payload)
        assert store.load(key, codec) is None
        assert (store.quarantined, store.misses) == (1, 1)
        assert not entry.exists()
        assert (tmp_path / "quarantine" / key / "meta.json").exists()
        # The slot is free again: the next save publishes a good entry.
        store.save(key, value, codec)
        same(value, store.load(key, codec))

    @pytest.mark.parametrize("codec_id", sorted(CODECS))
    def test_older_schema_is_stale_miss_replaced(self, request, tmp_path, codec_id):
        store, key, codec, value, payload, same = self._stored(
            request, tmp_path, codec_id
        )
        entry = store._dir(key, codec)
        _set_schema(SCHEMA - 1)(entry, payload)
        assert store.load(key, codec) is None
        assert (store.quarantined, store.misses) == (0, 1)
        store.save(key, value, codec)  # publishes over the stale entry
        same(value, store.load(key, codec))
        assert store.hits == 1
        assert not (tmp_path / "quarantine").exists()
        # Neither the temp directory nor the displaced entry is left over.
        assert [p.name for p in entry.parent.iterdir()] == [key]


class TestEnvKnobs:
    def test_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
        assert cache_root() == tmp_path / "x"

    def test_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert not cache_enabled()
        monkeypatch.setenv("REPRO_DISK_CACHE", "1")
        assert cache_enabled()
