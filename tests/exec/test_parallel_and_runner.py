"""Parallel fan-out bit-equivalence and the runner's two-layer cache."""

import pytest

from repro.core import NdpExtPolicy
from repro.exec.parallel import CellTask, fork_available, run_supervised
from repro.experiments.runner import Cell, ExperimentContext
from repro.sim import SimulationEngine, tiny
from repro.workloads import TINY, build
from tests.reports import assert_reports_identical


@pytest.fixture()
def context(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return ExperimentContext(preset="tiny")


GRID = [
    Cell("pr", "ndpext"),
    Cell("pr", "nexus"),
    Cell("hotspot", "ndpext"),
    Cell("pr", "ndpext"),  # duplicate: must dedup, not re-simulate
]


class TestRunCells:
    def test_parallel_bit_identical_to_serial(self):
        config = tiny()
        workload = build("pr", TINY)
        tasks = [
            CellTask(workload, config, NdpExtPolicy),
            CellTask(workload, config, lambda: NdpExtPolicy(mode="static")),
        ]
        serial = run_supervised(tasks, jobs=1).reports
        parallel = run_supervised(tasks, jobs=2).reports
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            assert_reports_identical(a, b, skip=("timeline",))

    def test_jobs_one_never_forks(self, monkeypatch):
        import multiprocessing

        def boom(*a, **kw):  # pragma: no cover - fails the test if hit
            raise AssertionError("pool created for jobs=1")

        monkeypatch.setattr(multiprocessing, "get_context", boom)
        config = tiny()
        workload = build("pr", TINY)
        outcome = run_supervised([CellTask(workload, config, NdpExtPolicy)], jobs=1)
        assert outcome.reports[0].runtime_cycles > 0


class TestRunMany:
    def test_matches_run_and_dedups(self, context):
        reports = context.run_many(GRID, jobs=1)
        assert len(reports) == len(GRID)
        # Duplicate cells resolve to the same object, simulated once.
        assert reports[0] is reports[3]
        # And agree with the serial scalar API.
        assert_reports_identical(
            reports[1], context.run("pr", "nexus"), skip=("timeline",)
        )

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_matches_serial(self, context, monkeypatch, tmp_path):
        serial = context.run_many(GRID, jobs=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        fresh = ExperimentContext(preset="tiny")
        parallel = fresh.run_many(GRID, jobs=2)
        for a, b in zip(serial, parallel):
            assert_reports_identical(a, b, skip=("timeline",))


class TestDiskLayer:
    def test_second_context_runs_zero_simulations(self, context, monkeypatch):
        context.run_many(GRID)
        assert context.cache_misses == 3  # unique cells simulated once

        # A fresh context sharing the cache dir must never touch the
        # engine: make simulation impossible and rerun everything.
        def boom(self, *a, **kw):
            raise AssertionError("engine invoked despite warm disk cache")

        monkeypatch.setattr(SimulationEngine, "run", boom)
        warm = ExperimentContext(preset="tiny")
        reports = warm.run_many(GRID)
        assert warm.cache_misses == 0
        assert warm.cache_hits_disk == 3
        for a, b in zip(context.run_many(GRID), reports):
            assert_reports_identical(a, b, skip=("timeline",))

    def test_options_edited_in_place_miss_the_cache(self, context):
        cell = Cell("pr", "ndpext", options={"mode": "partial", "partial_epochs": 2})
        context.run_many([cell])
        cell.options["partial_epochs"] = 3
        context.run_many([cell])
        assert context.cache_misses == 2
        assert context.cache_hits_mem == context.cache_hits_disk == 0

    def test_disk_cache_disabled_by_env(self, context, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        context.run("pr", "ndpext")
        fresh = ExperimentContext(preset="tiny")
        fresh.run("pr", "ndpext")
        assert fresh.cache_hits_disk == 0
        assert fresh.cache_misses == 1

    def test_recording_bypasses_caches(self, context):
        from repro.obs import Recorder

        context.run("pr", "ndpext")
        hits_before = context.cache_hits_mem + context.cache_hits_disk
        recorded = context.run(
            "pr", "ndpext", recorder=Recorder(workload="pr")
        )
        assert recorded.timeline is not None
        assert context.cache_hits_mem + context.cache_hits_disk == hits_before
        # The cached (trace-free) report is still served afterwards.
        assert context.run("pr", "ndpext").timeline is None


class TestContextHygiene:
    def test_clear_resets_state_and_counters(self, context):
        context.run("pr", "ndpext")
        assert context._reports and context._workloads
        context.clear()
        assert not context._reports and not context._workloads
        assert context.cache_misses == 0
        # Disk survives a clear(): the rerun is a disk hit, not a miss.
        context.run("pr", "ndpext")
        assert context.cache_hits_disk == 1
        assert context.cache_misses == 0

    def test_report_cache_is_bounded(self, context):
        context.max_reports = 2
        context.run("pr", "ndpext")
        context.run("pr", "nexus")
        context.run("pr", "jigsaw")
        assert len(context._reports) == 2
        # The oldest entry was evicted; rerunning is a disk hit.
        disk_before = context.cache_hits_disk
        context.run("pr", "ndpext")
        assert context.cache_hits_disk == disk_before + 1
